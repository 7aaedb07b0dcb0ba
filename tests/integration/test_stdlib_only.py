"""The package runs on the Python standard library alone.

A fresh interpreter in which importing numpy, scipy or networkx raises
``ImportError`` imports ``repro`` and every ``[project.scripts]``
module, then runs the paper's COM,RET,COM pipeline and a pinned
retiming.  A stray import of any of the three would also bring their
import time back into every process start.
"""

import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))

BLOCKED = ("numpy", "scipy", "networkx")

PROGRAM = """
import importlib
import sys

for name in {blocked!r}:
    sys.modules[name] = None  # importing it now raises ImportError

import repro

for module, function in {scripts!r}:
    assert callable(getattr(importlib.import_module(module), function))

from repro.core import TBVEngine
from repro.netlist import s27
from repro.transform import retime

assert TBVEngine("COM,RET,COM").run(s27()).reports
net = s27()
pinned = retime(net, fixed=[net.inputs[0]])
assert pinned.info["lags"][net.inputs[0]] == 0
print("ok")
"""


def console_scripts():
    """``(module, function)`` of each ``[project.scripts]`` entry."""
    with open(os.path.join(ROOT, "pyproject.toml")) as handle:
        text = handle.read()
    section = text.split("[project.scripts]", 1)[1].split("\n[", 1)[0]
    return re.findall(r'^\S+\s*=\s*"([\w.]+):(\w+)"', section, re.M)


def test_runs_without_numpy_scipy_networkx():
    scripts = console_scripts()
    assert scripts, "no [project.scripts] entries parsed"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")] + ([env["PYTHONPATH"]]
                                       if env.get("PYTHONPATH") else []))
    program = PROGRAM.format(blocked=BLOCKED, scripts=scripts)
    proc = subprocess.run([sys.executable, "-c", program], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"

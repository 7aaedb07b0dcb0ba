"""No output depends on hash order.

Gate types hash by identity, and strings hash by a per-process seed;
neither may reach a table cell or a verdict.  Two fresh interpreters,
one with ``PYTHONHASHSEED=0`` and one with ``PYTHONHASHSEED=1``,
render the Table 1 rows of S27, S298 and S953 and the ``prove()``
verdicts of two properties, and must print the same text.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))

PROGRAM = """
from repro.core import prove
from repro.experiments import runner
from repro.gen import iscas89
from repro.gen.protocols import fifo_with_flags, round_robin_arbiter

profiles = [p for p in iscas89.profiles()
            if p.name in ("S27", "S298", "S953")]
rows = runner.run_table(iscas89.generate, profiles, scale=0.5,
                        max_registers=400)
print(runner.format_table(rows, "Table 1"))
for net, target in (round_robin_arbiter(4), fifo_with_flags(3, 2)):
    result = prove(net, target)
    print(result.status, result.method, result.bound, result.degraded)
"""


def render(seed):
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env["PYTHONHASHSEED"] = seed
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")] + ([env["PYTHONPATH"]]
                                       if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", PROGRAM], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_tables_and_verdicts_do_not_depend_on_hash_seed():
    text = render("0")
    assert "S953" in text and "proven" in text
    assert render("1") == text

"""Property tests: transformations keep bounds sound end-to-end.

For every random netlist and every sound strategy pipeline, the
back-translated bound must dominate the exact first-hit time, and
trace-equivalence-preserving engines must not change target behaviour.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import PROVEN, TBVEngine
from repro.diameter import first_hit_time
from repro.sim import BitParallelSimulator
from repro.transform import SweepConfig, redundancy_removal, retime
from repro.transform.redundancy import _candidate_classes, \
    _StepNumbering, inductive_classes

from .strategies import named_stimulus, small_netlists

SETTINGS = settings(max_examples=30, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow,
                                           HealthCheck.data_too_large])

FAST = SweepConfig(sim_cycles=6, sim_width=32, conflict_budget=200)


@SETTINGS
@given(small_netlists())
def test_com_preserves_target_traces(net):
    result = redundancy_removal(net, config=FAST)
    target = net.targets[0]
    mapped = result.step.target_map[target]
    tr_a = BitParallelSimulator(net).run(
        10, named_stimulus(net), observe=[target])
    tr_b = BitParallelSimulator(result.netlist).run(
        10, named_stimulus(result.netlist), observe=[mapped])
    assert tr_a[target] == tr_b[mapped]


def _enumerate_step(net):
    """Every case COM's SAT queries range over, as one bit-parallel
    simulation.

    Bit ``k`` of a simulation of width 2**(R + 2I) picks a frame-0
    state (the low R bits of ``k``) and the frame-0 and frame-1 inputs
    (the next 2I bits).  Returns the simulator, the frame-0 and
    frame-1 values of every vertex, and the mask of the cases whose
    frame-0 state is initial.
    """
    regs, ins = net.state_elements, net.inputs
    nregs, nins = len(regs), len(ins)
    width = 1 << (nregs + 2 * nins)
    sim = BitParallelSimulator(net, width=width)

    def pattern(bit):
        return sum(1 << k for k in range(width) if k >> bit & 1)

    state0 = {r: pattern(j) for j, r in enumerate(regs)}
    in0 = {v: pattern(nregs + j) for j, v in enumerate(ins)}
    in1 = {v: pattern(nregs + nins + j) for j, v in enumerate(ins)}
    frame0, state1 = sim.step(state0, in0)
    frame1 = sim.evaluate(state1, in1)

    def state_at(state, k):
        return tuple(state[r] >> k & 1 for r in regs)

    # The frame-0 inputs also range over every initial-value input.
    init = sim.initial_state(in0)
    initial = {state_at(init, k) for k in range(width)}
    base = sum(1 << k for k in range(width)
               if state_at(state0, k) in initial)
    return sim, frame0, frame1, base


def _holds(sim, frame0, classes):
    """The cases in which every class holds on frame 0."""
    holds = sim.mask
    for cls in classes:
        for v in cls[1:]:
            holds &= ~(frame0[cls[0]] ^ frame0[v])
    return holds


def _reference_classes(net, classes):
    """The coarsest refinement of ``classes`` that holds in every
    initial state and is inductive, by explicit-state enumeration
    (:func:`_enumerate_step`)."""
    sim, frame0, frame1, base = _enumerate_step(net)

    def split(partition, values, mask):
        out = []
        for cls in partition:
            groups = {}
            for v in cls:
                groups.setdefault(values[v] & mask, []).append(v)
            out.extend(g for g in groups.values() if len(g) > 1)
        return sorted(out)

    partition = split(classes, frame0, base)
    while True:
        refined = split(partition, frame1, _holds(sim, frame0, partition))
        if refined == partition:
            return partition
        partition = refined


@SETTINGS
@given(small_netlists(), st.integers(1, 4), st.sampled_from([1, 2, 8]))
def test_sweep_refinement_matches_explicit_state_reference(
        net, sim_cycles, sim_width):
    # Short, narrow simulations leave coarse candidate classes, so both
    # the base case and the step fixpoint have splitting to do.
    config = SweepConfig(sim_cycles=sim_cycles, sim_width=sim_width,
                         conflict_budget=None)
    candidates = _candidate_classes(net, config)
    got = inductive_classes(net, candidates, config)
    assert all(cls == sorted(cls) for cls in got)
    assert sorted(got) == _reference_classes(net, candidates)


@SETTINGS
@given(small_netlists(), st.data())
def test_step_numbering_implies_frame1_equality(net, data):
    # COM keeps a step pair without a query when both vertices get one
    # frame-1 number.  Any two vertices that do must be equal on frame 1
    # in every case where each class holds on frame 0, whether the
    # classes come from simulation or are drawn at random.
    vids = sorted(net)
    if data.draw(st.booleans(), label="simulation classes"):
        config = SweepConfig(
            sim_cycles=data.draw(st.integers(1, 4), label="cycles"),
            sim_width=data.draw(st.sampled_from([1, 2, 8]), label="width"))
        classes = _candidate_classes(net, config)
    else:
        classes, used = [], set()
        for _ in range(data.draw(st.integers(0, 3), label="classes")):
            drawn = data.draw(st.lists(st.sampled_from(vids), min_size=2,
                                       max_size=3, unique=True))
            cls = sorted(set(drawn) - used)
            used.update(cls)
            if len(cls) > 1:
                classes.append(cls)
    numbers = _StepNumbering(net).frame1(classes)
    sim, frame0, frame1, _ = _enumerate_step(net)
    holds = _holds(sim, frame0, classes)
    first = {}
    for vid in vids:
        rep = first.setdefault(numbers[vid], vid)
        assert (frame1[rep] ^ frame1[vid]) & holds == 0, (rep, vid)


@SETTINGS
@given(small_netlists(allow_nondet_init=False))
def test_retime_trace_equivalent_modulo_lag(net):
    result = retime(net)
    out = result.netlist
    target = net.targets[0]
    lag = result.step.lags[target]
    mapped = result.step.target_map[target]
    input_lags = result.info["input_lags"]

    import zlib

    def ret_stim(vid, cycle):
        name = out.gate(vid).name or ""
        if name.startswith("__stump"):
            time_str, _, label = name[len("__stump"):].partition("_")
            return (zlib.crc32(f"{label}:{time_str}:0".encode()) >> 3) & 1
        t = cycle + input_lags.get(name, 0)
        return (zlib.crc32(f"{name}:{t}:0".encode()) >> 3) & 1

    cycles = 8
    tr_a = BitParallelSimulator(net).run(
        cycles + lag, named_stimulus(net), observe=[target])
    tr_b = BitParallelSimulator(out).run(
        cycles, ret_stim, observe=[mapped])
    assert tr_b[mapped] == tr_a[target][lag:lag + cycles]


@SETTINGS
@given(small_netlists(max_registers=3, max_inputs=2),
       st.sampled_from(["COM", "COM,RET,COM", "RET"]))
def test_tbv_bound_sound_for_all_strategies(net, strategy):
    target = net.targets[0]
    hit = first_hit_time(net, target)
    report = TBVEngine(strategy, sweep_config=FAST).run(net).reports[0]
    if report.status == PROVEN:
        assert hit is None
    elif hit is not None:
        assert report.bound is not None and hit < report.bound


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(small_netlists(max_registers=3, max_inputs=2))
def test_com_output_formally_equivalent(net):
    # Machine-checked Theorem 1 premise: the COM result is sequentially
    # equivalent to the original, decided by a miter (not simulation).
    from repro.transform import EQUIVALENT, UNDECIDED, check_equivalence

    result = redundancy_removal(net, config=FAST)
    mapped = result.step.target_map[net.targets[0]]
    verdict = check_equivalence(
        net, result.netlist, pairs=[(net.targets[0], mapped)],
        sweep_config=FAST, max_depth=16, induction_k=4)
    assert verdict.verdict in (EQUIVALENT, UNDECIDED)
    assert verdict.verdict != "different"


@SETTINGS
@given(small_netlists(max_registers=3, max_inputs=2))
def test_proven_targets_really_unreachable(net):
    target = net.targets[0]
    report = TBVEngine("COM", sweep_config=FAST).run(net).reports[0]
    if report.status == PROVEN:
        assert first_hit_time(net, target) is None

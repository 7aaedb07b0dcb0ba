"""Property tests for AIG conversion, AIGER round-trips, symbolic
reachability and localization refinement on random netlists."""

from hypothesis import HealthCheck, given, settings

from repro.diameter import first_hit_time, initial_depth
from repro.diameter.symbolic import symbolic_first_hit, \
    symbolic_initial_depth
from repro.netlist import aig_to_netlist, netlist_to_aig, parse_aiger, \
    write_aiger
from repro.sim import BitParallelSimulator
from repro.transform.localize_cegar import localization_refinement
from repro.unroll import replay_counterexample

from .strategies import named_stimulus, small_netlists

SETTINGS = settings(max_examples=30, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow,
                                           HealthCheck.data_too_large])


@SETTINGS
@given(small_netlists(allow_nondet_init=False))
def test_aig_round_trip_preserves_target_traces(net):
    aig, lit_of = netlist_to_aig(net)
    back, vertex_of = aig_to_netlist(aig)
    target = net.targets[0]
    # Map the target through the AIG literal (modulo inversion).
    lit = lit_of[target]
    tr_a = BitParallelSimulator(net).run(8, named_stimulus(net),
                                         observe=[target])
    node_vertex = vertex_of[lit >> 1]
    tr_b = BitParallelSimulator(back).run(8, named_stimulus(back),
                                          observe=[node_vertex])
    expected = [v ^ (lit & 1) for v in tr_b[node_vertex]]
    assert tr_a[target] == expected


@SETTINGS
@given(small_netlists(allow_nondet_init=False))
def test_aiger_text_round_trip(net):
    aig, _ = netlist_to_aig(net)
    again = parse_aiger(write_aiger(aig))
    assert len(again.inputs) == len(aig.inputs)
    assert len(again.latches) == len(aig.latches)
    # Targets that are not the outputs travel as bad-state literals.
    assert len(again.bad) == len(aig.bad) == \
        (0 if net.targets == net.outputs else len(net.targets))
    # Behavioural agreement over a few cycles of a fixed stimulus.
    state_a = state_b = None
    for cycle in range(5):
        ins_a = {n: (cycle + i) % 2 for i, n in enumerate(aig.inputs)}
        ins_b = {n: (cycle + i) % 2 for i, n in enumerate(again.inputs)}
        va, state_a = aig.evaluate(ins_a, state_a)
        vb, state_b = again.evaluate(ins_b, state_b)
        for out_a, out_b in zip(aig.outputs + aig.bad,
                                again.outputs + again.bad):
            assert aig.lit_value(va, out_a) == again.lit_value(vb, out_b)


@SETTINGS
@given(small_netlists(allow_nondet_init=False))
def test_blif_round_trip_preserves_behaviour(net):
    from repro.netlist import parse_blif, write_blif

    try:
        text = write_blif(net)
    except Exception:
        return  # non-expressible construct (complex init cone)
    again = parse_blif(text)
    target = net.targets[0]
    name = net.gate(target).name
    mapped = again.by_name(name)
    tr_a = BitParallelSimulator(net).run(6, named_stimulus(net),
                                         observe=[target])
    tr_b = BitParallelSimulator(again).run(6, named_stimulus(again),
                                           observe=[mapped])
    assert tr_a[target] == tr_b[mapped]


@SETTINGS
@given(small_netlists(max_registers=3, max_inputs=2))
def test_symbolic_oracle_agrees_with_explicit(net):
    assert symbolic_initial_depth(net) == initial_depth(net)
    target = net.targets[0]
    assert symbolic_first_hit(net, target) == first_hit_time(net, target)


@SETTINGS
@given(small_netlists(max_registers=3, max_inputs=2))
def test_localization_refinement_verdicts_sound(net):
    target = net.targets[0]
    hit = first_hit_time(net, target)
    result = localization_refinement(net, target, max_depth=40)
    if result.status == "proven":
        assert hit is None
    elif result.status == "falsified":
        assert hit is not None
        assert result.counterexample.depth == hit
        assert replay_counterexample(net, target, result.counterexample)

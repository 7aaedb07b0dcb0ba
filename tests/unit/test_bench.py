"""Unit tests for BENCH format I/O."""

import pytest

from repro.netlist import (
    GateType,
    NetlistError,
    parse_bench,
    s27,
    write_bench,
)
from repro.sim import BitParallelSimulator


class TestParseBench:
    def test_s27_shape(self):
        net = s27()
        assert len(net.inputs) == 4
        assert net.num_registers() == 3
        assert len(net.outputs) == 1
        assert net.targets == net.outputs

    def test_comments_and_blanks_ignored(self):
        net = parse_bench("""
            # a comment
            INPUT(a)

            OUTPUT(b)
            b = NOT(a)  # trailing comment
        """)
        assert len(net.inputs) == 1
        assert net.gate(net.outputs[0]).type is GateType.NOT

    def test_out_of_order_definitions(self):
        net = parse_bench("""
            INPUT(a)
            OUTPUT(c)
            c = NOT(b)
            b = BUFF(a)
        """)
        assert net.gate(net.outputs[0]).type is GateType.NOT

    def test_dff_creates_register_with_zero_init(self):
        net = parse_bench("""
            INPUT(a)
            OUTPUT(q)
            q = DFF(a)
        """)
        reg = net.registers[0]
        init = net.gate(reg).fanins[1]
        assert net.gate(init).type is GateType.CONST0

    def test_register_self_loop(self):
        net = parse_bench("""
            OUTPUT(q)
            q = DFF(qn)
            qn = NOT(q)
        """)
        assert net.num_registers() == 1

    def test_undefined_signal_raises(self):
        with pytest.raises(NetlistError):
            parse_bench("INPUT(a)\nOUTPUT(b)\nb = NOT(zzz)\n")

    def test_unknown_gate_raises(self):
        with pytest.raises(NetlistError):
            parse_bench("INPUT(a)\nOUTPUT(b)\nb = FROB(a)\n")

    def test_garbage_line_raises(self):
        with pytest.raises(NetlistError):
            parse_bench("this is not bench\n")

    @pytest.mark.parametrize("text", ["", "# only a comment\n\n"])
    def test_text_without_declarations_raises(self, text):
        with pytest.raises(NetlistError, match="no INPUT, OUTPUT or gate"):
            parse_bench(text)


class TestWriteBench:
    def test_round_trip_s27(self):
        net = s27()
        text = write_bench(net)
        again = parse_bench(text, name="s27rt")
        assert len(again.inputs) == len(net.inputs)
        assert again.num_registers() == net.num_registers()
        # Behavioural check: same traces under the same named stimulus.
        def stim(target_net):
            def f(vid, cycle):
                return (hash((target_net.gate(vid).name, cycle)) >> 2) & 1
            return f
        tr1 = BitParallelSimulator(net).run(
            8, stim(net), observe=[net.targets[0]])
        tr2 = BitParallelSimulator(again).run(
            8, stim(again), observe=[again.targets[0]])
        assert tr1[net.targets[0]] == tr2[again.targets[0]]

    def test_rejects_mux(self):
        from repro.netlist import NetlistBuilder
        b = NetlistBuilder()
        s, a, c = b.input("s"), b.input("a"), b.input("c")
        m = b.net.add_gate(GateType.MUX, (s, a, c))
        b.net.add_output(m)
        with pytest.raises(NetlistError):
            write_bench(b.net)

    def test_rejects_nonzero_init(self):
        from repro.netlist import NetlistBuilder
        b = NetlistBuilder()
        r = b.register(None, init=b.const1, name="r")
        b.connect(r, r)
        b.net.add_output(r)
        with pytest.raises(NetlistError):
            write_bench(b.net)

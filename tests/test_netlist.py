import pytest
from hypothesis import given, strategies as st

from qdisim.adders import AdderVariant, build_full_adder, build_rca
from qdisim.cells import default_delay_table
from qdisim.netlist import (
    Gate,
    GATE_ARITY,
    GATE_TERMS,
    STATEFUL_KINDS,
    GateKind,
    Netlist,
    NetlistBuilder,
    NetlistParseError,
    gate_census,
    parse_netlist,
    serialize_netlist,
    validate,
)
from qdisim.sim import Simulation


def test_parse_single_gate():
    n = parse_netlist("input a\ninput b\noutput y\ngate g1 OR2 a b y")
    assert len(n.gates) == 1
    assert n.gates[0] == Gate("g1", GateKind.OR2, ("a", "b"), "y")
    assert n.primary_inputs == ("a", "b")
    assert n.primary_outputs == ("y",)


def test_parse_unknown_kind():
    with pytest.raises(NetlistParseError, match="line 1"):
        parse_netlist("gate g1 XOR a b y")


def test_parse_duplicate_gate_id():
    text = "input a\ngate g1 INV a x\ngate g1 INV a z"
    with pytest.raises(NetlistParseError, match="duplicate"):
        parse_netlist(text)


def test_parse_duplicate_pair():
    with pytest.raises(NetlistParseError, match="^line 2: duplicate pair 'p'$"):
        parse_netlist("pair p a b\npair p a c")


def test_parse_comments_and_pairs():
    n = parse_netlist("# a comment\ninput x1\ninput x0\npair x x1 x0\n")
    assert n.port_map == {"x": ("x1", "x0")}


def test_serialize_lone_input():
    assert serialize_netlist(Netlist(primary_inputs=("a",))) == "input a\n"


def test_serialize_deterministic():
    fa = build_full_adder(AdderVariant.EARLY_OUTPUT)
    assert serialize_netlist(fa) == serialize_netlist(fa)


@pytest.mark.parametrize("variant", list(AdderVariant))
def test_round_trip_over_adder_corpus(variant):
    for netlist in (build_full_adder(variant), build_rca(variant, 3).netlist):
        text = serialize_netlist(netlist)
        assert serialize_netlist(parse_netlist(text)) == text


def test_round_trip_wide_early_output_rca():
    text = serialize_netlist(build_rca(AdderVariant.EARLY_OUTPUT, 32).netlist)
    assert serialize_netlist(parse_netlist(text)) == text


_NAMES = st.text("abcxyz019._[]-", min_size=1, max_size=5)


@st.composite
def _valid_netlists(draw):
    """Two or more inputs, gates of every kind over earlier nets (so no
    cycles), any outputs and ports, all under random names."""
    kinds = draw(st.lists(st.sampled_from(list(GateKind)), max_size=12))
    names = draw(st.lists(_NAMES, min_size=2 + len(kinds), max_size=5 + len(kinds), unique=True))
    inputs, outputs = names[:len(names) - len(kinds)], names[len(names) - len(kinds):]
    gids = draw(st.lists(_NAMES, min_size=len(kinds), max_size=len(kinds), unique=True))
    nets = list(inputs)
    gates = []
    for gid, kind, out in zip(gids, kinds, outputs):
        ins = draw(st.lists(st.sampled_from(nets), min_size=GATE_ARITY[kind], max_size=GATE_ARITY[kind]))
        gates.append(Gate(gid, kind, tuple(ins), out))
        nets.append(out)
    rails = st.lists(st.sampled_from(nets), min_size=2, max_size=2, unique=True).map(tuple)
    ports = draw(st.dictionaries(_NAMES, rails, max_size=4))
    return Netlist(tuple(gates), tuple(inputs), tuple(draw(st.lists(st.sampled_from(nets), max_size=4))), ports)


@given(_valid_netlists())
def test_random_netlists_round_trip(netlist):
    text = serialize_netlist(netlist)
    again = parse_netlist(text)
    assert serialize_netlist(again) == text
    assert set(again.gates) == set(netlist.gates)
    assert (again.primary_inputs, again.primary_outputs, again.port_map) == (
        netlist.primary_inputs, netlist.primary_outputs, netlist.port_map)


_NETLIST_TOKENS = st.one_of(
    st.sampled_from(["input", "output", "gate", "pair", "#"] + [k.value for k in GateKind]),
    _NAMES,
    st.text(st.characters(blacklist_categories=("Cs", "Zs", "Zl", "Zp", "Cc")), min_size=1, max_size=4),
)


@given(st.lists(st.lists(_NETLIST_TOKENS, max_size=9).map(" ".join), max_size=6).map("\n".join))
def test_parse_raises_only_parse_errors(text):
    try:
        parse_netlist(text)
    except NetlistParseError:
        pass


def test_validate_well_formed_adder():
    assert validate(build_full_adder(AdderVariant.DIMS_STRONG)).ok


def test_validate_double_driver():
    n = parse_netlist("input a\ninput b\ngate g1 INV a y\ngate g2 INV b y")
    report = validate(n)
    assert any(v.rule == "single-driver" and v.subject == "y" for v in report.violations)


def test_validate_arity():
    n = Netlist((Gate("g1", GateKind.AO22, ("a", "b", "c"), "y"),), ("a", "b", "c"))
    report = validate(n)
    assert any(v.rule == "arity" and v.subject == "g1" for v in report.violations)


def test_gate_table_pins_arity_and_terms():
    assert GATE_ARITY == {
        GateKind.INV: 1, GateKind.AND2: 2, GateKind.OR2: 2, GateKind.C2: 2,
        GateKind.AO21: 3, GateKind.C3: 3, GateKind.AO22: 4, GateKind.AO222: 6,
    }
    assert set(GATE_TERMS) == set(GateKind) - {GateKind.INV}
    assert all(len(GATE_TERMS[kind]) == 1 for kind in STATEFUL_KINDS)


@pytest.mark.parametrize("line,message", [
    ("gate z C2 a z", "line 2: C2 takes 2 inputs, got 1"),
    ("gate g1 AO22 a b a y", "line 2: AO22 takes 4 inputs, got 3"),
])
def test_parse_rejects_wrong_arity(line, message):
    with pytest.raises(NetlistParseError, match=f"^{message}$"):
        parse_netlist(f"input a\n{line}\ninput b")


def test_validate_dangling_net():
    n = parse_netlist("input a\ngate g1 AND2 a ghost y")
    report = validate(n)
    assert any(v.rule == "dangling-net" and v.subject == "ghost" for v in report.violations)


def test_validate_port_map_integrity():
    n = Netlist(primary_inputs=("a",), port_map={"p": ("a", "a")})
    assert any(v.rule == "port-map" for v in validate(n).violations)
    n2 = Netlist(primary_inputs=("a",), port_map={"p": ("a", "nope")})
    assert any(v.rule == "port-map" for v in validate(n2).violations)


def test_validate_combinational_cycle():
    n = parse_netlist("input a\ngate g1 OR2 a y y")
    assert any(v.rule == "combinational-cycle" for v in validate(n).violations)


def _or_chain(length, closed):
    """OR2 gates c0 -> c1 -> ... each also reading input a; `closed` feeds
    the last gate's output back into the first."""
    first = f"c{length - 1}" if closed else "a"
    gates = [Gate("c0", GateKind.OR2, ("a", first), "c0")]
    gates += [Gate(f"c{i}", GateKind.OR2, ("a", f"c{i - 1}"), f"c{i}") for i in range(1, length)]
    return Netlist(tuple(gates), ("a",), (f"c{length - 1}",))


def test_validate_long_chain_without_recursion():
    assert validate(_or_chain(5000, closed=False)).ok


def test_validate_flags_long_loop():
    report = validate(_or_chain(5000, closed=True))
    assert [(v.rule, v.subject) for v in report.violations] == [("combinational-cycle", "a")]


def test_serialize_refuses_invalid():
    n = parse_netlist("input a\ngate g1 AND2 a ghost y")
    with pytest.raises(ValueError, match="dangling"):
        serialize_netlist(n)


def test_census_early_output_full_adder():
    cen = gate_census(build_full_adder(AdderVariant.EARLY_OUTPUT))
    assert cen.total == 10
    assert cen.counts[GateKind.AO22] == 4
    assert cen.counts[GateKind.C2] == 4
    assert cen.counts[GateKind.OR2] == 2
    assert cen.complex_total == 8


def test_census_dims_strong_full_adder():
    cen = gate_census(build_full_adder(AdderVariant.DIMS_STRONG))
    assert cen.counts[GateKind.C3] == 8
    assert cen.counts[GateKind.OR2] == 12
    assert cen.total == 20


def test_census_empty():
    cen = gate_census(Netlist())
    assert cen.total == 0
    assert all(c == 0 for c in cen.counts.values())


def test_census_totals_match_gate_records():
    for variant in AdderVariant:
        net = build_rca(variant, 5).netlist
        assert gate_census(net).total == len(net.gates)


def expand_c2_feedback(n: Netlist) -> Netlist:
    """Rewrite each C2 into an AO222 with its output fed back:
    z = x*y + x*z + y*z.  Behaviorally equivalent, but with combinational
    cycles, so it no longer passes validate()."""
    gates = []
    for g in n.gates:
        if g.kind is GateKind.C2:
            x, y = g.inputs
            z = g.output
            gates.append(Gate(g.gid, GateKind.AO222, (x, y, x, z, y, z), z))
        else:
            gates.append(g)
    return Netlist(tuple(gates), n.primary_inputs, n.primary_outputs, dict(n.port_map))


def test_c2_feedback_expansion_matches_primitive():
    text = "input x\ninput y\noutput z\ngate z C2 x y z\n"
    primitive = parse_netlist(text)
    expanded = expand_c2_feedback(primitive)
    assert expanded.gates[0].kind is GateKind.AO222
    assert any(v.rule == "combinational-cycle" for v in validate(expanded).violations)
    table = default_delay_table()
    # identical input sequences, identical settled outputs
    sequence = [(1, 0), (1, 1), (0, 1), (0, 0), (1, 1), (1, 0)]
    s1 = Simulation(primitive, table)
    s2 = Simulation(expanded, table)
    for xv, yv in sequence:
        for s in (s1, s2):
            s.apply_inputs([("x", xv), ("y", yv)])
            s.run_until_quiescent()
        assert s1.net_value("z") == s2.net_value("z")


def test_tree_names_inner_gates_by_round():
    nb = NetlistBuilder()
    assert nb.tree(GateKind.OR2, ["x"], "y", "t") == "x"  # one input: no gate
    assert nb.tree(GateKind.C2, ["a", "b", "c", "d", "e"], "y", "t") == "y"
    gates = {g.output: g for g in nb.build().gates}
    assert {net: g.inputs for net, g in gates.items()} == {
        "t0.0": ("a", "b"),
        "t0.1": ("c", "d"),
        "t1.0": ("t0.0", "t0.1"),
        "y": ("t1.0", "e"),
    }
    assert {g.kind for g in gates.values()} == {GateKind.C2}

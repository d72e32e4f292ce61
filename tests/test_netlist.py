import pytest
from hypothesis import given, settings, strategies as st

from qdisim.adders import AdderVariant, build_rca
from qdisim.cells import default_delay_table
from qdisim.netlist import (
    Gate,
    GATE_ARITY,
    GATE_TERMS,
    STATEFUL_KINDS,
    GateKind,
    Netlist,
    NetlistBuilder,
    NetlistError,
    NetlistParseError,
    gate_census,
    parse_netlist,
    serialize_netlist,
    validate,
)
from qdisim.sim import Simulation, _WavePlan

from netlist_utils import nets

TABLE = default_delay_table()

# the rules the event engine refuses too, those only validate has and those
# only the wave plan has; validate and the plan share the rest (port-map,
# single-driver, combinational-cycle)
COMPILE_RULES = {"unknown-kind", "arity"}
VALIDATE_ONLY = {"name", "duplicate-gate-id", "duplicate-input", "duplicate-output", "dangling-net"}
PLAN_ONLY = {"inverter", "cycle", "shared-rail"}


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


def test_parse_duplicate_input():
    with pytest.raises(NetlistParseError, match="^line 2: duplicate input 'a'$"):
        parse_netlist("input a\ninput a\noutput y\ngate g OR2 a a y")


def test_parse_duplicate_output():
    with pytest.raises(NetlistParseError, match="^line 3: duplicate output 'y'$"):
        parse_netlist("input a\noutput y\noutput y\ngate g OR2 a a y")


def test_parse_comments_and_pairs():
    n = parse_netlist("# a comment\ninput x1\ninput x0\npair x x1 x0\n")
    assert n.port_map == {"x": ("x1", "x0")}


def test_serialize_lone_input():
    assert serialize_netlist(Netlist(primary_inputs=("a",))) == "input a\n"


def test_serialize_deterministic():
    fa = build_rca(AdderVariant.EARLY_OUTPUT, 1).netlist
    assert serialize_netlist(fa) == serialize_netlist(fa)


@pytest.mark.parametrize("variant", list(AdderVariant))
def test_round_trip_over_adder_corpus(variant):
    for n in (1, 3):
        text = serialize_netlist(build_rca(variant, n).netlist)
        assert serialize_netlist(parse_netlist(text)) == text


def test_round_trip_wide_early_output_rca():
    text = serialize_netlist(build_rca(AdderVariant.EARLY_OUTPUT, 32).netlist)
    assert serialize_netlist(parse_netlist(text)) == text


_NAMES = st.text("abcxyz019._[]-", min_size=1, max_size=5)
# also names the text format cannot hold: empty, or with whitespace (line
# breaks included) or '#'
_ANY_NAMES = st.one_of(_NAMES, st.text("ab# \t\n\x0b\x1c\x85\u2028", max_size=3))


@st.composite
def _valid_netlists(draw, names=_NAMES):
    """Two or more inputs, gates of every kind over earlier nets (so no
    cycles), distinct outputs and any ports, all drawn from `names`."""
    kinds = draw(st.lists(st.sampled_from(list(GateKind)), max_size=12))
    drawn = draw(st.lists(names, min_size=2 + len(kinds), max_size=5 + len(kinds), unique=True))
    inputs, outputs = drawn[:len(drawn) - len(kinds)], drawn[len(drawn) - len(kinds):]
    gids = draw(st.lists(names, min_size=len(kinds), max_size=len(kinds), unique=True))
    nets = list(inputs)
    gates = []
    for gid, kind, out in zip(gids, kinds, outputs):
        ins = draw(st.lists(st.sampled_from(nets), min_size=GATE_ARITY[kind], max_size=GATE_ARITY[kind]))
        gates.append(Gate(gid, kind, tuple(ins), out))
        nets.append(out)
    rails = st.lists(st.sampled_from(nets), min_size=2, max_size=2, unique=True).map(tuple)
    ports = draw(st.dictionaries(names, rails, max_size=4))
    return Netlist(tuple(gates), tuple(inputs), tuple(draw(st.lists(st.sampled_from(nets), max_size=4, unique=True))), ports)


@settings(max_examples=100)  # about half draw only readable names
@given(st.one_of(_valid_netlists(), _valid_netlists(_ANY_NAMES)))
def test_random_netlists_round_trip(netlist):
    """A well-formed netlist is refused only for a name the text format
    cannot hold; every one `validate` accepts survives serialize -> parse."""
    violation = validate(netlist)
    if violation is not None:
        assert violation.rule == "name"
        with pytest.raises(ValueError, match="^refusing to serialize invalid netlist:\nname: "):
            serialize_netlist(netlist)
        return
    text = serialize_netlist(netlist)
    again = parse_netlist(text)
    assert serialize_netlist(again) == text
    assert set(again.gates) == set(netlist.gates)
    assert (again.primary_inputs, again.primary_outputs, again.port_map) == (
        netlist.primary_inputs, netlist.primary_outputs, netlist.port_map)


@st.composite
def _maybe_malformed_netlists(draw):
    """A valid netlist with up to three edits, each of which may break it:
    a gate appended, possibly of a foreign kind or the wrong arity, under a
    repeated id, driving a driven net or a primary input, or reading its
    own output; a gate's inputs rewired to any nets, later ones too, so
    loops form with and without a C-element; a repeated primary input or
    output; a port of one to three rails, possibly unknown or shared."""
    n = draw(_valid_netlists())
    gates, inputs, outputs, ports = list(n.gates), list(n.primary_inputs), list(n.primary_outputs), dict(n.port_map)
    any_net = st.sampled_from(sorted(nets(n)) + ["ghost"])
    for edit in draw(st.lists(st.sampled_from(["gate", "rewire", "input", "output", "port"]), max_size=3)):
        if edit == "gate":
            kind = draw(st.sampled_from([*GateKind, "OR2", "XOR"]))
            arity = max(0, GATE_ARITY.get(kind, 2) + draw(st.sampled_from([0, 0, 0, -1, 1])))
            out = draw(st.one_of(any_net, _NAMES))
            ins = draw(st.lists(st.one_of(any_net, st.just(out)), min_size=arity, max_size=arity))
            gid = draw(st.one_of(_NAMES, st.sampled_from([g.gid for g in gates] or ["g"])))
            gates.append(Gate(gid, kind, tuple(ins), out))
        elif edit == "rewire" and gates:
            i = draw(st.integers(0, len(gates) - 1))
            ins = draw(st.lists(any_net, min_size=len(gates[i].inputs), max_size=len(gates[i].inputs)))
            gates[i] = gates[i]._replace(inputs=tuple(ins))
        elif edit == "input":
            inputs.append(draw(any_net))
        elif edit == "output":
            outputs.append(draw(any_net))
        elif edit == "port":
            ports[draw(_NAMES)] = tuple(draw(st.lists(any_net, min_size=1, max_size=3)))
    return Netlist(tuple(gates), tuple(inputs), tuple(outputs), ports)


@given(_maybe_malformed_netlists())
def test_validate_decides_the_round_trip_and_the_plan_refusals(netlist):
    """`validate` never raises and finds nothing exactly when the netlist
    serializes, to text that parses back to the same netlist; the wave
    plan refuses only with `validate`'s violation or a rule of its own."""
    violation = validate(netlist)
    try:
        text = serialize_netlist(netlist)
    except ValueError:
        assert violation is not None
    else:
        assert violation is None
        again = parse_netlist(text)
        assert sorted(again.gates) == sorted(netlist.gates)
        assert (again.primary_inputs, again.primary_outputs, again.port_map) == (
            netlist.primary_inputs, netlist.primary_outputs, netlist.port_map)
    try:
        _WavePlan.build(netlist, TABLE)
    except NetlistError as refused:
        rule = refused.violation.rule
        assert rule in PLAN_ONLY or violation.rule == rule


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
    assert validate(build_rca(AdderVariant.DIMS_STRONG, 1).netlist) is None


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
    ("pair p a", "line 2: pair takes portname, rail1 net, rail0 net"),
    ("output y z", "line 2: output takes one net name"),
    ("gate g1 OR2 a", "line 2: gate needs id, kind, inputs, output"),
])
def test_parse_rejects_wrong_arity(line, message):
    with pytest.raises(NetlistParseError, match=f"^{message}$"):
        parse_netlist(f"input a\n{line}\ninput b")


_DOUBLE_DRIVER = "input a\ninput b\ngate g1 INV a y\ngate g2 INV b y"
_IN_ORDER_DOUBLE_DRIVER = "input d.r1\ninput d.r0\ngate g0 OR2 d.r1 d.r0 n\ngate g1 AND2 d.r1 d.r0 n\npair d d.r1 d.r0"
_DRIVEN_INPUT = "input d.r1\ninput d.r0\ngate g0 OR2 d.r1 d.r1 n\ngate g1 AND2 n d.r1 d.r0\npair d d.r1 d.r0"


def _ported(*ports):
    return Netlist(primary_inputs=("a", "b", "c"), port_map=dict(ports))


RULE_CASES = {
    "foreign-kind": (Netlist((Gate("g", "OR2", ("a", "b"), "y"),), ("a", "b")), "unknown-kind", "g"),
    "arity": (Netlist((Gate("g1", GateKind.AO22, ("a", "b", "c"), "y"),), ("a", "b", "c")), "arity", "g1"),
    "double-driver": (parse_netlist(_DOUBLE_DRIVER), "single-driver", "y"),
    "in-order-double-driver": (parse_netlist(_IN_ORDER_DOUBLE_DRIVER), "single-driver", "n"),
    "driven-input": (parse_netlist(_DRIVEN_INPUT), "single-driver", "d.r0"),
    "one-net-port": (_ported(("p", ("a", "a"))), "port-map", "p"),
    "unknown-net-port": (_ported(("p", ("a", "nope"))), "port-map", "p"),
    "one-rail-port": (_ported(("p", ("a",))), "port-map", "p"),
    "three-rail-port": (_ported(("q", ("a", "b")), ("p", ("a", "b", "c"))), "port-map", "p"),
    "self-loop": (parse_netlist("input a\ngate g1 OR2 a y y"), "combinational-cycle", "y"),
    "two-gate-loop": (parse_netlist("input a\ngate g1 OR2 a z y\ngate g2 AND2 a y z"), "combinational-cycle", "y"),
    "duplicate-gate-id": (Netlist((Gate("g", GateKind.OR2, ("a", "a"), "x"), Gate("g", GateKind.OR2, ("a", "x"), "y")),
                                  ("a",)), "duplicate-gate-id", "g"),
    "duplicate-input": (Netlist((Gate("g", GateKind.OR2, ("a", "b"), "y"),), ("a", "b", "a")), "duplicate-input", "a"),
    "duplicate-output": (Netlist((Gate("g", GateKind.OR2, ("a", "b"), "y"),), ("a", "b"), ("y", "y")),
                         "duplicate-output", "y"),
    "dangling-net": (parse_netlist("input a\ngate g1 AND2 a ghost y"), "dangling-net", "ghost"),
    "gate-id-with-hash": (Netlist((Gate("g#1", GateKind.OR2, ("a b", "c"), "y"),), ("a b", "c")), "name", "'g#1'"),
    "empty-gate-id": (Netlist((Gate("", GateKind.OR2, ("a", "c"), "y"),), ("a", "c")), "name", "''"),
    "net-with-space": (Netlist((Gate("g", GateKind.OR2, ("a b", "c"), "y"),), ("a b", "c")), "name", "'a b'"),
    "port-with-space": (_ported(("p q", ("a", "b"))), "name", "'p q'"),
    "inverter": (parse_netlist("input a\ngate i INV a y"), "inverter", "i"),
    "c2-self-loop": (parse_netlist("input a\ngate z C2 a z z"), "cycle", "z"),
    "shared-rail": (_ported(("p", ("a", "b")), ("q", ("c", "b"))), "shared-rail", "q"),
}


def _named(refused):
    return refused.value.violation.rule, refused.value.violation.subject


@pytest.mark.parametrize("netlist,rule,subject", RULE_CASES.values(), ids=RULE_CASES.keys())
def test_each_rule_names_its_first_offender(netlist, rule, subject):
    """`validate` reports the rule unless only the wave plan has it; the
    plan, built from the netlist or lowered by a Simulation, refuses with
    the same rule and subject unless only `validate` has it; the event
    engine refuses only what the compile pass does."""
    violation = validate(netlist)
    assert (violation and (violation.rule, violation.subject)) == (None if rule in PLAN_ONLY else (rule, subject))
    if rule in COMPILE_RULES:
        for build in (lambda: _WavePlan.build(netlist, TABLE), lambda: Simulation(netlist, TABLE)):
            with pytest.raises(NetlistError) as refused:
                build()
            assert _named(refused) == (rule, subject)
        return
    sim = Simulation(netlist, TABLE)
    if rule in VALIDATE_ONLY:
        assert _WavePlan.build(netlist, TABLE).nodes == sim.plan.nodes
        return
    for build in (lambda: _WavePlan.build(netlist, TABLE), lambda: sim.plan):
        with pytest.raises(NetlistError) as refused:
            build()
        assert _named(refused) == (rule, subject)


@pytest.mark.parametrize("call", [validate, serialize_netlist])
@pytest.mark.parametrize("netlist", [build_rca(AdderVariant.DIMS_STRONG, 1).netlist, parse_netlist(_DRIVEN_INPUT)],
                         ids=["well-formed", "driven-input"])
def test_validate_compiles_once_and_builds_no_simulation(call, netlist, compiled, simulations_built):
    try:
        call(netlist)
    except ValueError:
        assert call is serialize_netlist
    assert compiled == [netlist] and simulations_built == []


def _or_chain(length, closed):
    """OR2 gates c0 -> c1 -> ... each also reading input a; `closed` feeds
    the last gate's output back into the first."""
    first = f"c{length - 1}" if closed else "a"
    gates = [Gate("c0", GateKind.OR2, ("a", first), "c0")]
    gates += [Gate(f"c{i}", GateKind.OR2, ("a", f"c{i - 1}"), f"c{i}") for i in range(1, length)]
    return Netlist(tuple(gates), ("a",), (f"c{length - 1}",))


def test_validate_long_chain_without_recursion():
    assert validate(_or_chain(5000, closed=False)) is None


def test_validate_flags_long_loop():
    violation = validate(_or_chain(5000, closed=True))
    assert (violation.rule, violation.subject) == ("combinational-cycle", "c0")


def test_serialize_refuses_invalid():
    n = parse_netlist("input a\ngate g1 AND2 a ghost y")
    with pytest.raises(ValueError, match="dangling"):
        serialize_netlist(n)


def test_census_early_output_full_adder():
    cen = gate_census(build_rca(AdderVariant.EARLY_OUTPUT, 1).netlist)
    assert cen.total == 10
    assert cen.counts[GateKind.AO22] == 4
    assert cen.counts[GateKind.C2] == 4
    assert cen.counts[GateKind.OR2] == 2
    assert cen.complex_total == 8


def test_census_dims_strong_full_adder():
    cen = gate_census(build_rca(AdderVariant.DIMS_STRONG, 1).netlist)
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
    assert validate(expanded).rule == "combinational-cycle"
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

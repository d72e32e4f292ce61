import pytest

from qdisim.adders import AdderVariant, build_rca
from qdisim.cells import default_delay_table
from qdisim.netlist import Gate, GateKind, Netlist, parse_netlist
from qdisim.sim import (
    OscillationError,
    Phase,
    Simulation,
    SimulationError,
    check_phase,
)


@pytest.fixture(scope="module")
def table():
    return default_delay_table()


def test_or2_rises_after_its_delay(table):
    sim = Simulation(parse_netlist("input a\ninput b\noutput y\ngate g1 OR2 a b y"), table)
    sim.apply_inputs([("a", 1)], at_time=0)
    trace, settle = sim.run_until_quiescent()
    assert trace == [(0, "a", 1), (60, "y", 1)]
    assert settle == 60


def test_c_element_holds_with_one_input_high(table):
    sim = Simulation(parse_netlist("input a\ninput b\noutput y\ngate g1 C2 a b y"), table)
    sim.apply_inputs([("a", 1)], at_time=0)
    trace, _ = sim.run_until_quiescent()
    assert trace == [(0, "a", 1)]
    assert sim.net_value("y") == 0


def test_determinism_identical_traces(table):
    net = build_rca(AdderVariant.EARLY_OUTPUT, 4).netlist
    traces = []
    for _ in range(2):
        sim = Simulation(net, table)
        sim.apply_inputs([("a0.r1", 1), ("b0.r0", 1), ("cin.r1", 1)], at_time=0)
        trace, _ = sim.run_until_quiescent()
        traces.append(trace)
    assert traces[0] == traces[1]


def test_redrive_same_value_is_dropped(table):
    sim = Simulation(parse_netlist("input a\noutput a"), table)
    sim.apply_inputs([("a", 0)], at_time=0)
    trace, _ = sim.run_until_quiescent()
    assert trace == []


def test_driving_gate_output_rejected(table):
    sim = Simulation(parse_netlist("input a\ngate g1 INV a y"), table)
    with pytest.raises(SimulationError, match="not a primary input"):
        sim.apply_inputs([("y", 1)])


def test_wrong_arity_is_a_typed_error(table):
    # the parser refuses this text, so the gate is built directly
    netlist = Netlist((Gate("z", GateKind.C2, ("a",), "z"),), ("a",))
    with pytest.raises(SimulationError, match=r"^gate 'z' \(C2\) takes 2 inputs, got 1$"):
        Simulation(netlist, table)


def test_causality_two_gate_chain(table):
    text = "input a\ninput b\noutput y\ngate g1 OR2 a b m\ngate g2 OR2 m b y"
    sim = Simulation(parse_netlist(text), table)
    sim.apply_inputs([("a", 1)], at_time=5)
    trace, settle = sim.run_until_quiescent()
    assert trace == [(5, "a", 1), (65, "m", 1), (125, "y", 1)]
    assert settle == 125


def test_oscillation_guard():
    net = parse_netlist("input a\ngate g1 INV y y")
    sim = Simulation(net, default_delay_table(), event_cap=50)
    with pytest.raises(OscillationError, match="quiescence"):
        sim.settle_power_on()


def test_trace_per_net_values_alternate(table):
    net = build_rca(AdderVariant.LATENCY_OPT_BIASED, 4).netlist
    sim = Simulation(net, table)
    rails = [("a0.r1", 1), ("a1.r1", 1), ("b0.r1", 1), ("b1.r0", 1), ("cin.r0", 1)]
    sim.apply_inputs(rails, at_time=0)
    set_trace, _ = sim.run_until_quiescent()
    sim.apply_inputs([(n, 0) for n, _ in rails])
    rtz_trace, _ = sim.run_until_quiescent()
    last = {}
    for _, n, v in set_trace + rtz_trace:
        assert last.get(n) != v, f"same-value transition recorded on {n}"
        last[n] = v


def test_trace_holds_only_the_latest_call(table):
    net = build_rca(AdderVariant.LATENCY_OPT_BIASED, 4).netlist
    sim = Simulation(net, table)
    rails = [("a0.r1", 1), ("b0.r0", 1), ("cin.r0", 1)]
    sim.apply_inputs(rails, at_time=0)
    sim.run_until_quiescent()
    sim.apply_inputs([(n, 0) for n, _ in rails])
    rtz_trace, _ = sim.run_until_quiescent()
    assert sim.trace == rtz_trace and all(v == 0 for _, _, v in sim.trace)


def test_phase_check_accepts_monotone_set(table):
    net = build_rca(AdderVariant.EARLY_OUTPUT, 2).netlist
    sim = Simulation(net, table)
    sim.apply_inputs(
        [("a0.r1", 1), ("a1.r0", 1), ("b0.r1", 1), ("b1.r0", 1), ("cin.r0", 1)], at_time=0
    )
    trace, _ = sim.run_until_quiescent()
    report = check_phase(trace, Phase.SET, pairs=net.port_map)
    assert report.ok


def test_phase_check_flags_inverter_in_rail_path(table):
    # an inverting rail path breaks per-phase monotonicity
    net = parse_netlist("input a\noutput y\ngate g1 INV a y")
    sim = Simulation(net, table)
    sim.settle_power_on()  # y rises to 1 while the input is spacer
    sim.apply_inputs([("a", 1)])
    trace, _ = sim.run_until_quiescent()
    report = check_phase(trace, Phase.SET)
    assert [(net_, v) for _, net_, v in report.nonmonotonic] == [("y", 0)]


def test_phase_check_flags_illegal_pair(table):
    net = parse_netlist("input x1\ninput x0\npair x x1 x0")
    sim = Simulation(net, table)
    sim.apply_inputs([("x1", 1), ("x0", 1)], at_time=0)
    trace, _ = sim.run_until_quiescent()
    report = check_phase(trace, Phase.SET, pairs=net.port_map)
    assert report.illegal_pairs and report.illegal_pairs[0][1] == "x"
    assert not report.nonmonotonic


def test_settle_power_on_is_noop_for_rtz_circuits(table):
    net = build_rca(AdderVariant.DISTRIBUTIVE, 3).netlist
    sim = Simulation(net, table)
    sim.settle_power_on()
    assert sim.trace == []


def test_settle_power_on_pinned_trace(table):
    # at t=0 both INVs see 0 and head for 1 (INV = 30); C2 z then sees 1, 1
    # and rises at 30 + 106; C2 y sees (1, b=0) and holds its 0
    text = (
        "input a\ninput b\ngate ia INV a ia\ngate ib INV b ib\n"
        "gate z C2 ia ib z\ngate y C2 ia b y"
    )
    sim = Simulation(parse_netlist(text), table)
    sim.settle_power_on()
    assert sim.trace == [(30, "ia", 1), (30, "ib", 1), (136, "z", 1)]
    assert sim.now == 136 and sim.replacements == 0
    assert [sim.net_value(n) for n in ("ia", "ib", "z", "y")] == [1, 1, 1, 0]


def test_event_counts_stay_small_for_wide_stage(table, local_stage32):
    sim = Simulation(local_stage32.netlist, table)
    assigns = [(local_stage32.ackin, 1)]
    for i in range(32):
        assigns += [(f"a{i}.r1", 1), (f"b{i}.r0", 1)]
    assigns.append(("cin.r1", 1))
    sim.apply_inputs(assigns, at_time=0)
    trace, _ = sim.run_until_quiescent()
    assert len(trace) < 100_000


def test_no_replacements_under_monotone_stimuli(table):
    net = build_rca(AdderVariant.BIASED_AO222, 6).netlist
    sim = Simulation(net, table)
    assigns = [(f"a{i}.r1", 1) for i in range(6)] + [(f"b{i}.r0", 1) for i in range(6)]
    assigns.append(("cin.r1", 1))
    sim.apply_inputs(assigns, at_time=0)
    sim.run_until_quiescent()
    sim.apply_inputs([(n, 0) for n, _ in assigns])
    sim.run_until_quiescent()
    assert sim.replacements == 0


def test_delay_jitter_preserves_function(table):
    """Per-instance delay spread must not change any settled value of a
    delay-insensitive circuit, only its timing."""
    from qdisim.adders import rca_transaction

    rca = build_rca(AdderVariant.EARLY_OUTPUT, 6)
    for seed in (1, 2, 3):
        sim = Simulation(rca.netlist, table, jitter=25, jitter_seed=seed)
        decoded, set_rep, rtz_rep, spacer = rca_transaction(sim, rca, 45, 18, 1)
        assert decoded == 64 and set_rep.ok and rtz_rep.ok and spacer

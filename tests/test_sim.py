import hashlib

import pytest

from qdisim.adders import AdderVariant, build_full_adder, build_rca
from qdisim.cells import default_delay_table
from qdisim.netlist import Gate, GateKind, Netlist, parse_netlist
from qdisim.sim import (
    OscillationError,
    Phase,
    Simulation,
    SimulationError,
    _WavePlan,
    check_phase,
)
from qdisim.stage import PAIRED_VARIANT, Architecture, build_stage, run_closed_loop, run_transaction


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


def test_foreign_gate_kind_is_a_typed_error(table):
    netlist = Netlist((Gate("g", "C2", ("a", "b"), "y"),), ("a", "b"), ("y",), {})
    with pytest.raises(SimulationError, match=r"^gate 'g' has unknown kind 'C2'$"):
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


# -- engine ordering and bookkeeping --------------------------------------


def test_same_time_ties_commit_in_scheduling_order(table):
    # y and x have equal delay and one driver, a; c is queued at 60 before
    # anything else, and b joins that time's queue before the run starts
    text = (
        "input a\ninput b\ninput c\n"
        "gate gy OR2 a c y\ngate gx OR2 a c x\ngate gz AND2 b c z"
    )
    sim = Simulation(parse_netlist(text), table)
    sim.apply_inputs([("c", 1)], at_time=60)
    sim.apply_inputs([("a", 1)], at_time=0)
    sim.apply_inputs([("b", 1)], at_time=60)
    trace, settle = sim.run_until_quiescent()
    assert trace == [(0, "a", 1), (60, "c", 1), (60, "b", 1), (60, "y", 1), (60, "x", 1), (120, "z", 1)]
    assert settle == 120 and sim.replacements == 0


def test_replacements_are_counted_exactly(table):
    # a pulse shorter than the AND2 delay: y is scheduled to rise at 90,
    # then re-evaluated to its settled 0 at 60, which replaces that event
    text = "input a\ninput d\ngate i INV a b\ngate g AND2 a b y"
    sim = Simulation(parse_netlist(text), table)
    sim.settle_power_on()
    assert sim.trace == [(30, "b", 1)] and sim.replacements == 0
    sim.apply_inputs([("a", 1)], at_time=30)
    trace, settle = sim.run_until_quiescent()
    assert trace == [(30, "a", 1), (60, "b", 0)] and settle == 60
    assert sim.replacements == 1 and sim.net_value("y") == 0
    # each re-drive of a pending input to another value is one more
    sim.apply_inputs([("d", 1), ("d", 0), ("d", 1)], at_time=70)
    trace, _ = sim.run_until_quiescent()
    assert trace == [(70, "d", 1)] and sim.replacements == 3


def test_event_cap_leaves_the_rest_of_a_time_queued(table):
    text = "input a\n" + "".join(f"gate g{i} OR2 a a y{i}\n" for i in range(5))
    sim = Simulation(parse_netlist(text), table, event_cap=3)
    sim.apply_inputs([("a", 1)], at_time=0)
    with pytest.raises(OscillationError, match=r"last: y2 at 60"):
        sim.run_until_quiescent()
    assert sim._heap
    trace, settle = sim.run_until_quiescent()
    assert trace == [(60, "y3", 1), (60, "y4", 1)] and settle == 60


def test_run_resumes_after_oscillation_with_the_cut_off_fanout(table):
    sim = Simulation(parse_netlist("input a\ninput b\ngate g1 OR2 a b m\ngate g2 OR2 m b y"), table, event_cap=1)
    sim.apply_inputs([("a", 1)], at_time=0)
    with pytest.raises(OscillationError, match=r"last: m at 60"):
        sim.run_until_quiescent()
    assert sim.now == 60
    trace, settle = sim.run_until_quiescent()
    assert trace == [(120, "y", 1)] and settle == 120
    assert sim.net_value("y") == 1 and sim.now == 120


def test_reset_drops_the_cut_off_fanout(table):
    # y = INV(m) is not settled at power-on, so evaluating it after reset would show
    net = parse_netlist("input a\ngate g1 OR2 a a m\ngate g2 INV m y")
    sim = Simulation(net, table, event_cap=1)
    sim.apply_inputs([("a", 1)], at_time=0)
    with pytest.raises(OscillationError, match=r"last: m at 60"):
        sim.run_until_quiescent()
    sim.reset()
    assert sim.run_until_quiescent() == Simulation(net, table, event_cap=1).run_until_quiescent() == ([], 0)
    assert sim.net_value("y") == 0


def test_reset_after_oscillation_matches_a_fresh_sim(table):
    # x = AND2(en, y), y = INV(x): stable while en = 0, a ring oscillator once it rises
    net = parse_netlist("input en\ngate gx AND2 en y x\ngate gy INV x y")

    def state(sim):
        return sim.now, sim.replacements, sim.trace, {n: sim.net_value(n) for n in ("en", "x", "y")}

    used = Simulation(net, table, event_cap=50)
    used.settle_power_on()
    used.apply_inputs([("en", 1)])
    with pytest.raises(OscillationError):
        used.run_until_quiescent()
    used.apply_inputs([("en", 0)])  # left pending for reset to drop
    assert used._heap
    used.reset()
    fresh = Simulation(net, table, event_cap=50)
    assert not used._heap and state(used) == state(fresh)
    for sim in (used, fresh):
        sim.settle_power_on()
    assert state(used) == state(fresh) and used.trace == [(30, "y", 1)]
    errors = []
    for sim in (used, fresh):
        sim.apply_inputs([("en", 1)])
        with pytest.raises(OscillationError) as info:
            sim.run_until_quiescent()
        errors.append(str(info.value))
    assert errors[0] == errors[1] and state(used) == state(fresh)


# pinned values: any change to the engine's commit order or timing moves them
@pytest.mark.parametrize("arch,digest", [
    ("local", "d63348e8d7baaaebbade90dea501fdd160169bdf1739aa7c62fd8024f6982b3b"),
    ("global", "0e261e8a857c6dd8c31f9c84e59e71774a51e63fc2e638349d4826894d144e93"),
])
def test_jittered_traces_match_golden(arch, digest, table):
    stage = build_stage(Architecture(arch), n=32)
    sim = Simulation(stage.netlist, table, jitter=40, jitter_seed=3)
    rec = run_transaction(stage, 0x9E3779B9, 0x7F4A7C15, 1, sim=sim, keep_traces=True)
    assert hashlib.sha256(repr(rec.set_trace + rec.rtz_trace).encode()).hexdigest() == digest


# sha256 of each compiled form: interned net names, gates (code, inputs,
# output, jittered delay), per-net fanout (the event engine's tie order)
# and the wave plan's nodes and pairs; jitter 40 draws with seed 3
_COMPILED_DIGESTS = {
    ("fa dims-strong", 0): "79741c46544320b887550e724497e73a1d7fd5743e4462771da7a4d52f6fc7d2",
    ("fa dims-strong", 40): "1e87ba71ed74fe2f9dace44569e04544e1491bc340f9ed6e2c8e57725cac341e",
    ("rca4 dims-strong", 0): "95f949436285e8d3893115532a09e937f6665dfbd8290c0cb3f62e0fbbf9bb0d",
    ("rca4 dims-strong", 40): "d86913a925d75ee81ad5f4cdcfe0454d9a7f8c7c9ac630c17de737ad61cec86e",
    ("rca32 dims-strong", 0): "50a8ab312f6959f86e5c93e1053cb53bfc6655adc22f31de1c6737acf2a56224",
    ("rca32 dims-strong", 40): "e4f21d8ec197b217d84c5bd62e2314fee6cea356b65a2e83b099e17084c221b1",
    ("fa dims-weak", 0): "a783c99d7f203282771ca51d9dcfdee8f45b0c4c859019115f189a8f973e4de1",
    ("fa dims-weak", 40): "f7336e5d64d2973852c8b568b65328a9f4004a17ea2a668a9047362f1087ef4d",
    ("rca4 dims-weak", 0): "8ab7332e6789584efe571ded9499940d511f6a568af8194b73ebdb57113771fb",
    ("rca4 dims-weak", 40): "76b0f7bfd36d58302c525a9bda5516d11d0d6846e809b1dbc3a255bf2535d608",
    ("rca32 dims-weak", 0): "1b181fbb751e62eca99dd8d1affc350df64f219601b735b7065f20cca28ad03a",
    ("rca32 dims-weak", 40): "c387d577fe400199fcbcde6a21981ed1432237bc2fa189171f07c9b80ca5bfef",
    ("fa distributive", 0): "e00343488ac7d15eb432a018f8e81787cef668ca24dc477de8c28bb902f52df2",
    ("fa distributive", 40): "9bbf227e11c9d4c27cf8f45a3478c14fb45ab076ad393597716dfa12819b25b4",
    ("rca4 distributive", 0): "bf161adbd50cc5a8f60ba3ac775b59f29c619fe0401f4adb51a33433a3841ce8",
    ("rca4 distributive", 40): "c5f743fbd506571aaeb36fdc2bd573f1e5feaedccf3e8e8ab4682b85da296e8d",
    ("rca32 distributive", 0): "28c259487569cc014e0fb21b0dfeaffaaffbdba6af30af177d8b7589f56864c5",
    ("rca32 distributive", 40): "8c5752ac1670fcab8cbca1cbd804d2f8f2bdc26dad821da0acec8fa104b02699",
    ("fa biased-ao222", 0): "8c688412b3f4b16104053450c605c2c2614c4ad6746403db2c0ca993d274cad0",
    ("fa biased-ao222", 40): "7ae8845d4cf0c0156d2fe5312d602b192b22ea3f5a7dfbdf6b9521d1deccc1a5",
    ("rca4 biased-ao222", 0): "b302848c55b9a6a30aaf34291a730884740b4eb65614411a49bfe247b8b2f5af",
    ("rca4 biased-ao222", 40): "826ffe9776004c3d25b9ee550e5eab0c7ef2c5e5afd3b5bcdc83b9d6890df410",
    ("rca32 biased-ao222", 0): "1c51e9ae9fc9a4a2cd3ba26825a7e56531c610635c999d610ed1bbc5d8e56462",
    ("rca32 biased-ao222", 40): "6474e73ab8c0183e3293abfecb0002a1731f5f705657c169c5a89472b37e92ae",
    ("fa latency-opt-biased", 0): "73a4cf35131e60af8c938990421800765bd46a31d96212490d23519a0a9085ee",
    ("fa latency-opt-biased", 40): "09e565376bac69b146eced18e257abc2be59a7b1064fe13600212061a0248ff8",
    ("rca4 latency-opt-biased", 0): "80d88aedf9467e60b6c7b422fe1e925061bb1e2ac13c97ad2667de09e261950a",
    ("rca4 latency-opt-biased", 40): "656d9ab611f68e635ed656b45a03a7c8be72ebf73ef369166fcb041af7086e0c",
    ("rca32 latency-opt-biased", 0): "f3c1a6127b0cf92bc1588e571e4acd23354ad16ebaa5ca3b7d8f742fa2e6124d",
    ("rca32 latency-opt-biased", 40): "5560bef2ca7a30bcb667052ba165f43a32749261c7e3e82dd6359817061ba810",
    ("fa early-output", 0): "dba2e6199e34f56ec1b5a1c520468e7805f0cd7f6f859fd3f11438a2510c4e5c",
    ("fa early-output", 40): "8d05a5168569deb81c38b53776701cab925333b89372e79c1fe107ec43e2a1d7",
    ("rca4 early-output", 0): "123dfa17a36a42974cfc6f2e2d41d38acae65ddeb6516aa0e82328d3d602fc21",
    ("rca4 early-output", 40): "db119795142003a4079e44ee43ab98394b05cfb73ea3f5ba4b4d0e2f2949818e",
    ("rca32 early-output", 0): "7074101dcb92ce8e93770dd7a5f971b721fd49711ad65e9debe27c0453995747",
    ("rca32 early-output", 40): "afc6ad9c4c9d380662f7bd2e25ffc8421bf46b2202654564f661c93f0d57536c",
    ("stage local", 0): "dcc6888ede4cbbbd227852303893206d2aa51ff2b85f127660a9924fc4ebff2c",
    ("stage local", 40): "dc0e9557b20f2b0165fb0c1cd2630d527287084f2f5f4016160e07a13da7a2ab",
    ("stage global", 0): "1528b3d55ee8795b7461806131abac658988c72af4aa3b5a0b24a90292eb7b67",
    ("stage global", 40): "f830d7750ae392cfe7e78d0a950d20bb330bfd0a23665282ff1f01dccf4dd100",
}


def _golden_netlist(case):
    shape, name = case.split()
    if shape == "stage":
        arch = Architecture(name)
        return build_stage(arch, PAIRED_VARIANT[arch], 32).netlist
    variant = AdderVariant(name)
    return build_full_adder(variant) if shape == "fa" else build_rca(variant, int(shape[3:])).netlist


@pytest.mark.parametrize("case,jitter", list(_COMPILED_DIGESTS))
def test_compiled_form_matches_golden(case, jitter, table):
    sim = Simulation(_golden_netlist(case), table, jitter=jitter, jitter_seed=3)
    plan = _WavePlan.build(sim.netlist, table, jitter=jitter, jitter_seed=3)
    compiled = repr((sim._names, sim._gates, sim._fanout, plan.nodes, plan.pairs))
    assert hashlib.sha256(compiled.encode()).hexdigest() == _COMPILED_DIGESTS[case, jitter]


def _plan_shape(plan):
    return plan.nodes, plan.slots, plan.pairs


@pytest.mark.parametrize("case,jitter", list(_COMPILED_DIGESTS))
def test_plan_from_the_netlist_equals_the_plan_a_simulation_lowers(case, jitter, table):
    netlist = _golden_netlist(case)
    sim = Simulation(netlist, table, jitter=jitter, jitter_seed=3)
    assert _plan_shape(_WavePlan.build(netlist, table, jitter, 3)) == _plan_shape(sim.plan)


@pytest.mark.parametrize("arch,ops,deliveries", [
    ("local",
     [(87, 168, 1), (69, 149, 1), (158, 218, 0), (101, 205, 1), (65, 222, 1), (146, 92, 1)],
     [(2073, 0, 0), (5475, 219, 0), (9063, 120, 0), (12528, 51, 0), (16179, 32, 0), (19830, 239, 0)]),
    ("global",
     [(19, 61, 0), (141, 80, 0), (206, 168, 0), (57, 85, 1), (215, 173, 0), (218, 184, 0)],
     [(1808, 80, 0), (4804, 221, 0), (7872, 118, 0), (10868, 143, 0), (13864, 132, 0), (16716, 146, 0)]),
])
def test_three_stage_ring_deliveries_match_golden(arch, ops, deliveries):
    arch = Architecture(arch)
    report = run_closed_loop(3, PAIRED_VARIANT[arch], arch, 8, ops)
    assert report.deliveries == deliveries

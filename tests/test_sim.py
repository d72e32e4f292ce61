import hashlib
from functools import partial
from itertools import product

import pytest

from qdisim.adders import AdderVariant, build_rca, pack_operands
from qdisim.cells import default_delay_table
from qdisim.dualrail import decode_word, rail_assignments
from qdisim.netlist import GATE_ARITY, GATE_TERMS, STATEFUL_KINDS, Gate, GateKind, Netlist, NetlistError, parse_netlist
from qdisim.sim import (
    OscillationError,
    Simulation,
    SimulationError,
    _WavePlan,
    drive_transaction,
)
import qdisim.stage as stage_module
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


def _wirings(arity):
    """Every way to wire `arity` input positions to nets, up to renaming
    them: each tuple gives each position's net, and net k is first used
    after nets 0..k-1.  The first wiring reads `arity` distinct nets; the
    others read some net twice or more."""
    wirings = [()]
    for _ in range(arity):
        wirings = [w + (k,) for w in wirings for k in range(max(w, default=-1) + 2)]
    return wirings


def _gate_terms_output(kind, inputs, held):
    """The output `GATE_TERMS` gives: the OR of the terms' ANDs, or for a
    C-element its inputs' common value, else `held`; 1 - input for INV."""
    if kind is GateKind.INV:
        return 1 - inputs[0]
    terms = GATE_TERMS[kind]
    if kind in STATEFUL_KINDS:
        (term,) = terms
        agreed = {inputs[i] for i in term}
        return agreed.pop() if len(agreed) == 1 else held
    return int(any(all(inputs[i] for i in term) for term in terms))


@pytest.mark.parametrize("kind", list(GateKind))
def test_dispatch_matches_gate_terms_exhaustively(kind, table):
    """One gate of `kind`, wired every way to its nets, at rest with every
    input vector and every held output value: a commit of each net in
    turn, and power-on with no commit, change the output exactly as
    `GATE_TERMS` says, after the kind's delay."""
    delay = table[kind]
    for wiring in _wirings(GATE_ARITY[kind]):
        nets = [f"x{k}" for k in range(max(wiring) + 1)]
        text = "".join(f"input {net}\n" for net in nets) + f"gate g {kind.value} {' '.join(nets[k] for k in wiring)} y"
        sim = Simulation(parse_netlist(text), table)
        slots = [sim._ids[net] for net in nets] + [sim._ids["y"]]
        assert [len(sim._fanout[nid]) for nid in slots] == [1] * len(nets) + [0]  # once per net it reads

        def rest(values):  # every net settled at its value, nothing pending
            for nid, value in zip(slots, values):
                sim._values[nid] = sim._eff[nid] = value

        for vector in product((0, 1), repeat=len(nets)):
            for held in (0, 1):
                new = _gate_terms_output(kind, [vector[k] for k in wiring], held)
                change = [(delay, "y", new)] if new != held else []
                rest([*vector, held])
                t = sim.now
                sim.settle_power_on()
                assert [(u - t, *c) for u, *c in sim.trace] == change, (wiring, vector, held, "power-on")
                for k, net in enumerate(nets):
                    rest([*vector[:k], 1 - vector[k], *vector[k + 1:], held])
                    t = sim.now
                    sim.apply_inputs([(net, vector[k])])
                    trace = [(u - t, *c) for u, *c in sim.run_until_quiescent()[0]]
                    assert trace == [(0, net, vector[k])] + change, (wiring, vector, held, net)


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


def test_inputs_before_now_are_refused(table):
    sim = Simulation(parse_netlist("input a\ninput b\noutput y\ngate g1 OR2 a b y"), table)
    sim.apply_inputs([("a", 1)], at_time=0)
    sim.run_until_quiescent()
    with pytest.raises(SimulationError, match="^cannot apply inputs at 59, already settled at 60$"):
        sim.apply_inputs([("b", 1)], at_time=59)
    assert sim.run_until_quiescent() == ([], 60)


def test_a_refused_stimulus_queues_nothing(table):
    """An unknown net anywhere in the assignments refuses the whole
    stimulus: the queue is as it was, and the next run commits nothing."""
    sim = Simulation(build_rca(AdderVariant.DIMS_WEAK, 2).netlist, table)
    sim.apply_inputs([("b0.r1", 1)], at_time=5)
    queue = (list(sim._heap), {t: list(nets) for t, nets in sim._buckets.items()}, list(sim._ptime), list(sim._eff))
    with pytest.raises(SimulationError, match="'bogus' is not a primary input"):
        sim.apply_inputs([("a0.r1", 1), ("bogus", 1)])
    assert (sim._heap, sim._buckets, sim._ptime, sim._eff) == queue
    with pytest.raises(SimulationError, match="'bogus' is not a primary input"):
        sim.apply_inputs([("a0.r1", 1), ("bogus", 1)], at_time=5)
    assert (sim._heap, sim._buckets, sim._ptime, sim._eff) == queue
    sim = Simulation(sim.netlist, table)
    with pytest.raises(SimulationError):
        sim.apply_inputs([("a0.r1", 1), ("bogus", 1)])
    assert sim.run_until_quiescent() == ([], 0)


def test_wrong_arity_is_a_typed_error(table):
    # the parser refuses this text, so the gate is built directly
    netlist = Netlist((Gate("z", GateKind.C2, ("a",), "z"),), ("a",))
    with pytest.raises(NetlistError, match=r"^arity: z C2 needs 2 inputs, has 1$"):
        Simulation(netlist, table)


def test_foreign_gate_kind_is_a_typed_error(table):
    netlist = Netlist((Gate("g", "C2", ("a", "b"), "y"),), ("a", "b"), ("y",), {})
    with pytest.raises(NetlistError, match=r"^unknown-kind: g 'C2' is not a GateKind$"):
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


def test_phase_faults_count_from_the_transaction_start(table):
    """An inverter on a port rail: power-on raises y and leaves the clock
    at one INV delay.  The pair p = (y, b) is then illegal as b rises, y
    falls in the valid wave and rises again in the spacer wave; the
    faults are timed from the valid wave's start, the traces keep the
    sim's own times."""
    inv = table[GateKind.INV]
    sim = Simulation(parse_netlist("input a\ninput b\ngate g1 INV a y\npair p y b"), table)
    sim.settle_power_on()
    assert sim.now == inv
    waves = drive_transaction(sim, [("a", 1), ("b", 1)], ["p"])
    assert waves.illegal_pairs == [(0, "p")]
    assert waves.nonmonotonic == [(inv, "y", 0), (2 * inv, "y", 1)]
    assert waves.set_trace == [(inv, "a", 1), (inv, "b", 1), (2 * inv, "y", 0)]
    assert waves.rtz_trace == [(2 * inv, "a", 0), (2 * inv, "b", 0), (3 * inv, "y", 1)]
    assert (waves.forward_latency, waves.reverse_latency, waves.spacer_restored, waves.ok) == (inv, inv, False, False)


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
    rca = build_rca(AdderVariant.EARLY_OUTPUT, 6)
    assignments = rail_assignments(rca.operand_rails, pack_operands(6, 45, 18, 1))
    for seed in (1, 2, 3):
        sim = Simulation(rca.netlist, table, jitter=25, jitter_seed=seed)
        waves = drive_transaction(sim, assignments, rca.forward_ports)
        assert waves.rtz_trace, "the jittered delays are the event engine's"
        assert decode_word(waves.valid_word) == 64 and waves.ok


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


def test_oscillation_error_names_the_last_commit(table):
    sim = Simulation(parse_netlist("input a\ninput b\ngate g1 OR2 a b m\ngate g2 OR2 m b y"), table, event_cap=1)
    sim.apply_inputs([("a", 1)], at_time=0)
    with pytest.raises(OscillationError, match=r"^no quiescence after 1 transitions \(last: m at 60\)$"):
        sim.run_until_quiescent()
    assert sim.now == 60 and sim.trace == [(0, "a", 1), (60, "m", 1)]


@pytest.mark.parametrize("jitter", [-5, 2.5], ids=["negative", "non-integer"])
def test_a_bad_jitter_is_refused(jitter, table):
    with pytest.raises(ValueError, match=rf"^jitter must be a non-negative integer, got {jitter}$"):
        Simulation(parse_netlist("input a\ninput b\ngate g OR2 a b y"), table, jitter=jitter)


def test_negative_event_cap_is_refused(table):
    with pytest.raises(ValueError, match=r"^event_cap must be a non-negative integer, got -1$"):
        Simulation(parse_netlist("input a\ninput b\ngate g OR2 a b y"), table, event_cap=-1)


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


# sha256 of each compiled form, in two parts: the event engine's (interned
# net names, gates as (code, inputs, output, jittered delay) and per-net
# fanout, the engine's tie order) and the wave plan's (nodes, in gate order
# after their drivers, and pairs); jitter 40 draws with seed 3
_COMPILED_DIGESTS = {
    ("rca1 dims-strong", 0): (
        "c01b4fd7c2619f69fad06eb7ad66b4888ab09653873533edfb5b30c0255920ac",
        "541ded0ff29332c7ca26a50501263dd2030f3f250932b4fd7cfd3d6a36e8da7f",
    ),
    ("rca1 dims-strong", 40): (
        "b1eb8e803aaecc2b1de455e00eab4e4ad7f5f514f8b6542a4fb7e6c490120c92",
        "a337ae9775396072be62802e0e03be8f4efcbd1e92def56cf3ffa45c9db1cdab",
    ),
    ("rca4 dims-strong", 0): (
        "2a48c2c49ac1cb0209e11f3f751f226e87478119e832b0b2fdcaa4d8a051a98e",
        "40d5c041dde4b8bec019040411375e4e68f3249d533c61a9e890ff704d6b1d1f",
    ),
    ("rca4 dims-strong", 40): (
        "f54699d8f17debf7c2dbd52c7ffd954ff32ed5f097718b069410a3f4d507ba06",
        "4a3fdaa65d3c643a1c9aae81a9864d6437f955084d479e00de0ec99fcc001701",
    ),
    ("rca32 dims-strong", 0): (
        "a1809d20094741a9a0829b471f31d066adb6987c1e1ec20214229f975f77fcff",
        "72d8fafe8a6aafb8fa563f3d18789f6a29442f6a264cefbad1e1898ac42be2aa",
    ),
    ("rca32 dims-strong", 40): (
        "f0f886207d62327bb28b2b9010bd577438327ca571b075cc9c9c05686dbb1339",
        "801171402ee9d648fcbcfb834cd7b0af048fe64f4e544efe6ff3cefb05a2411c",
    ),
    ("rca1 dims-weak", 0): (
        "8bbc213125bf380399e3416c9e377891bf89293747d19a52a676d970bd03a372",
        "a46dc288d4d91c1f75f739eb60064f66caba13762b5d342a49805f7c4bd8fea2",
    ),
    ("rca1 dims-weak", 40): (
        "5da0db11ac6f99a250b5efab4208cdccf3271bbb01b347f8f530423ba2970dd0",
        "0e48c584692d826d40e451dae9e3b0112cd99043a003fdcc1ea9b6313f46bf0f",
    ),
    ("rca4 dims-weak", 0): (
        "aaafdc72a606fec51bad4e4f622240b777b76dcca7ef781ec094b1a4e2ffa50b",
        "b70b3db4d284e19cfbe33080a28e6735c1dc4ace5e148c4fe36dcbdcfae61d36",
    ),
    ("rca4 dims-weak", 40): (
        "e5ae527b3a05a30a5b41fefa237e22338ec4d937161b7633a718b6d881365c58",
        "e3ff8ff436b6fca62df1632967aa2495e460130ac8802902ebea96dfb52c7b26",
    ),
    ("rca32 dims-weak", 0): (
        "75d54b2dfbd8e033b7371ea81d30a0d53fee4660716bf3e6d79bf9991aa63876",
        "ba47a5d1290ee303303feff03ce00eb34648ab1fb0ce2eb6c55d35bb83da56e0",
    ),
    ("rca32 dims-weak", 40): (
        "778081d510b09a81a07232812d062efe6143a1337fca13f951272f686a7f2ac0",
        "a28746aae73080b94ee2270b5308b3c1895cffd47ecff184e172c0f7f2c78c47",
    ),
    ("rca1 distributive", 0): (
        "e68b05af9130e5c97e520df0abddd0e39fb3dd0676a8cb82e28a0c547c599de6",
        "f1ac01676bac3935adfd9ebdec56480743ab3266032c9d8980d2d74f844294b9",
    ),
    ("rca1 distributive", 40): (
        "e43e9e2c912a1f3a823e67c0a30c6792f5f279df2aa6baa5cb4cb4ef7bf1b414",
        "c3e245400aa4ac456cf13baa41aca9087e6107937c807fe91c24d7ea969f3461",
    ),
    ("rca4 distributive", 0): (
        "d065e8ecdfa518c441a57c5c36d7f08132de42e635ffbaed9c45773d218d4b96",
        "884d929a0c80a7d04da29936cb04c2e7b66b16d8e2d706b02ca6dd2d9fcff54b",
    ),
    ("rca4 distributive", 40): (
        "7a4c636d1f8664ce8dfd1837d8fbb0a1d984227a1e71895c0ffa20267326d09c",
        "1a5698f89dfd85f52b27828ed3eaaf41c9bd86b8819200498bffebf45133edec",
    ),
    ("rca32 distributive", 0): (
        "6709cf3ff9d8c9da6bcc833912bf26f38b32981ed5655d3c1957d7e486e99046",
        "815823f42ccbf1d8a7a006bcd23004bd54286c34f86a27ad6efaa286e6e32bab",
    ),
    ("rca32 distributive", 40): (
        "843ac06457dbb7db7cafce9ec01b121be8cdfb3915a981f39058daea545e5755",
        "35ad249ef0b6e22a97200fe3a5f3a1ad2ed8f207901e8e733db7a9843ff145da",
    ),
    ("rca1 biased-ao222", 0): (
        "9827867f87aff6e332c2d8d0ed1c9429d41290fcaaf465441d11d1a413f1307a",
        "9ff949d9b5d24f01c6f2341c9705b3f000f295535e45f8f732400e137544c597",
    ),
    ("rca1 biased-ao222", 40): (
        "65fab1626abc3e6a7a0a37dd0d71ca3eaa55188e45c2bcfd68ec91e0647eaf72",
        "16386b21f53a8dde40ffd526c4158b8208f1a4bef148a12fbad3e542490fa985",
    ),
    ("rca4 biased-ao222", 0): (
        "c201d9057162ba9308236cb794463a2d7a523b45bf1af76f1ffda82859a3b4b8",
        "b5072b202c763ca58f5bfa0f436eb04c8c182620216e33a9a500d0c57fdcc9b4",
    ),
    ("rca4 biased-ao222", 40): (
        "a8af3932d4adc0647a3d041533e70a0ab9908b8a855a1421768f70ad0c62d538",
        "5889dcd076c8a9581b62b5eb26e86e9026b13a8063ce6a4a7afe496b260d9111",
    ),
    ("rca32 biased-ao222", 0): (
        "56a94d5c3df839660c0002ce6f74df45d6368adae297036cadbaf12ade9cec69",
        "e717fea56e730baa69418101914b5786241f4d39f8866b24a8e4ceb2c817c664",
    ),
    ("rca32 biased-ao222", 40): (
        "a74dfd0127f964a7b40f9af5e7dd0dde0633d331f56d5916ab7fb81e5a34da2e",
        "7d7f3185828f489c801540c8cf3a80366805d0da630e16eed89f4aaa470eb26f",
    ),
    ("rca1 latency-opt-biased", 0): (
        "47147462569ce2c805de0c622965024eda1c6c446bebe611acf9e110d3c0e9a4",
        "ecd28049ebc38e5101cc866f4d845d89de0d0632bf6cf36e9a3b9ef466533377",
    ),
    ("rca1 latency-opt-biased", 40): (
        "625d3e35b1883e74802765ac0056bc585cf1bbd16886cb0a0ba19cc0f60f01c3",
        "a418519be77a5fe6a45087b3e40e8393ccb80c3ca11d291bcb1b1ab593a0d03e",
    ),
    ("rca4 latency-opt-biased", 0): (
        "a7a818404e833c00917cbb52bc59742a6cb10f7a52f692d751bea35734c607e8",
        "6a74dcb8b99fad5b26f1ae8a79d6c10782b91045d681491fb94a35a3669ca0b3",
    ),
    ("rca4 latency-opt-biased", 40): (
        "0962746bd63389f92f3e81926e8160fe0b0b6aa5a6b4d2fde0a8d62ef3b23943",
        "7bb52831d9936349960de86f8dd01b14d22fa022d1dcc36e2dba9e2043b60fd5",
    ),
    ("rca32 latency-opt-biased", 0): (
        "0ba523db42919d40c86314e564bd50e9987fd3bd63c0a4fb35b7783eb508e4d1",
        "05b651808d63a46d8f52368d920743e012e0da3b033c6546354d9ca4e64a6eed",
    ),
    ("rca32 latency-opt-biased", 40): (
        "96a62b6d9b902e5da59659a5dde8caef84f4bdab84e7c76dd82f777f82f9b9bf",
        "f7f68b3aeda9006fd5ae8c2e1ca5a80f1e636d302132cf9d6be86b8ef869b916",
    ),
    ("rca1 early-output", 0): (
        "4df6da22c76564d37cabdd8795ef2a26b71625b5f0fb036fc9d807adf8dcc258",
        "7d170b059801a78afc9d0e68c20347d432113723be46fa1aaba4707c3f40c1b0",
    ),
    ("rca1 early-output", 40): (
        "e21cc5caf10930e114bd9a9f1e03fcb3075fce56c7e77359d8e108b105da55bc",
        "7d9b29f80bfd7992e2c76f4295239e081fa7d1f532bb582be40950c0860ab066",
    ),
    ("rca4 early-output", 0): (
        "6ee381d4177db4cd25940e209ec73932d1ee538e6944f9a81b3b57f92f3a76d0",
        "d3a3ed0dc324a024c8407e089e2592fad35029fadd3be35a39ede07ef6f009d7",
    ),
    ("rca4 early-output", 40): (
        "bf0bd4601da49bd8ca40e7bbed14e2c5ea13d96a1156b80bfbdc618b942e016f",
        "19689e715898127339b7e8ab59b782dcc3f2336a037fc6dfe90c2771846d8fb7",
    ),
    ("rca32 early-output", 0): (
        "37763267c4e406a11deb37021bcdb148ef05f4df643cb7581f2963449502422e",
        "3365ee947d66648dbbd900a31c618f4ed28bea28cef457923b352a999775f57f",
    ),
    ("rca32 early-output", 40): (
        "625d3364a5c89199fe5b098de218993758a3369e08976dc33ed238efa612fb78",
        "2a2965aa1c4fc4e473d1231866bbfc04e610a24caec87eb5b9bb68c3d1a46aa9",
    ),
    ("stage local", 0): (
        "519b91711fffb2312b0dc79d1f21233b9cba59257a3ebca683aa53d3e0dc14f2",
        "39a617557fd906a3c886a0b2d460a20df1973f55adcde1532f93c845f3d0ff5e",
    ),
    ("stage local", 40): (
        "e6b886362c4dbdec7bdccba74669f9846b6364702c845f4f7e8fb02d4512262c",
        "de0105339230b83974c0a31e5564eb9004dfe8c930672174a412d5f0abe15153",
    ),
    ("stage global", 0): (
        "6e1badb865f99557044476326ed93d892c10a0874191c9cba3a1d926187f2ff0",
        "99b53e9f6c85d0d9ab004fabdc1a087fcb8be2d5b52880e13fefc15a5d917336",
    ),
    ("stage global", 40): (
        "8c702e8a1e50795c119d3e71db0d3ec90082ca80e7042032e4e1fc10b66301e8",
        "e95626a89efaa893489c465a489ee6bf7b1e81eec03b43493b17a099eff3adea",
    ),
}


def _golden_netlist(case):
    shape, name = case.split()
    if shape == "stage":
        arch = Architecture(name)
        return build_stage(arch, PAIRED_VARIANT[arch], 32).netlist
    variant = AdderVariant(name)
    return build_rca(variant, int(shape[3:])).netlist


@pytest.mark.parametrize("case,jitter", list(_COMPILED_DIGESTS))
def test_compiled_form_matches_golden(case, jitter, table):
    sim = Simulation(_golden_netlist(case), table, jitter=jitter, jitter_seed=3)
    plan = sim.plan
    engine, lowered = _COMPILED_DIGESTS[case, jitter]
    # the digests record each fanout entry's gate index, found through its
    # output slot, which one gate drives in a generated netlist
    index = {gate[2]: gi for gi, gate in enumerate(sim._gates)}
    fanout = [tuple(index[entry[2]] for entry in users) for users in sim._fanout]
    assert hashlib.sha256(repr((sim._names, sim._gates, fanout)).encode()).hexdigest() == engine
    rails = [(p, *r) for p, r in plan.rails.items()]
    assert hashlib.sha256(repr((plan.nodes, rails)).encode()).hexdigest() == lowered


def test_a_sim_that_only_lends_its_plan_builds_no_fanout(local_stage32):
    sim = Simulation(local_stage32.netlist, default_delay_table())
    run_transaction(local_stage32, 5, 9, 1, sim=sim)
    assert "_fanout" not in vars(sim)
    sim.drain()
    assert "_fanout" in vars(sim)


def _plan_shape(plan):
    """The plan with its delays left out."""
    return [node[:4] for node in plan.nodes], plan.slots, plan.rails


@pytest.mark.parametrize("case,jitter", list(_COMPILED_DIGESTS))
def test_plan_from_the_netlist_equals_the_plan_a_simulation_lowers(case, jitter, table):
    """A jittered simulation's plan is `build`'s with only the gates'
    delays raised, each by at most the jitter."""
    netlist = _golden_netlist(case)
    built = _WavePlan.build(netlist, table)
    lowered = Simulation(netlist, table, jitter=jitter, jitter_seed=3).plan
    assert _plan_shape(built) == _plan_shape(lowered)
    assert all(0 <= late[4] - node[4] <= jitter for node, late in zip(built.nodes, lowered.nodes))
    assert (built.nodes == lowered.nodes) == (jitter == 0)


_RING_GOLDEN = [
    ("local",
     [(87, 168, 1), (69, 149, 1), (158, 218, 0), (101, 205, 1), (65, 222, 1), (146, 92, 1)],
     [(2073, 0, 0), (5475, 219, 0), (9063, 120, 0), (12528, 51, 0), (16179, 32, 0), (19830, 239, 0)]),
    ("global",
     [(19, 61, 0), (141, 80, 0), (206, 168, 0), (57, 85, 1), (215, 173, 0), (218, 184, 0)],
     [(1808, 80, 0), (4804, 221, 0), (7872, 118, 0), (10868, 143, 0), (13864, 132, 0), (16716, 146, 0)]),
]


@pytest.mark.parametrize("arch,ops,deliveries", _RING_GOLDEN)
def test_three_stage_ring_deliveries_match_golden(arch, ops, deliveries):
    arch = Architecture(arch)
    report = run_closed_loop(3, PAIRED_VARIANT[arch], arch, 8, ops)
    assert report.deliveries == deliveries


@pytest.mark.parametrize("arch,ops,deliveries", _RING_GOLDEN)
def test_ring_delivers_the_golden_values_without_a_traced_run(arch, ops, deliveries, monkeypatch):
    def traced_run(self):
        raise AssertionError("the ring built a trace it does not read")

    monkeypatch.setattr(Simulation, "run_until_quiescent", traced_run)
    arch = Architecture(arch)
    assert run_closed_loop(3, PAIRED_VARIANT[arch], arch, 8, ops).deliveries == deliveries


def _engine_state(sim):
    return (list(sim._values), list(sim._eff), list(sim._ptime), list(sim._heap), dict(sim._buckets),
            sim.now, sim.replacements)


@pytest.mark.parametrize("part_way", [False, True])
@pytest.mark.parametrize("k", [1, 6, 13])  # a golden ring drains 13 times
@pytest.mark.parametrize("arch,ops,deliveries", _RING_GOLDEN)
def test_a_ring_cut_short_delivers_the_golden_values_next(arch, ops, deliveries, k, part_way, monkeypatch):
    """The k-th drain fails, before it commits anything or part-way
    through its run; the next call on the same cached ring starts from the
    engine state a fresh ring starts from and delivers the golden values."""
    arch = Architecture(arch)
    run = partial(run_closed_loop, 3, PAIRED_VARIANT[arch], arch, 8, ops)
    real_apply, real_drain = Simulation.apply_inputs, Simulation.drain
    starts, drains = [], []

    def apply_inputs(self, assignments):
        starts.append(_engine_state(self))
        return real_apply(self, assignments)

    def drain(self):
        drains.append(self)
        if len(drains) < k:
            return real_drain(self)
        if not part_way:
            raise RuntimeError("drain failed")
        cap, self.event_cap = self.event_cap, 10
        try:
            return real_drain(self)
        finally:
            self.event_cap = cap

    monkeypatch.setattr(Simulation, "apply_inputs", apply_inputs)
    stage_module._closed_ring.cache_clear()
    assert run().deliveries == deliveries
    fresh = starts[0]
    with monkeypatch.context() as cut:
        cut.setattr(Simulation, "drain", drain)
        with pytest.raises(OscillationError if part_way else RuntimeError):
            run()
    starts.clear()
    assert run().deliveries == deliveries
    assert starts[0] == fresh
    assert stage_module._closed_ring.cache_info().misses == 1


def test_a_fork_runs_as_its_origin_would_and_leaves_it_as_it_was(table):
    """The pulse of `test_replacements_are_counted_exactly` on a fork of
    the powered-on sim: the same trace, settle time and replacement count
    as on the origin, whose state the fork's run leaves untouched."""
    text = "input a\ninput d\ngate i INV a b\ngate g AND2 a b y"
    origin = Simulation(parse_netlist(text), table)
    origin.settle_power_on()
    powered_on = _engine_state(origin)
    forks = [origin.fork(), origin.fork()]
    for sim in forks:
        assert _engine_state(sim) == powered_on and sim.trace == []
        assert sim._fanout is origin._fanout
        sim.apply_inputs([("a", 1)], at_time=30)
        assert sim.run_until_quiescent() == ([(30, "a", 1), (60, "b", 0)], 60)
        assert sim.replacements == 1 and _engine_state(origin) == powered_on
    origin.apply_inputs([("a", 1)], at_time=30)
    assert origin.run_until_quiescent() == ([(30, "a", 1), (60, "b", 0)], 60)
    assert [_engine_state(sim) for sim in forks] == [_engine_state(origin)] * 2

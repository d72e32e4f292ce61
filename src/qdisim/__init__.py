"""Gate-level simulation and timing analysis of dual-rail self-timed
ripple-carry adders under 4-phase return-to-zero handshaking."""

from .adders import AdderVariant, build_full_adder, build_rca, functional_check
from .analysis import (
    ChainSpec,
    IndicationClass,
    Indication,
    TimingReport,
    asymptotic_check,
    classify_both,
    classify_indication,
    crossover_m,
    gen_carry_chain_vector,
    measure,
    sweep,
    sweep_csv,
    theory_global,
    theory_local,
)
from .cells import (
    DelayTable,
    default_delay_table,
    derive_pinned_delays,
    load_delay_table,
)
from .dualrail import PAIR_STATE, RailState, decode_word, rail_assignments
from .netlist import (
    Gate,
    GateKind,
    Netlist,
    gate_census,
    parse_netlist,
    serialize_netlist,
    validate,
)
from .sim import Phase, Simulation, check_phase
from .stage import (
    Architecture,
    StageDescriptor,
    TransactionRecord,
    build_completion_detector,
    build_stage,
    run_closed_loop,
    run_transaction,
)

__all__ = [name for name in dir() if not name.startswith("_")]

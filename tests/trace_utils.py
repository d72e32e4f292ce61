"""Trace replay helpers shared by the stage and acceptance tests."""

from qdisim.dualrail import PAIR_STATE, RailState


def pair_states_at(trace, pairs, initial, when):
    """Rail-pair states just after every transition at time <= when.

    `pairs` maps port -> (rail1, rail0); `initial` maps rail net -> value
    at the start of the trace.
    """
    values = dict(initial)
    for t, net, v in trace:
        if t > when:
            break
        if net in values:
            values[net] = v
    return {
        port: PAIR_STATE[values[r1], values[r0]]
        for port, (r1, r0) in pairs.items()
    }


def transitions_of(trace, net):
    return [(t, v) for t, n, v in trace if n == net]


def assert_completion_ordering(trace, pairs, initial, cd_net, rising):
    """The detector output may rise only once every watched pair is valid,
    and fall only once every watched pair is back to spacer."""
    moves = [(t, v) for t, n, v in trace if n == cd_net and v == (1 if rising else 0)]
    assert moves, f"{cd_net} never {'rose' if rising else 'fell'}"
    t_move = moves[0][0]
    states = pair_states_at(trace, pairs, initial, t_move)
    if rising:
        bad = {p: s for p, s in states.items() if s not in (RailState.ZERO, RailState.ONE)}
        assert not bad, f"detector rose at {t_move} before pairs were valid: {bad}"
    else:
        bad = {p: s for p, s in states.items() if s is not RailState.SPACER}
        assert not bad, f"detector fell at {t_move} before pairs were spacer: {bad}"

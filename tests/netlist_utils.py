"""Netlist helpers shared by the netlist, wave-plan, event-queue and stage tests."""


def nets(netlist) -> set[str]:
    """Every net the netlist names: its primary inputs and outputs and each
    gate's inputs and output."""
    found = set(netlist.primary_inputs) | set(netlist.primary_outputs)
    for g in netlist.gates:
        found.update(g.inputs)
        found.add(g.output)
    return found

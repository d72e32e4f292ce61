"""The stage's completion detector on its own, for the stage, wave-plan and
acceptance tests: `emit_stage` writes it over the registered pairs, and
here it watches primary input pairs instead."""
from dataclasses import dataclass

from qdisim.netlist import GateKind, Netlist, NetlistBuilder
from qdisim.stage import _emit_completion_detector


@dataclass
class CompletionDetector:
    netlist: Netlist
    cd_out: str
    depth: int  # C2 levels between the per-pair OR2s and cd_out, read off the netlist


def completion_tree_depth(netlist, cd_out: str) -> int:
    """Longest C2 chain between the per-pair OR level and cd_out, computed
    structurally from the netlist."""
    by_output = {g.output: g for g in netlist.gates}
    memo: dict[str, int] = {}

    def depth_of(net: str) -> int:
        g = by_output.get(net)
        if g is None or g.kind is not GateKind.C2:
            return 0
        if net not in memo:
            memo[net] = 1 + max(depth_of(x) for x in g.inputs)
        return memo[net]

    return depth_of(cd_out)


def build_completion_detector(pair_count: int) -> CompletionDetector:
    """The detector over pair_count >= 1 dual-rail inputs p0..p(k-1)."""
    nb = NetlistBuilder()
    rails = [nb.add_input_pair(f"p{i}") for i in range(pair_count)]
    root = nb.add_output(_emit_completion_detector(nb, "", rails))
    netlist = nb.build()
    return CompletionDetector(netlist, root, completion_tree_depth(netlist, root))

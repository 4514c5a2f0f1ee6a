"""IR analyses: CFGs, dominance, loops, control dependence, data/memory flow.

All control-flow analyses exist at instruction granularity (the level IDL
operates at, per paper §3) with block-level variants where passes need them.
"""

from .cfg import InstructionCFG, block_rpo, generic_rpo, reachable_blocks
from .dataflow import (
    all_data_flow_passes_through,
    data_operands,
    data_users,
    flow_killed_by,
    has_dataflow_edge,
    reaches_via_dataflow,
)
from .dominators import DominatorTree, GenericDomTree, dominance_frontiers
from .info import FunctionAnalyses
from .loops import Loop, LoopInfo
from .memdep import base_pointer, has_dependence_edge, may_alias
from .sese import ControlDependence

__all__ = [
    "InstructionCFG", "block_rpo", "generic_rpo", "reachable_blocks",
    "all_data_flow_passes_through", "data_operands", "data_users",
    "flow_killed_by", "has_dataflow_edge", "reaches_via_dataflow",
    "DominatorTree", "GenericDomTree", "dominance_frontiers",
    "FunctionAnalyses",
    "Loop", "LoopInfo",
    "base_pointer", "has_dependence_edge", "may_alias",
    "ControlDependence",
]

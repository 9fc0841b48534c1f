"""Static binary analysis: the front half of the paper's Fig. 6 pipeline.

Disassembly -> basic blocks -> CFG (with indirect-edge pruning via constant
propagation and pointer scanning) -> function/return analysis -> static
control-flow statistics.
"""

from .basicblocks import BasicBlock, build_blocks, find_leaders
from .cfg import CFG, build_cfg
from .constprop import ConstPropResult, ResolvedTransfer, propagate
from .disassembler import (
    Disassembly,
    default_roots,
    disassemble,
    linear_sweep,
    recursive_descent,
)
from .functions import (
    FunctionAnalysis,
    FunctionInfo,
    analyze_functions,
    discover_entries,
    ret_randomization_safety,
)
from .pointer_scan import PointerHit, scan_image
from .stats import ControlFlowStats, collect_stats

__all__ = [
    "Disassembly",
    "disassemble",
    "linear_sweep",
    "recursive_descent",
    "default_roots",
    "BasicBlock",
    "build_blocks",
    "find_leaders",
    "CFG",
    "build_cfg",
    "ConstPropResult",
    "ResolvedTransfer",
    "propagate",
    "PointerHit",
    "scan_image",
    "FunctionAnalysis",
    "FunctionInfo",
    "analyze_functions",
    "discover_entries",
    "ret_randomization_safety",
    "ControlFlowStats",
    "collect_stats",
]

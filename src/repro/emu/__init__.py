"""Software-based ILR execution: the paper's Fig. 2 baseline.

:class:`ILREmulator` runs a randomized binary and charges the host cost
of a software-ILR VM that de-randomizes, fetches and decodes *every*
executed instruction, reproducing the slowdown that motivates hardware
support; the host itself decodes each virtual PC once.
"""

from .hostcost import HostCostCounters, HostCostParams
from .vm import EmulationResult, ILREmulator

__all__ = [
    "ILREmulator",
    "EmulationResult",
    "HostCostParams",
    "HostCostCounters",
]

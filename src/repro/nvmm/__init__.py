"""NVMM (PCM) substrate: device contents, wear, banking, timing, energy."""

from .allocator import FrameAllocator
from .bank import Bank, BankService
from .controller import MemoryController
from .device import PCMDevice, WearStats
from .energy import EnergyAccount, EnergyCategory
from .wearlevel import StartGapWearLeveler, WearLevelerConfig, leveling_effectiveness

__all__ = [
    "Bank",
    "BankService",
    "EnergyAccount",
    "EnergyCategory",
    "FrameAllocator",
    "MemoryController",
    "PCMDevice",
    "StartGapWearLeveler",
    "WearLevelerConfig",
    "WearStats",
    "leveling_effectiveness",
]

"""NVMM (PCM) substrate: device contents, banking, timing, energy."""

from .allocator import FrameAllocator
from .bank import Bank, BankService
from .controller import MemoryController
from .device import PCMDevice
from .energy import EnergyAccount, EnergyCategory

__all__ = [
    "Bank",
    "BankService",
    "EnergyAccount",
    "EnergyCategory",
    "FrameAllocator",
    "MemoryController",
    "PCMDevice",
]

"""CPU-side timing: the in-order core model that turns the post-LLC
stream's memory stalls into IPC (the reproduction models no caches)."""

from .cpu import CoreTimingModel, relative_ipc

__all__ = [
    "CoreTimingModel",
    "relative_ipc",
]

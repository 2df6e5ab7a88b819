"""Exception hierarchy for the ESD reproduction library.

Every exception raised deliberately by the library derives from
:class:`ReproError`, so callers can catch library failures without also
swallowing programming errors such as :class:`TypeError`.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigError(ReproError):
    """An invalid or inconsistent configuration value was supplied."""


class ECCError(ReproError):
    """Base class for ECC codec failures."""


class UncorrectableError(ECCError):
    """An ECC decode detected an error pattern it cannot correct.

    SEC-DED codes correct single-bit errors and *detect* (but cannot correct)
    double-bit errors; a double-bit detection raises this error.
    """

    def __init__(self, message: str, *, word_index: int = -1) -> None:
        super().__init__(message)
        #: Index of the 8-byte word within the cache line where decoding
        #: failed, or -1 when unknown / not applicable.
        self.word_index = word_index


class DeviceError(ReproError):
    """Base class for NVMM device failures."""


class OutOfSpaceError(DeviceError):
    """The NVMM frame allocator has no free physical frames left."""


class InvalidAddressError(DeviceError):
    """An address fell outside the device's configured capacity."""


class EnduranceExceededError(DeviceError):
    """A physical frame surpassed its configured write-endurance limit.

    Raised only when the device is configured with
    ``fail_on_endurance=True``; by default wear is merely recorded.
    """


class TraceFormatError(ReproError):
    """A serialized trace file is malformed or version-incompatible."""


class SimulationError(ReproError):
    """The simulation engine reached an inconsistent state."""


class SweepError(ReproError):
    """An orchestrated experiment sweep could not complete.

    Raised by :class:`repro.sweep.Scheduler` when one or more jobs still
    fail after exhausting their retry budget; the exception message lists
    the failed (app, scheme) cells and their last errors.
    """


class UnknownBackendError(SweepError):
    """A sweep execution or storage backend name is not registered.

    Raised by the :mod:`repro.sweep` execution-backend registry when
    ``--backend`` (or its library equivalent) names no registered backend,
    and by :func:`repro.sweep.run_sweep` when ``storage`` names another
    backend than ``"sqlite"``; the message lists what is accepted,
    mirroring the unknown-scheme error from the scheme registry.
    """


class LeaseError(SweepError):
    """A distributed-sweep lease operation violated the claims protocol.

    Raised by the result store when a worker releases a lease it does
    not hold, or when claim state is internally inconsistent.
    """


class CheckpointError(SimulationError):
    """A mid-run checkpoint could not be written, read, or resumed.

    Raised by :mod:`repro.sim.checkpoint` on a corrupt or truncated
    checkpoint file (bad magic, version, CRC, or payload length) and on
    resume-time inconsistencies such as restoring a session that was not
    checkpointed in the open state.
    """


class SessionError(SimulationError):
    """An incremental simulation session was used after it ended.

    Raised by :class:`repro.sim.session.Session` when ``feed`` or
    ``finalize`` is called on a session that was already finalized,
    closed, or failed mid-feed.
    """


class ServeError(ReproError):
    """The dedup-as-a-service layer (:mod:`repro.serve`) failed.

    Covers protocol violations, rejected admissions, and client-side
    failures such as the server closing the connection mid-session.
    """

    def __init__(self, message: str, *, code: str = "internal") -> None:
        super().__init__(message)
        #: Machine-readable error code (mirrors the wire protocol's
        #: ``error`` field; see :mod:`repro.serve.protocol`).
        self.code = code


class WorkerCrashError(ServeError):
    """A serve engine worker process died with sessions on it.

    Raised (and carried over the wire as the ``worker_crash`` error code)
    when a multi-process :mod:`repro.serve` worker exits or is killed
    while sessions are routed to it.  Only the crashed worker's sessions
    fail — their in-worker simulation state is unrecoverable — while
    other workers' sessions are unaffected and the pool respawns the
    worker for future sessions.
    """

    def __init__(self, message: str, *, code: str = "worker_crash") -> None:
        super().__init__(message, code=code)


class IntegrityError(SimulationError):
    """Read-back verification observed data different from what was written.

    This is the invariant deduplication must never violate: eliminating a
    write is only legal when the stored bytes are identical to the incoming
    bytes.  The simulator checks this continuously when
    ``SystemConfig.verify_integrity`` is enabled.
    """

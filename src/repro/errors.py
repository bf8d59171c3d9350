"""Exception hierarchy for the OPT reproduction library.

Every error raised by ``repro`` derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still letting programming errors (``TypeError`` etc.) propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class GraphError(ReproError):
    """Raised for malformed graph inputs (self loops, bad vertex ids...)."""


class GraphFormatError(GraphError):
    """Raised when parsing an on-disk graph representation fails."""


class StorageError(ReproError):
    """Base class for storage-layer failures."""


class PageFormatError(StorageError):
    """Raised when a slotted page cannot be decoded."""


class PageFullError(StorageError):
    """Raised when a record does not fit into the remaining page space."""


class BufferError_(StorageError):
    """Raised on buffer-manager misuse (over-unpin, no free frame...).

    Named with a trailing underscore to avoid shadowing the builtin
    ``BufferError``.
    """


class DeviceError(StorageError):
    """Raised when an I/O device (real or simulated) fails a request."""


class FaultExhaustedError(DeviceError):
    """Terminal device failure: a fault plan outlasted the retry policy.

    Raised when a page read keeps failing after every retry (plus the
    timeout fallback's synchronous re-read, on the async path).  Catching
    this error means the run *detected* the unrecoverable fault — the
    alternative, a silently wrong triangle listing, never happens.
    """

    def __init__(self, message: str, *, pid: int | None = None,
                 attempts: int = 0):
        super().__init__(message)
        self.pid = pid
        self.attempts = attempts


class CheckpointError(ReproError):
    """Raised on checkpoint misuse (re-recording a committed iteration,
    loading a checkpoint whose geometry disagrees with the run...)."""


class SimulationError(ReproError):
    """Raised when the discrete-event simulation reaches an invalid state."""


class ConfigurationError(ReproError):
    """Raised for invalid framework configuration (buffer sizes, cores...).

    ``refused`` names the :class:`~repro.obs.RunContext` fields an
    engine's ``accept`` declaration turned away (empty for every other
    misconfiguration), so a front end can say which of its own options
    the engine does not honour.
    """

    def __init__(self, message: str, *, refused: tuple[str, ...] = ()):
        super().__init__(message)
        self.refused = refused


class TriangulationError(ReproError):
    """Raised when a triangulation run cannot proceed."""


class ParallelError(TriangulationError):
    """Raised when the process-parallel engine cannot complete a run.

    Covers worker-process failures (the worker's exception is summarized
    in the message) and chunk-accounting mismatches during the merge —
    both mean the merged triangle listing would be incomplete, which must
    never be returned silently.
    """

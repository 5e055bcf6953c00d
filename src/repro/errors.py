"""Exception hierarchy for the repro package.

Every error raised by this library derives from :class:`ReproError`, so
callers can catch a single base class.  More specific subclasses exist
for the major subsystems (chain substrate, MDP toolkit, games) to keep
error handling targeted.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class ChainError(ReproError):
    """Base class for blockchain substrate errors."""


class UnknownBlockError(ChainError):
    """A referenced block id is not present in the block tree."""


class DuplicateBlockError(ChainError):
    """A block with the same id was already inserted into the tree."""


class OrphanParentError(ChainError):
    """A block references a parent that is not in the tree."""


class InvalidBlockError(ChainError):
    """A block violates a structural rule (e.g. non-positive size)."""


class MDPError(ReproError):
    """Base class for MDP construction and solving errors."""


class InvalidTransitionError(MDPError):
    """A transition's probabilities are malformed (negative, or do not
    sum to one per state/action pair)."""


class NoActionError(MDPError):
    """A state was built with no available action."""


class SolverError(MDPError):
    """An MDP solver failed to converge or hit a numerical problem."""


class SolverInputError(SolverError):
    """A solver was called with malformed inputs (non-positive
    tolerance, empty channel mappings, invalid bracket, ...)."""


class SchedulerSpecError(SolverInputError):
    """A scheduler spec is malformed -- a zero, negative or
    non-numeric worker count such as ``process:0`` -- and was rejected
    at parse time, before any pool is constructed.  Subclass of
    :class:`SolverInputError` so supervised sweeps treat it as a
    non-retryable caller mistake."""


class SolverDivergedError(SolverError):
    """A solver produced non-finite intermediate or final values (NaN
    or infinite gains/ratios) instead of a usable solution."""


class SolverBudgetExceededError(SolverError):
    """A supervised solve exhausted its wall-clock or iteration budget
    before converging."""


class SolveDeadlineError(SolverBudgetExceededError):
    """A solve missed its caller-imposed wall-clock deadline.

    Subclass of :class:`SolverBudgetExceededError` so fallback chains
    treat it as non-recoverable: a different algorithm cannot refund
    spent time.  Raised by :meth:`repro.core.deadline.Deadline.budget`
    when the deadline expired before the solve could even start, and by
    the serving layer when an in-flight solve overruns it."""


class FallbackExhaustedError(SolverError):
    """Every stage of a solver fallback chain failed; carries the
    per-stage diagnostics in :attr:`diagnostics`."""

    def __init__(self, message: str, diagnostics=()) -> None:
        super().__init__(message)
        #: Sequence of ``StageDiagnostics`` describing each attempt.
        self.diagnostics = list(diagnostics)


class GameError(ReproError):
    """Base class for game-theoretic module errors."""


class InvalidPowerVectorError(GameError):
    """Mining power shares are malformed (negative, or do not sum to 1)."""


class SimulationError(ReproError):
    """The Monte-Carlo simulator hit an inconsistent state."""


class FaultInjectionError(SimulationError):
    """A fault-injection plan is malformed (rates outside [0, 1],
    inverted windows, unknown node names)."""


class CheckpointError(ReproError):
    """A checkpoint journal is corrupt or belongs to a different sweep
    or schema version."""


class ArtifactCorruptError(ReproError):
    """A persisted artifact (analysis file, table, atlas entry) failed
    to load: malformed JSON, wrong kind/schema, missing fields, or a
    checksum mismatch.

    Carries the offending path and a human-readable reason so serving
    layers can quarantine the file instead of crashing."""

    def __init__(self, path, reason: str) -> None:
        super().__init__(f"{path}: {reason}")
        #: Location of the corrupt artifact.
        self.path = str(path)
        #: Why the artifact was rejected.
        self.reason = reason


class ServeError(ReproError):
    """Base class for solver-as-a-service errors."""


class ServiceOverloadError(ServeError):
    """The service's admission controller rejected a request because
    the pending-solve queue is full (the 429 of this system).  Clients
    should back off and retry; the request was never enqueued."""


class ServiceShutdownError(ServeError):
    """The service is draining or closed; the request was either never
    admitted or its in-flight solve was cancelled by shutdown."""


class RequestTooLargeError(ServeError):
    """An HTTP request exceeded the configured size limit (the 413
    of this system).  The connection is answered with a typed error
    object -- never silently dropped -- and then closed, because the
    stream position past an oversized frame is unrecoverable."""


class AtlasQuarantineError(ServeError):
    """Moving a corrupt atlas entry into ``quarantine/`` failed for a
    real reason (permissions, a cross-device quarantine directory, ...)
    rather than a lost race with another process.  The corrupt entry is
    still in place; serving must surface this instead of silently
    retrying the same poisoned file forever."""

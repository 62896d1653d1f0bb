"""Exception hierarchy for the :mod:`repro` package.

All library-raised exceptions derive from :class:`ReproError` so that callers can
catch library failures without catching unrelated built-ins.

Wire protocol
-------------
Every exception class carries a stable string :attr:`~ReproError.code` and
serialises with :meth:`~ReproError.to_dict` to ``{"code", "message"}`` — the
one error shape shared by the CLI (``error [code]: message`` on stderr) and
the HTTP front-end (:mod:`repro.serve.http`, JSON error bodies).  Codes are
part of the public wire contract: they are unique per class, never reused for
a different meaning, and :func:`error_from_dict` resolves a received payload
back to the matching class (unknown codes degrade to :class:`ReproError`, so
a newer server never crashes an older client).
"""

from __future__ import annotations

from typing import Dict, Mapping, Type


class ReproError(Exception):
    """Base class for every exception raised by the :mod:`repro` package."""

    #: Stable wire identifier of this error class (unique per class; part of
    #: the serialisation contract shared by the CLI and the HTTP front-end).
    code: str = "error"

    def to_dict(self) -> dict:
        """The wire form of this error: ``{"code": ..., "message": ...}``."""
        return {"code": self.code, "message": str(self)}


class GraphError(ReproError):
    """Raised on invalid graph construction or queries (unknown node, bad weight...)."""

    code = "graph"


class ProtocolError(ReproError):
    """Raised when a distributed protocol is driven incorrectly.

    Examples: reading a protocol output before the required number of rounds has
    been executed, or sending a message to a node that is not a neighbour.
    """

    code = "protocol"


class SimulationError(ReproError):
    """Raised by the synchronous network simulator on inconsistent configuration."""

    code = "simulation"


class AlgorithmError(ReproError):
    """Raised when an algorithm receives parameters outside its domain.

    Examples: a non-positive approximation parameter ``epsilon``, a round budget
    ``T < 1`` or an empty graph where a non-empty one is required.
    """

    code = "algorithm"


class InvalidLambdaError(AlgorithmError, ValueError):
    """Raised when a non-finite λ reaches an entry point.

    Deliberately *both* an :class:`AlgorithmError` (so library-wide handlers —
    the CLI in particular — treat it like any other domain error) and a
    ``ValueError`` (the natural builtin for a value outside the domain, which
    callers outside the library can catch without importing this module).
    """

    code = "invalid-lambda"


class ConvergenceError(ReproError):
    """Raised when an iterative baseline (e.g. Frank-Wolfe) fails to converge."""

    code = "convergence"


class StoreError(ReproError):
    """Raised by the persistent artifact store on invalid operations.

    Examples: a store root that exists but is not a directory, a malformed
    fingerprint, or arrays that do not describe a trajectory.  Corrupted or
    foreign *files* never raise — they read as cache misses.
    """

    code = "store"


class ServeError(ReproError):
    """Raised by the async serving layer when it is driven incorrectly.

    Examples: submitting to a closed :class:`~repro.serve.JobQueue`, invalid
    worker/backpressure bounds, or a job sent to a draining server.
    """

    code = "serve"


class QueueFullError(ServeError):
    """Raised by a non-blocking submission when ``max_pending`` jobs are in flight.

    The blocking submission path never raises this — it waits for capacity.
    The HTTP front-end maps it to ``429 Too Many Requests`` (backpressure is a
    client-visible condition, not a server fault).
    """

    code = "queue-full"


class QuotaExceededError(ServeError):
    """Raised when a tenant's token-bucket request quota is exhausted.

    Carries :attr:`retry_after` (seconds until one token refills) so transports
    can tell the client when to come back (the HTTP ``Retry-After`` header).
    """

    code = "quota-exceeded"

    def __init__(self, message: str, *, retry_after: float = 0.0) -> None:
        super().__init__(message)
        self.retry_after = float(retry_after)

    def to_dict(self) -> dict:
        return {**super().to_dict(), "retry_after": self.retry_after}


class UnknownResourceError(ServeError):
    """Raised when a request names a resource the server does not hold.

    Examples: a job id that was never issued, or a graph fingerprint that no
    upload registered.  The HTTP front-end maps it to ``404 Not Found``.
    """

    code = "unknown-resource"


class WireFormatError(ServeError):
    """Raised on a malformed wire request (bad JSON, wrong shape, bad field).

    The HTTP front-end maps it to ``400 Bad Request``; it never corresponds to
    a server-side fault.
    """

    code = "bad-request"


class PayloadTooLargeError(WireFormatError):
    """Raised when a request declares a body larger than the server accepts.

    The HTTP front-end maps it to ``413 Content Too Large`` and closes the
    connection, because the unread body cannot be skipped safely.
    """

    code = "payload-too-large"


def _wire_classes() -> Dict[str, Type[ReproError]]:
    """``code -> class`` for every :class:`ReproError` subclass (plus the base).

    Walked from the live class tree so a subclass added later (including by
    downstream code that subclasses :class:`ReproError` with its own ``code``)
    is resolvable without touching a registry by hand.
    """
    by_code: Dict[str, Type[ReproError]] = {ReproError.code: ReproError}
    pending = [ReproError]
    while pending:
        for sub in pending.pop().__subclasses__():
            # First registration wins on a duplicated code: the tree is walked
            # parents-first, so the most general class keeps the claim.
            by_code.setdefault(sub.code, sub)
            pending.append(sub)
    return by_code


def error_from_dict(payload: Mapping) -> ReproError:
    """Rebuild the :class:`ReproError` a ``to_dict()`` payload describes.

    The inverse of :meth:`ReproError.to_dict`: the returned exception is an
    instance of the class whose ``code`` matches (an unknown code degrades to
    the base :class:`ReproError` — a newer peer must not crash an older one),
    carrying the transported message.  Raises :class:`WireFormatError` when
    the payload is not an error document at all.
    """
    if not isinstance(payload, Mapping) or "code" not in payload:
        raise WireFormatError(f"not an error payload: {payload!r}")
    cls = _wire_classes().get(str(payload["code"]), ReproError)
    message = str(payload.get("message", ""))
    if cls is QuotaExceededError:
        try:
            retry_after = float(payload.get("retry_after", 0.0))
        except (TypeError, ValueError):
            retry_after = 0.0
        return cls(message, retry_after=retry_after)
    return cls(message)

"""Structured errors for the sweep query service.

Every failure a client can trigger maps to a :class:`ServiceError`
carrying an HTTP-style status, a stable machine-readable ``code`` and
arbitrary structured ``details`` — the HTTP layer serializes it
verbatim, the in-process client raises it.  The selector errors carry
dedicated structure: a scalar query against a swept axis without an
explicit selector (:class:`repro.errors.AmbiguousAxisError`, a 400) or
a selector value off the grid (:class:`repro.errors.NotOnGridError`, a
404) names the offending axis and its values, so the caller can repair
the request programmatically.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.errors import (
    AmbiguousAxisError,
    InfeasibleQueryError,
    NotOnGridError,
    ReproError,
)
from repro.transport import FrameError


class ServiceError(ReproError):
    """A client-reportable failure with an HTTP status and a stable code."""

    def __init__(self, status: int, code: str, message: str, **details: Any):
        super().__init__(message)
        self.status = int(status)
        self.code = code
        self.message = message
        self.details = details

    def to_payload(self) -> Dict[str, Any]:
        """The JSON body served for this error."""
        error = {"status": self.status, "code": self.code, "message": self.message}
        error.update(self.details)
        return {"ok": False, "error": error}

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "ServiceError":
        """Rebuild the error a server serialized (client-side raise)."""
        error = dict(payload.get("error") or {})
        status = error.pop("status", 500)
        code = error.pop("code", "internal")
        message = error.pop("message", "unknown service error")
        return cls(status, code, message, **error)


def as_service_error(exc: BaseException) -> ServiceError:
    """Map an arbitrary exception onto the structured error taxonomy."""
    if isinstance(exc, ServiceError):
        return exc
    if isinstance(exc, AmbiguousAxisError):
        return ServiceError(
            400,
            "ambiguous-axis",
            str(exc),
            axis=exc.axis,
            values=list(exc.values),
        )
    if isinstance(exc, InfeasibleQueryError):
        return ServiceError(
            404,
            "infeasible",
            str(exc),
            app=exc.app,
            fps=exc.fps,
            n_pixels=exc.n_pixels,
            scheme=exc.scheme,
            best_fps=exc.best_fps,
        )
    if isinstance(exc, FrameError):
        # a malformed/corrupt binary frame body (checked before FrameError's
        # ValueError base so the code names the transport, not the request)
        return ServiceError(400, "bad-frame", str(exc))
    if isinstance(exc, KeyError):
        # KeyError str() repr-quotes its single argument; unwrap it
        message = str(exc.args[0]) if exc.args else str(exc)
        details = {}
        if isinstance(exc, NotOnGridError) and exc.axis is not None:
            details = dict(axis=exc.axis, values=list(exc.values))
        return ServiceError(404, "not-on-grid", message, **details)
    if isinstance(exc, (ValueError, TypeError)):
        return ServiceError(400, "bad-request", str(exc))
    return ServiceError(500, "internal", f"{type(exc).__name__}: {exc}")

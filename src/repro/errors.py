"""The unified exception hierarchy of the public ``repro.api`` surface.

Every failure a :class:`repro.api.Session` can raise derives from
:class:`ReproError`, whichever execution path produced it:

- :class:`AmbiguousAxisError` — a scalar query named no value for an
  axis the grid sweeps (also a :class:`KeyError` for backward
  compatibility);
- :class:`NotOnGridError` — a query named a value absent from the
  evaluated grid (also a :class:`KeyError`);
- :class:`InfeasibleQueryError` — a constraint query (``cheapest``)
  that no point on the evaluated grid satisfies (also a
  :class:`LookupError`);
- :class:`repro.service.errors.ServiceError` — a structured failure
  reported by the sweep service (HTTP status + stable code + details);
- :class:`BackendUnavailableError` — the backend cannot be reached at
  all (also a :class:`ConnectionError`, so pre-facade callers that
  caught socket errors keep working).

The base classes live here, dependency-free, so :mod:`repro.core` and
:mod:`repro.service` can both subclass them without importing the
facade (which imports them).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class of every error the ``repro.api`` facade raises.

    Catching this one class handles any failure mode uniformly across
    the local and remote backends; catch the specific subclasses to
    repair requests programmatically.
    """


class UnknownAxisError(ReproError, AttributeError):
    """A sweep axis name that is not in the axis registry.

    Raised by the :class:`repro.api.Grid` builder (also an
    :class:`AttributeError`, so ``hasattr``-style feature probes keep
    working) and by the CLI ``--sweep`` parser.  Carries the unknown
    name and the closest registered spelling, when one is close enough,
    so tooling can repair the request programmatically.
    """

    def __init__(self, message: str, name: str = "", suggestion: str = ""):
        super().__init__(message)
        self.name = name
        self.suggestion = suggestion


class AmbiguousAxisError(ReproError, KeyError):
    """A scalar query named no value for an axis the grid sweeps.

    Carries the ambiguous ``axis`` name and its swept ``values`` so
    structured consumers — the query service's 400 responses — can
    report exactly which selector is missing instead of parsing the
    message.  Subclasses :class:`KeyError`, so existing callers that
    catch the old bare error keep working.
    """

    def __init__(self, axis: str, values):
        self.axis = axis
        self.values = tuple(values)
        super().__init__(
            f"grid sweeps {axis} over {self.values}; pass an explicit value"
        )

    def __str__(self) -> str:  # KeyError repr-quotes its payload; don't
        return self.args[0]


class NotOnGridError(ReproError, KeyError):
    """A query named a value absent from the evaluated grid.

    Also a :class:`KeyError`, so pre-facade callers that caught the old
    bare error keep working; the service layer maps it to a structured
    404 (``error.code == "not-on-grid"``) whose details carry ``axis``
    and the axis ``values`` when the raiser named them.
    """

    def __init__(self, message: str = "", axis=None, values=()):
        super().__init__(message)
        self.axis = axis
        self.values = tuple(values)

    def __str__(self) -> str:  # KeyError repr-quotes its payload; don't
        return str(self.args[0]) if self.args else ""


class InfeasibleQueryError(ReproError, LookupError):
    """No point on the evaluated grid satisfies the constraint query.

    Raised by ``Sweep.cheapest(...)`` (every backend — local, remote and
    distributed raise this identical class, pinned by the parity suite)
    when no configuration reaches the requested frame rate.  Carries the
    query and the best achievable frame rate on the grid so callers can
    relax the constraint programmatically; the service layer maps it to
    a structured 404 (``error.code == "infeasible"``).
    """

    def __init__(
        self,
        message: str,
        app: str = "",
        fps: float = 0.0,
        n_pixels: int = 0,
        scheme: str = "",
        best_fps: float = 0.0,
        steps_per_s: float = 0.0,
        best_rate: float = 0.0,
    ):
        super().__init__(message)
        self.app = app
        self.fps = fps
        self.n_pixels = n_pixels
        self.scheme = scheme
        self.best_fps = best_fps
        self.steps_per_s = steps_per_s
        self.best_rate = best_rate

    def __str__(self) -> str:  # LookupError would repr-quote the payload
        return str(self.args[0]) if self.args else ""


def infeasible_query(
    app: str, fps: float, n_pixels: int, scheme: str, best_fps: float
) -> InfeasibleQueryError:
    """The one spelling of "no config reaches that fps".

    Both the adaptive explorer and the dense-result path (local, remote
    and distributed backends alike) build the error here, so the class,
    message and structured attributes are identical across execution
    paths — the parity suite pins them equal.
    """
    return InfeasibleQueryError(
        f"no configuration on the grid reaches {fps:g} fps for "
        f"app={app!r} at {n_pixels} pixels (scheme {scheme!r}); "
        f"best achievable is {best_fps:.2f} fps",
        app=app, fps=float(fps), n_pixels=int(n_pixels),
        scheme=scheme, best_fps=float(best_fps),
    )


def infeasible_train_query(
    app: str, steps_per_s: float, n_pixels: int, scheme: str,
    best_rate: float,
) -> InfeasibleQueryError:
    """The one spelling of "no config trains that fast".

    The training-throughput twin of :func:`infeasible_query`, built in
    one place for the same reason: every execution path raises the
    identical class, message and structured attributes.
    """
    return InfeasibleQueryError(
        f"no configuration on the grid trains at {steps_per_s:g} "
        f"steps/s for app={app!r} at {n_pixels} pixels "
        f"(scheme {scheme!r}); best achievable is {best_rate:.2f} steps/s",
        app=app, n_pixels=int(n_pixels), scheme=scheme,
        steps_per_s=float(steps_per_s), best_rate=float(best_rate),
    )


class BackendUnavailableError(ReproError, ConnectionError):
    """A Session backend cannot be reached (connect/transport failure).

    Raised by the remote backend when the sweep service at the
    configured host/port refuses connections or drops them before a
    complete response arrives.  Carries the probed endpoint so the
    message can say what to start where.
    """

    def __init__(self, message: str, host: str = "", port: int = 0):
        super().__init__(message)
        self.host = host
        self.port = port

"""Exception types shared across the package.

Every operation that can reject its input raises one of these instead of a
bare ValueError, so callers (and the pipeline's per-packet error accounting)
can tell failure modes apart.
"""
from __future__ import annotations


class ManifoldTestError(ValueError):
    """Base class for all package errors."""


class EmptyInputError(ManifoldTestError):
    """An operation that needs at least one point got an empty cloud."""


class InvalidParameterError(ManifoldTestError):
    """A scalar parameter is outside its documented range."""


class UnderdeterminedTangentError(ManifoldTestError):
    """Fewer than d+1 neighbors inside the tangent-estimation radius."""


class DegenerateNeighborhoodError(ManifoldTestError):
    """Tangent estimation saw a neighborhood with zero covariance."""


class InsufficientDataError(ManifoldTestError):
    """Reach estimation needs two points; the test, a span above d dimensions."""


class PlaneOutsideBallError(ManifoldTestError):
    """A lifted plane does not intersect the unit ball."""


class InfeasibleModelError(ManifoldTestError):
    """Requested model cannot be fit (for example k > number of points)."""


class OutOfDomainError(ManifoldTestError):
    """Query point lies outside every squared cylinder of the packet."""


class DegenerateCoverError(ManifoldTestError):
    """All bump weights vanish at a point that is inside the domain."""


class InsufficientGapError(ManifoldTestError):
    """Hessian spectrum has no usable gap between low and top blocks."""


class EscapedDomainError(ManifoldTestError):
    """Newton iteration left the packet domain even at the smallest step."""


class NoConvergenceError(ManifoldTestError):
    """Iteration exhausted its step or damping budget without converging."""


class EmptyMeshError(ManifoldTestError):
    """Putative-manifold extraction produced no chart from any seed."""


class DecompositionFailedError(ManifoldTestError):
    """Alternating projection onto the disc bundle did not converge."""


class UncoveredPointError(ManifoldTestError):
    """Partition-of-unity denominator vanished at the query point."""


class OutOfTubeError(ManifoldTestError):
    """No fiber of the putative manifold contains the query point."""


class DuplicateSiteError(ManifoldTestError):
    """Constraint assembly got two coincident sites."""


class SiteMismatchError(ManifoldTestError):
    """Field sites and sketch representatives do not line up."""


class BudgetExceededError(ManifoldTestError):
    """The section solver ended without certifying; carries the best
    iterate found and its stop: "budget" (the cut budget ran out), "stall"
    (no progress on the best iterate), "pinned" (the center is pinned
    against the older cuts) or "optimum" (the objective's unconstrained
    optimum lies above the target)."""

    def __init__(self, message: str, best=None, stop: str | None = None):
        super().__init__(message)
        self.best = best
        self.stop = stop


class InfeasibleSectionError(ManifoldTestError):
    """A cylinder's section fit cannot certify: the objective lower bound of
    one normal component exceeds eps_bar. Carries all four."""

    def __init__(self, cylinder: int, component: int, bound: float, eps_bar: float):
        super().__init__(f"cylinder {cylinder} component {component} cannot certify: "
                         f"objective lower bound {bound:.6g} exceeds eps_bar {eps_bar:.6g}")
        self.cylinder = cylinder
        self.component = component
        self.bound = bound
        self.eps_bar = eps_bar


class NoValidPacketError(ManifoldTestError):
    """Pipeline could not build any candidate packet; carries diagnostics."""

    def __init__(self, message: str, failures=None):
        super().__init__(message)
        self.failures = failures or []

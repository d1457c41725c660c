"""Cylinder packets, approximate squared-distance functions, disc bundles.

A cylinder is an isometric copy of tau_bar * (B_d x B_{n-d}); a packet is a
family of cylinders whose neighbors are near-translates of each other along
the shared tangential directions. The packet induces a smooth field F that
behaves like the squared distance to a d-manifold; its high-curvature
eigenspaces define fibers, and Newton iteration along the fibers extracts a
putative manifold mesh.
"""
from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .core_geometry import (
    AffineSubspace,
    PointCloud,
    _ball_grid,
    _sign_fix_rows,
    frame_from_tangent,
    greedy_net,
    lexsort_dedup,
    orthonormal_completion,
)
from .errors import (
    DegenerateCoverError,
    DecompositionFailedError,
    EmptyInputError,
    EmptyMeshError,
    EscapedDomainError,
    InsufficientGapError,
    InvalidParameterError,
    NoConvergenceError,
    OutOfDomainError,
)

ROTATION_TOL = 1e-10
PROJECTOR_TOL = 1e-9
TRACE_TOL = 1e-6
MEMBERSHIP_SLACK = 1e-12
BUMP_INNER = 0.25   # theta == 1 inside this radius
BUMP_OUTER = 1.0    # theta == 0 from this radius on

# Base-point solver failures that reject one seed or point, not the input.
BASE_POINT_ERRORS = (OutOfDomainError, DegenerateCoverError, InsufficientGapError,
                     EscapedDomainError, NoConvergenceError)


@dataclass(frozen=True)
class BundleConstants:
    """Numeric constants of the bundle machinery, kept in one record."""

    cbar2: float = 0.5          # accepted top-eigenvalue interval, lower edge
    Cbar3: float = 4.0          # accepted top-eigenvalue interval, upper edge
    gap_tol: float = 0.25       # minimal spectral gap for the fiber projector
    smoothness_order: int = 4   # derivative order tracked by the ASDF conditions
    membership_slack: float = MEMBERSHIP_SLACK
    cbar10: float = 4.0         # fiber offset bound is cbar10 * tau_bar / 2
    c1_floor: float = 0.1       # empirical lower ellipticity threshold
    C1_ceiling: float = 10.0    # empirical upper ellipticity threshold
    deriv_ceiling: float = 10.0


DEFAULT_CONSTANTS = BundleConstants()


# ---- bump function ----

def bump_profile(radii) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Radial bump h(r) and its radial derivatives h'(r), h''(r), elementwise.

    Identically 1 for r <= 1/4 and 0 (with vanishing derivatives) for
    r >= 1; in between exp(1 - 1/(1 - t^2)) on the affine ramp
    t = (r - 1/4)/(3/4), with t clamped below 1 - 1e-9.
    """
    r = np.asarray(radii, dtype=np.float64)
    ramp = (r > BUMP_INNER) & (r < BUMP_OUTER)
    width = BUMP_OUTER - BUMP_INNER
    # off the ramp t is clamped into [0, 1) so that the discarded values stay finite
    t = np.minimum(np.maximum((r - BUMP_INNER) / width, 0.0), 1.0 - 1e-9)
    one_m = 1.0 - t * t
    sq = one_m ** 2
    g = np.exp(1.0 - 1.0 / one_m)
    phi1 = -2.0 * t / sq
    phi2 = -2.0 / sq - 8.0 * t * t / one_m ** 3
    h = np.where(ramp, g, r <= BUMP_INNER)
    h1 = np.where(ramp, g * phi1 / width, 0.0)
    h2 = np.where(ramp, g * (phi2 + phi1 * phi1) / width ** 2, 0.0)
    return h, h1, h2


# ---- cylinders and packets ----

@dataclass(frozen=True, eq=False)
class Cylinder:
    """Rigid placement of tau_bar * (B_d x B_{n-d}) in R^n.

    rotation columns are the local axes (first tangent_dim tangential),
    center is the image of the origin, scale is tau_bar.
    """

    rotation: np.ndarray   # (n, n), proper orthogonal
    center: np.ndarray     # (n,)
    scale: float           # tau_bar
    tangent_dim: int       # d

    def __post_init__(self):
        rot = np.asarray(self.rotation, dtype=np.float64)
        cen = np.asarray(self.center, dtype=np.float64)
        n = cen.shape[0]
        if rot.shape != (n, n):
            raise InvalidParameterError("rotation shape does not match center")
        if float(np.max(np.abs(rot.T @ rot - np.eye(n)))) > ROTATION_TOL:
            raise InvalidParameterError("rotation is not orthogonal to 1e-10")
        if abs(float(np.linalg.det(rot)) - 1.0) > 1e-8:
            raise InvalidParameterError("rotation must be proper (det +1)")
        if not (self.scale > 0):
            raise InvalidParameterError("cylinder scale must be positive")
        if not (1 <= self.tangent_dim < n):
            raise InvalidParameterError(
                f"tangent dimension {self.tangent_dim} invalid for ambient {n}")
        object.__setattr__(self, "rotation", rot)
        object.__setattr__(self, "center", cen)

    @property
    def ambient_dim(self) -> int:
        return self.center.shape[0]

    def to_local(self, z: np.ndarray) -> np.ndarray:
        return self.rotation.T @ (np.asarray(z, dtype=np.float64) - self.center)

    def to_ambient(self, w: np.ndarray) -> np.ndarray:
        return self.rotation @ np.asarray(w, dtype=np.float64) + self.center

    def contains(self, z, factor: float = 1.0, slack: float = MEMBERSHIP_SLACK) -> bool:
        w = self.to_local(z)
        d = self.tangent_dim
        lim = factor * self.scale + slack
        return (np.linalg.norm(w[:d]) <= lim) and (np.linalg.norm(w[d:]) <= lim)


class CylinderPacket:
    """A family of congruent cylinders with recorded alignment constants."""

    def __init__(self, cylinders: Sequence[Cylinder], tau: float,
                 c12: float, C_align: float):
        cylinders = tuple(cylinders)
        if not cylinders:
            raise EmptyInputError("a packet needs at least one cylinder")
        if not (0 < tau < 1):
            raise InvalidParameterError(f"tau must lie in (0, 1), got {tau}")
        if not (c12 > 0 and C_align > 0):
            raise InvalidParameterError("alignment constants must be positive")
        first = cylinders[0]
        for cyl in cylinders:
            if abs(cyl.scale - first.scale) > 1e-12:
                raise InvalidParameterError("all cylinders must share one scale")
            if cyl.tangent_dim != first.tangent_dim or cyl.ambient_dim != first.ambient_dim:
                raise InvalidParameterError("all cylinders must share (d, n)")
        tau_bar = first.scale
        worst = max(float(np.linalg.norm(c.center)) for c in cylinders)
        if worst > 1.0 + tau_bar + 1e-9:
            raise InvalidParameterError(
                f"cylinder center at norm {worst:.6g} is too far outside the unit ball")
        self.cylinders = cylinders
        self.tau = float(tau)
        self.c12 = float(c12)
        self.C_align = float(C_align)
        self.tau_bar = float(tau_bar)
        self.d = first.tangent_dim
        self.n = first.ambient_dim
        self.centers = np.stack([c.center for c in cylinders])
        self.rotations = np.stack([c.rotation for c in cylinders])
        self.center_sq = np.sum(self.centers * self.centers, axis=1)

    @property
    def size(self) -> int:
        return len(self.cylinders)

    def members(self, z: np.ndarray, factor: float = 2.0,
                slack: float = MEMBERSHIP_SLACK) -> tuple[np.ndarray, np.ndarray]:
        """Indices of the cylinders containing z at the given dilation factor,
        and the local coordinates of z in each of them, shape (members, n)."""
        _, idx, w = _member_pairs(self, np.asarray(z, dtype=np.float64)[None, :],
                                  factor, slack)
        return idx, w


def _member_pairs(packet: CylinderPacket, points: np.ndarray, factor: float = 2.0,
                  slack: float = MEMBERSHIP_SLACK):
    """(point row, cylinder, local coordinates) of each pair whose dilated
    cylinder holds the point, by row, then cylinder. A member is within lim
    tangentially and normally, so within 2 lim^2 squared of its center."""
    lim = factor * packet.tau_bar + slack
    sq = points @ packet.centers.T   # one (P, K) array, updated in place
    sq *= -2.0
    sq += (points * points).sum(1)[:, None]
    sq += packet.center_sq
    pi, ki = np.nonzero(sq <= 2.0 * lim * lim * (1.0 + 1e-6) + 1e-12)
    w = np.einsum("kji,kj->ki", packet.rotations[ki], points[pi] - packet.centers[ki])
    tan, nor = w[:, :packet.d], w[:, packet.d:]
    inside = np.nonzero((np.sqrt((tan * tan).sum(1)) <= lim)
                        & (np.sqrt((nor * nor).sum(1)) <= lim))[0]
    return pi[inside], ki[inside], w[inside]


def packet_to_json(packet: CylinderPacket) -> str:
    """Serialize a packet; rotations are row-major flattened."""
    payload = {
        "tau": packet.tau,
        "tau_bar": packet.tau_bar,
        "d": packet.d,
        "n": packet.n,
        "c12": packet.c12,
        "C": packet.C_align,
        "cylinders": [
            {"center": c.center.tolist(), "rotation": c.rotation.ravel().tolist()}
            for c in packet.cylinders
        ],
    }
    return json.dumps(payload, sort_keys=True)


def packet_from_json(text: str) -> CylinderPacket:
    """Inverse of packet_to_json."""
    payload = json.loads(text)
    n = int(payload["n"])
    cylinders = [
        Cylinder(
            rotation=np.asarray(c["rotation"], dtype=np.float64).reshape(n, n),
            center=np.asarray(c["center"], dtype=np.float64),
            scale=float(payload["tau_bar"]),
            tangent_dim=int(payload["d"]),
        )
        for c in payload["cylinders"]
    ]
    return CylinderPacket(cylinders, tau=float(payload["tau"]),
                          c12=float(payload["c12"]), C_align=float(payload["C"]))


# ---- packet construction and validation ----

def _neighbor_indices(packet: CylinderPacket, i: int) -> np.ndarray:
    """Cylinders whose squared dilation could intersect cylinder i's.

    Ball proxy: each cyl^2 sits inside a ball of radius 2 sqrt(2) tau_bar.
    """
    lim = 4.0 * math.sqrt(2.0) * packet.tau_bar
    dist = np.linalg.norm(packet.centers - packet.centers[i], axis=1)
    nbrs = np.nonzero(dist <= lim)[0]
    return nbrs[nbrs != i]


def _alignment_stats(packet: CylinderPacket, i: int, j: int) -> tuple[float, float, np.ndarray]:
    """(op norm of Id - U, normal offset, tangential offset) for neighbor j of i."""
    d = packet.d
    rot_i, rot_j = packet.rotations[i], packet.rotations[j]
    q = rot_i.T @ rot_j
    sig = np.linalg.svd(q[:d, :d], compute_uv=False)
    cos_min = float(np.clip(sig.min() if sig.size else 1.0, -1.0, 1.0))
    theta = math.acos(min(cos_min, 1.0))
    opnorm = 2.0 * math.sin(theta / 2.0)
    p = rot_i.T @ (packet.centers[j] - packet.centers[i])
    return opnorm, float(np.linalg.norm(p[d:])), p[:d]


@dataclass(frozen=True)
class PacketValidation:
    """Result of the four packet conditions with worst margins."""

    condition1_ok: bool
    condition2_ok: bool
    condition3_ok: bool
    condition4_ok: bool
    worst_angle: float           # largest principal angle over neighbor pairs
    worst_opnorm: float          # largest ||Id - U|| over neighbor pairs
    worst_normal_offset: float   # largest |Tr(0)|
    worst_coverage_gap: float    # largest distance from a grid point to the covers
    failures: tuple[str, ...]

    @property
    def all_ok(self) -> bool:
        return (self.condition1_ok and self.condition2_ok
                and self.condition3_ok and self.condition4_ok)


def validate_packet(packet: CylinderPacket,
                    spacing_fraction: float = 0.05,
                    angle_limit: float = 1.0) -> PacketValidation:
    """Check the four packet conditions against the stored constants.

    Condition 1: tangent spans of neighbors can be aligned (largest principal
    angle below angle_limit). Condition 2: the aligning rotation satisfies
    ||Id - U|| <= c12 tau_bar. Condition 3: the residual translation has
    norm <= C tau_bar^2 / tau. Condition 4: the aligned tangential translates
    of the neighbors cover B_d(0, 3 tau_bar), checked on a grid of spacing
    tau_bar / 20 by default.
    """
    tb = packet.tau_bar
    bound2 = packet.c12 * tb
    bound3 = packet.C_align * tb * tb / packet.tau
    h = tb * spacing_fraction
    grid = _ball_grid(np.arange(-3.0 * tb, 3.0 * tb + h / 2.0, h), packet.d, 3.0 * tb)

    worst_angle = 0.0
    worst_op = 0.0
    worst_tr = 0.0
    worst_gap = 0.0
    failures: list[str] = []
    ok1 = ok2 = ok3 = ok4 = True
    for i in range(packet.size):
        nbrs = _neighbor_indices(packet, i)
        offsets = [np.zeros(packet.d)]
        for j in nbrs:
            opnorm, tr_norm, tan_off = _alignment_stats(packet, i, int(j))
            theta = 2.0 * math.asin(min(opnorm / 2.0, 1.0))
            worst_angle = max(worst_angle, theta)
            worst_op = max(worst_op, opnorm)
            worst_tr = max(worst_tr, tr_norm)
            if theta > angle_limit:
                ok1 = False
                failures.append(f"cyl {i} nbr {j}: principal angle {theta:.4f}")
            if opnorm > bound2:
                ok2 = False
                failures.append(f"cyl {i} nbr {j}: ||Id-U|| {opnorm:.4g} > {bound2:.4g}")
            if tr_norm > bound3:
                ok3 = False
                failures.append(f"cyl {i} nbr {j}: |Tr(0)| {tr_norm:.4g} > {bound3:.4g}")
            offsets.append(tan_off)
        centers = np.stack(offsets)
        d2 = (
            np.sum(grid * grid, axis=1)[:, None]
            - 2.0 * grid @ centers.T
            + np.sum(centers * centers, axis=1)[None, :]
        )
        np.maximum(d2, 0.0, out=d2)
        gap = float(np.sqrt(d2.min(axis=1)).max())
        worst_gap = max(worst_gap, gap)
        if gap > tb + 1e-12:
            ok4 = False
            failures.append(f"cyl {i}: coverage gap {gap:.4g} > tau_bar {tb:.4g}")
    return PacketValidation(
        condition1_ok=ok1, condition2_ok=ok2, condition3_ok=ok3, condition4_ok=ok4,
        worst_angle=worst_angle, worst_opnorm=worst_op, worst_normal_offset=worst_tr,
        worst_coverage_gap=worst_gap, failures=tuple(failures))


def ideal_packet(cloud: PointCloud, tangents: Mapping[int, AffineSubspace],
                 tau: float, cbar12: float = 0.1,
                 c12: float | None = None, C_align: float | None = None,
                 max_cylinders: int | None = None) -> CylinderPacket:
    """Data-driven ideal packet: greedy tau_bar/2-net centers, tangent frames.

    tangents must cover every selected net index. When the alignment
    constants are not given they are measured from the built packet
    (envelope times 1.25, with floors 1.0 and 10.0).
    """
    if cloud.size == 0:
        raise EmptyInputError("cannot build a packet from an empty cloud")
    if not (0 < cbar12 < 1):
        raise InvalidParameterError(f"cbar12 must lie in (0, 1), got {cbar12}")
    tau_bar = cbar12 * tau
    net = greedy_net(cloud, tau_bar / 2.0)
    if max_cylinders is not None:
        net = net[:max_cylinders]
    cylinders = []
    for idx in net:
        if idx not in tangents:
            raise InvalidParameterError(f"no tangent supplied for net index {idx}")
        frame = frame_from_tangent(tangents[idx])
        cylinders.append(Cylinder(rotation=frame, center=cloud.points[idx].copy(),
                                  scale=tau_bar, tangent_dim=tangents[idx].dim))
    packet = CylinderPacket(cylinders, tau=tau, c12=1.0, C_align=10.0)
    if c12 is None or C_align is None:
        worst_op = 0.0
        worst_tr = 0.0
        for i in range(packet.size):
            for j in _neighbor_indices(packet, i):
                opnorm, tr_norm, _ = _alignment_stats(packet, i, int(j))
                worst_op = max(worst_op, opnorm)
                worst_tr = max(worst_tr, tr_norm)
        if c12 is None:
            c12 = max(worst_op * 1.25 / tau_bar, 1.0)
        if C_align is None:
            C_align = max(worst_tr * 1.25 * tau / tau_bar ** 2, 10.0)
    return CylinderPacket(packet.cylinders, tau=tau, c12=c12, C_align=C_align)


# ---- the approximate squared-distance field ----

def _field_error(status: int) -> Exception:
    """The error a nonzero `_asdf_terms` status stands for."""
    if status == 1:
        return OutOfDomainError("point lies outside every squared cylinder")
    return DegenerateCoverError("all bump weights vanish at the query point")


def _asdf_terms(packet: CylinderPacket, points: np.ndarray, order: int):
    """Field at the rows of points (P, n); order is 0 (value) or 2 (with derivatives).

    F = sum_k theta_k phi_k / sum_k theta_k over each point's member cylinders
    k at factor 2 (_member_pairs). Sums run over each point's own member
    run, so no row depends on another. Returns value, grad, hess (None for
    order 0), owner (the member of largest bump weight, the first of equals)
    and status (0, or the _field_error code of the row).
    """
    d = packet.d
    two_tb = 2.0 * packet.tau_bar
    pi, ki, w = _member_pairs(packet, points)
    tan, nor = w[:, :d], w[:, d:]
    tan_norm = np.sqrt((tan * tan).sum(1))
    P, n = points.shape
    value, owner, status = np.full(P, np.nan), np.full(P, -1), np.ones(P, dtype=np.int8)
    grad, hess = (np.zeros((P, n)), np.zeros((P, n, n))) if order == 2 else (None, None)
    count = np.bincount(pi, minlength=P)
    rows = np.nonzero(count)[0]
    if not rows.size:
        return value, grad, hess, owner, status
    starts = np.cumsum(count[rows]) - count[rows]
    theta, h1, h2 = bump_profile(tan_norm / two_tb)
    phi = np.sum(nor * nor, axis=1)
    b_val = np.add.reduceat(theta, starts)
    status[rows] = np.where(b_val > 0.0, 0, 2)
    b_val = np.where(b_val > 0.0, b_val, 1.0)   # the rows of status 2 are discarded
    value[rows] = np.add.reduceat(phi * theta, starts) / b_val
    owner[rows] = ki[np.lexsort((-theta, pi))[starts]]   # stable: the first of equals
    if order < 2:
        return value, grad, hess, owner, status

    rot = packet.rotations[ki]
    t_frame, n_frame = rot[:, :, :d], rot[:, :, d:]
    # ambient unit tangential directions; h' vanishes wherever tan_norm does
    safe_norm = np.where(tan_norm > 0.0, tan_norm, 1.0)
    unit = np.einsum("mnd,md->mn", t_frame, tan / safe_norm[:, None])
    outer_unit = np.einsum("mi,mj->mij", unit, unit)
    tan_proj = np.einsum("mid,mjd->mij", t_frame, t_frame)
    theta_grad = (h1 / two_tb)[:, None] * unit
    theta_hess = ((h2 / two_tb ** 2)[:, None, None] * outer_unit
                  + (h1 / (two_tb * safe_norm))[:, None, None] * (tan_proj - outer_unit))
    phi_grad = 2.0 * np.einsum("mnc,mc->mn", n_frame, nor)
    cross = np.einsum("mi,mj->mij", phi_grad, theta_grad)

    a_grad = np.add.reduceat(phi[:, None] * theta_grad + theta[:, None] * phi_grad, starts)
    b_grad = np.add.reduceat(theta_grad, starts)
    a_hess = np.add.reduceat(
        phi[:, None, None] * theta_hess + cross + cross.transpose(0, 2, 1)
        + 2.0 * theta[:, None, None] * np.einsum("mic,mjc->mij", n_frame, n_frame), starts)
    b_hess = np.add.reduceat(theta_hess, starts)
    val = value[rows]
    g = (a_grad - val[:, None] * b_grad) / b_val[:, None]
    grad[rows] = g
    hess[rows] = (a_hess - val[:, None, None] * b_hess - g[:, :, None] * b_grad[:, None, :]
                  - b_grad[:, :, None] * g[:, None, :]) / b_val[:, None, None]
    return value, grad, hess, owner, status


def _one_point(packet: CylinderPacket, z, order: int):
    z = np.asarray(z, dtype=np.float64)
    if z.shape != (packet.n,):
        raise InvalidParameterError(
            f"point of shape {z.shape} does not match ambient dim {packet.n}")
    value, grad, hess, _, status = _asdf_terms(packet, z[None, :], order)
    if status[0]:
        raise _field_error(status[0])
    return float(value[0]), grad, hess


def asdf_eval(packet: CylinderPacket, z) -> float:
    """Value of the packet's approximate squared-distance field at z."""
    return _one_point(packet, z, order=0)[0]


def asdf_grad_hess(packet: CylinderPacket, z) -> tuple[float, np.ndarray, np.ndarray]:
    """Value, gradient and Hessian of the field, all analytic."""
    value, grad, hess = _one_point(packet, z, order=2)
    return value, grad[0], hess[0]


# ---- fiber projector and base-point extraction ----

@dataclass(frozen=True)
class PiHiResult:
    """Projector onto the top eigenspace of a Hessian, with diagnostics."""

    projector: np.ndarray       # (n, n) symmetric idempotent
    fiber_basis: np.ndarray     # (codim, n) orthonormal rows, top eigenvalue first
    eigenvalues: np.ndarray     # all eigenvalues, ascending
    gap: float                  # eigenvalue gap between low and top blocks
    interval_ok: bool           # all top eigenvalues inside [cbar2, Cbar3]


def _top_eigenspaces(hess: np.ndarray, codim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stacked spectra of (m, n, n) Hessians: ascending eigenvalues (m, n),
    sign-fixed top `codim` eigenvector rows (m, codim, n), top first, and the
    gap (m,) between positions n-codim-1 and n-codim."""
    if float(np.max(np.abs(hess - hess.transpose(0, 2, 1)))) > PROJECTOR_TOL:
        raise InvalidParameterError("hessian is not symmetric to 1e-9")
    m, n, _ = hess.shape
    evals, evecs = np.linalg.eigh(hess)
    low = n - codim
    gap = np.full(m, math.inf) if low == 0 else evals[:, low] - evals[:, low - 1]
    top = evecs[:, :, ::-1][:, :, :codim].transpose(0, 2, 1).reshape(m * codim, n)
    return evals, _sign_fix_rows(top).reshape(m, codim, n), gap


def pi_hi(hessian, codim: int, gap_tol: float = DEFAULT_CONSTANTS.gap_tol,
          constants: BundleConstants = DEFAULT_CONSTANTS) -> PiHiResult:
    """Projector onto the span of the top `codim` Hessian eigenvectors.

    The spectrum is sorted ascending; the gap between positions n-codim-1
    and n-codim must be at least gap_tol, otherwise InsufficientGapError.
    """
    h = np.asarray(hessian, dtype=np.float64)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise InvalidParameterError("hessian must be square")
    n = h.shape[0]
    if not (1 <= codim <= n):
        raise InvalidParameterError(f"codim {codim} invalid for dimension {n}")
    evals, top, gap = _top_eigenspaces(h[None], codim)
    evals, top, gap = evals[0], top[0], float(gap[0])
    if gap < gap_tol:
        raise InsufficientGapError(f"spectral gap {gap:.6g} below tolerance {gap_tol:.6g}")
    top_vals = evals[n - codim:]
    interval_ok = bool(np.all(top_vals >= constants.cbar2)
                       and np.all(top_vals <= constants.Cbar3))
    return PiHiResult(projector=top.T @ top, fiber_basis=top,
                      eigenvalues=evals, gap=gap, interval_ok=interval_ok)


@dataclass(frozen=True, eq=False)
class BundleChart:
    """One extracted point of the putative manifold with its fiber data."""

    base_point: np.ndarray      # (n,)
    projector_hi: np.ndarray    # (n, n)
    fiber_basis: np.ndarray     # (codim, n)
    owning_cylinder: int
    residual: float             # |Pi_hi grad F| at the base point
    eigenvalues: tuple[float, ...]

    def __post_init__(self):
        p = np.asarray(self.projector_hi, dtype=np.float64)
        if float(np.max(np.abs(p - p.T))) > PROJECTOR_TOL:
            raise InvalidParameterError("projector is not symmetric to 1e-9")
        if float(np.max(np.abs(p @ p - p))) > PROJECTOR_TOL:
            raise InvalidParameterError("projector is not idempotent to 1e-9")
        codim = self.fiber_basis.shape[0]
        if abs(float(np.trace(p)) - codim) > TRACE_TOL:
            raise InvalidParameterError("projector trace does not match the codimension")

    @property
    def tangent_basis(self) -> np.ndarray:
        """Orthonormal rows spanning the kernel of the fiber projector."""
        return orthonormal_completion(self.fiber_basis, self.fiber_basis.shape[1])


class BaseSolutions(tuple):
    """Per-row outcomes of a batched base-point solve, in row order: each a
    BundleChart or the BASE_POINT_ERRORS instance that ended the row's solve.
    `evaluations` counts the rows the field kernel evaluated."""

    def __new__(cls, outcomes, evaluations: int):
        self = super().__new__(cls, outcomes)
        self.evaluations = evaluations
        return self


def solve_base_point(packet: CylinderPacket, z0, newton_tol: float = 1e-10,
                     max_steps: int = 60,
                     constants: BundleConstants = DEFAULT_CONSTANTS):
    """Damped Newton for a zero of Pi_hi grad F along the current fiber.

    Steps move only inside the span of the top Hessian eigenvectors; a step
    is halved (up to 20 times) until the fixed-frame residual decreases.
    z0 of shape (n,) returns its BundleChart or raises. z0 of shape (m, n)
    returns a BaseSolutions tuple of m outcomes; its rows are solved in one
    masked loop (each row keeps its own iterate, step count and halving),
    and a row's outcome does not depend on the other rows.
    """
    z0 = np.asarray(z0, dtype=np.float64)
    if z0.shape[-1:] != (packet.n,) or z0.ndim not in (1, 2):
        raise InvalidParameterError(
            f"point of shape {z0.shape} does not match ambient dim {packet.n}")
    if z0.ndim == 1:
        out = _newton(packet, z0[None, :], newton_tol, max_steps, constants)[0]
        if isinstance(out, Exception):
            raise out
        return out
    return _newton(packet, z0, newton_tol, max_steps, constants)


def _newton(packet, z0, newton_tol, max_steps, constants) -> BaseSolutions:
    codim = packet.n - packet.d
    z = z0.copy()
    _, grad, hess, owner, status = _asdf_terms(packet, z, order=2)
    evaluations = z.shape[0]
    outcomes = [_field_error(s) if s else None for s in status]
    active = np.nonzero(status == 0)[0]
    for _ in range(max_steps):
        if not active.size:
            break
        h = hess[active]
        evals, fiber, gap = _top_eigenspaces(h, codim)
        resid = np.matmul(fiber, grad[active][:, :, None])
        rnorm = np.sqrt((resid * resid).sum((1, 2)))
        narrow = gap < constants.gap_tol
        for i in np.nonzero(narrow)[0]:
            outcomes[active[i]] = InsufficientGapError(
                f"spectral gap {gap[i]:.6g} below tolerance {constants.gap_tol:.6g}")
        for i in np.nonzero(~narrow & (rnorm <= newton_tol))[0]:
            r, fib = active[i], fiber[i].copy()
            outcomes[r] = BundleChart(
                base_point=z[r].copy(), projector_hi=fib.T @ fib, fiber_basis=fib,
                owning_cylinder=int(owner[r]), residual=float(rnorm[i]),
                eigenvalues=tuple(evals[i].tolist()))
        going = ~narrow & (rnorm > newton_tol)
        active, h, fiber, resid, rnorm = (a[going] for a in (active, h, fiber, resid, rnorm))
        if not active.size:
            break
        hf = np.matmul(np.matmul(fiber, h), fiber.transpose(0, 2, 1))
        try:
            delta = np.linalg.solve(hf, -resid)
        except np.linalg.LinAlgError:   # solve row by row: only a singular row fails
            delta = np.zeros_like(resid)
            for i, r in enumerate(active):
                try:
                    delta[i] = np.linalg.solve(hf[i], -resid[i])
                except np.linalg.LinAlgError:
                    outcomes[r] = NoConvergenceError("singular fiber Hessian in the Newton step")
            going = np.array([outcomes[r] is None for r in active], dtype=bool)
            active, fiber, rnorm, delta = (a[going] for a in (active, fiber, rnorm, delta))
        step = np.matmul(fiber.transpose(0, 2, 1), delta)[:, :, 0]
        lam = np.ones(active.size)
        exits = np.zeros(active.size, dtype=np.int64)
        pending = np.arange(active.size)
        for _halving in range(21):
            rows = active[pending]
            cand = z[rows] + lam[pending, None] * step[pending]
            _, g2, h2, o2, s2 = _asdf_terms(packet, cand, order=2)
            evaluations += rows.size
            exits[pending] += s2 != 0
            r2 = np.matmul(fiber[pending], g2[:, :, None])
            taken = (s2 == 0) & (np.sqrt((r2 * r2).sum((1, 2))) < rnorm[pending])
            won = rows[taken]
            z[won], grad[won], hess[won], owner[won] = cand[taken], g2[taken], h2[taken], o2[taken]
            pending = pending[~taken]
            if not pending.size:
                break
            lam[pending] *= 0.5
        for i in pending:
            outcomes[active[i]] = (
                EscapedDomainError("every damped step left the packet domain")
                if exits[i] == 21 else NoConvergenceError(
                    f"residual {rnorm[i]:.3g} would not decrease after 20 halvings"))
        if pending.size:
            active = np.delete(active, pending)
    for r in active:
        outcomes[r] = NoConvergenceError(f"no convergence in {max_steps} Newton steps")
    return BaseSolutions(outcomes, evaluations)


@dataclass(frozen=True, eq=False)
class PutativeMesh:
    """Deduplicated charts extracted from a packet."""

    charts: tuple[BundleChart, ...]
    tolerance: float
    packet: CylinderPacket
    failures: tuple[tuple[int, str], ...] = ()
    newton: Mapping[str, int] = field(default_factory=dict)   # seeds, solved, evaluations

    def __post_init__(self):
        if not self.charts:
            raise EmptyMeshError("a putative mesh needs at least one chart")
        for chart in self.charts:
            if chart.residual > self.tolerance * (1.0 + 1e-9) + 1e-15:
                raise InvalidParameterError(
                    f"chart residual {chart.residual:.3g} exceeds tolerance")

    @functools.cached_property
    def base_points(self) -> np.ndarray:
        """(k, n) chart base points, stacked once and read-only."""
        points = np.stack([c.base_point for c in self.charts])
        points.flags.writeable = False
        return points


def extract_putative_manifold(packet: CylinderPacket, seeds,
                              newton_tol: float = 1e-10,
                              dedup_fraction: float = 0.01,
                              constants: BundleConstants = DEFAULT_CONSTANTS) -> PutativeMesh:
    """Run the base-point solver from every seed and deduplicate the results.

    The distinct seed rows, in order of first appearance, are solved in one
    batched call; every seed gets its row's chart or failure (the error
    kind and text) in seed order. Base points closer than
    tau_bar * dedup_fraction are merged by a sequential pass over the
    lexicographically sorted points. mesh.newton counts the seeds, the
    distinct rows solved and the field-kernel rows evaluated.
    """
    seeds = np.asarray(seeds, dtype=np.float64)
    if seeds.ndim != 2 or seeds.shape[0] == 0:
        raise EmptyInputError("need a nonempty (m, n) array of seeds")
    slots: dict[bytes, int] = {}
    slot = np.array([slots.setdefault(seed.tobytes(), len(slots)) for seed in seeds])
    rows = seeds[np.unique(slot, return_index=True)[1]]
    solved = solve_base_point(packet, rows, newton_tol, constants=constants)
    charts = []
    failures = []
    for s, j in enumerate(slot):
        out = solved[j]
        if isinstance(out, BundleChart):
            charts.append(out)
        else:
            failures.append((s, f"{type(out).__name__}: {out}"))
    if not charts:
        raise EmptyMeshError(
            f"no seed converged ({len(failures)} failures, "
            f"first: {failures[0][1] if failures else 'none'})")
    kept = lexsort_dedup(np.stack([c.base_point for c in charts]),
                         packet.tau_bar * dedup_fraction)
    return PutativeMesh(charts=tuple(charts[i] for i in kept),
                        tolerance=newton_tol, packet=packet,
                        failures=tuple(failures),
                        newton={"seeds": len(seeds), "solved": len(rows),
                                "evaluations": solved.evaluations})


# ---- bundle coordinates ----

@dataclass(frozen=True, eq=False)
class FiberDecomposition:
    """z = base + v with v in the fiber at base; x is the base parameter."""

    x: np.ndarray            # (d,) tangential coordinates in the owning cylinder
    v: np.ndarray            # (n,) fiber offset
    base_point: np.ndarray   # (n,)
    chart: BundleChart


def bundle_coordinates(packet: CylinderPacket, context, z,
                       tol: float = 1e-11, max_iters: int = 60,
                       newton_tol: float = 1e-10,
                       constants: BundleConstants = DEFAULT_CONSTANTS) -> FiberDecomposition:
    """Alternating projection of z onto (base point, fiber offset).

    context is a BundleChart or a PutativeMesh (the nearest chart is used
    as the starting base). The fiber offset must stay within
    cbar10 * tau_bar / 2.
    """
    z = np.asarray(z, dtype=np.float64)
    if isinstance(context, PutativeMesh):
        dists = np.linalg.norm(context.base_points - z, axis=1)
        chart = context.charts[int(np.argmin(dists))]
    elif isinstance(context, BundleChart):
        chart = context
    else:
        raise InvalidParameterError("context must be a BundleChart or PutativeMesh")

    shift_tol = max(tol, 1e-13) * max(1.0, packet.tau_bar)
    for _ in range(max_iters):
        p = chart.projector_hi
        v = p @ (z - chart.base_point)
        t = (z - chart.base_point) - v
        if math.sqrt(t @ t) <= shift_tol:
            vmax = constants.cbar10 * packet.tau_bar / 2.0
            vnorm = math.sqrt(v @ v)
            if vnorm > vmax + 1e-12:
                raise DecompositionFailedError(
                    f"fiber offset {vnorm:.4g} exceeds {vmax:.4g}")
            owner = packet.cylinders[chart.owning_cylinder]
            x = owner.to_local(chart.base_point)[:packet.d]
            return FiberDecomposition(x=x, v=v, base_point=chart.base_point.copy(),
                                      chart=chart)
        try:
            chart = solve_base_point(packet, chart.base_point + t, newton_tol,
                                     constants=constants)
        except BASE_POINT_ERRORS as exc:
            raise DecompositionFailedError(
                f"base-point update failed: {type(exc).__name__}: {exc}")
    raise DecompositionFailedError(f"no convergence in {max_iters} alternations")


# ---- ASDF condition checking ----

@dataclass(frozen=True)
class AsdfConditionsReport:
    """Empirical ellipticity and derivative bounds of a packet's field."""

    c1_empirical: float
    C1_empirical: float
    max_gradient: float
    max_hessian_entry: float
    evaluated: int
    skipped: int
    violations: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.violations


def _unit_cylinder_grid(d: int, codim: int) -> np.ndarray:
    """Deterministic probe points in the unit cylinder B_d x B_codim."""
    levels = np.array([-0.9, -0.6, -0.3, 0.0, 0.3, 0.6, 0.9])
    a, b = (g.ravel() for g in np.meshgrid(levels, levels, indexing="ij"))
    points = np.zeros((d, codim, a.size, d + codim))
    for i in range(d):
        points[i, :, :, i] = a
        for j in range(codim):
            points[i, j, :, d + j] = b
    return np.unique(np.round(points.reshape(-1, d + codim), 12), axis=0)


def check_asdf_conditions(packet: CylinderPacket, sample: PointCloud,
                          tangents: Mapping[int, AffineSubspace],
                          rho: float | None = None,
                          constants: BundleConstants = DEFAULT_CONSTANTS) -> AsdfConditionsReport:
    """Probe the rescaled field F_hat around manifold samples.

    For each sample z with tangent frame Theta the field
    F_hat(w) = F(z + tau_bar Theta w) / tau_bar^2 is probed on a grid in the
    unit cylinder; the report collects the empirical ellipticity ratios
    (F_hat + rho^2) / (|y|^2 + rho^2) and the derivative magnitudes.
    """
    if sample.size == 0:
        raise EmptyInputError("need at least one sample point")
    tb = packet.tau_bar
    if rho is None:
        rho = tb / packet.tau
    grid = _unit_cylinder_grid(packet.d, packet.n - packet.d)
    denom = np.sum(grid[:, packet.d:] ** 2, axis=1) + rho ** 2
    c1, c_up, max_grad, max_hess, evaluated = math.inf, 0.0, 0.0, 0.0, 0
    for i in range(sample.size):
        if i not in tangents:
            raise InvalidParameterError(f"no tangent supplied for sample index {i}")
        frame = frame_from_tangent(tangents[i])
        value, grad, hess, _, status = _asdf_terms(
            packet, sample.points[i] + tb * grid @ frame.T, order=2)
        ok = status == 0
        evaluated += int(ok.sum())
        ratio = ((value[ok] / tb ** 2 + rho ** 2) / denom[ok])[denom[ok] > 1e-15]
        c1 = min(c1, float(ratio.min(initial=math.inf)))
        c_up = max(c_up, float(ratio.max(initial=0.0)))
        max_grad = max(max_grad, float(np.abs(grad[ok] @ frame / tb).max(initial=0.0)))
        max_hess = max(max_hess, float(np.abs(frame.T @ hess[ok] @ frame).max(initial=0.0)))
    skipped = sample.size * grid.shape[0] - evaluated
    violations = []
    if evaluated == 0:
        violations.append("no probe point landed inside the packet domain")
    if c1 < constants.c1_floor:
        violations.append(f"lower ellipticity {c1:.4g} below {constants.c1_floor}")
    if c_up > constants.C1_ceiling:
        violations.append(f"upper ellipticity {c_up:.4g} above {constants.C1_ceiling}")
    if max(max_grad, max_hess) > constants.deriv_ceiling:
        violations.append("derivative magnitude exceeds the ceiling")
    return AsdfConditionsReport(
        c1_empirical=c1 if evaluated else math.nan,
        C1_empirical=c_up, max_gradient=max_grad, max_hessian_entry=max_hess,
        evaluated=evaluated, skipped=skipped, violations=tuple(violations))


# ---- mesh serialization ----

def save_mesh(mesh: PutativeMesh, csv_path: str, sidecar_path: str) -> None:
    """Base points as CSV plus a JSON sidecar with projectors and metadata."""
    np.savetxt(csv_path, mesh.base_points, delimiter=",", fmt="%.17g")
    payload = {
        "tolerance": mesh.tolerance,
        "charts": [
            {
                "base": c.base_point.tolist(),
                "projector": c.projector_hi.ravel().tolist(),
                "owning_cylinder": c.owning_cylinder,
                "residual": c.residual,
            }
            for c in mesh.charts
        ],
    }
    with open(sidecar_path, "w") as fh:
        json.dump(payload, fh, sort_keys=True)


def load_mesh(packet: CylinderPacket, csv_path: str, sidecar_path: str,
              constants: BundleConstants = DEFAULT_CONSTANTS) -> PutativeMesh:
    """Rebuild a mesh from disk, recomputing charts against the packet.

    Every chart is re-derived at the stored base point and cross-checked
    against the stored projector to 1e-8.
    """
    pts = np.loadtxt(csv_path, delimiter=",", ndmin=2)
    with open(sidecar_path) as fh:
        payload = json.load(fh)
    # an infinite tolerance stops every row's Newton at its stored point
    charts = solve_base_point(packet, pts, math.inf, constants=constants)
    for chart, stored in zip(charts, payload["charts"]):
        if not isinstance(chart, BundleChart):
            raise chart
        saved = np.asarray(stored["projector"], dtype=np.float64).reshape(packet.n, packet.n)
        if float(np.max(np.abs(chart.projector_hi - saved))) > 1e-8:
            raise InvalidParameterError("stored projector disagrees with the packet")
    return PutativeMesh(charts=tuple(charts), tolerance=float(payload["tolerance"]),
                        packet=packet)

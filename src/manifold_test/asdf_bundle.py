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
from dataclasses import dataclass
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

    @property
    def size(self) -> int:
        return len(self.cylinders)

    def local_coordinates(self, z: np.ndarray) -> np.ndarray:
        """Local coordinates of z in every cylinder frame, shape (N, n)."""
        diff = np.asarray(z, dtype=np.float64)[None, :] - self.centers
        return np.einsum("kji,kj->ki", self.rotations, diff)

    def members(self, z: np.ndarray, factor: float = 2.0,
                slack: float = MEMBERSHIP_SLACK) -> tuple[np.ndarray, np.ndarray]:
        """Indices of the cylinders containing z at the given dilation factor,
        and the local coordinates of z in each of them, shape (members, n)."""
        w = self.local_coordinates(z)
        d = self.d
        lim = factor * self.tau_bar + slack
        tan, nor = w[:, :d], w[:, d:]
        inside = (np.sqrt((tan * tan).sum(1)) <= lim) & (np.sqrt((nor * nor).sum(1)) <= lim)
        idx = np.nonzero(inside)[0]
        return idx, w[idx]


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

def _asdf_terms(packet: CylinderPacket, z: np.ndarray, order: int):
    """Shared evaluation core; order is 0 (value) or 2 (with derivatives).

    F = sum_k theta_k phi_k / sum_k theta_k over all member cylinders k at once.
    Returns (value, grad, hess, owner); owner is the member cylinder with the
    largest bump weight theta_k (the first of equals).
    """
    z = np.asarray(z, dtype=np.float64)
    if z.shape != (packet.n,):
        raise InvalidParameterError(
            f"point of shape {z.shape} does not match ambient dim {packet.n}")
    idx, w = packet.members(z, factor=2.0)
    if idx.size == 0:
        raise OutOfDomainError("point lies outside every squared cylinder")
    d = packet.d
    two_tb = 2.0 * packet.tau_bar
    tan, nor = w[:, :d], w[:, d:]
    tan_norm = np.sqrt((tan * tan).sum(1))
    theta, h1, h2 = bump_profile(tan_norm / two_tb)
    phi = np.sum(nor * nor, axis=1)
    b_val = float(theta.sum())
    if b_val <= 0.0:
        raise DegenerateCoverError("all bump weights vanish at the query point")
    value = float(phi @ theta) / b_val
    owner = int(idx[int(np.argmax(theta))])
    if order < 2:
        return value, None, None, owner

    rot = packet.rotations[idx]
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

    a_grad = phi @ theta_grad + theta @ phi_grad
    b_grad = theta_grad.sum(axis=0)
    cross = np.einsum("mi,mj->ij", phi_grad, theta_grad)
    a_hess = (np.einsum("m,mij->ij", phi, theta_hess) + cross + cross.T
              + 2.0 * np.einsum("m,mic,mjc->ij", theta, n_frame, n_frame))
    b_hess = theta_hess.sum(axis=0)
    grad = (a_grad - value * b_grad) / b_val
    hess = (a_hess - value * b_hess - np.outer(grad, b_grad)
            - np.outer(b_grad, grad)) / b_val
    return value, grad, hess, owner


def asdf_eval(packet: CylinderPacket, z) -> float:
    """Value of the packet's approximate squared-distance field at z."""
    return _asdf_terms(packet, np.asarray(z, dtype=np.float64), order=0)[0]


def asdf_grad_hess(packet: CylinderPacket, z) -> tuple[float, np.ndarray, np.ndarray]:
    """Value, gradient and Hessian of the field, all analytic."""
    return _asdf_terms(packet, np.asarray(z, dtype=np.float64), order=2)[:3]


# ---- fiber projector and base-point extraction ----

@dataclass(frozen=True)
class PiHiResult:
    """Projector onto the top eigenspace of a Hessian, with diagnostics."""

    projector: np.ndarray       # (n, n) symmetric idempotent
    fiber_basis: np.ndarray     # (codim, n) orthonormal rows, top eigenvalue first
    eigenvalues: np.ndarray     # all eigenvalues, ascending
    gap: float                  # eigenvalue gap between low and top blocks
    interval_ok: bool           # all top eigenvalues inside [cbar2, Cbar3]


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
    if float(np.max(np.abs(h - h.T))) > PROJECTOR_TOL:
        raise InvalidParameterError("hessian is not symmetric to 1e-9")
    evals, evecs = np.linalg.eigh(h)
    low = n - codim
    gap = math.inf if low == 0 else float(evals[low] - evals[low - 1])
    if gap < gap_tol:
        raise InsufficientGapError(
            f"spectral gap {gap:.6g} below tolerance {gap_tol:.6g}")
    top = _sign_fix_rows(evecs[:, ::-1][:, :codim].T)
    projector = top.T @ top
    top_vals = evals[low:]
    interval_ok = bool(np.all(top_vals >= constants.cbar2)
                       and np.all(top_vals <= constants.Cbar3))
    return PiHiResult(projector=projector, fiber_basis=top,
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


def solve_base_point(packet: CylinderPacket, z0, newton_tol: float = 1e-10,
                     max_steps: int = 60,
                     constants: BundleConstants = DEFAULT_CONSTANTS) -> BundleChart:
    """Damped Newton for a zero of Pi_hi grad F along the current fiber.

    Steps move only inside the span of the top Hessian eigenvectors; a step
    is halved (up to 20 times) until the fixed-frame residual decreases.
    """
    z = np.asarray(z0, dtype=np.float64).copy()
    codim = packet.n - packet.d
    _, grad, hess, owner = _asdf_terms(packet, z, order=2)  # raises OutOfDomainError if outside
    for _ in range(max_steps):
        res = pi_hi(hess, codim, constants.gap_tol, constants)
        fiber = res.fiber_basis
        resid = fiber @ grad
        rnorm = math.sqrt(resid @ resid)
        if rnorm <= newton_tol:
            return _build_chart(z, res, rnorm, owner)
        hf = fiber @ hess @ fiber.T
        try:
            delta = np.linalg.solve(hf, -resid)
        except np.linalg.LinAlgError:
            raise NoConvergenceError("singular fiber Hessian in the Newton step")
        step = fiber.T @ delta
        lam = 1.0
        accepted = False
        domain_exits = 0
        for _halving in range(21):
            cand = z + lam * step
            try:
                _, g2, h2, o2 = _asdf_terms(packet, cand, order=2)
            except (OutOfDomainError, DegenerateCoverError):
                domain_exits += 1
                lam *= 0.5
                continue
            r2 = fiber @ g2
            if math.sqrt(r2 @ r2) < rnorm:
                z, grad, hess, owner = cand, g2, h2, o2
                accepted = True
                break
            lam *= 0.5
        if not accepted:
            if domain_exits == 21:
                raise EscapedDomainError("every damped step left the packet domain")
            raise NoConvergenceError(
                f"residual {rnorm:.3g} would not decrease after 20 halvings")
    raise NoConvergenceError(f"no convergence in {max_steps} Newton steps")


def _build_chart(z: np.ndarray, res: PiHiResult, residual: float,
                 owner: int) -> BundleChart:
    """Chart at z from the Newton loop's projector, residual and owner there."""
    return BundleChart(
        base_point=z.copy(), projector_hi=res.projector, fiber_basis=res.fiber_basis,
        owning_cylinder=owner, residual=residual,
        eigenvalues=tuple(res.eigenvalues.tolist()))


@dataclass(frozen=True, eq=False)
class PutativeMesh:
    """Deduplicated charts extracted from a packet."""

    charts: tuple[BundleChart, ...]
    tolerance: float
    packet: CylinderPacket
    failures: tuple[tuple[int, str], ...] = ()

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

    Seeds that fail (domain exit, spectral gap, no convergence) are recorded
    with the error kind. Equal seed rows share one solve, and each of them
    gets its chart or failure in seed order. Base points closer than
    tau_bar * dedup_fraction are merged by a sequential pass over the
    lexicographically sorted points.
    """
    seeds = np.asarray(seeds, dtype=np.float64)
    if seeds.ndim != 2 or seeds.shape[0] == 0:
        raise EmptyInputError("need a nonempty (m, n) array of seeds")
    solved: dict[bytes, BundleChart | str] = {}
    charts = []
    failures = []
    for s, seed in enumerate(seeds):
        key = seed.tobytes()
        if key not in solved:
            try:
                solved[key] = solve_base_point(packet, seed, newton_tol,
                                               constants=constants)
            except BASE_POINT_ERRORS as exc:
                solved[key] = f"{type(exc).__name__}: {exc}"
        out = solved[key]
        if isinstance(out, str):
            failures.append((s, out))
        else:
            charts.append(out)
    if not charts:
        raise EmptyMeshError(
            f"no seed converged ({len(failures)} failures, "
            f"first: {failures[0][1] if failures else 'none'})")
    kept = lexsort_dedup(np.stack([c.base_point for c in charts]),
                         packet.tau_bar * dedup_fraction)
    return PutativeMesh(charts=tuple(charts[i] for i in kept),
                        tolerance=newton_tol, packet=packet,
                        failures=tuple(failures))


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
    points = []
    for i in range(d):
        for j in range(codim):
            for a in levels:
                for b in levels:
                    w = np.zeros(d + codim)
                    w[i] = a
                    w[d + j] = b
                    points.append(w)
    uniq = np.unique(np.round(np.stack(points), 12), axis=0)
    return uniq


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
    c1 = math.inf
    c_up = 0.0
    max_grad = 0.0
    max_hess = 0.0
    evaluated = 0
    skipped = 0
    for i in range(sample.size):
        if i not in tangents:
            raise InvalidParameterError(f"no tangent supplied for sample index {i}")
        theta_frame = frame_from_tangent(tangents[i])
        z = sample.points[i]
        for w in grid:
            point = z + tb * (theta_frame @ w)
            try:
                value, grad, hess = asdf_grad_hess(packet, point)
            except (OutOfDomainError, DegenerateCoverError):
                skipped += 1
                continue
            evaluated += 1
            fhat = value / tb ** 2
            y2 = float(w[packet.d:] @ w[packet.d:])
            denom = y2 + rho ** 2
            if denom > 1e-15:
                ratio = (fhat + rho ** 2) / denom
                c1 = min(c1, ratio)
                c_up = max(c_up, ratio)
            ghat = theta_frame.T @ grad / tb
            hhat = theta_frame.T @ hess @ theta_frame
            max_grad = max(max_grad, float(np.max(np.abs(ghat))))
            max_hess = max(max_hess, float(np.max(np.abs(hhat))))
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
    tolerance = float(payload["tolerance"])
    charts = []
    for row, stored in zip(pts, payload["charts"]):
        _, grad, hess, owner = _asdf_terms(packet, row, order=2)
        res = pi_hi(hess, packet.n - packet.d, constants.gap_tol, constants)
        resid = res.fiber_basis @ grad
        chart = _build_chart(row, res, math.sqrt(resid @ resid), owner)
        saved = np.asarray(stored["projector"], dtype=np.float64).reshape(packet.n, packet.n)
        if float(np.max(np.abs(chart.projector_hi - saved))) > 1e-8:
            raise InvalidParameterError("stored projector disagrees with the packet")
        charts.append(chart)
    return PutativeMesh(charts=tuple(charts), tolerance=tolerance, packet=packet)

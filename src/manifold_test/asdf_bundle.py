"""Cylinder packets, approximate squared-distance functions, disc bundles.

A cylinder is an isometric copy of tau_bar * (B_d x B_{n-d}); a packet is a
family of cylinders whose neighbors are near-translates of each other along
the shared tangential directions. The packet induces a smooth field F that
behaves like the squared distance to a d-manifold; its high-curvature
eigenspaces define fibers, and Newton iteration along the fibers extracts a
putative manifold mesh.
"""
from __future__ import annotations

import copy
import functools
import json
import math
from dataclasses import dataclass
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

from .core_geometry import (
    AffineSubspace,
    PointCloud,
    _ball_grid,
    _frames,
    _sign_fix_rows,
    frame_from_tangent,
    greedy_net,   # kept bound here: bench/tracer.py wraps asdf_bundle.greedy_net
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

# The construction's constants, by the paper's symbols where it has them
CBAR2 = 0.5     # cbar2: accepted top-eigenvalue interval [CBAR2, CBAR3], lower edge
CBAR3 = 4.0     # Cbar3: its upper edge
GAP_TOL = 0.25  # least spectral gap of a fiber projector
CBAR10 = 4.0    # cbar10: a fiber offset is at most CBAR10 * tau_bar / 2
C1_FLOOR = 0.1          # empirical lower ellipticity threshold
C1_CEILING = 10.0       # empirical upper ellipticity threshold
DERIV_CEILING = 10.0    # empirical derivative magnitude threshold
DEDUP_FRACTION = 0.01   # mesh base points closer than DEDUP_FRACTION * tau_bar merge
SHIFT_TOL = 1e-11       # an alternation row stops at a shift within SHIFT_TOL * max(1, tau_bar)
COVERAGE_SPACING = 0.05  # condition 4's grid spacing, as a fraction of tau_bar
ANGLE_LIMIT = 1.0        # condition 1: largest principal angle between neighbours (radians)
NEWTON_STEPS = 60        # base-point Newton steps a row takes at most
ALTERNATIONS = 60        # bundle_coordinates' rounds a row takes at most

# Base-point solver failures that reject one seed or point, not the input;
# InvalidParameterError ends a row whose Hessian is not symmetric to 1e-9.
BASE_POINT_ERRORS = (OutOfDomainError, DegenerateCoverError, InsufficientGapError,
                     EscapedDomainError, NoConvergenceError, InvalidParameterError)


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

def _check_cylinders(centers: np.ndarray, rotations: np.ndarray, scale: float,
                     tangent_dim: int) -> None:
    """The packet's input checks on the stack of cylinders (rotations[k],
    centers[k]), one array pass: raise the text of the first cylinder that
    fails one, for its first failing check."""
    if centers.ndim != 2 or rotations.shape != centers.shape + centers.shape[1:]:
        raise InvalidParameterError("rotation shape does not match center")
    m, n = centers.shape
    gram = np.matmul(rotations.transpose(0, 2, 1), rotations) - np.eye(n)
    bad = np.stack([np.abs(gram).max(axis=(1, 2), initial=0.0) > ROTATION_TOL,
                    np.abs(np.linalg.det(rotations) - 1.0) > 1e-8,
                    np.full(m, not scale > 0), np.full(m, not 1 <= tangent_dim < n)], axis=1)
    if bad.any():   # row-major: the first cylinder, then its first check
        raise InvalidParameterError((
            "rotation is not orthogonal to 1e-10", "rotation must be proper (det +1)",
            "cylinder scale must be positive",
            f"tangent dimension {tangent_dim} invalid for ambient {n}")[int(bad.argmax()) % 4])


class CylinderPacket:
    """A family of congruent cylinders with recorded alignment constants.

    Cylinder k is the rigid placement of tau_bar * (B_d x B_{n-d}) in R^n
    whose local axes are the columns of rotations[k] (the first d
    tangential, a proper rotation) and whose center, the image of the
    origin, is centers[k]. The packet keeps its cylinders only as these
    stacks, copied and read-only.
    """

    def __init__(self, centers, rotations, tau_bar: float, d: int, tau: float,
                 c12: float, C_align: float):
        centers = np.array(centers, dtype=np.float64)   # copies: the packet freezes them
        rotations = np.array(rotations, dtype=np.float64, order="C")
        _check_cylinders(centers, rotations, tau_bar, d)
        if not centers.shape[0]:
            raise EmptyInputError("a packet needs at least one cylinder")
        if not (0 < tau < 1):
            raise InvalidParameterError(f"tau must lie in (0, 1), got {tau}")
        if not (c12 > 0 and C_align > 0):
            raise InvalidParameterError("alignment constants must be positive")
        # each center's dot with itself, as np.linalg.norm takes it
        worst = float(np.sqrt(np.matmul(centers[:, None, :], centers[:, :, None])).max())
        if worst > 1.0 + tau_bar + 1e-9:
            raise InvalidParameterError(
                f"cylinder center at norm {worst:.6g} is too far outside the unit ball")
        self.tau = float(tau)
        self.c12 = float(c12)
        self.C_align = float(C_align)
        self.tau_bar = float(tau_bar)
        self.d = d
        self.n = centers.shape[1]
        self.centers, self.rotations = centers, rotations
        self.center_sq = np.sum(self.centers * self.centers, axis=1)
        for arr in (self.centers, self.rotations, self.center_sq):
            arr.flags.writeable = False

    @property
    def size(self) -> int:
        return self.centers.shape[0]

    def members(self, z: np.ndarray, factor: float = 2.0) -> tuple[np.ndarray, np.ndarray]:
        """Indices of the cylinders containing z at the given dilation factor,
        and the local coordinates of z in each of them, shape (members, n)."""
        _, idx, w = _member_pairs(self, np.asarray(z, dtype=np.float64)[None, :], factor)
        return idx, w


class _RowView(Sequence):
    """A read-only sequence of size items, item j built by row(j) on access."""

    def __init__(self, size: int, row: Callable[[int], object]):
        self._size, self._row = size, row

    def __len__(self) -> int:
        return self._size

    def __getitem__(self, j):
        if isinstance(j, slice):
            return tuple(self[i] for i in range(self._size)[j])
        return self._row(range(self._size)[j])


def _member_pairs(packet: CylinderPacket | _PacketStack, points: np.ndarray, factor: float = 2.0):
    """(point row, cylinder, local coordinates) of each pair whose dilated
    cylinder holds the point, by row, then cylinder. A member is within lim
    tangentially and normally, so within 2 lim^2 squared of its center: a
    dense (points, cylinders) prefilter. For a _PacketStack a row's pairs run
    over its own packet's cylinders only, numbered as in the stack, and the
    prefilter runs per packet over that packet's rows."""
    lim = factor * packet.tau_bar + MEMBERSHIP_SLACK
    bound = 2.0 * lim * lim * (1.0 + 1e-6) + 1e-12
    stacked = isinstance(packet, _PacketStack)
    pairs = []
    for g, (part, first) in enumerate(zip(packet.packets, packet.first) if stacked
                                      else [(packet, 0)]):
        rows = np.flatnonzero(packet.group == g) if stacked else np.arange(points.shape[0])
        pi, ki = _close_pairs(points[rows], part.centers, part.center_sq, bound)
        pairs.append((rows[pi], ki + first))
    pi, ki = (np.concatenate(a) for a in zip(*pairs))
    if stacked:   # each packet's pairs are by row, then cylinder: merge them by row
        order = np.argsort(pi, kind="stable")
        pi, ki = pi[order], ki[order]
    w = np.einsum("kji,kj->ki", packet.rotations[ki], points[pi] - packet.centers[ki])
    tan, nor = w[:, :packet.d], w[:, packet.d:]
    inside = np.nonzero((np.sqrt((tan * tan).sum(1)) <= lim)
                        & (np.sqrt((nor * nor).sum(1)) <= lim))[0]
    return pi[inside], ki[inside], w[inside]


def _close_pairs(a: np.ndarray, b: np.ndarray, b_sq: np.ndarray, bound: float):
    """(i, j) of the rows a[i] and b[j] whose squared distance, taken from
    one Gram-based (A, B) array, is at most bound (the caller's slack covers
    its rounding), by i, then j. b_sq holds each row of b's squared norm."""
    sq = a @ b.T   # one (A, B) array, updated in place
    sq *= -2.0
    sq += (a * a).sum(1)[:, None]
    sq += b_sq
    return np.divmod(np.flatnonzero(sq <= bound), b.shape[0])


class _PacketStack:
    """Packets that share tau_bar, d and n, taken by the field kernel as one
    packet: point row i belongs to packet group[i], and its field runs over
    that packet's cylinders only. The stack numbers the cylinders through
    the packets in order, packet g's from first[g] on."""

    def __init__(self, packets: Sequence[CylinderPacket], group: np.ndarray):
        p = packets[0]
        if any((q.tau_bar, q.d, q.n) != (p.tau_bar, p.d, p.n) for q in packets):
            raise InvalidParameterError("stacked packets must share tau_bar, d and n")
        self.packets, self.group = tuple(packets), group
        self.tau_bar, self.d, self.n = p.tau_bar, p.d, p.n
        self.first = np.cumsum([0] + [q.size for q in packets[:-1]])
        self.centers = np.concatenate([q.centers for q in packets])
        self.rotations = np.concatenate([q.rotations for q in packets])

    def take(self, rows) -> _PacketStack:   # the stack for the points at these rows
        stack = copy.copy(self)
        stack.group = self.group[rows]
        return stack


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
            {"center": c.tolist(), "rotation": r.ravel().tolist()}
            for c, r in zip(packet.centers, packet.rotations)
        ],
    }
    return json.dumps(payload, sort_keys=True)


def packet_from_json(text: str) -> CylinderPacket:
    """Inverse of packet_to_json."""
    payload = json.loads(text)
    n = int(payload["n"])
    centers = [np.asarray(c["center"], dtype=np.float64) for c in payload["cylinders"]]
    if any(c.shape != (n,) for c in centers):
        raise InvalidParameterError("rotation shape does not match center")
    rotations = [np.asarray(c["rotation"], dtype=np.float64).reshape(n, n)
                 for c in payload["cylinders"]]
    return CylinderPacket(
        np.array(centers).reshape(-1, n), np.array(rotations).reshape(-1, n, n),
        float(payload["tau_bar"]), int(payload["d"]), tau=float(payload["tau"]),
        c12=float(payload["c12"]), C_align=float(payload["C"]))


# ---- packet construction and validation ----

def _packet_pairs(packet: CylinderPacket):
    """Neighbour pairs (i, j), by i then j: each cyl^2 sits inside a ball of
    radius 2 sqrt(2) tau_bar, so centers within 4 sqrt(2) tau_bar (candidates
    from one Gram-based squared-distance array with slack, then the exact
    distance). Returns (i, j, opnorm, normal, tangential): ||Id - U|| =
    2 sin(theta / 2) at the largest principal angle theta between the
    tangent spans, and the normal norm and tangential part of
    R_i^T (c_j - c_i)."""
    d, c, rot = packet.d, packet.centers, packet.rotations
    lim = 4.0 * math.sqrt(2.0) * packet.tau_bar
    sq = packet.center_sq[:, None] + packet.center_sq - 2.0 * (c @ c.T)
    np.fill_diagonal(sq, np.inf)
    i, j = np.nonzero(sq <= lim * lim * (1.0 + 1e-6) + 1e-12)
    keep = np.linalg.norm(c[j] - c[i], axis=1) <= lim
    i, j = i[keep], j[keep]
    rot_t = rot[i].transpose(0, 2, 1)
    block = (rot_t @ rot[j])[:, :d, :d]
    # a 1 x 1 block's singular value is its absolute value, as LAPACK returns it
    sig = np.abs(block[:, 0]) if d == 1 else np.linalg.svd(block, compute_uv=False)
    # math's acos and sin: numpy's may differ in the last bit, and the
    # measured constants set every later step of a run
    opnorm = np.array([2.0 * math.sin(math.acos(x) / 2.0)
                       for x in np.clip(sig.min(axis=1), -1.0, 1.0).tolist()])
    p = (rot_t @ (c[j] - c[i])[:, :, None])[:, :, 0]
    nor = p[:, d:]   # each row's dot with itself, as np.linalg.norm takes it
    normal = np.sqrt(np.matmul(nor[:, None, :], nor[:, :, None])[:, 0, 0])
    return i, j, opnorm, normal, p[:, :d]


# doubles one chunk of validate_packet's coverage pass holds, or one cylinder's
# (one cell's, in the fine pass) if more
_COVERAGE_CHUNK = 1 << 17
# grid steps per side of a coverage cell
_COVERAGE_STRIDE = 5


def _nearest_sq(grid2, grid_sq, off, off_sq) -> np.ndarray:
    """Squared distance from each grid row to its nearest offset, one row of
    the result per cylinder: grid2 holds twice the rows (shared, or one block
    per cylinder) and off each cylinder's offsets. Every distance is
    |g|^2 - (2g) . o + |o|^2 through one batched matmul (a contiguous block of
    rows against each cylinder's offsets), so it does not depend on the
    other rows or cylinders of the call."""
    d2 = np.matmul(grid2, off.transpose(0, 2, 1))
    np.subtract(grid_sq[..., None], d2, out=d2)
    d2 += off_sq[:, None, :]
    return d2.min(axis=2)


def _coverage_worst(grid: np.ndarray, steps: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Each cylinder's largest squared distance from a grid point to its
    nearest offset, equal to the dense pass's: see validate_packet. steps
    holds each grid point's integer position on the lattice, offsets the
    (cylinders, width, d) offsets padded with zero rows."""
    m, width, d = offsets.shape
    grid2, grid_sq = 2.0 * grid, np.sum(grid * grid, axis=1)
    off_sq = np.sum(offsets * offsets, axis=2)
    # cells: blocks of _COVERAGE_STRIDE steps a side, by block, then grid row
    block = steps // _COVERAGE_STRIDE
    cid = np.ravel_multi_index(tuple(block.T), tuple(block.max(axis=0) + 1))
    order = np.argsort(cid, kind="stable")
    _, first, size = np.unique(cid[order], return_index=True, return_counts=True)
    cell = np.repeat(np.arange(first.size), size)
    # each cell's representative: its member nearest the middle of its extent
    at = steps[order]
    mid2 = np.minimum.reduceat(at, first) + np.maximum.reduceat(at, first)
    key = np.sum((2 * at - mid2[cell]) ** 2, axis=1)
    rep = order[np.lexsort((key, cell))[first]]
    # each cell's rows, padded to _COVERAGE_STRIDE^d with its representative,
    # and its radius: the farthest member from the representative
    rows = np.repeat(rep[:, None], _COVERAGE_STRIDE ** d, axis=1)
    rows[cell, np.arange(order.size) - first[cell]] = order
    radius = np.sqrt(np.sum((grid[rows] - grid[rep][:, None, :]) ** 2, axis=2)).max(axis=1)
    # the representatives, against every cylinder
    near = np.empty((m, rep.size))
    rep2, rep_sq = grid2[rep], grid_sq[rep]
    per = max(1, _COVERAGE_CHUNK // (rep.size * width))
    for lo in range(0, m, per):
        near[lo:lo + per] = _nearest_sq(rep2, rep_sq, offsets[lo:lo + per],
                                        off_sq[lo:lo + per])
    worst = near.max(axis=1)
    # a cell's bound on its members' gaps, with validate_packet's rounding slack
    reach = math.sqrt(float(grid_sq.max())) + math.sqrt(float(off_sq.max(initial=0.0)))
    slack = 4.0 * math.sqrt((d + 3) * 2.0 ** -53) * reach
    bound = np.sqrt(np.maximum(near, 0.0)) + (radius + slack)
    fine = ~(bound < np.sqrt(np.maximum(worst, 0.0))[:, None]) & (size > 1)
    # the cells whose bound reaches the cylinder's worst, member by member
    kk, cc = np.nonzero(fine)
    per = max(1, _COVERAGE_CHUNK // (rows.shape[1] * width))
    for lo in range(0, kk.size, per):
        k, r = kk[lo:lo + per], rows[cc[lo:lo + per]]
        np.maximum.at(worst, k, _nearest_sq(grid2[r], grid_sq[r], offsets[k],
                                            off_sq[k]).max(axis=1))
    return worst


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
    failures: Sequence[str]      # a tuple of texts; validate_packet's formats on first read
    failure_counts: dict[str, int]   # pairs failing 1-3, cylinders failing 4

    @property
    def all_ok(self) -> bool:
        return (self.condition1_ok and self.condition2_ok
                and self.condition3_ok and self.condition4_ok)


def validate_packet(packet: CylinderPacket) -> PacketValidation:
    """Check the four packet conditions against the stored constants.

    Neighbours are the cylinders whose centers lie within 4 sqrt(2) tau_bar
    of each other (see _packet_pairs). Condition 1: tangent spans of
    neighbors can be aligned (largest principal angle at most ANGLE_LIMIT).
    Condition 2: the aligning rotation satisfies ||Id - U|| <= c12 tau_bar.
    Condition 3: the residual translation has norm <= C tau_bar^2 / tau.
    Condition 4: the aligned tangential translates of the neighbors cover
    B_d(0, 3 tau_bar), checked on a grid of spacing COVERAGE_SPACING * tau_bar.
    Failures are listed by cylinder, then neighbour, conditions 1 to 3 for
    each pair, and a cylinder's coverage failure after its pairs.

    Condition 4 runs coarse to fine, with the values of a dense pass over
    every grid point. A grid point's gap (its distance to the nearest
    offset) is 1-Lipschitz, so a cell of the grid (_COVERAGE_STRIDE steps a
    side) has no gap above its representative's plus the cell's radius.
    The pass measures every representative, then every point of the cells
    whose bound reaches the cylinder's worst so far. The bound adds a
    rounding slack: a computed squared distance is within
    (d + 3) u (|g| + |o|)^2 of the exact one (u = 2^-53, g a grid point, o an
    offset), so a computed gap is within sqrt((d + 3) u) (|g| + |o|) of the
    exact one; the slack is twice that (the representative and the member)
    at the largest |g| and |o|, doubled for the bound's own rounding. Each
    point measured takes the dense pass's arithmetic, so each cylinder's
    worst gap is the dense pass's, bit for bit.
    """
    return _validate_packet(packet, _packet_pairs(packet))


def _validate_packet(packet: CylinderPacket, pairs: tuple) -> PacketValidation:
    """validate_packet on the packet's _packet_pairs(packet)."""
    tb, d = packet.tau_bar, packet.d
    bound2 = packet.c12 * tb
    bound3 = packet.C_align * tb * tb / packet.tau
    h = tb * COVERAGE_SPACING
    axis = np.arange(-3.0 * tb, 3.0 * tb + h / 2.0, h)
    grid = _ball_grid(axis, d, 3.0 * tb)

    i, j, opnorm, normal, tangential = pairs
    theta = 2.0 * np.array([math.asin(x) for x in np.minimum(opnorm / 2.0, 1.0).tolist()])
    bad1, bad2, bad3 = theta > ANGLE_LIMIT, opnorm > bound2, normal > bound3
    bad = bad1 | bad2 | bad3
    cut = np.searchsorted(i, np.arange(packet.size + 1))
    # condition 4: each cylinder's offsets after the zero one, padded with it;
    # max(., 0) and sqrt are monotone, so they come after min and max
    width = int(np.diff(cut).max(initial=0)) + 1
    offsets = np.zeros((packet.size, width, d))
    offsets[i, np.arange(i.size) - cut[i] + 1] = tangential
    worst = _coverage_worst(grid, np.rint((grid - axis[0]) / h).astype(np.int64), offsets)
    gaps = np.sqrt(np.maximum(worst, 0.0))
    uncovered = gaps > tb + 1e-12

    def texts():
        bad_at = np.flatnonzero(bad)
        ends = np.searchsorted(bad_at, cut)   # cylinder k's: bad_at[ends[k]:ends[k + 1]]
        for k in np.union1d(i[bad], np.flatnonzero(uncovered)).tolist():
            for p in bad_at[ends[k]:ends[k + 1]].tolist():
                if bad1[p]:
                    yield f"cyl {k} nbr {j[p]}: principal angle {float(theta[p]):.4f}"
                if bad2[p]:
                    yield f"cyl {k} nbr {j[p]}: ||Id-U|| {float(opnorm[p]):.4g} > {bound2:.4g}"
                if bad3[p]:
                    yield f"cyl {k} nbr {j[p]}: |Tr(0)| {float(normal[p]):.4g} > {bound3:.4g}"
            if uncovered[k]:
                yield f"cyl {k}: coverage gap {float(gaps[k]):.4g} > tau_bar {tb:.4g}"

    counts = {"angle": int(bad1.sum()), "rotation": int(bad2.sum()),
              "offset": int(bad3.sum()), "coverage": int(uncovered.sum())}
    return PacketValidation(
        condition1_ok=not bad1.any(), condition2_ok=not bad2.any(),
        condition3_ok=not bad3.any(), condition4_ok=not uncovered.any(),
        worst_angle=float(theta.max(initial=0.0)),
        worst_opnorm=float(opnorm.max(initial=0.0)),
        worst_normal_offset=float(normal.max(initial=0.0)),
        worst_coverage_gap=float(gaps.max()),
        failures=_LazyTexts(texts, sum(counts.values())), failure_counts=counts)


class _LazyTexts(Sequence):
    """The size texts that make() yields, formatted on first read; compares
    as their tuple."""

    def __init__(self, make, size: int):
        self._make, self._size = make, size

    @functools.cached_property
    def texts(self) -> tuple[str, ...]:
        return tuple(self._make())

    def __len__(self) -> int:
        return self._size

    def __getitem__(self, k):
        return self.texts[k]

    def __eq__(self, other) -> bool:
        return self.texts == getattr(other, "texts", other)

    def __repr__(self) -> str:
        return repr(self.texts)


def ideal_packet(cloud: PointCloud, tangents: Mapping[int, AffineSubspace],
                 tau: float, cbar12: float = 0.1, *, net) -> CylinderPacket:
    """Data-driven ideal packet: centers at the cloud points net (a
    tau_bar/2-net, such as run_test's capped greedy_net), tangent frames
    (_frames).

    tangents must cover every center. The alignment constants c12 and C are
    measured from the built packet (envelope times 1.25, with floors 1.0
    and 10.0).
    """
    return _ideal_packet(cloud, tangents, tau, cbar12, net=net)[0]


def _ideal_packet(cloud: PointCloud, tangents: Mapping[int, AffineSubspace], tau: float,
                  cbar12: float, *, net) -> tuple[CylinderPacket, tuple]:
    """ideal_packet, and the packet's _packet_pairs it measured the constants
    from: _validate_packet takes them in place of a second pass."""
    if cloud.size == 0:
        raise EmptyInputError("cannot build a packet from an empty cloud")
    if not (0 < cbar12 < 1):
        raise InvalidParameterError(f"cbar12 must lie in (0, 1), got {cbar12}")
    tau_bar = cbar12 * tau
    for idx in net:
        if idx not in tangents:
            raise InvalidParameterError(f"no tangent supplied for net index {idx}")
    bases = [tangents[idx].basis for idx in net]
    if len({b.shape for b in bases}) > 1:
        raise InvalidParameterError("all cylinders must share (d, n)")
    basis = np.stack(bases) if bases else np.zeros((0, 1, cloud.ambient_dim))
    packet = CylinderPacket(cloud.points[net], _frames(basis), tau_bar, basis.shape[1],
                            tau=tau, c12=1.0, C_align=10.0)
    pairs = _packet_pairs(packet)
    _, _, opnorm, normal, _ = pairs
    packet.c12 = max(float(opnorm.max(initial=0.0)) * 1.25 / tau_bar, 1.0)
    packet.C_align = max(float(normal.max(initial=0.0)) * 1.25 * tau / tau_bar ** 2, 10.0)
    return packet, pairs


# ---- the approximate squared-distance field ----

def _field_error(status: int) -> Exception:
    """The error a nonzero `_asdf_terms` status stands for."""
    if status == 1:
        return OutOfDomainError("point lies outside every squared cylinder")
    return DegenerateCoverError("all bump weights vanish at the query point")


def _asdf_terms(packet: CylinderPacket | _PacketStack, points: np.ndarray, order: int):
    """Field at the rows of points (P, n); order is 0 (value) or 2 (with derivatives).

    F = sum_k theta_k phi_k / sum_k theta_k over each point's member cylinders
    k at factor 2 (_member_pairs). Sums run over each point's own member
    run, so no row depends on another. Returns value, grad, hess (None for
    order 0), owner (the member of largest bump weight, the first of equals,
    numbered within the row's own packet for a _PacketStack) and status (0,
    or the _field_error code of the row).
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
    if isinstance(packet, _PacketStack):   # numbered within the row's own packet
        owner[rows] -= packet.first[packet.group[rows]]
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
    interval_ok: bool           # all top eigenvalues inside [CBAR2, CBAR3]


def _top_eigenspaces(hess: np.ndarray, codim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stacked spectra of (m, n, n) Hessians: ascending eigenvalues (m, n),
    sign-fixed top `codim` eigenvector rows (m, codim, n), top first, and the
    gap (m,) between positions n-codim-1 and n-codim. eigh reads one
    triangle only: the caller checks symmetry (_asymmetric)."""
    m, n, _ = hess.shape
    evals, evecs = np.linalg.eigh(hess)
    low = n - codim
    gap = np.full(m, math.inf) if low == 0 else evals[:, low] - evals[:, low - 1]
    top = evecs[:, :, ::-1][:, :, :codim].transpose(0, 2, 1).reshape(m * codim, n)
    return evals, _sign_fix_rows(top).reshape(m, codim, n), gap


def _asymmetric(hess: np.ndarray) -> np.ndarray:
    """Which Hessians of the stack (m, n, n) are not symmetric to PROJECTOR_TOL;
    when none is, one reduction over the whole stack says so."""
    dev = np.abs(hess - hess.transpose(0, 2, 1)).reshape(hess.shape[0], -1)
    if dev.max(initial=0.0) <= PROJECTOR_TOL:
        return np.zeros(hess.shape[0], dtype=bool)
    return dev.max(axis=1) > PROJECTOR_TOL


def pi_hi(hessian, codim: int) -> PiHiResult:
    """Projector onto the span of the top `codim` Hessian eigenvectors.

    The spectrum is sorted ascending; the gap between positions n-codim-1
    and n-codim must be at least GAP_TOL, otherwise InsufficientGapError.
    """
    h = np.asarray(hessian, dtype=np.float64)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise InvalidParameterError("hessian must be square")
    n = h.shape[0]
    if not (1 <= codim <= n):
        raise InvalidParameterError(f"codim {codim} invalid for dimension {n}")
    if _asymmetric(h[None])[0]:
        raise InvalidParameterError("hessian is not symmetric to 1e-9")
    evals, top, gap = _top_eigenspaces(h[None], codim)
    evals, top, gap = evals[0], top[0], float(gap[0])
    if gap < GAP_TOL:
        raise InsufficientGapError(f"spectral gap {gap:.6g} below tolerance {GAP_TOL:.6g}")
    top_vals = evals[n - codim:]
    interval_ok = bool(np.all(top_vals >= CBAR2) and np.all(top_vals <= CBAR3))
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
        _check_projectors(np.asarray(self.projector_hi, dtype=np.float64)[None],
                          self.fiber_basis.shape[0])

    @classmethod
    def _checked_stack(cls, base_points, projectors, fibers, owners, residuals,
                       eigenvalues) -> list[BundleChart]:
        """Charts from stacked field arrays, a row per chart, their projectors
        checked once, as one stack, not chart by chart."""
        if len(projectors):
            _check_projectors(projectors, fibers.shape[1])
        charts = []
        for b, p, f, o, r, e in zip(base_points, projectors, fibers, owners.tolist(),
                                    residuals.tolist(), eigenvalues.tolist()):
            chart = object.__new__(cls)
            chart.__dict__.update(base_point=b, projector_hi=p, fiber_basis=f,
                                  owning_cylinder=o, residual=r, eigenvalues=tuple(e))
            charts.append(chart)
        return charts

    @property
    def tangent_basis(self) -> np.ndarray:
        """Orthonormal rows spanning the kernel of the fiber projector."""
        return orthonormal_completion(self.fiber_basis, self.fiber_basis.shape[1])


def _check_projectors(p: np.ndarray, codim: int) -> None:
    """Raise unless every projector of the stack p (k, n, n) is symmetric
    and idempotent to PROJECTOR_TOL, with trace codim to TRACE_TOL."""
    if float(np.max(np.abs(p - p.transpose(0, 2, 1)))) > PROJECTOR_TOL:
        raise InvalidParameterError("projector is not symmetric to 1e-9")
    if float(np.max(np.abs(np.matmul(p, p) - p))) > PROJECTOR_TOL:
        raise InvalidParameterError("projector is not idempotent to 1e-9")
    if float(np.max(np.abs(np.trace(p, axis1=1, axis2=2) - codim))) > TRACE_TOL:
        raise InvalidParameterError("projector trace does not match the codimension")


class RowOutcomes(tuple):
    """Per-row outcomes of a stacked call, in row order: each a result or the
    error that ended the row. `counts` holds the call's work counts."""

    def __new__(cls, outcomes, **counts):
        self = super().__new__(cls, outcomes)
        self.counts = counts
        return self


def first_or_raise(outcomes: RowOutcomes):
    """The one outcome of a batch of one. An error is raised as a fresh one of
    its type and text (each row error takes its text alone): the stored one
    would tie the traceback's frames, which hold it, into a cycle."""
    out = outcomes[0]
    if isinstance(out, Exception):
        raise type(out)(*out.args)
    return out


def _solve_rows(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solutions (m, k) of the stacked systems a (m, k, k) x = b (m, k), and
    which rows were singular (their solution is left zero)."""
    singular = np.zeros(a.shape[0], dtype=bool)
    try:
        return np.linalg.solve(a, b[:, :, None])[:, :, 0], singular
    except np.linalg.LinAlgError:   # solve row by row: only a singular row fails
        x = np.zeros_like(b)
        for i in range(a.shape[0]):
            try:
                x[i] = np.linalg.solve(a[i], b[i])
            except np.linalg.LinAlgError:
                singular[i] = True
        return x, singular


def solve_base_point(packet: CylinderPacket | Sequence[CylinderPacket], z0,
                     newton_tol: float = 1e-10):
    """Damped Newton for a zero of Pi_hi grad F along the current fiber.

    Steps move only inside the span of the top Hessian eigenvectors; a row
    takes the first of its full step and its 20 halvings that lowers the
    fixed-frame residual (_damped_steps evaluates them as stacked trials).
    z0 of shape (n,) returns its BundleChart or raises. z0 of shape (m, n)
    returns a RowOutcomes tuple of m outcomes, each a BundleChart or the
    BASE_POINT_ERRORS instance that ended the row (InvalidParameterError
    for a row whose Hessian is not symmetric to 1e-9), with counts
    "evaluations" (the field evaluations of a halving search: each row's
    first point and, per step, its trials up to and including the accepted
    one, all 21 when none is; the trials the stacked ladder computes past a
    row's accepted one are not counted), "steps" (the Newton steps of the
    slowest row) and "capped" (the rows stopped at NEWTON_STEPS). The rows are
    solved in one masked loop (each row keeps its own iterate and step
    count), and a row's outcome does not depend on the other rows.

    packet may also be a sequence of packets that share tau_bar, d and n,
    and z0 one (m_g, n) array per packet: their rows are solved in that one
    loop, each over its own packet's cylinders only. The call then returns
    the solve's arrays (_Solved), which build no chart; iterating them
    yields each packet's RowOutcomes, equal to its lone call, and builds a
    packet's charts only when it reaches the packet.
    """
    lone = isinstance(packet, CylinderPacket)
    packets, z0 = ((packet,), [z0]) if lone else (tuple(packet), list(z0))
    if not packets or len(packets) != len(z0):
        raise InvalidParameterError("need one point array per packet")
    for g, p in enumerate(packets):
        z = z0[g] = np.asarray(z0[g], dtype=np.float64)
        if z.shape[-1:] != (p.n,) or z.ndim not in ((1, 2) if lone else (2,)):
            raise InvalidParameterError(
                f"point of shape {z.shape} does not match ambient dim {p.n}")
    one = lone and z0[0].ndim == 1
    solved = _newton(packets, [z0[0][None, :]] if one else z0, newton_tol)
    if not lone:
        return solved
    outcomes = next(iter(solved))
    return first_or_raise(outcomes) if one else outcomes


def _newton(packets, z0, newton_tol) -> _Solved:
    sizes = [z.shape[0] for z in z0]
    group = np.repeat(np.arange(len(packets)), sizes)
    packet = packets[0] if len(packets) == 1 else _PacketStack(packets, group)
    codim = packet.n - packet.d
    z = np.concatenate(z0)
    _, grad, hess, owner, status = _asdf_terms(packet, z, order=2)
    evaluations = np.ones(z.shape[0], dtype=np.int64)   # per row
    steps = np.zeros(z.shape[0], dtype=np.int64)
    outcomes = [_field_error(s) if s else None for s in status]
    done = np.zeros(z.shape[0], dtype=bool)   # a converged row's chart: z, owner and these
    fibers, residual, spectra = (np.empty((z.shape[0],) + shape)
                                 for shape in ((codim, packet.n), (), (packet.n,)))
    active = np.nonzero(status == 0)[0]
    for _ in range(NEWTON_STEPS):
        if not active.size:
            break
        h = hess[active]
        skew = _asymmetric(h)
        if skew.any():   # such a row ends alone
            for r in active[skew]:
                outcomes[r] = InvalidParameterError("hessian is not symmetric to 1e-9")
            active, h = active[~skew], h[~skew]
        evals, fiber, gap = _top_eigenspaces(h, codim)
        resid = np.matmul(fiber, grad[active][:, :, None])
        rnorm = np.sqrt((resid * resid).sum((1, 2)))
        narrow = gap < GAP_TOL
        for i in np.nonzero(narrow)[0]:
            outcomes[active[i]] = InsufficientGapError(
                f"spectral gap {gap[i]:.6g} below tolerance {GAP_TOL:.6g}")
        ok = ~narrow & (rnorm <= newton_tol)
        at = active[ok]
        done[at], fibers[at], residual[at], spectra[at] = True, fiber[ok], rnorm[ok], evals[ok]
        going = ~narrow & (rnorm > newton_tol)
        active, h, fiber, resid, rnorm = (a[going] for a in (active, h, fiber, resid, rnorm))
        if not active.size:
            break
        hf = np.matmul(np.matmul(fiber, h), fiber.transpose(0, 2, 1))
        delta, singular = _solve_rows(hf, -resid[:, :, 0])
        if singular.any():
            for r in active[singular]:
                outcomes[r] = NoConvergenceError("singular fiber Hessian in the Newton step")
            active, fiber, rnorm, delta = (a[~singular] for a in (active, fiber, rnorm, delta))
        step = np.matmul(fiber.transpose(0, 2, 1), delta[:, :, None])[:, :, 0]
        steps[active] += 1
        pending, exits = _damped_steps(packet, active, z, grad, hess, owner, step, fiber,
                                       rnorm, evaluations)
        for i, exited in zip(pending, exits):
            outcomes[active[i]] = (
                EscapedDomainError("every damped step left the packet domain")
                if exited == _TRIALS else NoConvergenceError(
                    f"residual {rnorm[i]:.3g} would not decrease after 20 halvings"))
        if pending.size:
            active = np.delete(active, pending)
    for r in active:
        outcomes[r] = NoConvergenceError(f"no convergence in {NEWTON_STEPS} Newton steps")
    return _Solved(sizes, z=z, owner=owner, done=done, fibers=fibers, residual=residual,
                   spectra=spectra, errors=outcomes, evaluations=evaluations, steps=steps,
                   capped=np.bincount(group[active], minlength=len(packets)))


class _Solved:
    """A stacked solve's rows as arrays, over its packets (sizes rows each):
    z, done, and a converged row's owner, fibers, residual and spectra;
    errors (None, or the row's error); evaluations and steps per row; capped
    per packet. Iterating yields each packet's RowOutcomes, built then."""

    def __init__(self, sizes, **rows):
        self.sizes = sizes
        vars(self).update(rows)

    def fields(self, rows) -> tuple:
        """The chart fields of the converged rows, as BundleChart._checked_stack takes them."""
        fib = self.fibers[rows]
        return (self.z[rows], np.matmul(fib.transpose(0, 2, 1), fib), fib, self.owner[rows],
                self.residual[rows], self.spectra[rows])

    def counts(self, g: int) -> dict[str, int]:
        """Packet g's work counts, as its RowOutcomes holds them."""
        lo = sum(self.sizes[:g])
        return {"evaluations": int(self.evaluations[lo:lo + self.sizes[g]].sum()),
                "steps": int(self.steps[lo:lo + self.sizes[g]].max(initial=0)),
                "capped": int(self.capped[g])}

    def __iter__(self) -> Iterator[RowOutcomes]:
        ends = np.cumsum(self.sizes)
        for g, (lo, hi) in enumerate(zip(ends - self.sizes, ends)):
            mine, rows = self.errors[lo:hi], np.flatnonzero(self.done[lo:hi]) + lo
            for r, chart in zip(rows.tolist(), BundleChart._checked_stack(*self.fields(rows))):
                mine[r - lo] = chart
            yield RowOutcomes(mine, **self.counts(g))


# a damped step tries lambda = 1, 1/2, ..., 2^-20
_TRIALS = 21
# trial points one stacked kernel call of _damped_steps evaluates at most
_TRIAL_CHUNK = 1 << 12


def _damped_steps(packet, active, z, grad, hess, owner, step, fiber, rnorm, evaluations):
    """One damped step of each active row: the row moves to its first trial
    z + lambda step, lambda = 1, 1/2, ..., 2^-20, whose fixed-frame residual
    |fiber grad F| is below rnorm, and z, grad, hess, owner take that
    trial's values in place.

    The trials run in two stacked rounds: the full step of every row, then
    the 20 halvings of the rows it does not serve, each round in kernel
    calls of at most _TRIAL_CHUNK points. lambda = 2^-k is exact, so every
    trial point, and with it every row's outcome, is bit-equal to a halving
    loop's. Returns the positions (into active) of the rows no trial
    served and their domain exits among the 21 trials; adds to each row's
    evaluations its trials up to and including its accepted one (all 21
    for a row not served): the kernel rows a halving loop would have
    evaluated.
    """
    left = np.arange(active.size)
    exits = np.zeros(active.size, dtype=np.int64)
    stacked = isinstance(packet, _PacketStack)
    for lam in (np.ones(1), np.ldexp(1.0, -np.arange(1, _TRIALS))):
        per_call = max(1, _TRIAL_CHUNK // lam.size)
        served = np.zeros(left.size, dtype=bool)
        for lo in range(0, left.size, per_call):
            part = left[lo:lo + per_call]
            rows = active[part]
            cand = (z[rows][:, None, :] + lam[:, None] * step[part][:, None, :]
                    ).reshape(-1, z.shape[1])
            trials = packet.take(np.repeat(rows, lam.size)) if stacked else packet
            _, g2, h2, o2, s2 = _asdf_terms(trials, cand, order=2)
            r2 = np.matmul(np.repeat(fiber[part], lam.size, axis=0), g2[:, :, None])
            lower = ((s2 == 0) & (np.sqrt((r2 * r2).sum((1, 2)))
                                  < np.repeat(rnorm[part], lam.size))).reshape(part.size, -1)
            first = np.argmax(lower, axis=1)
            hit = lower[np.arange(part.size), first]
            pick = np.flatnonzero(hit) * lam.size + first[hit]
            won = rows[hit]
            z[won], grad[won], hess[won], owner[won] = cand[pick], g2[pick], h2[pick], o2[pick]
            evaluations[rows] += np.where(hit, first + 1, lam.size)
            exits[part] += np.where(hit, 0, (s2 != 0).reshape(part.size, -1).sum(axis=1))
            served[lo:lo + part.size] = hit
        left = left[~served]
    return left, exits[left]


class PutativeMesh:
    """Deduplicated charts extracted from a packet.

    The charts are kept as stacked read-only arrays, one per chart field,
    not as one object per chart: a verdict keeps its model's mesh, and
    per-chart objects were the largest part of a kept verdict. fields holds
    them in the argument order of BundleChart._checked_stack, a row per
    chart: base points (k, n), projectors (k, n, n), fiber bases
    (k, codim, n), owning cylinders (k,), residuals (k,) and spectra (k, n).
    `chart(i)` and `charts` rebuild BundleChart objects from the arrays.
    """

    def __init__(self, fields, tolerance: float, packet: CylinderPacket,
                 failures: tuple[tuple[int, str], ...] = (),
                 newton: Mapping[str, int] | None = None):
        fields = tuple(np.array(a) for a in fields)   # copies: the mesh freezes them
        if not fields[0].shape[0]:
            raise EmptyMeshError("a putative mesh needs at least one chart")
        over = fields[4] > tolerance * (1.0 + 1e-9) + 1e-15
        if over.any():
            raise InvalidParameterError(
                f"chart residual {fields[4][over.argmax()]:.3g} exceeds tolerance")
        self.tolerance = tolerance
        self.packet = packet
        self.failures = tuple(failures)
        self.newton = dict(newton or {})   # seeds, solved, evaluations
        self._fields = fields
        for arr in self._fields:
            arr.flags.writeable = False
        self.base_points, self.projectors = self._fields[:2]   # (k, n), (k, n, n)

    @property
    def size(self) -> int:
        return self.base_points.shape[0]

    def _charts(self, rows) -> list[BundleChart]:
        return BundleChart._checked_stack(*(a[rows] for a in self._fields))

    def chart(self, i: int) -> BundleChart:
        return self._charts([i])[0]

    @property
    def charts(self) -> tuple[BundleChart, ...]:
        return tuple(self._charts(slice(None)))


class MeshOutcomes(RowOutcomes):
    """Per packet of a stacked extraction, its PutativeMesh or EmptyMeshError;
    `charts` holds every mesh's charts, in packet order."""

    @property
    def charts(self) -> tuple[BundleChart, ...]:
        return tuple(c for mesh in self if isinstance(mesh, PutativeMesh) for c in mesh.charts)


def extract_putative_manifold(packet: CylinderPacket | Sequence[CylinderPacket], seeds,
                              newton_tol: float = 1e-10):
    """Run the base-point solver from every seed and deduplicate the results.

    The distinct seed rows, in order of first appearance, are solved in one
    batched call; every seed gets its row's chart or failure (the error
    kind and text) in seed order. Base points closer than
    tau_bar * DEDUP_FRACTION are merged by a sequential pass over the
    lexicographically sorted points (lexsort_dedup). mesh.newton counts the
    seeds, the distinct rows solved, and solve_base_point's counts of them:
    the field evaluations of their halving search, the Newton steps of the
    slowest row and the rows capped at its step limit.

    packet may also be a sequence of packets, and seeds one seed array per
    packet; the call then returns a MeshOutcomes tuple of their lone
    results. Both forms solve in one multi-packet solve_base_point call and
    build each mesh from its arrays (_Solved), with no chart object: the
    converged rows' projectors are checked as one stack.
    """
    lone = isinstance(packet, CylinderPacket)
    packets, seeds = ((packet,), (seeds,)) if lone else (tuple(packet), tuple(seeds))
    seeds = [np.asarray(s, dtype=np.float64) for s in seeds]
    if not seeds or any(s.ndim != 2 or s.shape[0] == 0 for s in seeds):
        raise EmptyInputError("need a nonempty (m, n) array of seeds")
    slots, rows = [], []
    for s in seeds:
        first: dict[bytes, int] = {}
        slots.append(np.array([first.setdefault(seed.tobytes(), len(first)) for seed in s]))
        rows.append(s[np.unique(slots[-1], return_index=True)[1]])
    solved = solve_base_point(packets, rows, newton_tol)
    meshes, lo = [], 0
    for g, (p, slot) in enumerate(zip(packets, slots)):
        hi = lo + len(rows[g])
        errors, done = solved.errors[lo:hi], solved.done[lo:hi]   # a row converged or erred
        failures = tuple((s, f"{type(errors[j]).__name__}: {errors[j]}")
                         for s, j in enumerate(slot.tolist()) if errors[j] is not None)
        if done.any():
            fields = solved.fields(np.flatnonzero(done) + lo)
            _check_projectors(fields[1], p.n - p.d)
            at = (np.cumsum(done) - 1)[slot[done[slot]]]   # each converged seed's field row
            keep = at[lexsort_dedup(fields[0][at], p.tau_bar * DEDUP_FRACTION)]
            meshes.append(PutativeMesh(
                tuple(a[keep] for a in fields), newton_tol, p, failures,
                {"seeds": len(slot), "solved": len(rows[g]), **solved.counts(g)}))
        else:
            meshes.append(EmptyMeshError(
                f"no seed converged ({len(failures)} failures, first: {failures[0][1]})"))
        lo = hi
    meshes = MeshOutcomes(meshes)
    return first_or_raise(meshes) if lone else meshes


# ---- bundle coordinates ----

@dataclass(frozen=True, eq=False)
class FiberDecomposition:
    """z = base + v with v in the fiber at base; x is the base parameter."""

    x: np.ndarray            # (d,) tangential coordinates in the owning cylinder
    v: np.ndarray            # (n,) fiber offset
    base_point: np.ndarray   # (n,)
    chart: BundleChart


def bundle_coordinates(packet: CylinderPacket, mesh: PutativeMesh, z):
    """Alternating projection of z onto (base point, fiber offset).

    Each row starts at its nearest chart of the mesh. A round solves each
    moving row's base point from a seed: b + t on the row's first round, t
    the tangential residual at base point b, and after it the Anderson(1)
    step b + t - gamma (db + dt) (the secant method when d = 1), db and dt
    the changes since the row's last round and gamma = dt.t / |dt|^2, or
    b + t where gamma is not finite. A row whose extrapolated seed fails is
    solved again from b + t in the same round. A row stops at a tangential
    shift within SHIFT_TOL * max(1, tau_bar), within ALTERNATIONS rounds,
    and its fiber offset must stay within CBAR10 * tau_bar / 2.
    z of shape (n,) returns its FiberDecomposition or raises
    DecompositionFailedError. z of shape (m, n) returns a RowOutcomes tuple
    of m outcomes, each a FiberDecomposition or the DecompositionFailedError
    of the row, with counts "rounds" (stacked base-point solves), "solved"
    (rows they solved, re-solves included) and "evaluations" (field-kernel
    rows). Each round solves every row still moving as one stack, a row
    leaves once it converges or fails, and each row keeps its own history,
    so no row depends on the other rows. The rounds run on arrays
    (_alternate); objects are built for the decomposed rows only.
    """
    z = np.asarray(z, dtype=np.float64)
    errors, fields, offset, counts = _alternate(packet, mesh, z)
    outcomes = list(errors)
    rows = np.flatnonzero([e is None for e in errors])
    for row, chart in zip(rows.tolist(),
                          BundleChart._checked_stack(*(a[rows] for a in fields))):
        k = chart.owning_cylinder
        outcomes[row] = FiberDecomposition(
            x=(packet.rotations[k].T @ (chart.base_point - packet.centers[k]))[:packet.d],
            v=offset[row].copy(), base_point=chart.base_point.copy(), chart=chart)
    outcomes = RowOutcomes(outcomes, **counts)
    return first_or_raise(outcomes) if z.ndim == 1 else outcomes


def _alternate(packet: CylinderPacket, mesh: PutativeMesh, z: np.ndarray,
               newton_tol: float = 1e-10):
    """bundle_coordinates' rounds on arrays, at most ALTERNATIONS of them.
    Returns per row its error or None, the chart fields of its last base
    point (in the argument order of BundleChart._checked_stack) and its
    fiber offset, and the counts. Each round's projectors are checked as
    one stack."""
    if z.shape[-1:] != (packet.n,) or z.ndim not in (1, 2):
        raise InvalidParameterError(
            f"point of shape {z.shape} does not match ambient dim {packet.n}")
    z = z.reshape(-1, packet.n)
    m, codim = z.shape[0], packet.n - packet.d
    if not isinstance(mesh, PutativeMesh):
        raise InvalidParameterError("mesh must be a PutativeMesh")
    sq = np.zeros((m, mesh.size))
    for axis in range(packet.n):   # one (m, k) array, not an (m, k, n) one
        sq += (z[:, axis, None] - mesh.base_points[:, axis]) ** 2
    fields = [a[np.argmin(sq, axis=1)] for a in mesh._fields]   # each row's nearest chart
    base, proj = fields[:2]
    errors: list = [None] * m
    offset = np.zeros(z.shape)
    shift_tol = SHIFT_TOL * max(1.0, packet.tau_bar)
    vmax = CBAR10 * packet.tau_bar / 2.0
    counts = {"rounds": 0, "solved": 0, "evaluations": 0}
    last_base, last_t = np.full(z.shape, np.nan), np.full(z.shape, np.nan)

    def update(found, rows):   # rows[i] moves to found's row i where that converged
        ok = np.flatnonzero(found.done)
        if ok.size:
            new = found.fields(ok)
            _check_projectors(new[1], codim)
            for a, b in zip(fields, new):
                a[rows[ok]] = b

    active = np.arange(m)
    for _ in range(ALTERNATIONS):
        r = z[active] - base[active]
        v = np.matmul(proj[active], r[:, :, None])[:, :, 0]
        t = r - v
        done = np.sqrt((t * t).sum(1)) <= shift_tol
        if done.any():
            at = active[done]
            offset[at] = v[done]
            # each offset's dot with itself, as math.sqrt(v @ v) takes it
            vnorm = np.sqrt(np.matmul(v[done][:, None, :], v[done][:, :, None])[:, 0, 0])
            for row, size in zip(at.tolist(), vnorm.tolist()):
                if size > vmax + 1e-12:
                    errors[row] = DecompositionFailedError(
                        f"fiber offset {size:.4g} exceeds {vmax:.4g}")
        active, t = active[~done], t[~done]
        if not active.size:
            break
        b = base[active]
        plain, dt = b + t, t - last_t[active]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            gamma = (dt * t).sum(1) / (dt * dt).sum(1)
            secant = np.isfinite(gamma)   # False on a first round or where |dt| = 0
            seed = np.where(secant[:, None],
                            plain - gamma[:, None] * (b - last_base[active] + dt), plain)
        last_base[active], last_t[active] = b, t
        # the multi-packet form: its arrays, no chart objects
        found = solve_base_point([packet], [seed], newton_tol)
        update(found, active)
        failed = list(found.errors)
        retry = np.flatnonzero(secant & ~found.done)
        counts["rounds"] += 1
        counts["solved"] += active.size + retry.size
        counts["evaluations"] += int(found.evaluations.sum())
        if retry.size:
            again = solve_base_point([packet], [plain[retry]], newton_tol)
            update(again, active[retry])
            counts["evaluations"] += int(again.evaluations.sum())
            for i, err in zip(retry.tolist(), again.errors):
                failed[i] = err
        ended = np.flatnonzero([err is not None for err in failed])
        for i in ended.tolist():
            errors[active[i]] = DecompositionFailedError(
                f"base-point update failed: {type(failed[i]).__name__}: {failed[i]}")
        active = np.delete(active, ended)
    for row in active.tolist():
        errors[row] = DecompositionFailedError(f"no convergence in {ALTERNATIONS} alternations")
    return errors, fields, offset, counts


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
                          tangents: Mapping[int, AffineSubspace]) -> AsdfConditionsReport:
    """Probe the rescaled field F_hat around manifold samples.

    For each sample z with tangent frame Theta the field
    F_hat(w) = F(z + tau_bar Theta w) / tau_bar^2 is probed on a grid in the
    unit cylinder; the report collects the empirical ellipticity ratios
    (F_hat + rho^2) / (|y|^2 + rho^2), rho = tau_bar / tau, and the
    derivative magnitudes, against C1_FLOOR, C1_CEILING and DERIV_CEILING.
    """
    if sample.size == 0:
        raise EmptyInputError("need at least one sample point")
    tb = packet.tau_bar
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
    if c1 < C1_FLOOR:
        violations.append(f"lower ellipticity {c1:.4g} below {C1_FLOOR}")
    if c_up > C1_CEILING:
        violations.append(f"upper ellipticity {c_up:.4g} above {C1_CEILING}")
    if max(max_grad, max_hess) > DERIV_CEILING:
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


def load_mesh(packet: CylinderPacket, csv_path: str, sidecar_path: str) -> PutativeMesh:
    """Rebuild a mesh from disk, recomputing charts against the packet.

    Every chart is re-derived at the stored base point, as extraction
    derives it (the multi-packet solve_base_point's arrays): a row that
    fails raises a fresh error of its type and text. Each projector is
    checked, then cross-checked against the stored one to 1e-8.
    """
    pts = np.loadtxt(csv_path, delimiter=",", ndmin=2)
    with open(sidecar_path) as fh:
        payload = json.load(fh)
    # an infinite tolerance stops every row's Newton at its stored point
    solved = solve_base_point([packet], [pts], math.inf)
    for error in solved.errors:
        if error is not None:
            raise type(error)(*error.args)
    mesh = PutativeMesh(solved.fields(np.arange(pts.shape[0])), float(payload["tolerance"]),
                        packet)
    _check_projectors(mesh.projectors, packet.n - packet.d)
    for projector, stored in zip(mesh.projectors, payload["charts"]):
        saved = np.asarray(stored["projector"], dtype=np.float64).reshape(packet.n, packet.n)
        if float(np.max(np.abs(projector - saved))) > 1e-8:
            raise InvalidParameterError("stored projector disagrees with the packet")
    return mesh

"""Point-cloud geometry: clouds, affine subspaces, nets, tangents, reach.

Conventions used throughout the package:
  - points are float64 rows of an (N, n) array;
  - an affine subspace is stored as a base point plus orthonormal basis rows;
  - distances are Euclidean.
"""
from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import (
    DegenerateNeighborhoodError,
    EmptyInputError,
    InsufficientDataError,
    InvalidParameterError,
    UnderdeterminedTangentError,
)

WEIGHT_SUM_TOL = 1e-12
UNIT_BALL_TOL = 1e-9
ORTHONORMAL_TOL = 1e-10
ON_SUBSPACE_TOL = 1e-12
REACH_PAIR_FLOOR = 1e-14  # pairs with smaller tangent deviation are excluded
MNFD_MAGIC = b"MNFD"


def _as_float_matrix(points, name: str = "points") -> np.ndarray:
    arr = np.asarray(points, dtype=np.float64)
    if arr.ndim != 2:
        raise InvalidParameterError(f"{name} must be a 2-d array, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise InvalidParameterError(f"{name} contains non-finite entries")
    return arr


@dataclass(frozen=True, eq=False)
class PointCloud:
    """Weighted finite point set in R^n.

    weights are nonnegative and sum to one (checked to 1e-12). When
    require_unit_ball is set every point must satisfy |x| <= 1 + 1e-9.
    An empty cloud (N = 0) is representable; operations that need points
    raise EmptyInputError themselves.
    """

    points: np.ndarray            # (N, n)
    weights: np.ndarray           # (N,)
    require_unit_ball: bool = True

    def __post_init__(self):
        pts = _as_float_matrix(self.points)
        if pts.shape[1] < 1:
            raise InvalidParameterError("ambient dimension must be at least 1")
        w = np.asarray(self.weights, dtype=np.float64)
        if w.shape != (pts.shape[0],):
            raise InvalidParameterError(
                f"weights shape {w.shape} does not match {pts.shape[0]} points")
        if pts.shape[0] > 0:
            if np.any(w < 0) or not np.all(np.isfinite(w)):
                raise InvalidParameterError("weights must be finite and nonnegative")
            if abs(float(w.sum()) - 1.0) > WEIGHT_SUM_TOL:
                raise InvalidParameterError(
                    f"weights sum to {w.sum():.17g}, expected 1 within {WEIGHT_SUM_TOL}")
            if self.require_unit_ball:
                worst = float(np.max(np.linalg.norm(pts, axis=1)))
                if worst > 1.0 + UNIT_BALL_TOL:
                    raise InvalidParameterError(
                        f"point with norm {worst:.17g} outside the unit ball")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", w)

    @property
    def size(self) -> int:
        return self.points.shape[0]

    @property
    def ambient_dim(self) -> int:
        return self.points.shape[1]

    @classmethod
    def from_points(cls, points, weights=None, require_unit_ball: bool = True) -> "PointCloud":
        """Build a cloud, defaulting to uniform weights."""
        pts = _as_float_matrix(points)
        if weights is None:
            n = pts.shape[0]
            w = np.full(n, 1.0 / n) if n else np.zeros(0)
        else:
            w = np.asarray(weights, dtype=np.float64)
            total = float(w.sum())
            if total <= 0:
                raise InvalidParameterError("weights must have positive sum")
            w = w / total
        return cls(points=pts, weights=w, require_unit_ball=require_unit_ball)


@dataclass(frozen=True, eq=False)
class AffineSubspace:
    """Affine subspace given by a base point and orthonormal basis rows.

    basis has shape (d, n); d = 0 (a single point) is allowed.
    """

    base: np.ndarray    # (n,)
    basis: np.ndarray   # (d, n), rows orthonormal to 1e-10

    def __post_init__(self):
        base = np.asarray(self.base, dtype=np.float64)
        basis = np.asarray(self.basis, dtype=np.float64)
        if base.ndim != 1 or not np.all(np.isfinite(base)):
            raise InvalidParameterError("base must be a finite vector")
        if basis.ndim != 2 or basis.shape[1] != base.shape[0]:
            raise InvalidParameterError(
                f"basis shape {basis.shape} incompatible with base of dim {base.shape[0]}")
        d = basis.shape[0]
        if d > base.shape[0]:
            raise InvalidParameterError("subspace dimension exceeds ambient dimension")
        if d > 0:
            gram = basis @ basis.T
            if float(np.max(np.abs(gram - np.eye(d)))) > ORTHONORMAL_TOL:
                raise InvalidParameterError("basis rows are not orthonormal to 1e-10")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "basis", basis)

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    @property
    def ambient_dim(self) -> int:
        return self.base.shape[0]

    @classmethod
    def _checked_stack(cls, bases: np.ndarray, basis: np.ndarray) -> list[AffineSubspace]:
        """Subspaces through the rows of bases (m, n) spanned by the rows of
        basis (m, d, n), their orthonormality checked once, as one stack."""
        gram = np.matmul(basis, basis.transpose(0, 2, 1)) - np.eye(basis.shape[1])
        if float(np.abs(gram).max(initial=0.0)) > ORTHONORMAL_TOL:
            raise InvalidParameterError("basis rows are not orthonormal to 1e-10")
        subs = [object.__new__(cls) for _ in range(bases.shape[0])]
        for sub, base, rows in zip(subs, bases, basis):
            sub.__dict__.update(base=base, basis=rows)
        return subs

    def nearest_to_origin(self) -> np.ndarray:
        """The point of the subspace closest to the origin."""
        if self.dim == 0:
            return self.base.copy()
        return self.base - self.basis.T @ (self.basis @ self.base)


@dataclass(frozen=True)
class ReachEstimate:
    """Federer reach estimate: the minimizing value and its ordered pair.

    value is math.inf (argpair None) when every ordered pair was excluded
    by the deviation floor.
    """

    value: float
    argpair: tuple[int, int] | None

    def __post_init__(self):
        if not (self.value > 0):
            raise InvalidParameterError("reach estimate must be positive")
        if math.isinf(self.value):
            if self.argpair is not None:
                raise InvalidParameterError("infinite estimate cannot carry an argpair")
        else:
            if self.argpair is None:
                raise InvalidParameterError("finite estimate needs an argpair")
            a, b = self.argpair
            if a == b:
                raise InvalidParameterError("argpair indices must be distinct")


def residuals_to_subspace(points: np.ndarray, sub: AffineSubspace) -> np.ndarray:
    """Componentwise residuals of points after projecting onto sub."""
    rel = points - sub.base
    if sub.dim == 0:
        return rel
    return rel - (rel @ sub.basis.T) @ sub.basis


def dist_to_affine(x, sub: AffineSubspace) -> float:
    """Euclidean distance from x to the affine subspace."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (sub.ambient_dim,):
        raise InvalidParameterError(
            f"point of dim {x.shape} does not match ambient dim {sub.ambient_dim}")
    res = residuals_to_subspace(x[None, :], sub)
    return float(np.linalg.norm(res[0]))


def _row_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Distances (A, B) between the rows of a (A, n) and b (B, n), each
    bit-equal to np.linalg.norm(a[i] - b[j]) (see _distances)."""
    return _distances(a[:, None, :], b[None])


def _distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Distances between the points of a and b, broadcast against each other
    (coordinates on the last axis), each bit-equal to np.linalg.norm of the
    difference: numpy sums fewer than 8 squares left to right, as the loop
    over coordinates does (about three times as fast as a stacked norm over
    a short last axis), and longer rows pairwise, as np.linalg.norm does."""
    if a.shape[-1] >= 8:
        return np.linalg.norm(a - b, axis=-1)
    sq = np.zeros(np.broadcast_shapes(a.shape, b.shape)[:-1])
    for k in range(a.shape[-1]):
        diff = a[..., k] - b[..., k]
        sq += diff * diff
    return np.sqrt(sq)


# rows of a greedy_merge block, and kept points measured against it at once
_MERGE_BLOCK = 256


def greedy_merge(points, r: float) -> list[int]:
    """Indices kept by a greedy r-merge of the rows of points, in row order.

    The first point is kept; a later point is kept exactly when it lies at
    distance >= r from every point kept before it. r may be 0, which keeps
    every point.

    The rows are scanned in blocks of _MERGE_BLOCK: the distances (later
    minus earlier point, see _row_distances) of a block to the points kept
    before it, then among its remaining rows, are each one stacked pass, so
    the kept indices equal a scan with one np.linalg.norm row per kept
    point. Only a row within r of an earlier remaining row of its block is
    decided in a Python loop. No pass holds more than _MERGE_BLOCK^2
    distances.
    """
    points = np.asarray(points, dtype=np.float64)
    kept = [0] if points.shape[0] else []
    for lo in range(0, points.shape[0], _MERGE_BLOCK):
        block = points[lo:lo + _MERGE_BLOCK]
        far = np.ones(block.shape[0], dtype=bool)   # far from everything kept so far
        for k in range(0, len(kept), _MERGE_BLOCK):
            far &= np.all(_row_distances(block, points[kept[k:k + _MERGE_BLOCK]]) >= r, axis=1)
        if lo == 0:
            far[0] = False   # kept already
        rows = np.flatnonzero(far)
        # close[i, j]: remaining row j, earlier than row i, lies within r of it
        close = np.tril(~(_row_distances(block[rows], block[rows]) >= r), -1)
        keep = np.ones(rows.size, dtype=bool)
        for i in np.flatnonzero(close.any(axis=1)).tolist():
            keep[i] = not (close[i] & keep).any()
        kept += (lo + rows[keep]).tolist()
    return kept


def greedy_net(cloud: PointCloud, r: float) -> list[int]:
    """Greedy r-net indices in scan order.

    The first point is always selected; a later point is selected exactly
    when it is at distance >= r from everything selected so far. The result
    covers the cloud at radius < r and is r-separated.
    """
    if cloud.size == 0:
        raise EmptyInputError("cannot build a net of an empty cloud")
    if not (r > 0):
        raise InvalidParameterError(f"net radius must be positive, got {r!r}")
    return greedy_merge(cloud.points, r)


def lexsort_dedup(points, radius: float) -> list[int]:
    """Indices kept by a greedy merge, in lexicographic visiting order.

    Points are visited sorted by their coordinates, the first most
    significant; a point is kept when it lies at least radius from every
    point kept before it. Only pairs within a window of the sorted first
    coordinates, with slack, can be closer than radius: they are measured
    with greedy_merge's arithmetic, one pass per distance in visiting order,
    and the close ones decided in waves (a point with an earlier kept
    neighbour is dropped, one whose earlier neighbours are all dropped is
    kept).
    """
    points = np.asarray(points, dtype=np.float64)
    order = np.lexsort(points.T[::-1])
    pts = points[order]
    x = pts[:, 0]
    window = radius + 1e-9 * (abs(radius) + np.abs(x).max(initial=0.0))
    # how many points after each one lie in the window of its first coordinate
    later = np.searchsorted(x, x + window, side="right") - np.arange(x.size) - 1
    i, j = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)]
    for k in range(1, int(later.max(initial=0)) + 1):   # the pairs k points apart
        rows = np.flatnonzero(later >= k)
        close = rows[~(_distances(pts[rows + k], pts[rows]) >= radius)]
        i.append(close)
        j.append(close + k)
    i, j = np.concatenate(i), np.concatenate(j)
    state = np.zeros(x.size, dtype=np.int8)   # 0 undecided, 1 kept, 2 dropped
    while True:   # a wave decides at least the first undecided point
        state[j[state[i] == 1]] = 2
        free = state == 0
        free[j[state[i] == 0]] = False
        state[free] = 1
        pending = state[j] == 0
        if not pending.any():
            return order[state == 1].tolist()
        i, j = i[pending], j[pending]


def _ball_grid(axis: np.ndarray, d: int, radius: float) -> np.ndarray:
    """The grid axis^d (k, d), cut to the ball of the given radius if d > 1."""
    if d == 1:
        return axis[:, None]
    grids = np.meshgrid(*([axis] * d), indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1)
    return pts[np.linalg.norm(pts, axis=1) <= radius + 1e-12]


def _sign_fix_rows(rows: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """Flip each row so its first entry of magnitude > tol (>= 0) is positive."""
    # a row with no such entry leads with |entry| <= tol, which is never < -tol
    lead = rows[np.arange(rows.shape[0]), (np.abs(rows) > tol).argmax(1)]
    out = rows.copy()   # C order whatever the layout of rows: later products depend on it
    return np.negative(out, out=out, where=(lead < -tol)[:, None])


# doubles one block of _tangent_ladder's distance pass holds, or one center's if more
_TANGENT_BLOCK = 1 << 17


def _tangent_ladder(points: np.ndarray, centers: np.ndarray, radii: Sequence[float],
                    d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Top-d PCA tangent bases at the rows `centers` of points, one pass: each
    center takes the first radius of the ladder radii whose neighbourhood
    (the points within it, center included) has d+1 points or more and a
    nonzero covariance. Returns the bases (m, d, n), zero where no radius
    serves, which radius served each center (-1: none) and its neighbour
    count at the last radius tried. Distances come in blocks of at most
    _MERGE_BLOCK centers, fewer where a block's distance pass (one double
    per point, n per point from 8 dimensions on: see _row_distances) would
    pass _TANGENT_BLOCK doubles. The unserved centers of a block are grouped
    by neighbourhood size, each group one stacked call per step with a
    single center's layout per slice, so a basis is bit-equal to a
    one-center call's."""
    m, n = centers.size, points.shape[1]
    bases, found = np.zeros((m, d, n)), np.full(m, -1)
    counts = np.zeros(m, dtype=np.int64)
    row = points.shape[0] * (n if n >= 8 else 1)
    per = max(1, min(_MERGE_BLOCK, _TANGENT_BLOCK // row))
    for lo in range(0, m, per):
        dist = _row_distances(points[centers[lo:lo + per]], points)
        left = np.arange(dist.shape[0])   # block rows no radius has served yet
        for r, radius in enumerate(radii):
            near = dist[left] <= radius
            size = near.sum(axis=1)
            counts[lo + left] = size
            for k in np.unique(size[size > d]).tolist():
                group = np.flatnonzero(size == k)
                nb = points[np.nonzero(near[group])[1].reshape(group.size, k)]
                centered = nb - nb.mean(axis=1)[:, None, :]
                cov = centered.transpose(0, 2, 1) @ centered / k
                ok = np.abs(cov).max(axis=(1, 2)) >= 1e-24   # else a zero covariance
                # columns of evecs are ascending by eigenvalue; take the top d
                top = np.linalg.eigh(cov[ok])[1][:, :, ::-1][:, :, :d].transpose(0, 2, 1)
                rows = lo + left[group[ok]]
                bases[rows] = _sign_fix_rows(top.reshape(-1, n)).reshape(-1, d, n)
                found[rows] = r
            left = left[found[lo + left] < 0]
    return bases, found, counts


def estimate_tangent(cloud: PointCloud, center_index: int, radius: float, d: int) -> AffineSubspace:
    """Tangent estimate at one point: top-d PCA of the centered neighborhood.

    The neighborhood is every cloud point within `radius` of the center
    (the center included). Needs at least d+1 neighbors and a nonzero
    neighborhood covariance. A one-center, one-radius _tangent_ladder.
    """
    if cloud.size == 0:
        raise EmptyInputError("cannot estimate a tangent on an empty cloud")
    if not (0 <= center_index < cloud.size):
        raise InvalidParameterError(f"center index {center_index} out of range")
    if not (radius > 0):
        raise InvalidParameterError("tangent radius must be positive")
    n = cloud.ambient_dim
    if not (1 <= d <= n):
        raise InvalidParameterError(f"tangent dimension {d} invalid for ambient dim {n}")
    bases, found, counts = _tangent_ladder(cloud.points, np.array([center_index]), (radius,), d)
    if found[0] < 0 and counts[0] < d + 1:
        raise UnderdeterminedTangentError(
            f"{counts[0]} neighbors within radius {radius}, need at least {d + 1}")
    if found[0] < 0:
        raise DegenerateNeighborhoodError("neighborhood covariance is zero")
    return AffineSubspace(base=cloud.points[center_index].copy(), basis=bases[0])


def federer_reach(cloud: PointCloud, tangents: Mapping[int, AffineSubspace]) -> ReachEstimate:
    """Reach estimate: inf over ordered pairs of |a-b|^2 / (2 d(b, Tan(a))).

    tangents must provide an AffineSubspace through every cloud point
    (base within 1e-9 of the point). Pairs whose deviation d(b, Tan(a))
    is below 1e-14 are excluded; if everything is excluded the estimate
    is +inf with no argpair.
    """
    if cloud.size < 2:
        raise InsufficientDataError("reach estimation needs at least two points")
    pts = cloud.points
    for i in range(cloud.size):
        if i not in tangents:
            raise InvalidParameterError(f"no tangent supplied for index {i}")
        sub = tangents[i]
        if float(np.linalg.norm(sub.base - pts[i])) > 1e-9:
            raise InvalidParameterError(f"tangent base at index {i} is not on the point")
    best = math.inf
    best_pair: tuple[int, int] | None = None
    for a in range(cloud.size):
        res = residuals_to_subspace(pts, tangents[a])
        dev = np.linalg.norm(res, axis=1)
        dist2 = np.einsum("ij,ij->i", pts - pts[a], pts - pts[a])
        dev[a] = 0.0  # excludes the diagonal via the floor below
        valid = dev > REACH_PAIR_FLOOR
        if not np.any(valid):
            continue
        ratios = np.full(cloud.size, math.inf)
        ratios[valid] = dist2[valid] / (2.0 * dev[valid])
        b = int(np.argmin(ratios))
        if ratios[b] < best:
            best = float(ratios[b])
            best_pair = (a, b)
    return ReachEstimate(value=best, argpair=best_pair)


def _directed_hausdorff(a: np.ndarray, b: np.ndarray, block: int = 512) -> float:
    worst = 0.0
    for start in range(0, a.shape[0], block):
        chunk = a[start:start + block]
        d2 = (
            np.sum(chunk * chunk, axis=1)[:, None]
            - 2.0 * chunk @ b.T
            + np.sum(b * b, axis=1)[None, :]
        )
        np.maximum(d2, 0.0, out=d2)
        worst = max(worst, float(np.sqrt(d2.min(axis=1)).max()))
    return worst


def hausdorff_distance(cloud_a: PointCloud, cloud_b: PointCloud) -> float:
    """Symmetric Hausdorff distance between two finite clouds."""
    if cloud_a.size == 0 or cloud_b.size == 0:
        raise EmptyInputError("Hausdorff distance needs two nonempty clouds")
    if cloud_a.ambient_dim != cloud_b.ambient_dim:
        raise InvalidParameterError("clouds live in different ambient dimensions")
    return max(
        _directed_hausdorff(cloud_a.points, cloud_b.points),
        _directed_hausdorff(cloud_b.points, cloud_a.points),
    )


# ---- serialization ----

def save_csv(cloud: PointCloud, path: str, include_weights: bool = False) -> None:
    """Write one point per row; optionally append the weight column."""
    data = cloud.points
    if include_weights:
        data = np.hstack([data, cloud.weights[:, None]])
    np.savetxt(path, data, delimiter=",", fmt="%.17g")


def load_csv(path: str, has_weights: bool = False, require_unit_ball: bool = True) -> PointCloud:
    """Read a CSV written by save_csv."""
    data = np.loadtxt(path, delimiter=",", ndmin=2, dtype=np.float64)
    if data.size == 0:
        raise EmptyInputError(f"no points in {path}")
    if has_weights:
        if data.shape[1] < 2:
            raise InvalidParameterError("weighted CSV needs at least two columns")
        return PointCloud.from_points(
            data[:, :-1], weights=data[:, -1], require_unit_ball=require_unit_ball)
    return PointCloud.from_points(data, require_unit_ball=require_unit_ball)


def save_mnfd(cloud: PointCloud, path: str) -> None:
    """Binary format: magic 'MNFD', u32 n, u64 N, N*n f64 points, N f64 weights.

    All fields little-endian; points are row-major.
    """
    with open(path, "wb") as fh:
        fh.write(MNFD_MAGIC)
        fh.write(struct.pack("<IQ", cloud.ambient_dim, cloud.size))
        fh.write(np.ascontiguousarray(cloud.points, dtype="<f8").tobytes())
        fh.write(np.ascontiguousarray(cloud.weights, dtype="<f8").tobytes())


def load_mnfd(path: str, require_unit_ball: bool = False) -> PointCloud:
    """Read the binary format written by save_mnfd."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != MNFD_MAGIC:
            raise InvalidParameterError(f"bad magic {magic!r}, expected {MNFD_MAGIC!r}")
        n, count = struct.unpack("<IQ", fh.read(12))
        pts = np.frombuffer(fh.read(8 * count * n), dtype="<f8").reshape(count, n)
        w = np.frombuffer(fh.read(8 * count), dtype="<f8")
    return PointCloud(points=pts.astype(np.float64), weights=w.astype(np.float64),
                      require_unit_ball=require_unit_ball)


def orthonormal_completion(basis: np.ndarray, n: int) -> np.ndarray:
    """Rows spanning the orthogonal complement of the given orthonormal rows.

    basis is (k, n), or a stack (m, k, n) completed slice by slice.
    Deterministic: built from the SVD of the input and sign-fixed.
    """
    k = basis.shape[-2]
    if k == 0:
        return np.broadcast_to(np.eye(n), basis.shape[:-2] + (n, n)).copy()
    if k == n:
        return np.zeros(basis.shape[:-2] + (0, n))
    comp = np.linalg.svd(basis, full_matrices=True)[2][..., k:, :]
    return _sign_fix_rows(comp.reshape(-1, n)).reshape(comp.shape)


def _frames(basis: np.ndarray) -> np.ndarray:
    """frame_from_tangent of every tangent basis of the stack (m, d, n): one
    stacked completion and determinant, frames (m, n, n) in C order."""
    frames = np.concatenate([basis, orthonormal_completion(basis, basis.shape[-1])], axis=1)
    frames = frames.transpose(0, 2, 1)   # columns are the axes
    flip = np.linalg.det(frames) < 0
    frames = np.ascontiguousarray(frames)
    frames[flip, :, -1] *= -1.0
    return frames


def frame_from_tangent(sub: AffineSubspace) -> np.ndarray:
    """Proper-rotation matrix whose first d columns span the tangent.

    Columns 0..d-1 are the tangent basis rows, the rest a deterministic
    orthonormal completion; the last column is flipped if needed so the
    determinant is +1. A batch of one of _frames.
    """
    return _frames(sub.basis[None])[0]

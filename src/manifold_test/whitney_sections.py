"""Jet-constrained section fitting over cylinder packets.

Each cylinder carries a graph section over its tangential disc, encoded as a
degree-2 Whitney field: one jet (value, gradient, Hessian) per site, stored
as a coefficient block in the layout of _monomials. The admissible fields
form a convex set cut out by coefficient bounds and pairwise
Taylor-compatibility constraints; fitting minimizes a weighted least-squares
objective over that set: a local least-squares warm start, its retraction
(the warm start scaled back into the set, in closed form), and an
analytic-center cutting-plane method from the retraction when neither reaches
the target. The warm starts and retractions of all of a packet's fits run as
stacked passes; the cutting plane runs fit by fit.
Local sections are blended into a global section over the extracted mesh.
"""
from __future__ import annotations

import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
from numpy.linalg import _umath_linalg

from .asdf_bundle import (
    CylinderPacket,
    PutativeMesh,
    RowOutcomes,
    _RowView,
    _alternate,
    _member_pairs,
    _near_pairs,
    _solve_rows,
    bump_profile,
    bundle_coordinates,   # kept bound here: bench/tracer.py wraps it
    first_or_raise,
    solve_base_point,
)
from .core_geometry import orthonormal_completion
from .errors import (
    BudgetExceededError,
    DuplicateSiteError,
    EmptyInputError,
    InfeasibleSectionError,
    InvalidParameterError,
    OutOfTubeError,
    SiteMismatchError,
    UncoveredPointError,
)

C_W = 3.0   # the Whitney constant of the pair constraints
DUPLICATE_SITE_TOL = 1e-12
# squared-form slack: overshooting a ball or slab by ~1e-6 of its radius or
# half-width counts as feasible, which the Whitney constants absorb without
# effect; _objective_bounds allows for it
FEASIBILITY_REL = 2e-6
FEASIBILITY_ABS = 1e-12
SKETCH_RADIUS = 0.02   # a fit site (in units of tau_bar) this close to a kept one joins its sketch


def jet_size(d: int) -> int:
    """Coefficients per jet: value, gradient, upper-triangular Hessian."""
    return 1 + d + d * (d + 1) // 2


@functools.lru_cache(maxsize=None)
def _layout(d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Index pairs (a, b), a <= b, of the extended offset [1, h] in row-major
    order, their flat index a (d + 1) + b, and each monomial's factor (1/2
    on the squares h_a^2). Cached, so read-only."""
    a, b = np.triu_indices(d + 1)
    layout = (a, b, a * (d + 1) + b, np.where((a == b) & (a > 0), 0.5, 1.0))
    for arr in layout:
        arr.flags.writeable = False
    return layout


def _extended(h) -> np.ndarray:
    """The extended offsets [1, h] (k, d + 1) of k offsets h (k, d)."""
    ext = np.empty((h.shape[0], h.shape[1] + 1))
    ext[:, 0] = 1.0
    ext[:, 1:] = h
    return ext


def _monomials(h) -> np.ndarray:
    """Taylor monomials (k, q) of k offsets h (k, d): [1, h, 1/2 h_a^2, h_a h_b].

    This is the one jet layout: a jet's coefficient block holds the value,
    the gradient and the upper-triangular Hessian (pairs a <= b in
    row-major order), and its Taylor value at offset h is the block dotted
    with the monomial row of h. The row is the upper triangle of the outer
    product of [1, h] with itself, the squares halved.
    """
    k, d = h.shape
    _, _, flat, factor = _layout(d)
    ext = _extended(h)
    outer = (ext[:, :, None] * ext[:, None, :]).reshape(k, (d + 1) ** 2)
    return outer.take(flat, axis=1) * factor


def _monomial_gradients(h) -> np.ndarray:
    """Derivatives (k, d, q) of the monomial rows of k offsets h (k, d) in
    each h_axis: d(e_a e_b)/dh_axis of the extended offset e = [1, h] is
    e_b where a is the axis plus e_a where b is."""
    a, b, _, factor = _layout(h.shape[1])
    ext = _extended(h)[:, None, :]
    axis = np.arange(1, h.shape[1] + 1)[:, None]
    return factor * (np.where(a == axis, ext[:, :, b], 0.0)
                     + np.where(b == axis, ext[:, :, a], 0.0))


# ---- sketching ----

@dataclass(frozen=True, eq=False)
class SketchedData:
    """Deduplicated sites with averaged targets and multiplicities."""

    sites: np.ndarray            # (m, d)
    targets: np.ndarray          # (m,) or (m, c)
    multiplicities: np.ndarray   # (m,) positive ints
    owners: np.ndarray           # (N,) the representative each input site joined

    @property
    def size(self) -> int:
        return self.sites.shape[0]

    @property
    def weights(self) -> np.ndarray:
        """Empirical measure mu_i = multiplicity_i / N, summing to 1."""
        mult = np.asarray(self.multiplicities, dtype=np.float64)
        return mult / float(mult.sum())

    @property
    def members(self) -> tuple[tuple[int, ...], ...]:
        """The input sites of each representative, in input order."""
        return tuple(tuple(np.flatnonzero(self.owners == r).tolist())
                     for r in range(self.size))

    def component(self, c: int) -> "SketchedData":
        return SketchedData(sites=self.sites, targets=self.targets[:, c],
                            multiplicities=self.multiplicities, owners=self.owners)


def sketch(sites, values, radius: float) -> SketchedData:
    """Greedy merge of sites closer than radius.

    The representatives are the sites kept by greedy_merge(sites, radius).
    Every other site joins the lowest-index representative within radius;
    representatives keep their original location and average the joined
    values. A batch of one of _sketches.
    """
    sites = np.asarray(sites, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    if sites.ndim != 2 or sites.shape[0] == 0:
        raise EmptyInputError("need a nonempty (N, d) site array")
    if values.shape[0] != sites.shape[0]:
        raise InvalidParameterError("values and sites must align")
    if not (radius >= 0):
        raise InvalidParameterError("sketch radius must be nonnegative")
    data = _sketch_at(_sketches(sites[None], values.reshape(1, sites.shape[0], -1),
                                np.array([sites.shape[0]]), radius), 0, sites.shape[0])
    if values.ndim == 1:
        data = data.component(0)
    return data


def _sketches(sites, values, count, radius: float):
    """The sketches of C site sets at once: sites (C, P, d) and values
    (C, P, c) padded past each set's count (C,) of real sites, each at
    least 1. The greedy merge runs as one masked scan over the site
    position, with the arithmetic of greedy_merge. Returns padded arrays,
    zero past each set's m (C,) representatives: the representatives
    (C, P, d), their averaged targets (C, P, c) and multiplicities (C, P),
    then each site's representative (C, P) and m."""
    C, P, _ = sites.shape
    real = np.arange(P) < count[:, None]
    dist = np.linalg.norm(sites[:, :, None, :] - sites[:, None, :, :], axis=3)
    kept = np.zeros((C, P), dtype=bool)
    kept[:, 0] = True
    dmin = dist[:, 0].copy()
    for i in range(1, P):
        keep = real[:, i] & (dmin[:, i] >= radius)
        kept[:, i] = keep
        if keep.any():
            dmin[keep] = np.minimum(dmin[keep], dist[keep, i])
    rank = np.cumsum(kept, axis=1) - 1
    # each site joins the first representative within radius; representatives own themselves
    first = np.argmax((dist < radius) & kept[:, None, :], axis=2)
    owners = np.where(kept, rank, np.take_along_axis(rank, first, axis=1))
    cyl, pos = np.nonzero(real)
    slot = cyl * P + owners[cyl, pos]
    mult = np.bincount(slot, minlength=C * P).reshape(C, P)
    sums = np.zeros((C * P, values.shape[2]))
    np.add.at(sums, slot, values[cyl, pos])
    targets = sums.reshape(C, P, -1) / np.maximum(mult, 1)[:, :, None]
    reps = np.zeros_like(sites)
    rc, rp = np.nonzero(kept)
    reps[rc, rank[rc, rp]] = sites[rc, rp]
    return reps, targets, mult, owners, kept.sum(axis=1)


def _sketch_at(sketches, c: int, count: int) -> SketchedData:
    """Set c of _sketches' arrays, which had count real sites."""
    reps, targets, mult, owners, m = sketches
    return SketchedData(sites=reps[c, :m[c]], targets=targets[c, :m[c]],
                        multiplicities=mult[c, :m[c]], owners=owners[c, :count])


# ---- constraint sets ----

@dataclass(frozen=True, eq=False)
class ConstraintSet:
    """Convex admissible set: per-site coefficient balls plus pair slabs.

    Site constraint i (index i) bounds the i-th jet block: |y_i|^2 <= M^2.
    Pair constraints (indices m, m+1, ...) are single functionals alpha with
    (alpha . y)^2 <= beta: Taylor value and directional-gradient agreement
    between nearby sites, both pair directions. Pair row k is stored
    compactly: its sites (s, t), its kind (0 for the value, 1 + axis for a
    gradient component), and its Taylor functional on jet s (q,); the row
    is that functional on block s minus the kind's entry of block t.
    """

    sites: np.ndarray        # (m, d)
    M: float
    pair_radius: float
    pair_sites: np.ndarray   # (K, 2) the sites (s, t) of each row
    pair_kinds: np.ndarray   # (K,)
    pair_taylor: np.ndarray  # (K, q)
    pair_betas: np.ndarray   # (K,)

    @property
    def m(self) -> int:
        return self.sites.shape[0]

    @property
    def d(self) -> int:
        return self.sites.shape[1]

    @property
    def q(self) -> int:
        return jet_size(self.d)

    @property
    def dim(self) -> int:
        return self.m * self.q

    @property
    def total_constraints(self) -> int:
        return self.m + self.pair_betas.shape[0]

    @functools.cached_property
    def pair_rows(self) -> np.ndarray:
        """The pair functionals as dense (K, m q) rows."""
        k = self.pair_betas.shape[0]
        rows = np.zeros((k, self.m, self.q))
        each = np.arange(k)
        rows[each, self.pair_sites[:, 0]] = self.pair_taylor
        rows[each, self.pair_sites[:, 1], self.pair_kinds] = -1.0
        return rows.reshape(k, self.dim)

    @functools.cached_property
    def pair_labels(self) -> tuple[str, ...]:
        return tuple(f"{'value' if kind == 0 else f'grad[{kind - 1}]'} {s}->{t}"
                     for (s, t), kind in zip(self.pair_sites.tolist(),
                                             self.pair_kinds.tolist()))

    def violations(self, y: np.ndarray) -> np.ndarray:
        """Per-constraint |A y|^2 - beta, site constraints first."""
        q = self.q
        blocks = y.reshape(self.m, q)
        site_v = np.sum(blocks * blocks, axis=1) - self.M ** 2
        if self.pair_betas.shape[0] == 0:
            return site_v
        pv = (self.pair_rows @ y) ** 2 - self.pair_betas
        return np.concatenate([site_v, pv])

    def all_betas(self) -> np.ndarray:
        site = np.full(self.m, self.M ** 2)
        if self.pair_betas.shape[0] == 0:
            return site
        return np.concatenate([site, self.pair_betas])

    def feasibility_tol(self) -> np.ndarray:
        """Per-constraint slack regarded as numerically feasible."""
        return self.all_betas() * FEASIBILITY_REL + FEASIBILITY_ABS

    def is_feasible(self, y: np.ndarray) -> bool:
        return bool(np.all(self.violations(y) <= self.feasibility_tol()))


def build_constraints(sites, M: float) -> ConstraintSet:
    """Admissible set for degree-2 Whitney fields on the given sites.

    Pairs no farther apart than pair_radius, four times the largest
    nearest-neighbor distance, must agree to second order: the Taylor value
    of one jet at the other site within C_W M |h|^2 and each gradient
    component within C_W M |h|, in both directions. A batch of one of
    _constraint_sets.
    """
    sites = np.asarray(sites, dtype=np.float64)
    if sites.ndim != 2 or sites.shape[0] == 0:
        raise EmptyInputError("need a nonempty (m, d) site array")
    if not (M > 0):
        raise InvalidParameterError("coefficient bound M must be positive")
    out = _constraint_sets(sites[None], np.array([sites.shape[0]]), M)[0][0]
    if isinstance(out, Exception):
        raise out
    return out


def _constraint_sets(sites, m, M: float):
    """The constraint sets of C site sets at once, sites (C, S, d) padded
    past each set's count m (C,), and each set's smallest site separation
    (inf for one site). A set with coinciding sites gets its
    DuplicateSiteError in place of a ConstraintSet."""
    C, S, d = sites.shape
    real = np.arange(S) < m[:, None]
    dist = np.linalg.norm(sites[:, :, None, :] - sites[:, None, :, :], axis=3)
    off = np.where(real[:, :, None] & real[:, None, :] & ~np.eye(S, dtype=bool), dist, np.inf)
    closest_at = off.reshape(C, -1).argmin(axis=1)
    closest = off.reshape(C, -1)[np.arange(C), closest_at]
    nn = np.where(real, off.min(axis=2), -np.inf)
    radius = np.where(m > 1, 4.0 * nn.max(axis=1, initial=-np.inf), 0.0)
    cyl, s_idx, t_idx = np.nonzero(np.isfinite(off) & (off <= radius[:, None, None]))
    # per pair (s, t): the value row, then one gradient row per axis; each
    # holds the Taylor functional of jet s at x_t minus jet t's own entry
    h = sites[cyl, t_idx] - sites[cyl, s_idx]
    hn = dist[cyl, s_idx, t_idx]
    taylor = np.concatenate([_monomials(h)[:, None, :], _monomial_gradients(h)],
                            axis=1).reshape(-1, jet_size(d))
    betas = np.stack([(C_W * M * hn * hn) ** 2] + d * [(C_W * M * hn) ** 2],
                     axis=1).reshape(-1)
    ends = np.repeat(np.stack([s_idx, t_idx], axis=1), 1 + d, axis=0)
    kinds = np.tile(np.arange(1 + d), s_idx.size)
    bounds = np.concatenate([[0], np.cumsum(np.bincount(cyl, minlength=C) * (1 + d))])
    sets = []
    for c in range(C):
        if closest[c] < DUPLICATE_SITE_TOL:
            i, j = np.unravel_index(int(closest_at[c]), (S, S))
            sets.append(DuplicateSiteError(f"sites {i} and {j} coincide"))
            continue
        rows = slice(bounds[c], bounds[c + 1])
        sets.append(ConstraintSet(
            sites=sites[c, :m[c]], M=float(M), pair_radius=float(radius[c]),
            pair_sites=ends[rows], pair_kinds=kinds[rows],
            pair_taylor=taylor[rows], pair_betas=betas[rows]))
    return sets, closest


# ---- objective ----

def _value_indices(m: int, q: int) -> np.ndarray:
    return np.arange(m) * q


def section_objective(data: SketchedData, constraints: ConstraintSet,
                      y: np.ndarray) -> float:
    """Weighted squared error between field values and sketched targets."""
    if data.size != constraints.m:
        raise SiteMismatchError(
            f"data has {data.size} sites, constraints have {constraints.m}")
    vals = y[_value_indices(constraints.m, constraints.q)]
    resid = np.asarray(data.targets, dtype=np.float64) - vals
    return float(np.sum(data.weights * resid * resid))


def _objective_bounds(targets: np.ndarray, weights: np.ndarray, M: float) -> np.ndarray:
    """Lower bounds (C, k) on the objective of any field that can certify,
    for C padded problems with targets (C, S, k) and weights (C, S), zero
    past each problem's sites.

    A point that passes is_feasible (or the separation oracle) has every
    jet block, and so every value coefficient, of norm at most
    M~ = sqrt(M^2 (1 + FEASIBILITY_REL) + FEASIBILITY_ABS). So its
    objective is at least sum_i w_i (|t_i| - M~)_+^2.
    """
    m_tilde = math.sqrt(M * M * (1.0 + FEASIBILITY_REL) + FEASIBILITY_ABS)
    excess = np.maximum(np.abs(targets) - m_tilde, 0.0)
    return np.sum(weights[:, :, None] * excess * excess, axis=1)


def section_objective_gradient(data: SketchedData, constraints: ConstraintSet,
                               y: np.ndarray) -> np.ndarray:
    if data.size != constraints.m:
        raise SiteMismatchError(
            f"data has {data.size} sites, constraints have {constraints.m}")
    idx = _value_indices(constraints.m, constraints.q)
    grad = np.zeros_like(y)
    resid = np.asarray(data.targets, dtype=np.float64) - y[idx]
    grad[idx] = -2.0 * data.weights * resid
    return grad


# ---- separation oracle ----

@dataclass(frozen=True, eq=False)
class Cut:
    """Halfspace normal . y <= offset separating a point from the set."""

    index: int
    normal: np.ndarray   # unit norm
    offset: float
    violation: float


def separation_oracle(constraints: ConstraintSet, y: np.ndarray) -> Cut | None:
    """Deep cut through the most violated constraint, or None if feasible.

    For constraint |A y|^2 <= beta violated at x the cut is
    (Ax)^T A y <= sqrt(beta) |Ax|, satisfied by every feasible point
    (Cauchy-Schwarz) and strictly violated at x.
    """
    m, q = constraints.m, constraints.q
    viol = constraints.violations(y)
    bad = viol - constraints.feasibility_tol()
    i0 = int(np.argmax(bad))
    if bad[i0] <= 0:
        return None
    best = np.flatnonzero(bad == bad[i0])
    i0 = int(best[0])
    if i0 < m:
        v = y[i0 * q:(i0 + 1) * q]
        normal = np.zeros_like(y)
        normal[i0 * q:(i0 + 1) * q] = v
        offset = constraints.M * float(np.linalg.norm(v))
    else:
        alpha = constraints.pair_rows[i0 - m]
        v = float(alpha @ y)
        normal = v * alpha
        offset = math.sqrt(constraints.pair_betas[i0 - m]) * abs(v)
    nn = float(np.linalg.norm(normal))
    return Cut(index=i0, normal=normal / nn, offset=offset / nn,
               violation=float(viol[i0]))


# ---- stacked section problems ----

def _padded(parts, fill=0) -> np.ndarray:
    """Arrays parts[i] (n_i, ...) as one (B, max n_i, ...) array, filled
    with fill past each one's end."""
    counts = np.array([p.shape[0] for p in parts])
    flat = np.concatenate(parts)
    live = np.arange(int(counts.max(initial=0))) < counts[:, None]
    out = np.full(live.shape + flat.shape[1:], fill, dtype=flat.dtype)
    out[live] = flat
    return out


@dataclass(frozen=True, eq=False)
class _SectionStack:
    """B section problems in one padded layout.

    Problem b has m[b] sites (S the largest count), coefficient bound M[b]
    and the compact pair rows of its ConstraintSet, padded to R rows (real
    marks the rows that are not padding). targets and weights (B, S) are
    zero past a problem's sites. Coefficient vectors are (B, S q); problem
    b's own vector is the first m[b] q entries.
    """

    sites: np.ndarray     # (B, S, d)
    m: np.ndarray         # (B,)
    M: np.ndarray         # (B,)
    ends: np.ndarray      # (B, R, 2)
    kinds: np.ndarray     # (B, R)
    taylor: np.ndarray    # (B, R, q)
    betas: np.ndarray     # (B, R)
    real: np.ndarray      # (B, R)
    targets: np.ndarray   # (B, S)
    weights: np.ndarray   # (B, S)

    @staticmethod
    def build(constraints: Sequence[ConstraintSet],
              data: Sequence[SketchedData]) -> _SectionStack:
        return _SectionStack(
            sites=_padded([c.sites for c in constraints]),
            m=np.array([c.m for c in constraints]), M=np.array([c.M for c in constraints]),
            ends=_padded([c.pair_sites for c in constraints]),
            kinds=_padded([c.pair_kinds for c in constraints]),
            taylor=_padded([c.pair_taylor for c in constraints]),
            betas=_padded([c.pair_betas for c in constraints]),
            real=_padded([np.ones(c.pair_betas.size, dtype=bool) for c in constraints],
                         fill=False),
            targets=_padded([x.targets for x in data]), weights=_padded([x.weights for x in data]))

    def objective(self, ys, idx) -> np.ndarray:
        """section_objective of the rows ys (k, S q) of problems idx (k,)."""
        resid = self.targets[idx] - ys.reshape(len(idx), self.sites.shape[1], -1)[:, :, 0]
        return np.sum(self.weights[idx] * resid * resid, axis=1)

    def _pair_values(self, blocks, idx) -> np.ndarray:
        """Each pair functional alpha . y (k, R) of the jet blocks (k, S, q)
        of problems idx (k,); arbitrary on padding rows."""
        ends, each = self.ends[idx], np.arange(len(idx))[:, None]
        return (np.sum(self.taylor[idx] * blocks[each, ends[:, :, 0]], axis=2)
                - blocks[each, ends[:, :, 1], self.kinds[idx]])

    def feasible(self, ys, idx) -> np.ndarray:
        """ConstraintSet.is_feasible of the rows ys (k, S q) of problems idx (k,)."""
        blocks = ys.reshape(len(idx), self.sites.shape[1], -1)
        bound = self.M[idx, None] ** 2
        sites_ok = np.all(np.sum(blocks * blocks, axis=2) - bound
                          <= bound * FEASIBILITY_REL + FEASIBILITY_ABS, axis=1)
        values = self._pair_values(blocks, idx)
        betas = self.betas[idx]
        pairs_ok = np.all((values * values - betas <= betas * FEASIBILITY_REL + FEASIBILITY_ABS)
                          | ~self.real[idx], axis=1)
        return sites_ok & pairs_ok

    def retract(self, ys, idx) -> np.ndarray:
        """The retractions lambda ys of the rows ys (k, S q) of problems idx (k,).

        Every constraint is a ball or a slab centred at 0, so lambda y is
        feasible for lambda up to lambda* = min(1, M / |y_i|, sqrt(beta_k) /
        |alpha_k . y|), shrunk by 1e-12 to absorb rounding. The objective
        depends on the value entries y_0 alone, and its minimum over [0,
        lambda*] is at clip(sum w t y_0 / sum w y_0^2, 0, lambda*), or at 0
        when y_0 = 0.
        """
        blocks = ys.reshape(len(idx), self.sites.shape[1], -1)
        reach = np.sqrt(np.sum(blocks * blocks, axis=2)) / self.M[idx, None]
        slab = np.divide(np.abs(self._pair_values(blocks, idx)), np.sqrt(self.betas[idx]),
                         out=np.zeros(self.betas[idx].shape), where=self.real[idx])
        top = (1.0 - 1e-12) / np.maximum(1.0, np.maximum(reach.max(axis=1),
                                                         slab.max(axis=1, initial=0.0)))
        values, weights = blocks[:, :, 0], self.weights[idx]
        num = np.sum(weights * self.targets[idx] * values, axis=1)
        den = np.sum(weights * values * values, axis=1)
        lam = np.clip(np.divide(num, den, out=np.zeros_like(num), where=den > 0), 0.0, top)
        return lam[:, None] * ys


def _lstsq(a, b, rcond: float) -> np.ndarray:
    """Minimum-norm least-squares solutions (k, n, r) of k systems a (k, m, n)
    x = b (k, m, r). numpy's public lstsq takes one system; its own gufunc
    takes a stack and runs the same LAPACK routine on each system, so every
    solution is bit-equal to its np.linalg.lstsq(a[i], b[i], rcond) call."""
    def failed(*_args):
        raise np.linalg.LinAlgError("SVD did not converge in Linear Least Squares")

    with np.errstate(call=failed, invalid="call", over="ignore", divide="ignore",
                     under="ignore"):
        return _umath_linalg.lstsq(a, b, rcond, signature="ddd->ddid")[0]


def _warm_starts(stack: _SectionStack) -> np.ndarray:
    """Local least-squares jets (B, S q) of a stack: at each site the target
    value, and the derivatives of the quadratic least-squares fit of all of
    the problem's targets around the site (np.linalg.lstsq's minimum-norm
    solution and cutoff, also when m < q), the block scaled back to norm M
    when longer. One stacked solve per site count."""
    B, S, d = stack.sites.shape
    q = jet_size(d)
    y = np.zeros((B, S, q))
    for m in np.unique(stack.m).tolist():
        sel = np.flatnonzero(stack.m == m)
        sites, targets = stack.sites[sel, :m], stack.targets[sel, :m]
        design = _monomials((sites[:, None, :, :] - sites[:, :, None, :]).reshape(-1, d))
        coeff = _lstsq(design.reshape(-1, m, q), np.repeat(targets, m, axis=0)[:, :, None],
                       np.finfo(np.float64).eps * max(m, q)).reshape(sel.size, m, q)
        coeff[:, :, 0] = targets
        # the norm of np.linalg.norm on one block: the square root of its dot product
        norm = np.sqrt(np.matmul(coeff[:, :, None, :], coeff[:, :, :, None]))[:, :, 0, 0]
        limit = np.broadcast_to(stack.M[sel, None], norm.shape)
        over = norm > limit
        coeff[over] *= (limit[over] / norm[over])[:, None]
        y[sel, :m] = coeff
    return y.reshape(B, S * q)


# ---- analytic-center cutting-plane solver ----

def _barrier_value(y, box, cut_g, cut_c):
    lo = y + box
    hi = box - y
    if np.any(lo <= 0) or np.any(hi <= 0):
        return math.inf
    val = -float(np.sum(np.log(lo)) + np.sum(np.log(hi)))
    if cut_g.shape[0]:
        s = cut_c - cut_g @ y
        if np.any(s <= 0):
            return math.inf
        val -= float(np.sum(np.log(s)))
    return val


def _analytic_center(box, cut_g, cut_c, y_start, max_newton: int = 60):
    y = y_start.copy()
    for _ in range(max_newton):
        lo = y + box
        hi = box - y
        grad = 1.0 / hi - 1.0 / lo
        hdiag = 1.0 / hi ** 2 + 1.0 / lo ** 2
        if cut_g.shape[0]:
            s = cut_c - cut_g @ y
            grad = grad + cut_g.T @ (1.0 / s)
            hess = np.diag(hdiag) + (cut_g.T * (1.0 / s ** 2)) @ cut_g
        else:
            hess = np.diag(hdiag)
        try:
            step = np.linalg.solve(hess, -grad)
        except np.linalg.LinAlgError:
            return y
        decrement = float(-grad @ step)
        if decrement / 2.0 < 1e-9:
            return y
        phi0 = _barrier_value(y, box, cut_g, cut_c)
        lam = 1.0
        improved = False
        for _bt in range(50):
            cand = y + lam * step
            if _barrier_value(cand, box, cut_g, cut_c) < phi0:
                y = cand
                improved = True
                break
            lam *= 0.5
        if not improved:
            return y
    return y


def _step_to_interior(y, direction, box, cut_g, cut_c):
    """Largest t with y + t*direction strictly inside box and cuts."""
    t_max = math.inf
    pos = direction > 1e-300
    neg = direction < -1e-300
    if np.any(pos):
        t_max = min(t_max, float(np.min((box - y[pos]) / direction[pos])))
    if np.any(neg):
        t_max = min(t_max, float(np.min((y[neg] + box) / -direction[neg])))
    if cut_g.shape[0]:
        rate = cut_g @ direction
        slack = cut_c - cut_g @ y
        tightening = rate > 1e-300
        if np.any(tightening):
            t_max = min(t_max, float(np.min(slack[tightening] / rate[tightening])))
    return t_max


@dataclass(frozen=True, eq=False)
class SectionFitResult:
    """Outcome of one convex section fit.

    certified means y is feasible with value <= eps_bar. solver names the
    path that produced y: "warm-start" (the local least-squares jets),
    "retracted" (the warm start scaled back into the admissible set, see
    _SectionStack.retract) or "cutting-plane".
    """

    y: np.ndarray
    value: float
    iterations: int
    certified: bool
    solver: str


# the padded layouts of a front grow with its problems' pair rows times
# jet coefficients; _front stacks consecutive runs of problems under this size
_FRONT_ENTRIES = 1 << 20


def _front(data: Sequence[SketchedData], constraints: Sequence[ConstraintSet],
           eps_bar: float) -> list[SectionFitResult]:
    """The closed-form front of B section fits, in stacked passes.

    Problem b fits data[b] (one normal component) over constraints[b]. Its
    warm start certifies when it is feasible with objective <= eps_bar;
    every other problem's warm start is retracted (_SectionStack.retract)
    and certifies on the same test. Returns one SectionFitResult per
    problem: certified ("warm-start" or "retracted"), or uncertified with
    the retracted point, the feasible start from which minimize_section
    goes on. A problem's outcome does not depend on the rest of its batch,
    so the problems are stacked in consecutive runs of at most
    _FRONT_ENTRIES pair-row entries (at least one problem each), which
    bounds the memory of a large packet's front.
    """
    entries = np.cumsum([c.pair_betas.size * c.q for c in constraints])
    results: list[SectionFitResult] = []
    while len(results) < len(data):
        start = len(results)
        base = entries[start - 1] if start else 0
        stop = max(start + 1, int(np.searchsorted(entries, base + _FRONT_ENTRIES, side="right")))
        results += _front_pass(data[start:stop], constraints[start:stop], eps_bar)
    return results


def _front_pass(data: Sequence[SketchedData], constraints: Sequence[ConstraintSet],
                eps_bar: float) -> list[SectionFitResult]:
    """The front of a run of problems (see _front), as one stacked pass."""
    stack = _SectionStack.build(constraints, data)
    every = np.arange(len(data))
    y = _warm_starts(stack)
    warm = stack.feasible(y, every) & (stack.objective(y, every) <= eps_bar)
    rest = np.flatnonzero(~warm)
    if rest.size:
        y[rest] = stack.retract(y[rest], rest)
    value = stack.objective(y, every)
    certified = stack.feasible(y, every) & (value <= eps_bar)
    q = jet_size(stack.sites.shape[2])
    return [SectionFitResult(y=y[b, :stack.m[b] * q], value=float(value[b]), iterations=0,
                             certified=bool(certified[b]),
                             solver="warm-start" if warm[b] else "retracted")
            for b in range(len(data))]


def minimize_section(data: SketchedData, constraints: ConstraintSet,
                     eps_bar: float, budget: int | None = None, *,
                     start: SectionFitResult | None = None) -> SectionFitResult:
    """Minimize the section objective over the admissible set.

    Tries the warm start, then its retraction (the front, see _front),
    then the cutting-plane solver with `budget` cuts, from the retraction.
    Returns as soon as a feasible field with objective <= eps_bar is found
    (the objective is nonnegative, so such a field certifies the minimum
    up to eps_bar). Raises BudgetExceededError carrying the best feasible
    iterate and naming its stop (see _solve_cutting_plane) when the
    cutting plane ends first, also on a problem whose objective lower
    bound already exceeds eps_bar: a caller that wants the bound's proof
    checks it first, as _fit_cylinders does. start is this problem's front
    outcome when a stacked front already ran (fit_sections passes it);
    without it the front runs as a batch of one.
    """
    if not (eps_bar > 0):
        raise InvalidParameterError("eps_bar must be positive")
    if budget is None:
        # analytic centers grow quadratically with the cut count
        budget = min(120 + 4 * constraints.dim, 700)

    if np.asarray(data.targets).ndim != 1:
        raise InvalidParameterError(
            "minimize_section fits one normal coordinate at a time; "
            "split vector targets with SketchedData.component")
    if data.size != constraints.m:
        raise SiteMismatchError(
            f"data has {data.size} sites, constraints have {constraints.m}")
    if start is None:
        start = _front([data], [constraints], eps_bar)[0]
    if start.certified:
        return start
    feasible = start.y if constraints.is_feasible(start.y) else None
    return _solve_cutting_plane(data, constraints, eps_bar, budget, feasible)


# why a cutting-plane search that did not certify stopped: BudgetExceededError.stop
_STOPS = {"budget": "its cut budget ran out",
          "stall": "its best objective stalled",
          "pinned": "its center is pinned against the older cuts",
          "optimum": "the unconstrained optimum lies above the target"}


def _solve_cutting_plane(data, constraints, eps_bar, budget, feasible_start):
    """Analytic-center cutting planes from y = 0, at most `budget` cuts.

    Returns the first feasible iterate with objective <= eps_bar. Otherwise
    raises BudgetExceededError with the best feasible iterate and the stop
    (see _STOPS): the budget; a stall, more than `patience` feasible
    iterates without progress on the best; a center pinned against the
    older cuts; or a feasible point where the objective's gradient vanishes
    and its value is still above eps_bar.
    """
    dim = constraints.dim
    box = constraints.M
    cut_g = np.zeros((0, dim))
    cut_c = np.zeros(0)
    y = np.zeros(dim)
    best_y = None
    best_val = math.inf
    if feasible_start is not None:
        best_y = feasible_start.copy()
        best_val = section_objective(data, constraints, feasible_start)

    stall = 0          # feasible evaluations without progress on best
    patience = 40
    done = 0
    stop = "budget"

    def offer(candidate) -> bool:
        """Score a feasible candidate; True once the best meets eps_bar."""
        nonlocal best_val, best_y, stall
        val = section_objective(data, constraints, candidate)
        tol = max(1e-12, 1e-4 * abs(best_val)) if math.isfinite(best_val) else 0.0
        if val < best_val - tol:
            best_val, best_y, stall = val, candidate, 0
        else:
            stall += 1
            if best_y is None:
                best_val, best_y = val, candidate
        return best_val <= eps_bar

    def result(certified: bool) -> SectionFitResult:
        return SectionFitResult(y=best_y, value=best_val, iterations=done,
                                certified=certified, solver="cutting-plane")

    for it in range(budget):
        done = it + 1
        cut = separation_oracle(constraints, y)
        if cut is None:
            if offer(y.copy()):
                return result(certified=True)
            grad = section_objective_gradient(data, constraints, y)
            gn = float(np.linalg.norm(grad))
            if gn < 1e-14:
                stop = "optimum"
                break
            normal = grad / gn
            offset = float(normal @ y)
        else:
            normal = cut.normal
            offset = cut.offset
        if stall > patience:
            stop = "stall"
            break
        cut_g = np.vstack([cut_g, normal])
        cut_c = np.append(cut_c, offset)
        slack = offset - float(normal @ y)
        if slack <= 0:
            t_req = -slack
            t_max = _step_to_interior(y, -normal, box, cut_g[:-1], cut_c[:-1])
            if not (t_max > t_req + 1e-13):
                # the deep offset is unreachable along the cut normal; keep
                # the cut but slide it through the center (still valid, just
                # weaker) so the centering step has an interior start
                cut_c[-1] = float(normal @ y)
                t_req = 0.0
                if not (t_max > 1e-13):
                    stop = "pinned"
                    break
            y = y - (t_req + 0.5 * min(t_max - t_req, box)) * normal
        y = _analytic_center(box, cut_g, cut_c, y)
    raise BudgetExceededError(
        f"cutting-plane search stopped after {done} cuts: {_STOPS[stop]} "
        f"(best objective {best_val:.6g}, target {eps_bar:.6g})",
        best=None if best_y is None else result(certified=False), stop=stop)


# ---- local sections over cylinders ----

@dataclass(frozen=True, eq=False, slots=True)
class LocalSection:
    """Fitted graph section of one cylinder, in rescaled coordinates: a view
    of one row of a SectionTable (SectionTable.section).

    Sites and values are tangential/normal local coordinates divided by
    tau_bar. coefficients[c, i] is the jet block (see _monomials) of normal
    component c at site i. Evaluation (_shepard_blend, over the table's
    rows) blends the per-site Taylor polynomials with a compactly supported
    Shepard weight whose radius is just below the smallest site separation,
    so the jet values are reproduced exactly at the sites; away from all
    supports the nearest site's polynomial is used.
    """

    cylinder_index: int
    sites: np.ndarray          # (m, d), rescaled
    coefficients: np.ndarray   # (codim, m, q)
    fit_values: tuple[float, ...]
    shepard_radius: float
    is_empty: bool
    solver_paths: tuple[str, ...]   # SectionFitResult.solver per normal component

    @property
    def codim(self) -> int:
        return self.coefficients.shape[0]


def _shepard_blend(offs, coefficients, radius, valid=None) -> tuple[np.ndarray, np.ndarray]:
    """Values (P, codim) and Jacobians (P, codim, d) of P section queries.

    offs (P, S, d) is each query minus the sites of its section,
    coefficients (P, codim, S, q) their jet blocks, radius (P,) the Shepard
    radii, and valid (P, S) marks real sites in a padded table (None: all).
    The blend s = sum w_i P_i / sum w_i of the site polynomials P_i has
    Jacobian (sum w_i dP_i + sum (P_i - s) dw_i) / sum w_i; a query outside
    every support, or with radius 0, takes its nearest site's polynomial.
    """
    P, S, d = offs.shape
    flat = offs.reshape(P * S, d)
    mono = np.concatenate([_monomials(flat)[:, None, :], _monomial_gradients(flat)], axis=1)
    polys = np.einsum("pcsq,psjq->pcsj", coefficients, mono.reshape(P, S, 1 + d, jet_size(d)))
    dist = np.sqrt((offs * offs).sum(2))
    if valid is not None:
        dist = np.where(valid, dist, np.inf)
    scale = np.where(radius > 0, radius, 1.0)[:, None]
    wts, slope, _ = bump_profile(dist / scale)
    wts *= (radius > 0)[:, None]
    total = wts.sum(1)
    blended = total > 0
    total = np.where(blended, total, 1.0)
    # slope is 0 for r <= 1/4 and at padded sites, so a zero offset needs only a safe divisor
    dwts = offs * (slope / (scale * np.maximum(dist, 1e-300)))[:, :, None]
    values = np.einsum("pcs,ps->pc", polys[..., 0], wts) / total[:, None]
    jac = (np.einsum("ps,pcsa->pca", wts, polys[..., 1:])
           + np.einsum("pcs,psa->pca", polys[..., 0] - values[..., None], dwts)) / total[:, None, None]
    near = np.nonzero(~blended)[0]
    if near.size:
        site = np.argmin(dist[near], axis=1)
        values[near], jac[near] = polys[near, :, site, 0], polys[near, :, site, 1:]
    return values, jac


def _inside_points(packet: CylinderPacket, mesh: PutativeMesh, cylinders: np.ndarray):
    """The mesh base points inside each of the given distinct full
    cylinders: their counts (C,) and their local coordinates over tau_bar
    in mesh order, (C, P, n) zero-padded past each count. The candidates
    are _member_pairs' at factor 1 (_near_pairs), kept for the given
    cylinders and stably sorted by position; each one's local coordinates
    are its (1, n) @ (n, n) product, for n <= 3 bit-equal to a
    (mesh, n) @ (n, n) product over every mesh point."""
    tb, d = packet.tau_bar, packet.d
    lim, points = tb + 1e-12, mesh.base_points
    pi, k = _near_pairs((packet,), points, 2.0 * lim * lim)
    at = np.full(packet.size, cylinders.size)   # a cylinder not asked for sorts last
    at[cylinders] = np.arange(cylinders.size)
    pos = at[k]
    order = np.argsort(pos, kind="stable")[:np.count_nonzero(pos < cylinders.size)]
    ci, pi, k = pos[order], pi[order], k[order]
    local = np.matmul((points[pi] - packet.centers[k])[:, None, :], packet.rotations[k])[:, 0, :]
    inside = ((np.linalg.norm(local[:, :d], axis=1) <= lim)
              & (np.linalg.norm(local[:, d:], axis=1) <= lim))
    count = np.bincount(ci[inside], minlength=cylinders.size)
    real = np.arange(int(count.max(initial=0))) < count[:, None]
    found = np.zeros(real.shape + (packet.n,))
    found[real] = local[inside] / tb
    return count, found


def _coefficient_bound(packet: CylinderPacket) -> float:
    """The bound M = 2 tau_bar / tau on the norm of every jet block of a
    packet's sections."""
    return 2.0 * packet.tau_bar / packet.tau


def _fit_cylinders(packet: CylinderPacket, mesh: PutativeMesh, cylinders, eps_bar: float,
                   budget: int | None) -> SectionTable:
    """Fit the graph sections of the given cylinders, in order, into the
    rows of one SectionTable.

    Mesh base points inside a full cylinder give sites (tangential local
    coordinates over tau_bar) and per-component targets (normal coordinates
    over tau_bar), sketched at SKETCH_RADIUS. A cylinder without mesh
    points yields an empty section. The coefficient bound is
    _coefficient_bound(packet).

    eps_bar is checked first (InvalidParameterError). Then the
    sketches of every cylinder run as one stacked pass, and from them each
    component's objective lower bound (_objective_bounds). When a bound
    exceeds eps_bar (by more than 1e-9 relative, which covers rounding),
    that fit cannot certify, and the first such (cylinder, component), in
    cylinder order, raises InfeasibleSectionError before any constraint
    set, front or solver runs, even when an earlier cylinder would fail
    its setup or stall on a feasible problem. Otherwise the constraint
    sets and the closed-form front (_front) run as stacked passes too, and
    each component goes through minimize_section with its front outcome,
    cylinder by cylinder, so the first failing cylinder raises its own
    error, from the setup or from the solver. The table's sites are the
    sketches' representatives, with Shepard radii just below their
    smallest separation (0 for one site).
    """
    d, codim, q = packet.d, packet.n - packet.d, jet_size(packet.d)
    M = _coefficient_bound(packet)
    if not (eps_bar > 0):
        raise InvalidParameterError("eps_bar must be positive")
    cylinders = np.array(cylinders, dtype=np.int64)   # a copy: the table freezes it
    count, points = _inside_points(packet, mesh, cylinders)
    filled = np.flatnonzero(count)
    m, S = np.zeros(cylinders.size, dtype=np.int64), 0
    sites, radius = np.zeros((cylinders.size, 0, d)), np.zeros(cylinders.size)
    setup: dict = {}   # filled cylinder position -> its problems [(data, constraints)] or error
    if filled.size:
        points = points[filled]
        sketches = _sketches(points[:, :, :d], points[:, :, d:], count[filled], SKETCH_RADIUS)
        reps, targets, mult, _, m[filled] = sketches   # m: each sketch's representatives
        S = int(m.max())   # the padded width of the largest sketch, as the bounds sum over it
        bound = _objective_bounds(targets[:, :S], mult[:, :S] / mult.sum(axis=1)[:, None], M)
        over = np.argwhere(bound > eps_bar * (1.0 + 1e-9))
        if over.size:
            k, c = over[0].tolist()
            raise InfeasibleSectionError(int(cylinders[filled[k]]), c, float(bound[k, c]),
                                         eps_bar)
        sets, closest = _constraint_sets(reps[:, :S], m[filled], M)
        sites = np.zeros((cylinders.size, S, d))
        sites[filled] = reps[:, :S]
        radius[filled] = np.where(m[filled] > 1, 0.999 * closest, 0.0)
        for k, (j, cons) in enumerate(zip(filled.tolist(), sets)):
            data = _sketch_at(sketches, k, count[j])
            setup[j] = cons if isinstance(cons, Exception) else [
                (data.component(c), cons) for c in range(codim)]
    # the fronts of every cylinder with a setup, in cylinder order
    problems = [p for out in setup.values() if isinstance(out, list) for p in out]
    fronts = iter(_front([p[0] for p in problems], [p[1] for p in problems], eps_bar))
    coefficients = np.zeros((cylinders.size, codim, S, q))
    fit_values = np.full((cylinders.size, codim), np.nan)
    paths = [()] * cylinders.size
    for j in filled.tolist():
        if isinstance(setup[j], Exception):
            raise setup[j]
        fits = [minimize_section(data, cons, eps_bar, budget, start=next(fronts))
                for data, cons in setup[j]]
        coefficients[j, :, :m[j]] = np.stack([f.y.reshape(m[j], q) for f in fits])
        fit_values[j] = [f.value for f in fits]
        paths[j] = tuple(f.solver for f in fits)
    shared: dict = {}   # one object per distinct tuple of labels
    return SectionTable(
        sites=sites, coefficients=coefficients, valid=np.arange(S) < m[:, None],
        radius=radius, empty=count == 0, index=cylinders, fit_values=fit_values,
        solver_paths=tuple(shared.setdefault(p, p) for p in paths))


# ---- partition of unity and the global section ----

def partition_weights(packet: CylinderPacket, x,
                      sections: Sequence[LocalSection] | None = None
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Normalized bump weights of the full cylinders containing x.

    Weight of cylinder j is the radial bump of |tangential local| / tau_bar;
    cylinders with empty sections are dropped when sections are supplied.
    A batch of one of _partition.
    """
    x = np.asarray(x, dtype=np.float64)
    empty = None if sections is None else np.array([s.is_empty for s in sections])
    _, idx, wts, status = _partition(packet, x[None, :], empty)
    if status[0]:
        raise _uncovered(status[0])
    return idx, wts


def _uncovered(status: int) -> UncoveredPointError:
    """The error a nonzero _partition status stands for."""
    if status == 1:
        return UncoveredPointError("no full cylinder with a section contains the point")
    return UncoveredPointError("all partition weights vanish at the point")


def _partition(packet: CylinderPacket, x: np.ndarray, empty: np.ndarray | None = None):
    """Partition weights of a stack x (m, n): the (row, cylinder, weight)
    of each pair whose full cylinder holds the row and whose section is not
    empty (empty (K,) flags, None: keep all), by row, weights normalized
    over each row's run; and a status per row: 0, or 1 when no cylinder
    holds it, 2 when all its weights vanish."""
    pi, ki, w = _member_pairs(packet, x, factor=1.0)
    if empty is not None:
        keep = ~empty[ki]
        pi, ki, w = pi[keep], ki[keep], w[keep]
    wts = bump_profile(np.linalg.norm(w[:, :packet.d], axis=1) / packet.tau_bar)[0]
    count = np.bincount(pi, minlength=x.shape[0])
    total = np.zeros(x.shape[0])
    rows = np.nonzero(count)[0]
    if rows.size:
        total[rows] = np.add.reduceat(wts, np.cumsum(count[rows]) - count[rows])
    status = np.where(count == 0, 1, np.where(total > 0.0, 0, 2))
    return pi, ki, wts / np.where(total > 0.0, total, 1.0)[pi], status


@dataclass(frozen=True, eq=False)
class SectionTable:
    """The sections of a model in one padded layout, for stacked evaluation:
    sites (K, S, d), coefficients (K, codim, S, q), valid (K, S) marking
    real sites, and per cylinder its Shepard radius, empty flag, section
    index, fit values (K, codim) and solver paths. The arrays are frozen on
    construction."""

    sites: np.ndarray
    coefficients: np.ndarray
    valid: np.ndarray
    radius: np.ndarray
    empty: np.ndarray
    index: np.ndarray
    fit_values: np.ndarray
    solver_paths: tuple

    def __post_init__(self):
        for arr in vars(self).values():
            if isinstance(arr, np.ndarray):
                arr.flags.writeable = False

    def section(self, j: int) -> LocalSection:
        """The LocalSection stored at position j."""
        labels = dict(cylinder_index=int(self.index[j]), is_empty=bool(self.empty[j]),
                      solver_paths=self.solver_paths[j])
        if self.empty[j]:
            return LocalSection(sites=np.zeros((0, self.sites.shape[2])),
                                coefficients=np.zeros((0, 0, self.coefficients.shape[3])),
                                fit_values=(), shepard_radius=0.0, **labels)
        m = int(np.count_nonzero(self.valid[j]))
        return LocalSection(sites=self.sites[j, :m], coefficients=self.coefficients[j, :, :m],
                            fit_values=tuple(self.fit_values[j].tolist()),
                            shepard_radius=float(self.radius[j]), **labels)


@dataclass(frozen=True, eq=False)
class SectionModel:
    """A packet, its extracted mesh, and one fitted section per cylinder.

    The sections are stored once, in the padded layout of `section_table`;
    `sections` views its rows as LocalSection objects, built on access. A
    verdict keeps its model, and one object per section was a large part
    of it.
    """

    packet: CylinderPacket
    mesh: PutativeMesh
    section_table: SectionTable
    eps_bar: float

    def __post_init__(self):
        if self.section_table.radius.shape[0] != self.packet.size:
            raise InvalidParameterError("need one section per cylinder")

    @property
    def sections(self) -> Sequence[LocalSection]:
        return _RowView(self.section_table.radius.shape[0], self.section_table.section)


def fit_sections(packet: CylinderPacket, mesh: PutativeMesh,
                 eps_bar: float = 0.5, budget: int | None = None) -> SectionModel:
    """Fit every cylinder's local section (see _fit_cylinders) and assemble
    the model. Raises InvalidParameterError for eps_bar <= 0; then
    InfeasibleSectionError when some cylinder's objective lower bound
    exceeds eps_bar, reported before any earlier cylinder's setup error or
    solver stop; else the first failing cylinder's own error."""
    table = _fit_cylinders(packet, mesh, range(packet.size), eps_bar, budget)
    return SectionModel(packet=packet, mesh=mesh, section_table=table, eps_bar=eps_bar)


@dataclass(frozen=True, eq=False)
class GlobalSectionValue:
    """Blended manifold point over a base point of the bundle."""

    point: np.ndarray    # (n,) blended graph point
    base: np.ndarray     # (n,) base point used
    offset: np.ndarray   # point - base
    indices: np.ndarray
    weights: np.ndarray


def _fiber_intersection(model: SectionModel, ki: np.ndarray, tangent_rows: np.ndarray,
                        base: np.ndarray, max_iters: int = 30) -> tuple[np.ndarray, np.ndarray]:
    """Graph points (P, n) of cylinders ki (P,) on the fibers through base
    (P, n), and which pairs converged.

    Newton in each pair's tangential coordinates u of its cylinder: the
    residual is the tangential part (rows tangent_rows (P, d, n) of the base
    chart) of graph(u) - base, and its Jacobian is
    tangent_rows @ rotation @ [I; section Jacobian]. A pair fails when its
    step is singular, when u leaves the ball of radius 2 tau_bar, or after
    max_iters steps. All pairs run in one masked loop over the model's
    section table; no pair depends on another.
    """
    packet, table = model.packet, model.section_table
    tb, d = packet.tau_bar, packet.d
    rot, center = packet.rotations[ki], packet.centers[ki]
    lift = np.matmul(tangent_rows, rot)
    u = np.matmul(rot.transpose(0, 2, 1), (base - center)[:, :, None])[:, :d, 0]
    points = np.zeros(base.shape)
    hit = np.zeros(ki.size, dtype=bool)
    tol = 1e-12 * max(tb, 1.0) + 1e-15
    active = np.arange(ki.size)
    for _ in range(max_iters):
        if not active.size:
            break
        k = ki[active]
        vals, jac = _shepard_blend(u[active, None, :] / tb - table.sites[k],
                                   table.coefficients[k], table.radius[k], table.valid[k])
        local = np.concatenate([u[active], vals * tb], axis=1)
        point = np.matmul(rot[active], local[:, :, None])[:, :, 0] + center[active]
        g0 = np.matmul(tangent_rows[active], (point - base[active])[:, :, None])[:, :, 0]
        conv = np.sqrt((g0 * g0).sum(1)) <= tol
        points[active[conv]], hit[active[conv]] = point[conv], True
        active, g0, jac = active[~conv], g0[~conv], jac[~conv]
        graph = np.concatenate([np.broadcast_to(np.eye(d), (active.size, d, d)), jac], axis=1)
        step, singular = _solve_rows(np.matmul(lift[active], graph), -g0)
        u[active] += step
        inside = np.sqrt((u[active] ** 2).sum(1)) <= 2.0 * tb
        active = active[~singular & inside]
    return points, hit


def global_section(model: SectionModel, x):
    """Evaluate the patched section over the base point nearest to x.

    The base chart comes from the Newton base-point solver; each full
    cylinder containing x contributes its graph point on the fiber through
    the base, blended by the partition weights. x of shape (n,) returns its
    GlobalSectionValue or raises. x of shape (m, n) returns a RowOutcomes
    tuple of m outcomes, each a GlobalSectionValue or the BASE_POINT_ERRORS
    (InvalidParameterError for an asymmetric Hessian among them) or
    UncoveredPointError instance of the row, with counts "solved" and
    "evaluations" of its one stacked base-point solve.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        return first_or_raise(global_section(model, x[None, :]))
    outcomes, points, runs, solved = _global_section(model, x)
    for row, (indices, weights) in runs.items():
        outcomes[row] = GlobalSectionValue(point=points[row], base=solved.z[row].copy(),
                                           offset=points[row] - solved.z[row],
                                           indices=indices, weights=weights)
    return RowOutcomes(outcomes, solved=x.shape[0], evaluations=int(solved.evaluations.sum()))


def _global_section(model: SectionModel, x: np.ndarray):
    """global_section's stacked pass on arrays, with no per-row object: the
    base-point solve of the rows of x (the multi-packet form, which builds
    no chart), then the blend. Returns per row its error or None, the
    blended points, per blended row its (cylinders, weights), and the solve."""
    packet = model.packet
    solved = solve_base_point([packet], [x], model.mesh.tolerance)
    errors = list(solved.errors)
    pi, ki, wts, status = _partition(packet, x, model.section_table.empty)
    for row in np.nonzero(status)[0]:
        if errors[row] is None:
            errors[row] = _uncovered(status[row])
    live = np.array([e is None for e in errors], dtype=bool)
    pairs = live[pi]
    pi, ki, wts = pi[pairs], ki[pairs], wts[pairs]
    rows = np.nonzero(live)[0]
    tangent_rows = np.zeros((x.shape[0], packet.d, packet.n))
    tangent_rows[rows] = orthonormal_completion(solved.fibers[rows], packet.n)
    points, hit = _fiber_intersection(model, ki, tangent_rows[pi], solved.z[pi])
    pi, ki, wts, points = pi[hit], ki[hit], wts[hit], points[hit]
    count = np.bincount(pi, minlength=x.shape[0])
    ends = np.cumsum(count)
    blended, runs = np.zeros(x.shape), {}
    for row in rows.tolist():
        run = slice(ends[row] - count[row], ends[row])
        if not count[row]:
            errors[row] = UncoveredPointError("every member cylinder failed the fiber solve")
            continue
        w = wts[run] / wts[run].sum()
        blended[row] = np.einsum("k,kn->n", w, points[run])
        runs[row] = (ki[run], w)
    return errors, blended, runs, solved


def mfin_distance(model: SectionModel, z):
    """Distance from z to the patched manifold through the bundle.

    z is decomposed as base + fiber offset, the global section is evaluated
    over the base, and the distance is to the blended point. z of shape
    (n,) returns the distance, or raises OutOfTubeError where the bundle
    machinery cannot handle it. z of shape (m, n) is one pass on arrays
    (bundle_coordinates' and global_section's stacked passes, no per-row
    object), returning a RowOutcomes tuple of m outcomes (a float or the
    row's OutOfTubeError) with counts "points", "rounds" (alternation
    rounds), "solved" (rows of base-point solves) and "evaluations"
    (field-kernel rows).
    """
    z = np.asarray(z, dtype=np.float64)
    if z.ndim == 1:
        return first_or_raise(mfin_distance(model, z[None, :]))
    errors, fields, _, counts = _alternate(model.packet, model.mesh, z,
                                           newton_tol=model.mesh.tolerance)
    outcomes: list = list(errors)
    rows = np.flatnonzero([e is None for e in errors])
    if rows.size:
        found, points, _, solved = _global_section(model, fields[0][rows])
        counts["solved"] += rows.size
        counts["evaluations"] += int(solved.evaluations.sum())
        diff = z[rows] - points
        # each row's dot with itself, as math.sqrt(diff @ diff) takes it
        dist = np.sqrt(np.matmul(diff[:, None, :], diff[:, :, None])[:, 0, 0])
        for row, err, d in zip(rows.tolist(), found, dist.tolist()):
            outcomes[row] = d if err is None else err
    for row, out in enumerate(outcomes):
        if isinstance(out, Exception):
            outcomes[row] = OutOfTubeError(f"{type(out).__name__}: {out}")
    return RowOutcomes(outcomes, points=z.shape[0], **counts)

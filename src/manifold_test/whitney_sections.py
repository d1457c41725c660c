"""Jet-constrained section fitting over cylinder packets.

Each cylinder carries a graph section over its tangential disc, encoded as a
degree-2 Whitney field: one jet (value, gradient, Hessian) per site, stored
as a coefficient block in the layout of _monomials. The admissible fields
form a convex set cut out by coefficient bounds and pairwise
Taylor-compatibility constraints; fitting minimizes a weighted least-squares
objective over that set: a local least-squares warm start, its Dykstra
projection, and an analytic-center cutting-plane method when neither reaches
the target.
Local sections are blended into a global section over the extracted mesh.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .asdf_bundle import (
    BASE_POINT_ERRORS,
    CylinderPacket,
    PutativeMesh,
    bump_profile,
    bundle_coordinates,
    solve_base_point,
)
from .core_geometry import greedy_merge
from .errors import (
    BudgetExceededError,
    DecompositionFailedError,
    DuplicateSiteError,
    EmptyInputError,
    InvalidParameterError,
    OutOfTubeError,
    SiteMismatchError,
    UncoveredPointError,
)

C_W_DEFAULT = 3.0
DUPLICATE_SITE_TOL = 1e-12
# squared-form slack: overshooting a slab by ~1e-6 of its half-width counts
# as feasible, which iterative projections reach quickly and the Whitney
# constants absorb without effect
FEASIBILITY_REL = 2e-6
FEASIBILITY_ABS = 1e-12


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
    members: tuple[tuple[int, ...], ...]

    @property
    def size(self) -> int:
        return self.sites.shape[0]

    @property
    def weights(self) -> np.ndarray:
        """Empirical measure mu_i = multiplicity_i / N, summing to 1."""
        mult = np.asarray(self.multiplicities, dtype=np.float64)
        return mult / float(mult.sum())

    def component(self, c: int) -> "SketchedData":
        return SketchedData(sites=self.sites, targets=self.targets[:, c],
                            multiplicities=self.multiplicities, members=self.members)


def sketch(sites, values, radius: float) -> SketchedData:
    """Greedy merge of sites closer than radius.

    The representatives are the sites kept by greedy_merge(sites, radius).
    Every other site joins the lowest-index representative within radius;
    representatives keep their original location and average the joined
    values.
    """
    sites = np.asarray(sites, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    if sites.ndim != 2 or sites.shape[0] == 0:
        raise EmptyInputError("need a nonempty (N, d) site array")
    if values.shape[0] != sites.shape[0]:
        raise InvalidParameterError("values and sites must align")
    if not (radius >= 0):
        raise InvalidParameterError("sketch radius must be nonnegative")
    reps = greedy_merge(sites, radius)
    rep_sites = sites[reps]
    dist = np.linalg.norm(sites[:, None, :] - rep_sites[None, :, :], axis=2)
    owner = np.argmax(dist < radius, axis=1)
    owner[reps] = np.arange(len(reps))
    members = [np.nonzero(owner == r)[0].tolist() for r in range(len(reps))]
    targets = np.stack([values[m].mean(axis=0) for m in members])
    mult = np.array([len(m) for m in members], dtype=np.int64)
    return SketchedData(sites=rep_sites, targets=targets,
                        multiplicities=mult, members=tuple(tuple(m) for m in members))


# ---- constraint sets ----

def whitney_kappa(d: int, c_w: float = C_W_DEFAULT) -> float:
    """Conditioning factor between jet-coefficient and Whitney norms."""
    return max(1.0, d / c_w, 2.0 * math.sqrt(d) / c_w)


@dataclass(frozen=True, eq=False)
class ConstraintSet:
    """Convex admissible set: per-site coefficient balls plus pair slabs.

    Site constraint i (index i) bounds the i-th jet block: |y_i|^2 <= M^2.
    Pair constraints (indices m, m+1, ...) are single functionals alpha with
    (alpha . y)^2 <= beta: Taylor value and directional-gradient agreement
    between nearby sites, both pair directions.
    """

    sites: np.ndarray        # (m, d)
    M: float
    c_w: float
    kappa: float
    pair_radius: float
    pair_rows: np.ndarray    # (K, D) dense functionals
    pair_betas: np.ndarray   # (K,)
    pair_labels: tuple[str, ...]
    # row-index batches of disjoint support; a fixed cyclic projection order
    pair_groups: tuple

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
        return self.m + self.pair_rows.shape[0]

    def violations(self, y: np.ndarray) -> np.ndarray:
        """Per-constraint |A y|^2 - beta, site constraints first."""
        q = self.q
        blocks = y.reshape(self.m, q)
        site_v = np.sum(blocks * blocks, axis=1) - self.M ** 2
        if self.pair_rows.shape[0] == 0:
            return site_v
        pv = (self.pair_rows @ y) ** 2 - self.pair_betas
        return np.concatenate([site_v, pv])

    def all_betas(self) -> np.ndarray:
        site = np.full(self.m, self.M ** 2)
        if self.pair_rows.shape[0] == 0:
            return site
        return np.concatenate([site, self.pair_betas])

    def feasibility_tol(self) -> np.ndarray:
        """Per-constraint slack regarded as numerically feasible."""
        return self.all_betas() * FEASIBILITY_REL + FEASIBILITY_ABS

    def is_feasible(self, y: np.ndarray) -> bool:
        return bool(np.all(self.violations(y) <= self.feasibility_tol()))


def build_constraints(sites, M: float, c_w: float = C_W_DEFAULT,
                      pair_radius: float | None = None) -> ConstraintSet:
    """Admissible set for degree-2 Whitney fields on the given sites.

    Pairs closer than pair_radius (default: four times the largest
    nearest-neighbor distance) must agree to second order: the Taylor value
    of one jet at the other site within c_w M |h|^2 and each gradient
    component within c_w M |h|, in both directions.
    """
    sites = np.asarray(sites, dtype=np.float64)
    if sites.ndim != 2 or sites.shape[0] == 0:
        raise EmptyInputError("need a nonempty (m, d) site array")
    if not (M > 0):
        raise InvalidParameterError("coefficient bound M must be positive")
    m, d = sites.shape
    q = jet_size(d)
    if m > 1:
        diff = sites[:, None, :] - sites[None, :, :]
        dist = np.linalg.norm(diff, axis=2)
        off = dist.copy()
        np.fill_diagonal(off, np.inf)
        if float(off.min()) < DUPLICATE_SITE_TOL:
            pair = np.unravel_index(int(np.argmin(off)), off.shape)
            raise DuplicateSiteError(f"sites {pair[0]} and {pair[1]} coincide")
        nn = off.min(axis=1)
        if pair_radius is None:
            pair_radius = 4.0 * float(nn.max())
    else:
        dist = np.zeros((1, 1))
        if pair_radius is None:
            pair_radius = 0.0

    s_idx, t_idx = np.nonzero((dist <= pair_radius) & ~np.eye(m, dtype=bool))
    k = s_idx.size
    h = sites[t_idx] - sites[s_idx]
    hn = dist[s_idx, t_idx]
    # per pair (s, t): the value row, then one gradient row per axis; each
    # holds the Taylor functional of jet s at x_t minus jet t's own entry
    rows = np.zeros((k, 1 + d, m, q))
    each = np.arange(k)
    rows[each, :, s_idx] = np.concatenate(
        [_monomials(h)[:, None, :], _monomial_gradients(h)], axis=1)
    rows[each, :, t_idx, :1 + d] = -np.eye(1 + d)
    pair_rows = rows.reshape(k * (1 + d), m * q)
    pair_betas = np.stack([(c_w * M * hn * hn) ** 2] + d * [(c_w * M * hn) ** 2],
                          axis=1).reshape(-1)
    kinds = ["value"] + [f"grad[{axis}]" for axis in range(d)]
    pairs = list(zip(s_idx.tolist(), t_idx.tolist()))
    labels = tuple(f"{kind} {s}->{t}" for s, t in pairs for kind in kinds)
    row_sites = [st for st in pairs for _ in kinds]
    return ConstraintSet(sites=sites, M=float(M), c_w=float(c_w),
                         kappa=whitney_kappa(d, c_w), pair_radius=float(pair_radius),
                         pair_rows=pair_rows, pair_betas=pair_betas,
                         pair_labels=labels,
                         pair_groups=_disjoint_row_groups(row_sites))


def _disjoint_row_groups(row_sites) -> tuple:
    """Greedy batches of row indices whose site supports do not overlap.

    Rows in one batch touch pairwise-disjoint jet blocks, so a Dykstra
    sweep may project a whole batch with vectorized arithmetic while
    keeping a fixed cyclic constraint order.
    """
    groups: list[list[int]] = []
    used_sites: list[set] = []
    for idx, (s, t) in enumerate(row_sites):
        for g, used in zip(groups, used_sites):
            if s not in used and t not in used:
                g.append(idx)
                used.add(s)
                used.add(t)
                break
        else:
            groups.append([idx])
            used_sites.append({s, t})
    return tuple(np.asarray(g, dtype=np.int64) for g in groups)


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


# ---- projections (Dykstra) ----

def _project_constraints(constraints: ConstraintSet, y0: np.ndarray,
                         sweeps: int = 400, move_tol: float = 1e-13,
                         good_enough: Callable[[np.ndarray], bool] | None = None
                         ) -> tuple[np.ndarray, str]:
    """Dykstra's cyclic projections onto the admissible set.

    The cycle visits the site balls (disjoint blocks, vectorized), then the
    pair slabs in fixed batches of disjoint support so each batch projects
    with one matrix product. After each cycle the iterate is returned if it
    is feasible and either the cycle moved less than move_tol or the
    caller's target `good_enough(y)` holds; a caller that needs any feasible
    point meeting its own test, not the projection itself, passes that test
    as the target. Otherwise the loop stops after `sweeps` cycles.

    Returns the iterate and why the loop stopped: "move_tol" (converged to
    the projection), "target" (feasible and good enough for the caller, but
    not the projection), or "cap" (the sweep cap came first; the iterate may
    be infeasible).
    """
    m, q = constraints.m, constraints.q
    y = y0.copy()
    site_corr = np.zeros((m, q))
    groups = constraints.pair_groups
    pair_corr = np.zeros(constraints.pair_rows.shape[0])
    pair_sq = np.sum(constraints.pair_rows * constraints.pair_rows, axis=1)
    roots = np.sqrt(constraints.pair_betas)
    batch_rows = [constraints.pair_rows[g] for g in groups]
    batch_absmax = [np.max(np.abs(rows), axis=1) for rows in batch_rows]
    for _ in range(sweeps):
        blocks = y.reshape(m, q) + site_corr
        norms = np.linalg.norm(blocks, axis=1)
        scale = np.ones(m)
        over = norms > constraints.M
        scale[over] = constraints.M / norms[over]
        new_blocks = blocks * scale[:, None]
        site_corr = blocks - new_blocks
        moved = float(np.max(np.abs(new_blocks - y.reshape(m, q))))
        y = new_blocks.reshape(-1)
        for g, rows, absmax in zip(groups, batch_rows, batch_absmax):
            # project w = y + corr*alpha onto the slab |alpha . w| <= root
            t = rows @ y + pair_corr[g] * pair_sq[g]
            shift = np.where(np.abs(t) <= roots[g], 0.0,
                             (t - np.copysign(roots[g], t)) / pair_sq[g])
            delta = pair_corr[g] - shift
            if np.any(delta != 0.0):
                y = y + rows.T @ delta
                moved = max(moved, float(np.max(np.abs(delta) * absmax)))
            pair_corr[g] = shift
        if moved < move_tol:
            stop = "move_tol"
        elif good_enough is not None and good_enough(y):
            stop = "target"
        else:
            continue
        if constraints.is_feasible(y):
            return y, stop
    return y, "cap"


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
    path that produced y: "warm-start", "warm-start-projected" or
    "cutting-plane".
    """

    y: np.ndarray
    value: float
    iterations: int
    certified: bool
    solver: str


def _warm_start(data: SketchedData, constraints: ConstraintSet) -> np.ndarray:
    """Local least-squares jets: target values, quadratic fits for derivatives."""
    m, q = constraints.m, constraints.q
    sites = constraints.sites
    targets = np.asarray(data.targets, dtype=np.float64)
    y = np.zeros(m * q)
    for i in range(m):
        design = _monomials(sites - sites[i])
        coeff, *_ = np.linalg.lstsq(design, targets, rcond=None)
        coeff[0] = targets[i]
        block = coeff
        norm = float(np.linalg.norm(block))
        if norm > constraints.M:
            block = block * (constraints.M / norm)
        y[i * q:(i + 1) * q] = block
    return y


def minimize_section(data: SketchedData, constraints: ConstraintSet,
                     eps_bar: float, budget: int | None = None) -> SectionFitResult:
    """Minimize the section objective over the admissible set.

    Tries the warm start, then its projection, then the cutting-plane
    solver with `budget` cuts. Returns as soon as a feasible field with
    objective <= eps_bar is found (the objective is nonnegative, so such a
    field certifies the minimum up to eps_bar). Raises BudgetExceededError
    carrying the best feasible iterate when the budget or a stall is hit
    first.
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

    y0 = _warm_start(data, constraints)
    if constraints.is_feasible(y0):
        val = section_objective(data, constraints, y0)
        if val <= eps_bar:
            return SectionFitResult(y=y0, value=val, iterations=0,
                                    certified=True, solver="warm-start")

    def meets_target(y):
        return section_objective(data, constraints, y) <= eps_bar

    y0, _ = _project_constraints(constraints, y0, good_enough=meets_target)
    start = y0 if constraints.is_feasible(y0) else None
    if start is not None:
        val = section_objective(data, constraints, start)
        if val <= eps_bar:
            return SectionFitResult(y=start, value=val, iterations=0,
                                    certified=True, solver="warm-start-projected")
    return _solve_cutting_plane(data, constraints, eps_bar, budget, start,
                                meets_target)


def _solve_cutting_plane(data, constraints, eps_bar, budget, feasible_start,
                         meets_target):
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

    def improve_tol() -> float:
        if not math.isfinite(best_val):
            return 0.0
        return max(1e-12, 1e-4 * abs(best_val))

    stall = 0          # feasible evaluations without progress on best
    patience = 40
    harvest_every = 20
    done = 0
    for it in range(budget):
        done = it + 1
        cut = separation_oracle(constraints, y)
        if cut is None:
            val = section_objective(data, constraints, y)
            if val < best_val - improve_tol():
                best_val = val
                best_y = y.copy()
                stall = 0
            else:
                stall += 1
                if best_y is None:
                    best_val = val
                    best_y = y.copy()
            if best_val <= eps_bar:
                return SectionFitResult(y=best_y, value=best_val, iterations=done,
                                        certified=True, solver="cutting-plane")
            grad = section_objective_gradient(data, constraints, y)
            gn = float(np.linalg.norm(grad))
            if gn < 1e-14:
                break  # unconstrained optimum reached and still above eps_bar
            normal = grad / gn
            offset = float(normal @ y)
        else:
            normal = cut.normal
            offset = cut.offset
            if done % harvest_every == 0:
                # feasibility cuts can dominate for a long stretch; project
                # the current center so best-so-far still makes progress
                proj, _ = _project_constraints(constraints, y,
                                               good_enough=meets_target)
                if constraints.is_feasible(proj):
                    val = section_objective(data, constraints, proj)
                    if val < best_val - improve_tol():
                        best_val = val
                        best_y = proj
                        stall = 0
                    else:
                        stall += 1
                        if best_y is None:
                            best_val = val
                            best_y = proj
                    if best_val <= eps_bar:
                        return SectionFitResult(y=best_y, value=best_val,
                                                iterations=done, certified=True,
                                                solver="cutting-plane")
        if stall > patience:
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
                    break  # center pinned against the older cuts
            y = y - (t_req + 0.5 * min(t_max - t_req, box)) * normal
        y = _analytic_center(box, cut_g, cut_c, y)
    best = None
    if best_y is not None:
        best = SectionFitResult(y=best_y, value=best_val, iterations=done,
                                certified=False, solver="cutting-plane")
    raise BudgetExceededError(
        f"cutting-plane search stopped after {done} cuts "
        f"(best objective {best_val:.6g}, target {eps_bar:.6g})", best=best)


# ---- local sections over cylinders ----

@dataclass(frozen=True, eq=False)
class LocalSection:
    """Fitted graph section of one cylinder, in rescaled coordinates.

    Sites and values are tangential/normal local coordinates divided by
    tau_bar. coefficients[c, i] is the jet block (see _monomials) of normal
    component c at site i. Evaluation blends the per-site Taylor polynomials
    with a compactly supported Shepard weight whose radius is just below the
    smallest site separation, so the jet values are reproduced exactly at
    the sites; away from all supports the nearest site's polynomial is used.
    """

    cylinder_index: int
    sites: np.ndarray          # (m, d), rescaled
    coefficients: np.ndarray   # (codim, m, q)
    fit_values: tuple[float, ...]
    shepard_radius: float
    is_empty: bool = False
    solver_paths: tuple[str, ...] = ()   # SectionFitResult.solver per normal component

    @property
    def codim(self) -> int:
        return self.coefficients.shape[0]

    def evaluate(self, u) -> tuple[np.ndarray, np.ndarray]:
        """Section values (codim,) and Jacobian (codim, d) at rescaled
        tangential coordinates u. The blend s = sum w_i P_i / sum w_i of the site
        polynomials P_i has Jacobian (sum w_i dP_i + sum (P_i - s) dw_i) / sum w_i."""
        if self.is_empty:
            raise UncoveredPointError(
                f"cylinder {self.cylinder_index} has an empty section")
        offs = np.asarray(u, dtype=np.float64)[None, :] - self.sites
        dist = np.linalg.norm(offs, axis=1)
        polys = np.einsum("cij,ikj->cik", self.coefficients, np.concatenate(
            [_monomials(offs)[:, None, :], _monomial_gradients(offs)], axis=1))
        if self.shepard_radius > 0:
            wts, slope, _ = bump_profile(dist / self.shepard_radius)
            total = float(wts.sum())
            if total > 0:
                # slope is 0 for r <= 1/4, so a zero offset needs only a safe divisor
                dwts = offs * (slope / (self.shepard_radius
                                        * np.maximum(dist, 1e-300)))[:, None]
                values = polys[:, :, 0] @ wts / total
                return values, (np.einsum("i,cia->ca", wts, polys[:, :, 1:])
                                + (polys[:, :, 0] - values[:, None]) @ dwts) / total
        near = int(np.argmin(dist))
        return polys[:, near, 0], polys[:, near, 1:]


def fit_local_section(packet: CylinderPacket, mesh: PutativeMesh,
                      cylinder_index: int, eps_bar: float = 0.5,
                      M: float | None = None, c_w: float = C_W_DEFAULT,
                      budget: int | None = None,
                      sketch_radius: float = 0.02) -> LocalSection:
    """Fit the graph section of one cylinder from the mesh points inside it.

    Mesh base points inside the full cylinder give sites (tangential local
    coordinates over tau_bar) and per-component targets (normal coordinates
    over tau_bar). A cylinder without mesh points yields an empty section.
    The default coefficient bound is M = 2 tau_bar / tau.
    """
    if not (0 <= cylinder_index < packet.size):
        raise InvalidParameterError(f"no cylinder {cylinder_index} in the packet")
    cyl = packet.cylinders[cylinder_index]
    d = packet.d
    tb = packet.tau_bar
    if M is None:
        M = 2.0 * tb / packet.tau
    local = (mesh.base_points - cyl.center) @ cyl.rotation
    tan = np.linalg.norm(local[:, :d], axis=1)
    nor = np.linalg.norm(local[:, d:], axis=1)
    inside = (tan <= tb + 1e-12) & (nor <= tb + 1e-12)
    if not np.any(inside):
        return LocalSection(cylinder_index=cylinder_index,
                            sites=np.zeros((0, d)),
                            coefficients=np.zeros((0, 0, jet_size(d))),
                            fit_values=(),
                            shepard_radius=0.0, is_empty=True)
    u = local[inside, :d] / tb
    vals = local[inside, d:] / tb
    data_all = sketch(u, vals, sketch_radius)
    constraints = build_constraints(data_all.sites, M, c_w)
    coefficients = []
    fit_values = []
    solver_paths = []
    for c in range(vals.shape[1]):
        comp = data_all.component(c) if data_all.targets.ndim == 2 else data_all
        res = minimize_section(comp, constraints, eps_bar, budget)
        coefficients.append(res.y.reshape(data_all.size, constraints.q))
        fit_values.append(res.value)
        solver_paths.append(res.solver)
    if data_all.size > 1:
        diff = data_all.sites[:, None, :] - data_all.sites[None, :, :]
        seps = np.linalg.norm(diff, axis=2)
        np.fill_diagonal(seps, np.inf)
        radius = 0.999 * float(seps.min())
    else:
        radius = 0.0
    return LocalSection(cylinder_index=cylinder_index, sites=data_all.sites,
                        coefficients=np.stack(coefficients),
                        fit_values=tuple(fit_values),
                        shepard_radius=radius, solver_paths=tuple(solver_paths))


# ---- partition of unity and the global section ----

def partition_weights(packet: CylinderPacket, x,
                      sections: Sequence[LocalSection] | None = None
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Normalized bump weights of the full cylinders containing x.

    Weight of cylinder j is the radial bump of |tangential local| / tau_bar;
    cylinders with empty sections are dropped when sections are supplied.
    """
    x = np.asarray(x, dtype=np.float64)
    idx, w = packet.members(x, factor=1.0)
    if sections is not None:
        keep = np.array([not sections[j].is_empty for j in idx], dtype=bool)
        idx, w = idx[keep], w[keep]
    if idx.size == 0:
        raise UncoveredPointError("no full cylinder with a section contains the point")
    radii = np.linalg.norm(w[:, :packet.d], axis=1) / packet.tau_bar
    wts = bump_profile(radii)[0]
    total = float(wts.sum())
    if total <= 0.0:
        raise UncoveredPointError("all partition weights vanish at the point")
    return idx, wts / total


@dataclass(frozen=True, eq=False)
class SectionModel:
    """A packet, its extracted mesh, and one fitted section per cylinder."""

    packet: CylinderPacket
    mesh: PutativeMesh
    sections: tuple[LocalSection, ...]
    eps_bar: float

    def __post_init__(self):
        if len(self.sections) != self.packet.size:
            raise InvalidParameterError("need one section per cylinder")


def fit_sections(packet: CylinderPacket, mesh: PutativeMesh,
                 eps_bar: float = 0.5, M: float | None = None,
                 c_w: float = C_W_DEFAULT, budget: int | None = None,
                 sketch_radius: float = 0.02) -> SectionModel:
    """Fit every cylinder's local section and assemble the model."""
    sections = tuple(
        fit_local_section(packet, mesh, j, eps_bar, M, c_w, budget, sketch_radius)
        for j in range(packet.size))
    return SectionModel(packet=packet, mesh=mesh, sections=sections,
                        eps_bar=eps_bar)


@dataclass(frozen=True, eq=False)
class GlobalSectionValue:
    """Blended manifold point over a base point of the bundle."""

    point: np.ndarray    # (n,) blended graph point
    base: np.ndarray     # (n,) base point used
    offset: np.ndarray   # point - base
    indices: np.ndarray
    weights: np.ndarray


def _fiber_intersection(packet: CylinderPacket, section: LocalSection, j: int,
                        tangent_rows: np.ndarray, base: np.ndarray,
                        max_iters: int = 30) -> np.ndarray | None:
    """Solve for the graph point of cylinder j on the fiber through base.

    Newton in the tangential coordinates u of the cylinder: the residual is
    the tangential part (at the base chart) of graph(u) - base, and its
    Jacobian is tangent_rows @ rotation @ [I; section Jacobian]. Returns the
    graph point or None when Newton fails or leaves the cylinder.
    """
    tb = packet.tau_bar
    d = packet.d
    cyl = packet.cylinders[j]
    u = cyl.to_local(base)[:d].copy()
    tol = 1e-12 * max(tb, 1.0) + 1e-15
    for _ in range(max_iters):
        try:
            vals, jac = section.evaluate(u / tb)
        except UncoveredPointError:
            return None
        point = cyl.to_ambient(np.concatenate([u, vals * tb]))
        g0 = tangent_rows @ (point - base)
        if math.sqrt(g0 @ g0) <= tol:
            return point
        try:
            step = np.linalg.solve(tangent_rows @ cyl.rotation
                                   @ np.vstack([np.eye(d), jac]), -g0)
        except np.linalg.LinAlgError:
            return None
        u = u + step
        if math.sqrt(u @ u) > 2.0 * tb:
            return None
    return None


def global_section(model: SectionModel, x) -> GlobalSectionValue:
    """Evaluate the patched section over the base point nearest to x.

    The base chart comes from the Newton base-point solver; each full
    cylinder containing x contributes its graph point on the fiber through
    the base, blended by the partition weights.
    """
    x = np.asarray(x, dtype=np.float64)
    chart = solve_base_point(model.packet, x, model.mesh.tolerance)
    base = chart.base_point
    tangent_rows = chart.tangent_basis
    idx, wts = partition_weights(model.packet, x, model.sections)
    points = []
    kept = []
    for pos, j in enumerate(idx):
        p = _fiber_intersection(model.packet, model.sections[j], int(j),
                                tangent_rows, base)
        if p is not None:
            points.append(p)
            kept.append(pos)
    if not points:
        raise UncoveredPointError("every member cylinder failed the fiber solve")
    wts = wts[kept]
    wts = wts / wts.sum()
    blended = np.einsum("k,kn->n", wts, np.stack(points))
    return GlobalSectionValue(point=blended, base=base, offset=blended - base,
                              indices=idx[kept], weights=wts)


def mfin_distance(model: SectionModel, z) -> float:
    """Distance from z to the patched manifold through the bundle.

    z is decomposed as base + fiber offset, the global section is evaluated
    over the base, and the distance is to the blended point. Points the
    bundle machinery cannot handle raise OutOfTubeError.
    """
    z = np.asarray(z, dtype=np.float64)
    try:
        decomp = bundle_coordinates(model.packet, model.mesh, z,
                                    newton_tol=model.mesh.tolerance)
        gs = global_section(model, decomp.base_point)
    except (*BASE_POINT_ERRORS, DecompositionFailedError, UncoveredPointError) as exc:
        raise OutOfTubeError(f"{type(exc).__name__}: {exc}")
    return float(np.linalg.norm(z - gs.point))

"""The jet layout, sketching, the convex section solver, and partition-of-unity patching."""
import inspect
import math
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

from manifold_test.asdf_bundle import (
    BASE_POINT_ERRORS,
    CylinderPacket,
    FiberDecomposition,
    bump_profile,
    bundle_coordinates,
    extract_putative_manifold,
    ideal_packet,
    solve_base_point,
)
from manifold_test.core_geometry import (
    AffineSubspace,
    PointCloud,
    _ball_grid,
    greedy_merge,
    greedy_net,
)
from manifold_test.errors import (
    BudgetExceededError,
    DecompositionFailedError,
    DuplicateSiteError,
    EmptyInputError,
    InfeasibleSectionError,
    InvalidParameterError,
    ManifoldTestError,
    OutOfTubeError,
    SiteMismatchError,
    UncoveredPointError,
)
import manifold_test.asdf_bundle as asdf_bundle
import manifold_test.pipeline as pipeline
from manifold_test.pipeline import TestConfig, generate_synthetic, run_test
import manifold_test.whitney_sections as ws
from manifold_test.whitney_sections import (
    GlobalSectionValue,
    SectionModel,
    build_constraints,
    fit_local_section,
    fit_sections,
    global_section,
    jet_size,
    mfin_distance,
    minimize_section,
    partition_weights,
    section_objective,
    section_objective_gradient,
    separation_oracle,
    sketch,
)

QUAD = (0.05, 0.1, 0.075)


def planted_values(x):
    a, b, c = QUAD
    return a + b * x + c * x * x


def line_fixture(sigma: float = 0.0, m: int = 25, seed: int = 0):
    sites = np.linspace(-1.0, 1.0, m).reshape(-1, 1)
    targets = planted_values(sites[:, 0])
    if sigma > 0:
        targets = targets + sigma * np.random.default_rng(seed).standard_normal(m)
    data = sketch(sites, targets, 0.0)
    constraints = build_constraints(data.sites, M=0.5)
    return data, constraints


def warm_start(data, cons):
    """The local least-squares jets of one problem: a batch of one of _warm_starts."""
    return ws._warm_starts(ws._SectionStack.build([cons], [data]))[0]


# ---- jets ----

def test_jet_size_values():
    assert jet_size(1) == 3
    assert jet_size(2) == 6
    assert jet_size(3) == 10


def upper_pairs(d: int):
    """Row-major upper-triangular Hessian index pairs (a, b), a <= b."""
    return [(a, b) for a in range(d) for b in range(a, d)]


def hessian_of(block, d: int) -> np.ndarray:
    """The symmetric Hessian whose upper triangle a jet block stores."""
    hess = np.zeros((d, d))
    for pos, (a, b) in enumerate(upper_pairs(d)):
        hess[a, b] = hess[b, a] = block[1 + d + pos]
    return hess


def taylor_value(block, h) -> float:
    d = h.shape[0]
    return float(block[0] + block[1:1 + d] @ h + 0.5 * h @ hessian_of(block, d) @ h)


def test_monomials_hand_value():
    block = np.array([2.0, 1.0, -1.0, 2.0, 1.0, 0.0])
    mono = ws._monomials(np.array([[0.5, 1.0]]))
    np.testing.assert_array_equal(mono, [[1.0, 0.5, 1.0, 0.125, 0.5, 0.5]])
    assert float(mono[0] @ block) == 2.25


@pytest.mark.parametrize("d", [1, 2, 3])
def test_monomials_give_the_taylor_value(d):
    rng = np.random.default_rng(30 + d)
    blocks = rng.standard_normal((20, jet_size(d)))
    offsets = rng.uniform(-1.5, 1.5, (20, d))
    mono = ws._monomials(offsets)
    assert mono.shape == (20, jet_size(d))
    for block, h, row in zip(blocks, offsets, mono):
        grad, hess = block[1:1 + d], hessian_of(block, d)
        terms = np.array([block[0], grad @ h, 0.5 * h @ hess @ h])
        assert abs(float(block @ row) - terms.sum()) <= 1e-14 * np.abs(terms).sum()


# ---- sketching ----

def test_sketch_merges_by_scan_order():
    sites = np.array([[0.0], [0.01], [1.0]])
    values = np.array([1.0, 3.0, 5.0])
    sk = sketch(sites, values, 0.05)
    np.testing.assert_array_equal(sk.sites, [[0.0], [1.0]])
    np.testing.assert_allclose(sk.targets, [2.0, 5.0])
    np.testing.assert_array_equal(sk.multiplicities, [2, 1])
    assert sk.members == ((0, 1), (2,))
    np.testing.assert_allclose(sk.weights, [2.0 / 3.0, 1.0 / 3.0])
    assert sk.weights.sum() == pytest.approx(1.0, abs=1e-15)


def test_sketch_zero_radius_keeps_everything():
    sites = np.linspace(0.0, 1.0, 7).reshape(-1, 1)
    sk = sketch(sites, np.arange(7.0), 0.0)
    assert sk.size == 7
    np.testing.assert_array_equal(sk.multiplicities, 1)


def test_sketch_vector_targets_and_component():
    sites = np.array([[0.0], [0.001], [0.5]])
    values = np.array([[1.0, 10.0], [3.0, 30.0], [5.0, 50.0]])
    sk = sketch(sites, values, 0.01)
    assert sk.targets.shape == (2, 2)
    comp = sk.component(1)
    np.testing.assert_allclose(comp.targets, [20.0, 50.0])
    np.testing.assert_array_equal(comp.multiplicities, sk.multiplicities)


def test_sketch_validation():
    with pytest.raises(EmptyInputError):
        sketch(np.zeros((0, 1)), np.zeros(0), 0.1)
    with pytest.raises(InvalidParameterError):
        sketch(np.zeros((2, 1)), np.zeros(3), 0.1)
    with pytest.raises(InvalidParameterError):
        sketch(np.zeros((2, 1)), np.zeros(2), -1.0)


def test_sketch_contracts_on_random_sites():
    rng = np.random.default_rng(5)
    sites = np.sort(rng.uniform(-1.0, 1.0, 120)).reshape(-1, 1)
    eps_bar = 0.05
    sk = sketch(sites, np.zeros(120), eps_bar)
    d = np.abs(sites - sk.sites.T).min(axis=1)
    assert float(d.max()) <= eps_bar
    sep = np.abs(sk.sites - sk.sites.T)
    np.fill_diagonal(sep, np.inf)
    assert float(sep.min()) >= eps_bar
    assert int(sk.multiplicities.sum()) == 120


def sketch_loop(sites, radius):
    """Reference sketch, a double loop over sites x representatives."""
    reps, members = [], []
    for i in range(sites.shape[0]):
        for r, rep in enumerate(reps):
            if float(np.linalg.norm(sites[i] - sites[rep])) < radius:
                members[r].append(i)
                break
        else:
            reps.append(i)
            members.append([i])
    return reps, tuple(tuple(m) for m in members)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_sketch_matches_the_sequential_loop(d):
    rng = np.random.default_rng(40 + d)
    for trial in range(20):
        if d == 1:
            # grid-rounded sites: exact ties at the radius and duplicates
            sites = rng.integers(0, 12, (40, 1)) * 0.1
        else:
            # continuous sites: the loop's 1-D norm and the array norm may
            # round an exact tie at the radius differently
            sites = rng.uniform(-1.0, 1.0, (40, d))
        for radius in (0.0, 0.1, 0.2, 0.5):
            reps, members = sketch_loop(sites, radius)
            sk = sketch(sites, np.arange(40.0), radius)
            np.testing.assert_array_equal(sk.sites, sites[reps])
            assert sk.members == members


# ---- constraints ----

def test_constraint_rows_match_hand_taylor():
    cons = build_constraints(np.array([[0.0], [0.5]]), M=1.0)
    assert cons.m == 2 and cons.q == 3 and cons.dim == 6
    assert cons.pair_rows.shape == (4, 6)
    np.testing.assert_allclose(cons.pair_rows[0], [1.0, 0.5, 0.125, -1.0, 0.0, 0.0])
    np.testing.assert_allclose(cons.pair_rows[1], [0.0, 1.0, 0.5, 0.0, -1.0, 0.0])
    np.testing.assert_allclose(cons.pair_rows[2], [-1.0, 0.0, 0.0, 1.0, -0.5, 0.125])
    np.testing.assert_allclose(cons.pair_rows[3], [0.0, -1.0, 0.0, 0.0, 1.0, -0.5])
    np.testing.assert_allclose(cons.pair_betas,
                               [0.5625, 2.25, 0.5625, 2.25])
    assert cons.pair_labels[0] == "value 0->1"
    assert cons.total_constraints == 6


def test_planted_quadratic_jets_lie_deep_inside():
    data, cons = line_fixture()
    a, b, c = QUAD
    jets = [np.array([planted_values(x), b + 2 * c * x, 2 * c])
            for x in data.sites[:, 0]]
    y = np.concatenate(jets)
    viol = cons.violations(y)
    # exact quadratic jets satisfy every pair functional exactly
    assert float(viol[cons.m:].max()) < 0
    assert cons.is_feasible(y)
    assert separation_oracle(cons, y) is None


def test_duplicate_sites_raise():
    with pytest.raises(DuplicateSiteError):
        build_constraints(np.array([[0.2], [0.2]]), M=1.0)


def test_pair_groups_partition_all_rows():
    sites = np.linspace(-1.0, 1.0, 9).reshape(-1, 1)
    cons = build_constraints(sites, M=1.0)
    seen = np.concatenate([g for g in cons.pair_groups])
    assert sorted(seen.tolist()) == list(range(cons.pair_rows.shape[0]))
    q = cons.q
    for g in cons.pair_groups:
        touched: set[int] = set()
        for row_idx in g:
            sites_hit = set(np.nonzero(cons.pair_rows[row_idx])[0] // q)
            assert not (sites_hit & touched)
            touched |= sites_hit


def test_violations_hand_value():
    cons = build_constraints(np.array([[0.0], [0.5]]), M=1.0)
    y = np.zeros(6)
    y[0] = 2.0  # value at the first site only
    v = cons.violations(y)
    assert v[0] == pytest.approx(3.0)    # |block|^2 - M^2 = 4 - 1
    assert v[1] == pytest.approx(-1.0)
    # value rows see P_0(x_1) - value_1 = 2 and P_1(x_0) - value_0 = -2
    assert v[2] == pytest.approx(4.0 - 0.5625)
    assert v[4] == pytest.approx(4.0 - 0.5625)


def test_separation_oracle_cut_properties():
    data, cons = line_fixture()
    rng = np.random.default_rng(9)
    feasible_reference = np.zeros(cons.dim)
    assert separation_oracle(cons, feasible_reference) is None
    for _ in range(10):
        y = rng.standard_normal(cons.dim) * 2.0
        cut = separation_oracle(cons, y)
        if cut is None:
            assert cons.is_feasible(y)
            continue
        assert float(np.linalg.norm(cut.normal)) == pytest.approx(1.0)
        # the cut separates y from the feasible reference point
        assert float(cut.normal @ y) > cut.offset
        assert float(cut.normal @ feasible_reference) <= cut.offset + 1e-12
        assert cut.violation > 0


# ---- objective ----

def test_objective_weighted_value_and_gradient():
    sites = np.array([[0.0], [0.01], [1.0]])
    values = np.array([1.0, 3.0, 5.0])
    sk = sketch(sites, values, 0.05)
    cons = build_constraints(sk.sites, M=10.0)
    y = np.zeros(cons.dim)
    y[0] = 1.0
    y[3] = 2.0
    # weights (2/3, 1/3); residuals (2 - 1, 5 - 2)
    expect = (2.0 / 3.0) * 1.0 + (1.0 / 3.0) * 9.0
    assert section_objective(sk, cons, y) == pytest.approx(expect)
    grad = section_objective_gradient(sk, cons, y)
    h = 1e-7
    for i in range(cons.dim):
        e = np.zeros(cons.dim)
        e[i] = h
        fd = (section_objective(sk, cons, y + e)
              - section_objective(sk, cons, y - e)) / (2 * h)
        assert grad[i] == pytest.approx(fd, abs=1e-6)


def test_objective_site_mismatch():
    sites = np.array([[0.0], [1.0]])
    sk = sketch(sites, np.zeros(2), 0.0)
    other = build_constraints(np.array([[0.0], [0.5], [1.0]]), M=1.0)
    with pytest.raises(SiteMismatchError):
        section_objective(sk, other, np.zeros(other.dim))


# ---- the solver ----

def test_minimize_rejects_vector_targets():
    sites = np.array([[0.0], [1.0]])
    sk = sketch(sites, np.zeros((2, 2)), 0.0)
    cons = build_constraints(sk.sites, M=1.0)
    with pytest.raises(InvalidParameterError):
        minimize_section(sk, cons, eps_bar=0.1)


def test_clean_data_certifies_through_the_warm_start():
    data, cons = line_fixture()
    res = minimize_section(data, cons, eps_bar=1e-3)
    assert res.solver == "warm-start"
    assert res.certified
    assert res.value <= 1e-12
    assert cons.is_feasible(res.y)


def test_small_noise_certifies_through_projection():
    # the projection here is the radial one: the warm start scaled back
    # into the admissible set
    data, cons = line_fixture(sigma=0.005)
    y0 = warm_start(data, cons)
    assert not cons.is_feasible(y0)
    res = minimize_section(data, cons, eps_bar=0.01)
    assert res.solver == "retracted"
    assert res.certified
    assert res.value <= 0.01
    assert cons.is_feasible(res.y)
    lam = float(res.y @ y0) / float(y0 @ y0)
    assert 0.0 < lam < 1.0
    np.testing.assert_allclose(res.y, lam * y0, rtol=0.0, atol=1e-15)


def test_cutting_plane_reaches_a_noisy_target():
    data, cons = line_fixture(sigma=0.2)
    res = minimize_section(data, cons, eps_bar=0.02)
    assert res.solver == "cutting-plane"
    assert res.certified
    assert 0.01 <= res.value <= 0.02
    assert cons.is_feasible(res.y)
    assert res.iterations > 0


def test_budget_exceeded_carries_best_cutting_plane():
    data, cons = line_fixture(sigma=0.2)
    with pytest.raises(BudgetExceededError) as excinfo:
        minimize_section(data, cons, eps_bar=1e-9, budget=25)
    best = excinfo.value.best
    assert best is not None
    assert best.solver == "cutting-plane"
    assert cons.is_feasible(best.y)
    assert best.value < 0.08


# ---- the Dykstra projection and its stops ----

def test_projection_reports_why_it_stopped():
    data, cons = line_fixture(sigma=0.01, seed=1)
    # the constraints depend only on the sites, which the noise leaves alone
    feasible = warm_start(*line_fixture())
    y, stop = ws._project_constraints(cons, feasible)
    assert stop == "move_tol"
    np.testing.assert_array_equal(y, feasible)
    y0 = warm_start(data, cons)
    assert not cons.is_feasible(y0)
    _, stop = ws._project_constraints(cons, y0, sweeps=1)
    assert stop == "cap"


def test_warm_start_projection_stops_at_the_callers_target():
    data, cons = line_fixture(sigma=0.01, seed=1)
    y0 = warm_start(data, cons)
    assert not cons.is_feasible(y0)
    # without a target the projection runs to its sweep cap here
    _, stop = ws._project_constraints(cons, y0)
    assert stop == "cap"
    y_target, stop = ws._project_constraints(
        cons, y0, good_enough=lambda y: section_objective(data, cons, y) <= 0.01)
    assert stop == "target"
    assert cons.is_feasible(y_target)
    assert section_objective(data, cons, y_target) <= 0.01
    # a fit needs no projection here: the retraction already certifies
    res = minimize_section(data, cons, eps_bar=0.01)
    assert (res.solver, res.projection_stops) == ("retracted", ())
    assert cons.is_feasible(res.y)
    assert res.value <= 0.01
    assert res.value == section_objective(data, cons, res.y)


def test_a_fit_reports_the_stop_of_every_projection(monkeypatch):
    seen = []
    project = ws._project_constraints

    def spy(*args, **kwargs):
        out = project(*args, **kwargs)
        seen.append(out[1])
        return out

    # the cutting plane's harvest is the only projection a fit makes
    monkeypatch.setattr(ws, "_project_constraints", spy)
    assert minimize_section(*line_fixture(), eps_bar=1e-3).projection_stops == ()
    assert not seen
    # the first harvests reach the Dykstra cap, later ones converge
    res = minimize_section(*line_fixture(sigma=0.2), eps_bar=0.02)
    assert res.solver == "cutting-plane" and res.certified
    assert res.projection_stops[0] == "cap" and "move_tol" in res.projection_stops
    assert res.projection_stops == tuple(seen)


def test_unreachable_target_leaves_the_projection_unchanged():
    data, cons = line_fixture(sigma=0.01, seed=1)
    y0 = warm_start(data, cons)
    calls = []

    def never(y):
        calls.append(section_objective(data, cons, y))
        return calls[-1] <= 1e-12

    y_plain, stop_plain = ws._project_constraints(cons, y0)
    y_target, stop_target = ws._project_constraints(cons, y0, good_enough=never)
    assert len(calls) == 400
    assert stop_plain == stop_target == "cap"
    np.testing.assert_array_equal(y_target, y_plain)


def old_pair_rows(sites, M, c_w, pair_radius):
    """The per-pair, per-entry loops that built the pair rows and their
    bounds before _monomials."""
    m, d = sites.shape
    q = jet_size(d)
    rows = []
    betas = []
    for s in range(m):
        for t in range(m):
            if s == t or np.linalg.norm(sites[t] - sites[s]) > pair_radius:
                continue
            h = sites[t] - sites[s]
            hn = float(np.linalg.norm(h))
            betas.extend([(c_w * M * hn * hn) ** 2] + d * [(c_w * M * hn) ** 2])
            row = np.zeros(m * q)
            row[s * q] = 1.0
            row[s * q + 1:s * q + 1 + d] = h
            for pos, (a, b) in enumerate(upper_pairs(d)):
                row[s * q + 1 + d + pos] = 0.5 * h[a] * h[a] if a == b else h[a] * h[b]
            row[t * q] = -1.0
            rows.append(row)
            for axis in range(d):
                row = np.zeros(m * q)
                row[s * q + 1 + axis] = 1.0
                for pos, (a, b) in enumerate(upper_pairs(d)):
                    if a == axis and b == axis:
                        row[s * q + 1 + d + pos] += h[axis]
                    elif a == axis:
                        row[s * q + 1 + d + pos] += h[b]
                    elif b == axis:
                        row[s * q + 1 + d + pos] += h[a]
                row[t * q + 1 + axis] = -1.0
                rows.append(row)
    return np.stack(rows), np.array(betas)


def old_warm_start(data, cons):
    """The column-by-column warm start that preceded _monomials."""
    m, d, q = cons.m, cons.d, cons.q
    y = np.zeros(m * q)
    for i in range(m):
        h = cons.sites - cons.sites[i]
        cols = [np.ones(m)]
        cols.extend(h[:, a] for a in range(d))
        for a, b in upper_pairs(d):
            cols.append(0.5 * h[:, a] ** 2 if a == b else h[:, a] * h[:, b])
        coeff, *_ = np.linalg.lstsq(np.stack(cols, axis=1), data.targets, rcond=None)
        coeff[0] = data.targets[i]
        norm = float(np.linalg.norm(coeff))
        if norm > cons.M:
            coeff = coeff * (cons.M / norm)
        y[i * q:(i + 1) * q] = coeff
    return y


@pytest.mark.parametrize("d", [1, 2, 3])
def test_pair_rows_and_warm_start_match_the_old_loops(d):
    rng = np.random.default_rng(40 + d)
    sites = rng.uniform(-1.0, 1.0, (9, d))
    targets = 0.3 * np.sin(2.0 * sites.sum(axis=1)) + 0.01 * rng.standard_normal(9)
    data = sketch(sites, targets, 0.0)
    # M at the median unscaled block norm, so the warm start takes both branches
    loose = warm_start(data, build_constraints(data.sites, M=1e9))
    cons = build_constraints(data.sites, M=float(np.median(
        np.linalg.norm(loose.reshape(9, -1), axis=1))))
    assert cons.pair_rows.shape[0] > 0
    rows, betas = old_pair_rows(data.sites, cons.M, ws.C_W, cons.pair_radius)
    np.testing.assert_array_equal(cons.pair_rows, rows)
    # |h| comes from the pairwise distance matrix, which can round the last
    # bit differently from the norm of one offset when d >= 2; the value
    # bound holds |h|^4
    np.testing.assert_allclose(cons.pair_betas, betas, rtol=2e-15, atol=0.0)
    if d == 1:
        np.testing.assert_array_equal(cons.pair_betas, betas)
    y = warm_start(data, cons)
    np.testing.assert_array_equal(y, old_warm_start(data, cons))
    norms = np.linalg.norm(y.reshape(cons.m, cons.q), axis=1)
    assert np.any(np.isclose(norms, cons.M)) and np.any(norms < 0.99 * cons.M)


def test_stacked_warm_starts_equal_lstsq_site_by_site():
    # d = 2 problems of 2 to 8 sites in one stack: fewer sites than the 6 jet
    # coefficients, and sites on a line up to 1e-13, whose designs are
    # numerically rank-deficient, so lstsq's cutoff decides their solutions
    rng = np.random.default_rng(12)
    problems = []
    for m in range(2, 9):
        for on_line in (False, True):
            sites = rng.uniform(-1.0, 1.0, (m, 2))
            if on_line:
                sites[:, 1] = 0.3 * sites[:, 0] + 1e-13 * rng.standard_normal(m)
            data = sketch(sites, np.sin(sites.sum(axis=1)), 0.0)
            problems.append((data, build_constraints(data.sites, M=1e9)))
    stack = ws._SectionStack.build([c for _, c in problems], [d for d, _ in problems])
    y = ws._warm_starts(stack)
    for b, (data, cons) in enumerate(problems):
        np.testing.assert_array_equal(y[b, :cons.dim], old_warm_start(data, cons))
        assert not np.any(y[b, cons.dim:])


def _five_site_fixture(seed: int):
    sites = np.linspace(-1.0, 1.0, 5).reshape(-1, 1)
    targets = np.random.default_rng(seed).uniform(-0.4, 0.4, 5)
    data = sketch(sites, targets, 0.0)
    return data, build_constraints(data.sites, M=0.5)


def test_no_section_is_certified_above_its_target():
    # the optimum here lies above eps_bar; a fit must fail honestly and hand
    # back its best feasible field uncertified, not certify it as optimal
    data, cons = _five_site_fixture(1)
    with pytest.raises(BudgetExceededError) as excinfo:
        minimize_section(data, cons, eps_bar=1e-3)
    best = excinfo.value.best
    assert not best.certified
    assert best.value > 1e-3
    assert cons.is_feasible(best.y)


def one_site(target: float, M: float):
    data = sketch(np.zeros((1, 1)), np.array([target]), 0.0)
    return data, build_constraints(data.sites, M=M)


STOP_FIXTURES = {
    "budget": (lambda: line_fixture(sigma=0.2), 1e-9, 25),
    "stall": (lambda: _five_site_fixture(1), 1e-3, None),
    # the target lies outside the coefficient ball
    "pinned": (lambda: one_site(1.0, 0.5), 1e-3, None),
    # at this scale the objective's gradient at y = 0 is below the solver's
    # 1e-14 floor while its value is above the target
    "optimum": (lambda: one_site(2e-16, 1e-16), 1e-40, None),
}


@pytest.mark.parametrize("stop", list(STOP_FIXTURES))
def test_budget_exceeded_names_its_stop(stop):
    make, eps_bar, budget = STOP_FIXTURES[stop]
    data, cons = make()
    with pytest.raises(BudgetExceededError) as excinfo:
        minimize_section(data, cons, eps_bar, budget)
    error = excinfo.value
    assert error.stop == stop
    assert ws._STOPS[stop] in str(error)
    best = error.best
    assert best.solver == "cutting-plane" and not best.certified
    assert cons.is_feasible(best.y) and best.value > eps_bar
    assert f"best objective {best.value:.6g}" in str(error)


# ---- the retraction ----

def retract_stack(problems, ys):
    """The retractions of the rows ys of a stack of problems, each checked:
    it passes is_feasible, its objective is at most the flat section's
    (lambda = 0), and it equals the per-problem reference."""
    stack = ws._SectionStack.build([c for _, c in problems], [d for d, _ in problems])
    out = stack.retract(ys, np.arange(len(problems)))
    for b, (data, cons) in enumerate(problems):
        y, y0 = out[b, :cons.dim], ys[b, :cons.dim]
        assert cons.is_feasible(y)
        assert not np.any(out[b, cons.dim:])
        flat = section_objective(data, cons, np.zeros(cons.dim))
        assert section_objective(data, cons, y) <= flat
        np.testing.assert_allclose(y, reference_retract(data, cons, y0), rtol=0.0,
                                   atol=1e-14 * float(np.max(np.abs(y0), initial=0.0)))
    return out


def random_problems(seed: int, d: int, count: int = 16):
    rng = np.random.default_rng(seed)
    problems = []
    for _ in range(count):
        m = int(rng.integers(1, 9))
        data = sketch(rng.uniform(-1.0, 1.0, (m, d)), rng.normal(0.0, 0.4, m), 0.0)
        problems.append((data, build_constraints(data.sites, M=float(rng.uniform(0.1, 0.6)))))
    return problems


@pytest.mark.parametrize("d", [1, 2])
def test_a_retraction_is_feasible_and_no_worse_than_the_flat_section(d):
    problems = random_problems(50 + d, d)
    stack = ws._SectionStack.build([c for _, c in problems], [x for x, _ in problems])
    warm = ws._warm_starts(stack)
    noise = np.random.default_rng(d).normal(0.0, 0.5, warm.shape)
    for ys in (warm, warm + noise * (warm != 0), 3.0 * warm):
        out = retract_stack(problems, ys)
        infeasible = [not c.is_feasible(y[:c.dim]) for (_, c), y in zip(problems, ys)]
        assert any(infeasible) and np.any(out)


def test_degenerate_retractions():
    data, cons = line_fixture()
    problems = [(data, cons)]
    zero = np.zeros((1, cons.dim))
    np.testing.assert_array_equal(retract_stack(problems, zero), zero)
    # no value entry: the objective does not depend on lambda, which stays 0
    ys = np.random.default_rng(3).normal(0.0, 1.0, (1, cons.m, cons.q))
    ys[:, :, 0] = 0.0
    np.testing.assert_array_equal(retract_stack(problems, ys.reshape(1, -1)), zero)
    # a feasible start above the target: lambda* = 1, and the objective's
    # minimum lies past it
    half = 0.5 * warm_start(data, cons)[None]
    assert cons.is_feasible(half[0]) and section_objective(data, cons, half[0]) > 1e-3
    out = retract_stack(problems, half)
    np.testing.assert_allclose(out, (1.0 - 1e-12) * half, rtol=1e-15, atol=0.0)
    # lambda* set by a site ball: the block ends on the ball
    data, cons = one_site(5.0, 0.5)
    out = retract_stack([(data, cons)], np.array([[1.0, 0.0, 0.0]]))
    assert 0.5 * (1.0 - 1e-11) <= float(np.linalg.norm(out)) <= 0.5
    # lambda* set by the value slab of two sites 0.1 apart: it ends on the slab
    data = sketch(np.array([[0.0], [0.1]]), np.array([0.9, -0.9]), 0.0)
    cons = build_constraints(data.sites, M=1.0)
    out = retract_stack([(data, cons)], np.array([[0.9, 0.0, 0.0, -0.9, 0.0, 0.0]]))
    ratio = np.abs(cons.pair_rows @ out[0]) / np.sqrt(cons.pair_betas)
    assert 1.0 - 1e-11 <= float(ratio.max()) <= 1.0
    assert float(np.max(np.linalg.norm(out.reshape(2, 3), axis=1))) < 0.1


@pytest.mark.parametrize("d", [1, 2])
def test_the_front_fits_each_problem_as_it_does_alone(d, monkeypatch):
    problems = random_problems(60 + d, d, count=24)
    if d == 1:
        problems += [line_fixture(sigma=sigma, seed=1) for sigma in (0.0, 0.005, 0.02, 0.2)]
    data, cons = [x for x, _ in problems], [c for _, c in problems]
    alone = [ws._front([x], [c], 0.1)[0] for x, c in problems]
    assert {(f.solver, f.certified) for f in alone} == {
        ("warm-start", True), ("retracted", True), ("retracted", False)}
    for entries in (1, 64, ws._FRONT_ENTRIES):
        monkeypatch.setattr(ws, "_FRONT_ENTRIES", entries)
        for got, want in zip(ws._front(data, cons, 0.1), alone):
            assert (got.solver, got.certified, got.projection_stops) == (
                want.solver, want.certified, ())
            np.testing.assert_allclose(got.y, want.y, rtol=0.0, atol=1e-12)


def test_a_fit_whose_projection_caps_certifies_in_the_retraction(monkeypatch):
    # a lone projection of this warm start runs to the Dykstra cap with no
    # feasible iterate (see test_the_front_reports_the_honest_cap_and_falls_through)
    calls = []
    monkeypatch.setattr(ws, "_project_constraints", lambda *a, **k: calls.append("projection"))
    monkeypatch.setattr(ws, "_solve_cutting_plane", lambda *a, **k: calls.append("cutting"))
    data, cons = line_fixture(sigma=0.02, seed=0)
    res = minimize_section(data, cons, eps_bar=0.01)
    assert (res.solver, res.certified, res.iterations, res.projection_stops) == (
        "retracted", True, 0, ())
    assert cons.is_feasible(res.y) and res.value <= 0.01
    assert calls == []


# ---- local sections and patching ----

@pytest.fixture(scope="module")
def circle_model():
    size = 200
    ang = 2.0 * np.pi * np.arange(size) / size
    pts = np.stack([np.cos(ang), np.sin(ang)], axis=1)
    tangents = {
        i: AffineSubspace(base=pts[i],
                          basis=np.array([[-math.sin(a), math.cos(a)]]))
        for i, a in enumerate(ang)
    }
    cloud = PointCloud.from_points(pts)
    packet = ideal_packet(cloud, tangents, tau=0.5, cbar12=0.1, net=greedy_net(cloud, 0.025))
    mesh = extract_putative_manifold(packet, pts)
    model = fit_sections(packet, mesh)
    return packet, mesh, model


@pytest.fixture(scope="module")
def sphere_model():
    """A d = 2 model: ideal packet and sections of a 2-sphere in R^3."""
    cloud, _ = generate_synthetic("sphere", n=3, size=150, seed=7, dim=2, radius=0.5)
    tangents = {}
    for i, p in enumerate(cloud.points):
        frame = np.linalg.svd(np.outer(p, p))[0]   # normal first
        tangents[i] = AffineSubspace(base=p, basis=frame[:, 1:].T)
    packet = ideal_packet(cloud, tangents, tau=0.4, cbar12=0.25, net=greedy_net(cloud, 0.05))
    mesh = extract_putative_manifold(packet, np.vstack([packet.centers, cloud.points]))
    return packet, mesh, fit_sections(packet, mesh)


def single_cylinder_model():
    tb = 0.05
    packet = CylinderPacket(np.zeros((1, 2)), np.eye(2)[None], tb, 1, tau=0.5, c12=1.0,
                            C_align=10.0)
    xs = np.linspace(-0.8 * tb, 0.8 * tb, 15)
    pts = np.stack([xs, 0.05 * xs ** 2 / tb], axis=1)
    mesh = extract_putative_manifold(packet, pts)
    model = fit_sections(packet, mesh)
    return packet, model


def test_fit_local_section_empty_when_unpopulated():
    tb = 0.05
    packet = CylinderPacket([[0.0, 0.0], [0.9, 0.0]], [np.eye(2)] * 2, tb, 1, tau=0.5, c12=1.0,
                            C_align=10.0)
    xs = np.linspace(-0.03, 0.03, 9)
    mesh = extract_putative_manifold(packet, np.stack([xs, np.zeros(9)], axis=1))
    section = fit_local_section(packet, mesh, 1)
    assert section.is_empty
    with pytest.raises(UncoveredPointError):
        section.evaluate(np.zeros(1))
    populated = fit_local_section(packet, mesh, 0)
    assert not populated.is_empty
    assert populated.codim == 1


def jet_loop_evaluate(section, u):
    """The per-jet loop that LocalSection.evaluate replaced."""
    offs = u[None, :] - section.sites
    dist = np.linalg.norm(offs, axis=1)
    total = 0.0
    if section.shepard_radius > 0:
        wts = bump_profile(dist / section.shepard_radius)[0]
        total = float(wts.sum())
    if total > 0:
        active = np.nonzero(wts)[0]
        return np.array([sum(wts[i] * taylor_value(blocks[i], offs[i]) for i in active)
                         / total for blocks in section.coefficients])
    near = int(np.argmin(dist))
    return np.array([taylor_value(blocks[near], offs[near])
                     for blocks in section.coefficients])


def probe_points(model):
    """Eight uniform points of [-1, 1]^d per section, each with whether it
    lies in a Shepard support (blended) or not (nearest-site fallback)."""
    rng = np.random.default_rng(8)
    for section in model.sections:
        for u in rng.uniform(-1.0, 1.0, (8, section.sites.shape[1])):
            near = np.linalg.norm(u - section.sites, axis=1).min()
            yield section, u, bool(near < section.shepard_radius)


@pytest.mark.parametrize("model_fixture", ["circle_model", "sphere_model"])
def test_evaluate_matches_the_jet_loop(model_fixture, request):
    _, _, model = request.getfixturevalue(model_fixture)
    for section in model.sections:
        m, d = section.sites.shape
        assert section.coefficients.shape == (1, m, jet_size(d))
        for i in range(m):
            np.testing.assert_array_equal(section.evaluate(section.sites[i])[0],
                                          section.coefficients[:, i, 0])
    blended = nearest = 0
    for section, u, in_support in probe_points(model):
        scale = float(np.max(np.abs(section.coefficients)))
        expected = jet_loop_evaluate(section, u)
        np.testing.assert_allclose(section.evaluate(u)[0], expected,
                                   rtol=1e-12, atol=1e-12 * scale)
        blended += in_support
        nearest += not in_support
    assert blended > 100
    if model_fixture == "sphere_model":
        # the circle's sites are dense; only the sphere's reach the fallback
        assert nearest > 100


@pytest.mark.parametrize("model_fixture", ["circle_model", "sphere_model"])
def test_evaluate_jacobian_matches_central_differences(model_fixture, request):
    _, _, model = request.getfixturevalue(model_fixture)
    step = 1e-6
    blended = nearest = 0
    for section, u, in_support in probe_points(model):
        values, jac = section.evaluate(u)
        assert jac.shape == (section.codim, u.size)
        central = np.stack([(section.evaluate(u + step * e)[0]
                             - section.evaluate(u - step * e)[0]) / (2.0 * step)
                            for e in np.eye(u.size)], axis=1)
        np.testing.assert_allclose(jac, central, rtol=1e-7, atol=1e-9)
        blended += in_support
        nearest += not in_support
    assert blended > 100
    if model_fixture == "sphere_model":
        # the circle's sites are dense; only the sphere's reach the fallback
        assert nearest > 100


def forward_difference_fiber_intersection(packet, section, j, tangent_rows, base,
                                          max_iters=30):
    """The forward-difference Newton that _fiber_intersection replaced."""
    tb = packet.tau_bar
    d = packet.d
    rotation, center = packet.rotations[j], packet.centers[j]

    def graph_point(u_amb):
        vals = section.evaluate(u_amb / tb)[0] * tb
        return rotation @ np.concatenate([u_amb, vals]) + center

    u = (rotation.T @ (base - center))[:d].copy()
    h = 1e-6 * tb
    tol = 1e-12 * max(tb, 1.0) + 1e-15
    for _ in range(max_iters):
        g0 = tangent_rows @ (graph_point(u) - base)
        if float(np.linalg.norm(g0)) <= tol:
            return graph_point(u)
        jac = np.zeros((d, d))
        for k in range(d):
            up = u.copy()
            up[k] += h
            jac[:, k] = (tangent_rows @ (graph_point(up) - base) - g0) / h
        u = u + np.linalg.solve(jac, -g0)
        if float(np.linalg.norm(u)) > 2.0 * tb:
            return None
    return None


def test_fiber_intersection_matches_the_forward_difference_newton(circle_model):
    packet, mesh, model = circle_model
    pairs = [(chart, int(j)) for chart in mesh.charts
             for j in partition_weights(packet, chart.base_point, model.sections)[0]]
    # every (chart, member cylinder) pair in one stacked call
    points, hit = ws._fiber_intersection(
        model, np.array([j for _, j in pairs]),
        np.stack([chart.tangent_basis for chart, _ in pairs]),
        np.stack([chart.base_point for chart, _ in pairs]))
    solved = 0
    for (chart, j), point, ok in zip(pairs, points, hit):
        expected = forward_difference_fiber_intersection(packet, model.sections[j], j,
                                                         chart.tangent_basis,
                                                         chart.base_point)
        if expected is None:
            assert not ok
            continue
        assert ok
        np.testing.assert_allclose(point, expected, rtol=0.0, atol=1e-10)
        solved += 1
    assert solved > 300


def test_partition_weights_sum_to_one(circle_model):
    packet, mesh, model = circle_model
    rng = np.random.default_rng(4)
    checked = 0
    for _ in range(50):
        ang = rng.uniform(0.0, 2.0 * np.pi)
        radial = 1.0 + rng.uniform(-0.3, 0.3) * packet.tau_bar
        x = radial * np.array([math.cos(ang), math.sin(ang)])
        try:
            idx, wts = partition_weights(packet, x, model.sections)
        except UncoveredPointError:
            continue
        checked += 1
        assert abs(float(wts.sum()) - 1.0) <= 1e-12
        assert np.all(wts >= 0)
        assert idx.size == wts.size
    assert checked >= 40


def test_partition_weights_uncovered_point(circle_model):
    packet, _, _ = circle_model
    with pytest.raises(UncoveredPointError):
        partition_weights(packet, np.array([0.0, 0.0]))


def test_single_cylinder_patching_is_identity():
    packet, model = single_cylinder_model()
    x = np.array([0.01, 0.002])
    idx, wts = partition_weights(packet, x)
    np.testing.assert_array_equal(idx, [0])
    np.testing.assert_array_equal(wts, [1.0])
    gv = global_section(model, x)
    assert mfin_distance(model, gv.point) == 0.0


def test_global_section_lands_on_the_circle(circle_model):
    packet, mesh, model = circle_model
    rng = np.random.default_rng(17)
    for _ in range(10):
        ang = rng.uniform(0.0, 2.0 * np.pi)
        x = (1.0 + 0.2 * packet.tau_bar) * np.array([math.cos(ang), math.sin(ang)])
        gv = global_section(model, x)
        assert abs(float(np.linalg.norm(gv.point)) - 1.0) < 2e-3
        assert float(gv.weights.sum()) == pytest.approx(1.0, abs=1e-9)
        np.testing.assert_allclose(gv.offset, gv.point - gv.base)


def test_mfin_distance_matches_direct_geometry(circle_model):
    packet, mesh, model = circle_model
    z = np.array([1.03, 0.0])
    dist = mfin_distance(model, z)
    assert dist == pytest.approx(0.03, abs=2e-3)


def test_mfin_distance_out_of_tube(circle_model):
    packet, mesh, model = circle_model
    with pytest.raises(OutOfTubeError):
        mfin_distance(model, np.array([0.2, 0.2]))


def test_section_model_reports(circle_model):
    packet, mesh, model = circle_model
    assert isinstance(model, SectionModel)
    assert len(model.sections) == packet.size
    empties = sum(1 for s in model.sections if s.is_empty)
    assert empties == 0


# ---- the stacked loss pass against the per-point bodies it replaced ----

def _per_point_decomposition(packet, z, chart, v):
    vmax = 4.0 * packet.tau_bar / 2.0
    vnorm = math.sqrt(v @ v)
    if vnorm > vmax + 1e-12:
        raise DecompositionFailedError(f"fiber offset {vnorm:.4g} exceeds {vmax:.4g}")
    k = chart.owning_cylinder
    return FiberDecomposition(x=(packet.rotations[k].T @ (chart.base_point - packet.centers[k])
                                 )[:packet.d], v=v,
                              base_point=chart.base_point.copy(), chart=chart)


def _base_point_update(packet, seed, newton_tol):
    try:
        return solve_base_point(packet, seed, newton_tol)
    except BASE_POINT_ERRORS as exc:
        raise DecompositionFailedError(
            f"base-point update failed: {type(exc).__name__}: {exc}")


def reference_bundle_coordinates(packet, mesh, z, tol=1e-11, max_iters=60, work=None):
    """The per-point form of the stacked bundle_coordinates: each round after
    the first seeds at the Anderson(1) step b + t - gamma (db + dt), and a
    seed whose solve fails is solved again from b + t. A given Counter work
    counts the base-point solves ("solved") and the re-solves ("fallbacks")."""
    work = Counter() if work is None else work
    chart = mesh.charts[int(np.argmin(np.linalg.norm(mesh.base_points - z, axis=1)))]
    shift_tol = max(tol, 1e-13) * max(1.0, packet.tau_bar)
    last = None
    for _ in range(max_iters):
        v = chart.projector_hi @ (z - chart.base_point)
        t = (z - chart.base_point) - v
        if math.sqrt(t @ t) <= shift_tol:
            return _per_point_decomposition(packet, z, chart, v)
        base, plain = chart.base_point, chart.base_point + t
        seed = plain
        if last is not None:
            db, dt = base - last[0], t - last[1]
            gamma = (dt @ t) / (dt @ dt) if dt @ dt > 0 else math.nan
            if math.isfinite(gamma):
                seed = plain - gamma * (db + dt)
        last = (base, t)
        work["solved"] += 1
        try:
            chart = _base_point_update(packet, seed, mesh.tolerance)
        except DecompositionFailedError:
            if seed is plain:
                raise
            work["solved"] += 1
            work["fallbacks"] += 1
            chart = _base_point_update(packet, plain, mesh.tolerance)
    raise DecompositionFailedError(f"no convergence in {max_iters} alternations")


def reference_plain_alternation(packet, mesh, z, tol=1e-11, max_iters=60):
    """The per-point alternation without the Anderson step: every round
    seeds at b + t."""
    chart = mesh.charts[int(np.argmin(np.linalg.norm(mesh.base_points - z, axis=1)))]
    shift_tol = max(tol, 1e-13) * max(1.0, packet.tau_bar)
    for _ in range(max_iters):
        v = chart.projector_hi @ (z - chart.base_point)
        t = (z - chart.base_point) - v
        if math.sqrt(t @ t) <= shift_tol:
            return _per_point_decomposition(packet, z, chart, v)
        chart = _base_point_update(packet, chart.base_point + t, mesh.tolerance)
    raise DecompositionFailedError(f"no convergence in {max_iters} alternations")


def reference_partition_weights(packet, x, sections):
    """The per-point partition weights that _partition replaced."""
    idx, w = packet.members(x, factor=1.0)
    keep = np.array([not sections[j].is_empty for j in idx], dtype=bool)
    idx, w = idx[keep], w[keep]
    if idx.size == 0:
        raise UncoveredPointError("no full cylinder with a section contains the point")
    wts = bump_profile(np.linalg.norm(w[:, :packet.d], axis=1) / packet.tau_bar)[0]
    if float(wts.sum()) <= 0.0:
        raise UncoveredPointError("all partition weights vanish at the point")
    return idx, wts / float(wts.sum())


def reference_fiber_intersection(packet, section, j, tangent_rows, base, max_iters=30):
    """The per-pair Newton that the stacked _fiber_intersection replaced."""
    tb, d = packet.tau_bar, packet.d
    rotation, center = packet.rotations[j], packet.centers[j]
    u = (rotation.T @ (base - center))[:d].copy()
    tol = 1e-12 * max(tb, 1.0) + 1e-15
    for _ in range(max_iters):
        vals, jac = section.evaluate(u / tb)
        point = rotation @ np.concatenate([u, vals * tb]) + center
        g0 = tangent_rows @ (point - base)
        if math.sqrt(g0 @ g0) <= tol:
            return point
        try:
            step = np.linalg.solve(tangent_rows @ rotation
                                   @ np.vstack([np.eye(d), jac]), -g0)
        except np.linalg.LinAlgError:
            return None
        u = u + step
        if math.sqrt(u @ u) > 2.0 * tb:
            return None
    return None


def reference_global_section(model, x):
    """The per-point global_section body."""
    chart = solve_base_point(model.packet, x, model.mesh.tolerance)
    idx, wts = reference_partition_weights(model.packet, x, model.sections)
    found = [(pos, reference_fiber_intersection(model.packet, model.sections[j], int(j),
                                                chart.tangent_basis, chart.base_point))
             for pos, j in enumerate(idx)]
    kept = [pos for pos, p in found if p is not None]
    if not kept:
        raise UncoveredPointError("every member cylinder failed the fiber solve")
    wts = wts[kept] / wts[kept].sum()
    point = np.einsum("k,kn->n", wts, np.stack([p for _, p in found if p is not None]))
    return GlobalSectionValue(point=point, base=chart.base_point,
                              offset=point - chart.base_point, indices=idx[kept],
                              weights=wts)


def reference_mfin_distance(model, z):
    """The per-point mfin_distance body."""
    try:
        decomp = reference_bundle_coordinates(model.packet, model.mesh, z)
        gs = reference_global_section(model, decomp.base_point)
    except (*BASE_POINT_ERRORS, DecompositionFailedError, UncoveredPointError) as exc:
        raise OutOfTubeError(f"{type(exc).__name__}: {exc}")
    return float(np.linalg.norm(z - gs.point))


def reference_outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:   # the per-point bodies raise what a stack returns
        return exc


@pytest.fixture(scope="module")
def mixed_stack(circle_model):
    """Points in the circle's tube, one off it ([0.2, 0.2]) and one past the
    fiber-offset bound ([1.15, 0.0])."""
    packet = circle_model[0]
    rng = np.random.default_rng(23)
    ang = rng.uniform(0.0, 2.0 * np.pi, 40)
    radial = 1.0 + rng.uniform(-0.8, 0.8, 40) * packet.tau_bar
    tube = radial[:, None] * np.stack([np.cos(ang), np.sin(ang)], axis=1)
    return np.vstack([tube[:20], [[0.2, 0.2]], tube[20:], [[1.15, 0.0]]])


def assert_same_kind(got, want):
    assert type(got) is type(want)
    if isinstance(want, Exception):
        assert str(got) == str(want)


def test_stacked_bundle_coordinates_match_the_per_point_alternation(circle_model,
                                                                    mixed_stack):
    packet, mesh, _ = circle_model
    found = bundle_coordinates(packet, mesh, mixed_stack)
    assert len(found) == len(mixed_stack)
    assert found.counts["rounds"] > 0 and found.counts["solved"] >= len(mixed_stack) - 2
    for z, got in zip(mixed_stack, found):
        want = reference_outcome(reference_bundle_coordinates, packet, mesh, z)
        assert_same_kind(got, want)
        if isinstance(want, FiberDecomposition):
            np.testing.assert_allclose(got.base_point, want.base_point, rtol=0, atol=1e-12)
            np.testing.assert_allclose(got.v, want.v, rtol=0, atol=1e-12)
            np.testing.assert_allclose(got.x, want.x, rtol=0, atol=1e-12)
    assert isinstance(found[-1], DecompositionFailedError)
    assert str(found[-1]).startswith("fiber offset")


def test_stacked_global_section_matches_the_per_point_body(circle_model, mixed_stack):
    _, _, model = circle_model
    found = global_section(model, mixed_stack)
    assert found.counts["solved"] == len(mixed_stack)
    kinds = set()
    for x, got in zip(mixed_stack, found):
        want = reference_outcome(reference_global_section, model, x)
        assert_same_kind(got, want)
        kinds.add(type(want))
        if isinstance(want, GlobalSectionValue):
            np.testing.assert_allclose(got.point, want.point, rtol=0, atol=1e-12)
            np.testing.assert_allclose(got.base, want.base, rtol=0, atol=1e-12)
            np.testing.assert_array_equal(got.indices, want.indices)
            np.testing.assert_allclose(got.weights, want.weights, rtol=0, atol=1e-12)
    assert GlobalSectionValue in kinds and len(kinds) > 1


def test_stacked_mfin_distance_matches_the_per_point_body(circle_model, mixed_stack):
    _, _, model = circle_model
    found = mfin_distance(model, mixed_stack)
    assert found.counts["points"] == len(mixed_stack)
    for z, got in zip(mixed_stack, found):
        want = reference_outcome(reference_mfin_distance, model, z)
        assert_same_kind(got, want)
        if isinstance(want, float):
            assert got == pytest.approx(want, rel=1e-12, abs=0)
    assert isinstance(found[20], OutOfTubeError)
    assert str(found[-1]).startswith("DecompositionFailedError: fiber offset")
    assert sum(isinstance(out, float) for out in found) == 40


def test_accelerated_base_points_are_the_plain_alternations_to_newton_tol(circle_model,
                                                                         mixed_stack):
    # the plain alternation run to tol 1e-13 as the limit both converge to
    packet, mesh, _ = circle_model
    found = bundle_coordinates(packet, mesh, mixed_stack)
    kinds = set()
    for z, got in zip(mixed_stack, found):
        want = reference_outcome(reference_plain_alternation, packet, mesh, z, 1e-13)
        assert type(got) is type(want)
        kinds.add(type(want))
        if isinstance(want, FiberDecomposition):
            assert np.abs(got.base_point - want.base_point).max() <= mesh.tolerance == 1e-10
    assert FiberDecomposition in kinds and DecompositionFailedError in kinds


@pytest.fixture(scope="module")
def disc_model():
    """The perturbed (default_rng(1)) packet of a 300-point disc, its mesh,
    and a model loose enough for the disc to fit. The mesh has one more
    seed, which converges to a chart next to a cylinder corner: the nearest
    chart of the disc's own seeds is 0.063 from it, and from those charts
    the first round of none of 200,000 points drawn uniformly over the disc
    met the corner's asymmetric Hessian."""
    disc, _ = generate_synthetic("uniform_ball", n=2, size=300, seed=5)
    tb = 0.03
    net = greedy_net(disc, tb / 2.0)
    ideal = ideal_packet(disc, pipeline._net_tangents(disc, net, 1, tb), tau=0.3, cbar12=0.1,
                         net=net)
    packet = pipeline._perturb_packet(ideal, np.random.default_rng(1))
    corner_seed = np.array([0.3187, -0.1021])
    mesh = extract_putative_manifold(packet,
                                     np.vstack([packet.centers, disc.points, corner_seed]))
    return disc, packet, mesh, fit_sections(packet, mesh, eps_bar=50.0), corner_seed


def test_an_asymmetric_hessian_fails_only_its_own_row_of_the_loss_pass(disc_model, monkeypatch):
    # near a cylinder corner of the perturbed disc packet the field's Hessian
    # is not symmetric to 1e-9; the row that meets it fails alone, and the
    # loss pass charges it as an out-of-tube point
    disc, packet, mesh, model, corner_seed = disc_model
    text = "hessian is not symmetric to 1e-9"
    rows = disc.points[:60]
    # the section pass solves from the base point itself
    found = global_section(model, np.vstack([rows, [0.3216, -0.1074]]))
    assert type(found[-1]) is InvalidParameterError and str(found[-1]) == text
    for got, want in zip(found[:-1], global_section(model, rows)):
        assert type(got) is type(want)
        if isinstance(want, GlobalSectionValue):
            assert got.point.tobytes() == want.point.tobytes()
        else:
            assert str(got) == str(want)
    # the first round, which is never extrapolated, seeds a point at its
    # start chart plus its tangential residual: along the tangent line of the
    # chart next to the corner, 0.005 off it along the fiber, the first
    # point whose first round meets the asymmetric Hessian
    chart = mesh.chart(int(np.argmin(np.linalg.norm(mesh.base_points - corner_seed, axis=1))))
    line = (chart.base_point + 0.005 * chart.fiber_basis[0]
            + np.linspace(-0.02, 0.02, 4001)[:, None] * chart.tangent_basis[0])
    with monkeypatch.context() as mp:   # the first round alone
        mp.setattr(asdf_bundle, "ALTERNATIONS", 1)
        first = bundle_coordinates(packet, mesh, line)
    assert first.counts["rounds"] == 1
    point = next(z for z, out in zip(line, first) if str(out).endswith(text))
    found = mfin_distance(model, np.vstack([rows, point]))
    assert type(found[-1]) is OutOfTubeError
    assert str(found[-1]) == ("DecompositionFailedError: base-point update failed: "
                              f"InvalidParameterError: {text}")
    alone = mfin_distance(model, rows)
    assert [str(out) for out in found[:-1]] == [str(out) for out in alone]
    assert sum(isinstance(out, float) for out in alone) > 30


def test_a_row_whose_extrapolated_seed_fails_solves_again_from_the_plain_seed(disc_model):
    disc, packet, mesh, _, _ = disc_model
    found = bundle_coordinates(packet, mesh, disc.points)
    work = Counter()
    kinds = set()
    for z, got in zip(disc.points, found):
        want = reference_outcome(reference_bundle_coordinates, packet, mesh, z, 1e-11, 60, work)
        assert_same_kind(got, want)
        kinds.add(str(want).split(" ", 1)[0] if isinstance(want, Exception) else "decomposed")
        if isinstance(want, FiberDecomposition):
            np.testing.assert_allclose(got.base_point, want.base_point, rtol=0, atol=1e-12)
            np.testing.assert_allclose(got.v, want.v, rtol=0, atol=1e-12)
    assert work["fallbacks"] > 0 and {"decomposed", "base-point", "no"} <= kinds
    # the re-solves count among the rows solved
    assert found.counts["solved"] == work["solved"]


def test_the_loss_pass_out_of_tube_causes_on_the_disc(disc_model):
    disc, packet, mesh, model, _ = disc_model
    decomps = bundle_coordinates(packet, mesh, disc.points)
    found = mfin_distance(model, disc.points)
    causes = Counter(pipeline._tube_cause(out) for out in found
                     if isinstance(out, OutOfTubeError))
    assert set(causes) <= set(pipeline.TUBE_CAUSES)
    # each alternation that reached max_iters is one "cap" row
    assert causes["cap"] == sum(str(out).startswith("no convergence") for out in decomps) > 0
    assert causes["base_point"] >= sum(str(out).startswith("base-point") for out in decomps) > 0


def test_stacked_mfin_distance_on_padded_sections(sphere_model):
    # the sphere's sections hold 1 to 6 sites, so the table pads, and the
    # one-site sections (Shepard radius 0) take the nearest-site branch
    packet, _, model = sphere_model
    sizes = {s.sites.shape[0] for s in model.sections}
    assert 1 in sizes and len(sizes) > 3
    rng = np.random.default_rng(11)
    g = rng.normal(size=(40, 3))
    z = (g / np.linalg.norm(g, axis=1, keepdims=True)
         * (0.5 + rng.uniform(-0.5, 0.5, (40, 1)) * packet.tau_bar))
    found = mfin_distance(model, z)
    for zi, got in zip(z, found):
        want = reference_outcome(reference_mfin_distance, model, zi)
        assert_same_kind(got, want)
        if isinstance(want, float):
            assert got == pytest.approx(want, rel=1e-12, abs=0)
    assert sum(isinstance(out, float) for out in found) > 20


def empty_section_model():
    """Two cylinders; only the first holds mesh points, so the second's
    section is empty."""
    tb = 0.05
    packet = CylinderPacket([[0.0, 0.0], [0.9, 0.0]], [np.eye(2)] * 2, tb, 1, tau=0.5, c12=1.0,
                            C_align=10.0)
    xs = np.linspace(-0.03, 0.03, 9)
    mesh = extract_putative_manifold(packet, np.stack([xs, np.zeros(9)], axis=1))
    return fit_sections(packet, mesh)


def test_stacked_global_section_drops_empty_sections():
    model = empty_section_model()
    assert model.sections[1].is_empty
    stack = np.array([[0.01, 0.001], [0.9, 0.001]])
    found = global_section(model, stack)
    for x, got in zip(stack, found):
        assert_same_kind(got, reference_outcome(reference_global_section, model, x))
    assert str(found[1]) == "no full cylinder with a section contains the point"


def test_global_section_wraps_its_array_pass(circle_model, mixed_stack):
    _, _, model = circle_model
    charts = solve_base_point(model.packet, mixed_stack, model.mesh.tolerance)
    errors, points, runs, solved = ws._global_section(model, mixed_stack)
    found = global_section(model, mixed_stack)
    assert found.counts == {"solved": len(mixed_stack),
                            "evaluations": charts.counts["evaluations"]}
    kinds = set()
    for row, (got, chart) in enumerate(zip(found, charts)):
        kinds.add(type(got))
        if row in runs:
            # the blend over the solve's own chart
            assert solved.z[row].tobytes() == chart.base_point.tobytes()
            assert solved.fibers[row].tobytes() == chart.fiber_basis.tobytes()
            assert got.point.tobytes() == points[row].tobytes()
            assert got.base.tobytes() == chart.base_point.tobytes()
            assert got.offset.tobytes() == (points[row] - chart.base_point).tobytes()
            assert got.indices.tobytes() == runs[row][0].tobytes()
            assert got.weights.tobytes() == runs[row][1].tobytes()
        else:
            assert type(got) is type(errors[row]) and str(got) == str(errors[row])
    assert GlobalSectionValue in kinds and len(kinds) > 1


def test_the_loss_pass_solves_the_alternations_rows_then_each_base_once(disc_model,
                                                                         monkeypatch):
    # mfin_distance's solves are the alternation's rounds and plain-seed
    # re-solves, row for row, then one stacked solve of global_section from
    # the base points the alternation converged to
    disc, packet, mesh, model, _ = disc_model
    calls = {"asdf": [], "whitney": []}
    for module, key in ((asdf_bundle, "asdf"), (ws, "whitney")):
        def spy(p, z0, *args, _solve=module.solve_base_point, _key=key, **kwargs):
            calls[_key].append(np.vstack(z0))
            return _solve(p, z0, *args, **kwargs)

        monkeypatch.setattr(module, "solve_base_point", spy)
    found = mfin_distance(model, disc.points)
    in_loss, calls["asdf"] = calls["asdf"], []
    (bases,) = calls["whitney"]
    decomps = bundle_coordinates(packet, mesh, disc.points)
    assert [rows.tobytes() for rows in in_loss] == [rows.tobytes() for rows in calls["asdf"]]
    assert bases.tobytes() == np.stack([d.base_point for d in decomps
                                        if isinstance(d, FiberDecomposition)]).tobytes()
    assert found.counts["rounds"] == decomps.counts["rounds"]
    assert found.counts["solved"] == decomps.counts["solved"] + len(bases)
    # the disc's rows take plain-seed re-solves, each round's in one call
    assert len(in_loss) > found.counts["rounds"] > 0
    assert sum(len(rows) for rows in in_loss) == decomps.counts["solved"]


def reference_dense_sample(model, per_axis=5, extent=0.8, merge_fraction=0.25):
    """The per-section dense sample that the stacked pass replaced."""
    packet, d, tb = model.packet, model.packet.d, model.packet.tau_bar
    grid = _ball_grid(np.linspace(-extent, extent, per_axis), d, extent)
    eye = np.broadcast_to(np.eye(d), (grid.shape[0], d, d))
    points, frames = [], []
    for j, section in enumerate(model.sections):
        if section.is_empty:
            continue
        rotation = packet.rotations[j]
        vals, jac = section.evaluate(grid)
        local = np.concatenate([tb * grid, tb * vals], axis=1)
        points.append(np.matmul(rotation, local[:, :, None])[:, :, 0] + packet.centers[j])
        frames.append(np.linalg.qr(np.matmul(rotation, np.concatenate([eye, jac], axis=1)))[0])
    pts, frames = np.concatenate(points), np.concatenate(frames)
    kept = greedy_merge(pts, merge_fraction * tb)
    return pts[kept], [AffineSubspace(base=pts[i], basis=frames[i].T) for i in kept]


@pytest.mark.parametrize("which", ["circle", "sphere", "empty section"])
def test_dense_sample_is_the_per_section_sample_bit_for_bit(which, circle_model,
                                                            sphere_model):
    model = {"circle": circle_model[2], "sphere": sphere_model[2],
             "empty section": empty_section_model()}[which]
    assert model.section_table.empty.any() == (which == "empty section")
    for fraction in (0.0, 2.0):   # every graph point, then the verify's merge
        got, got_tangents = pipeline._dense_manifold_sample(model, merge_fraction=fraction)
        want, want_tangents = reference_dense_sample(model, merge_fraction=fraction)
        assert got.tobytes() == want.tobytes() and len(got_tangents) == len(want_tangents)
        for a, b in zip(got_tangents, want_tangents):
            assert a.base.tobytes() == b.base.tobytes()
            assert a.basis.tobytes() == b.basis.tobytes()


def test_singular_fiber_steps_fail_their_pairs_only(circle_model, mixed_stack, monkeypatch):
    a = np.array([np.eye(2), np.zeros((2, 2)), [[2.0, 1.0], [0.0, 3.0]]])
    b = np.array([[1.0, 2.0], [1.0, 1.0], [1.0, 3.0]])
    x, singular = ws._solve_rows(a, b)
    np.testing.assert_array_equal(singular, [False, True, False])
    np.testing.assert_array_equal(x[0], np.linalg.solve(a[0], b[0]))
    np.testing.assert_array_equal(x[2], np.linalg.solve(a[2], b[2]))

    def all_singular(a, b):
        return np.zeros_like(b), np.ones(a.shape[0], dtype=bool)

    _, _, model = circle_model
    monkeypatch.setattr(ws, "_solve_rows", all_singular)
    tube = np.delete(mixed_stack, [20, len(mixed_stack) - 1], axis=0)
    for out in global_section(model, tube):
        assert type(out) is UncoveredPointError
        assert str(out) == "every member cylinder failed the fiber solve"


def same_outcome(a, b) -> bool:
    """Bit-for-bit equality of two stacked outcomes."""
    if type(a) is not type(b):
        return False
    if isinstance(a, Exception):
        return str(a) == str(b)
    if isinstance(a, float):
        return a == b
    return all(np.array_equal(getattr(a, name), getattr(b, name))
               for name in vars(a) if isinstance(getattr(a, name), np.ndarray))


def test_permuting_a_stack_permutes_its_outcomes_bit_for_bit(circle_model, mixed_stack):
    packet, mesh, model = circle_model
    perm = np.random.default_rng(5).permutation(len(mixed_stack))
    for stacked in (lambda z: bundle_coordinates(packet, mesh, z),
                    lambda z: global_section(model, z),
                    lambda z: mfin_distance(model, z)):
        found, permuted = stacked(mixed_stack), stacked(mixed_stack[perm])
        assert all(same_outcome(permuted[i], found[p]) for i, p in enumerate(perm))
    # a single point is a batch of one
    distances = mfin_distance(model, mixed_stack)
    for i in (0, 7, 33):
        assert mfin_distance(model, mixed_stack[i]) == distances[i]
    with pytest.raises(OutOfTubeError):
        mfin_distance(model, mixed_stack[20])


def test_stacked_evaluate_matches_single_points(sphere_model):
    _, _, model = sphere_model
    rng = np.random.default_rng(9)
    for section in model.sections[:20]:
        u = rng.uniform(-1.0, 1.0, (6, section.sites.shape[1]))
        values, jac = section.evaluate(u)
        assert values.shape == (6, section.codim) and jac.shape == (6, section.codim, 2)
        for i in range(6):
            one = section.evaluate(u[i])
            np.testing.assert_array_equal(values[i], one[0])
            np.testing.assert_array_equal(jac[i], one[1])


# ---- the stacked fit against the per-cylinder reference ----

def reference_sketch(sites, values, radius):
    """The per-cylinder sketch: greedy_merge, each site joining its first
    representative within radius, the member means."""
    reps = greedy_merge(sites, radius)
    rep_sites = sites[reps]
    dist = np.linalg.norm(sites[:, None, :] - rep_sites[None, :, :], axis=2)
    owner = np.argmax(dist < radius, axis=1)
    owner[reps] = np.arange(len(reps))
    members = [np.nonzero(owner == r)[0] for r in range(len(reps))]
    targets = np.stack([values[m].mean(axis=0) for m in members])
    mult = np.array([len(m) for m in members], dtype=np.int64)
    return rep_sites, targets, mult, owner


def reference_row_groups(ends):
    """The greedy batch loop: each row joins the first batch that touches
    neither of its sites."""
    groups, used_sites = [], []
    for idx, (s, t) in enumerate(ends):
        for g, used in zip(groups, used_sites):
            if s not in used and t not in used:
                g.append(idx)
                used.update((s, t))
                break
        else:
            groups.append([idx])
            used_sites.append({s, t})
    return groups


def reference_project(cons, y0, sweeps=400, move_tol=1e-13, good_enough=None):
    """The per-problem Dykstra loop over the dense rows."""
    m, q = cons.m, cons.q
    y = y0.copy()
    site_corr = np.zeros((m, q))
    groups = reference_row_groups(cons.pair_sites.tolist())
    assert [g.tolist() for g in cons.pair_groups] == groups
    pair_corr = np.zeros(cons.pair_rows.shape[0])
    pair_sq = np.sum(cons.pair_rows * cons.pair_rows, axis=1)
    roots = np.sqrt(cons.pair_betas)
    for _ in range(sweeps):
        blocks = y.reshape(m, q) + site_corr
        norms = np.linalg.norm(blocks, axis=1)
        scale = np.ones(m)
        over = norms > cons.M
        scale[over] = cons.M / norms[over]
        new_blocks = blocks * scale[:, None]
        site_corr = blocks - new_blocks
        moved = float(np.max(np.abs(new_blocks - y.reshape(m, q))))
        y = new_blocks.reshape(-1)
        for g in groups:
            rows = cons.pair_rows[g]
            t = rows @ y + pair_corr[g] * pair_sq[g]
            shift = np.where(np.abs(t) <= roots[g], 0.0,
                             (t - np.copysign(roots[g], t)) / pair_sq[g])
            delta = pair_corr[g] - shift
            y = y + rows.T @ delta
            moved = max(moved, float(np.max(np.abs(delta) * np.max(np.abs(rows), axis=1))))
            pair_corr[g] = shift
        if moved < move_tol:
            stop = "move_tol"
        elif good_enough is not None and good_enough(y):
            stop = "target"
        else:
            continue
        if cons.is_feasible(y):
            return y, stop
    return y, "cap"


def reference_retract(data, cons, y0):
    """lambda y0 at the objective's minimum over [0, lambda*], lambda* the
    largest scale that keeps every site ball and slab, one by one, shrunk
    by 1e-12."""
    top = 1.0
    for block in y0.reshape(cons.m, cons.q):
        norm = float(np.linalg.norm(block))
        if norm > 0.0:
            top = min(top, cons.M / norm)
    for alpha, beta in zip(cons.pair_rows, cons.pair_betas):
        value = abs(float(alpha @ y0))
        if value > 0.0:
            top = min(top, math.sqrt(beta) / value)
    top *= 1.0 - 1e-12
    values = y0.reshape(cons.m, cons.q)[:, 0]
    den = float(np.sum(data.weights * values * values))
    if den == 0.0:
        return 0.0 * y0
    return min(max(float(np.sum(data.weights * data.targets * values)) / den, 0.0), top) * y0


def reference_minimize(data, cons, eps_bar, budget):
    """The per-problem fit: warm start, its retraction, the cutting plane."""
    if budget is None:
        budget = min(120 + 4 * cons.dim, 700)
    y0 = old_warm_start(data, cons)
    for solver, y in (("warm-start", y0), ("retracted", reference_retract(data, cons, y0))):
        val = section_objective(data, cons, y)
        if cons.is_feasible(y) and val <= eps_bar:
            return ws.SectionFitResult(y=y, value=val, iterations=0, certified=True,
                                       solver=solver)

    def meets_target(y):
        return section_objective(data, cons, y) <= eps_bar

    start = y if cons.is_feasible(y) else None
    return ws._solve_cutting_plane(data, cons, eps_bar, budget, start, meets_target)


def reference_bound(targets, mult, M):
    """sum_i w_i (|t_i| - M~)_+^2 of one component's targets, site by site."""
    m_tilde = math.sqrt(M * M * (1.0 + ws.FEASIBILITY_REL) + ws.FEASIBILITY_ABS)
    weights = mult / mult.sum()
    return sum(w * max(abs(t) - m_tilde, 0.0) ** 2 for w, t in zip(weights, targets))


def reference_fit(packet, mesh, eps_bar, budget):
    """Every component fit of the cylinder-by-cylinder loop, in order, and
    the error that stopped it (None when every cylinder fits). Every
    cylinder's objective lower bounds are checked before the loop."""
    fits = []
    tb, d = packet.tau_bar, packet.d
    M = 2.0 * tb / packet.tau
    sketched = []
    for index, (center, rotation) in enumerate(zip(packet.centers, packet.rotations)):
        local = (mesh.base_points - center) @ rotation
        inside = ((np.linalg.norm(local[:, :d], axis=1) <= tb + 1e-12)
                  & (np.linalg.norm(local[:, d:], axis=1) <= tb + 1e-12))
        if np.any(inside):
            sketched.append(reference_sketch(local[inside, :d] / tb, local[inside, d:] / tb,
                                             0.02))
            bounds = [reference_bound(t, sketched[-1][2], M) for t in sketched[-1][1].T]
            over = [c for c, b in enumerate(bounds) if b > eps_bar * (1.0 + 1e-9)]
            if over:
                return fits, InfeasibleSectionError(index, over[0], bounds[over[0]], eps_bar)
    with pytest.MonkeyPatch.context() as mp:
        # the cutting plane's own projections run the reference loop too
        mp.setattr(ws, "_project_constraints", reference_project)
        for sites, targets, mult, owner in sketched:
            try:
                cons = build_constraints(sites, M)
                for c in range(targets.shape[1]):
                    data = ws.SketchedData(sites=sites, targets=targets[:, c],
                                           multiplicities=mult, owners=owner)
                    fits.append(reference_minimize(data, cons, eps_bar, budget))
            except ManifoldTestError as exc:
                return fits, exc
    return fits, None


def stacked_fit(packet, mesh, eps_bar, budget):
    """The same record of fit_sections: what each minimize_section call
    returned, in order, and the error fit_sections raised."""
    fits = []
    minimize = ws.minimize_section

    def record(*args, **kwargs):
        fits.append(minimize(*args, **kwargs))
        return fits[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ws, "minimize_section", record)
        try:
            fit_sections(packet, mesh, eps_bar, budget=budget)
        except ManifoldTestError as exc:
            return fits, exc
    return fits, None


@pytest.fixture(scope="module")
def pipeline_packets(sphere_model):
    """(packet, mesh, eps_bar, budget) of the fits run_test makes on a noisy
    circle (the ideal packet, then a perturbed one; case one) and on a
    uniform disc (ball-reject's sample: case two, a cylinder fails in each of
    its three packets), and the d = 2 sphere packet with a target that one
    fit meets only in the cutting plane."""
    fits = {}

    def recorder(name):
        def fit(packet, mesh, eps_bar, budget=None):
            fits.setdefault(name, []).append((packet, mesh, eps_bar, budget))
            return fit_sections(packet, mesh, eps_bar, budget=budget)
        return fit

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pipeline, "fit_sections", recorder("circle"))
        cloud, _ = generate_synthetic("sphere", n=2, size=120, noise=0.003, radius=0.5,
                                      even=True, seed=3)
        run_test(cloud, TestConfig(d=1, V=7.0, tau=0.3, eps=3.6e-5, delta=0.1, C=4.0,
                                   packet_budget=2, seed=0))
        mp.setattr(pipeline, "fit_sections", recorder("disc"))
        cloud, _ = generate_synthetic("uniform_ball", n=2, size=300, seed=5)
        run_test(cloud, TestConfig(d=1, V=7.0, tau=0.3, eps=1e-4, delta=0.1,
                                   packet_budget=3, seed=0))
    packet, mesh, _ = sphere_model
    return {"circle-ideal": fits["circle"][0], "circle-perturbed": fits["circle"][1],
            "disc": fits["disc"][0], "disc-1": fits["disc"][1], "disc-2": fits["disc"][2],
            "sphere": (packet, mesh, 1e-3, None)}


@pytest.mark.parametrize("name", ["circle-ideal", "circle-perturbed", "disc", "sphere"])
def test_stacked_fit_matches_the_per_cylinder_reference(pipeline_packets, name):
    packet, mesh, eps_bar, budget = pipeline_packets[name]
    fits, error = stacked_fit(packet, mesh, eps_bar, budget)
    want, want_error = reference_fit(packet, mesh, eps_bar, budget)
    # a proven-infeasible packet runs no fit
    assert len(fits) == len(want)
    assert (len(want) == 0) == (name == "disc")
    for got, ref in zip(fits, want):
        assert (got.solver, got.projection_stops, got.iterations, got.certified) == (
            ref.solver, ref.projection_stops, ref.iterations, ref.certified)
        np.testing.assert_allclose(got.value, ref.value, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(got.y, ref.y, rtol=0.0,
                                   atol=1e-12 * float(np.max(np.abs(ref.y))))
    assert type(error) is type(want_error) and str(error) == str(want_error)
    paths = {f.solver for f in fits}
    if name == "circle-ideal":
        assert paths == {"warm-start"}
    elif name == "circle-perturbed":
        assert paths == {"warm-start", "retracted"}
    elif name == "sphere":
        assert paths == {"warm-start", "cutting-plane"}
    else:
        assert isinstance(error, InfeasibleSectionError)
        assert (error.cylinder, error.component, error.eps_bar) == (
            want_error.cylinder, want_error.component, want_error.eps_bar)
        np.testing.assert_allclose(error.bound, want_error.bound, rtol=1e-12, atol=0.0)


def test_a_cylinder_fits_alone_as_in_its_packet(pipeline_packets):
    packet, mesh, eps_bar, budget = pipeline_packets["circle-perturbed"]
    model = fit_sections(packet, mesh, eps_bar, budget=budget)
    assert any("retracted" in s.solver_paths for s in model.sections)
    for j, inside in enumerate(model.sections):
        alone = fit_local_section(packet, mesh, j, eps_bar, budget=budget)
        assert alone.is_empty == inside.is_empty
        assert alone.solver_paths == inside.solver_paths
        assert alone.projection_stops == inside.projection_stops
        if not inside.is_empty:
            np.testing.assert_allclose(alone.coefficients, inside.coefficients, rtol=0.0,
                                       atol=1e-12 * float(np.max(np.abs(inside.coefficients))))


def test_a_front_stacked_in_runs_fits_as_one_pass(pipeline_packets, monkeypatch):
    packet, mesh, eps_bar, budget = pipeline_packets["circle-perturbed"]
    whole = fit_sections(packet, mesh, eps_bar, budget=budget).section_table
    runs = []
    front_pass = ws._front_pass

    def spy(data, constraints, eps):
        runs.append(len(data))
        return front_pass(data, constraints, eps)

    monkeypatch.setattr(ws, "_front_pass", spy)
    monkeypatch.setattr(ws, "_FRONT_ENTRIES", 200)
    split = fit_sections(packet, mesh, eps_bar, budget=budget).section_table
    assert len(runs) > 10 and sum(runs) == int(np.count_nonzero(~whole.empty))
    assert split.solver_paths == whole.solver_paths
    assert split.projection_stops == whole.projection_stops
    np.testing.assert_allclose(split.coefficients, whole.coefficients, rtol=0.0,
                               atol=1e-12 * float(np.max(np.abs(whole.coefficients))))


def test_a_short_projection_ignores_a_long_tail_in_its_batch():
    # a 25-site problem whose projection meets its target in a few dozen
    # sweeps, and a 29-site one that runs to the 400-sweep cap
    problems = [line_fixture(sigma=0.01, seed=1), line_fixture(sigma=0.02, m=29, seed=0)]
    sweeps = []

    def project(data, cons):
        def target(y):
            sweeps[-1] += 1
            return section_objective(data, cons, y) <= 0.01
        sweeps.append(0)
        return ws._project_constraints(cons, warm_start(data, cons), good_enough=target)[1]

    assert [project(*p) for p in problems] == ["target", "cap"]
    assert 1 < sweeps[0] < 400 and sweeps[1] == 400
    # the front retracts each problem as it does alone, and certifies both
    fronts = ws._front([p[0] for p in problems], [p[1] for p in problems], 0.01)
    for (data, cons), front in zip(problems, fronts):
        alone = ws._front([data], [cons], 0.01)[0]
        assert (front.solver, front.certified) == (alone.solver, alone.certified) == (
            "retracted", True)
        np.testing.assert_allclose(front.y, alone.y, rtol=0.0, atol=1e-12)


def test_an_earlier_failing_cylinder_raises_before_any_later_one(pipeline_packets,
                                                                 monkeypatch):
    calls = {"sets": [], "front": [], "fits": 0}
    front, minimize, sets = ws._front, ws.minimize_section, ws._constraint_sets

    def spy_front(data, constraints, eps):
        calls["front"].append(len(data))
        return front(data, constraints, eps)

    def spy_minimize(*args, **kwargs):
        calls["fits"] += 1
        return minimize(*args, **kwargs)

    def inject(position):
        def broken(*args, **kwargs):
            out, closest = sets(*args, **kwargs)
            calls["sets"].append(len(out))
            if position is not None:
                out[position] = DuplicateSiteError("injected")
            return out, closest
        return broken

    monkeypatch.setattr(ws, "_front", spy_front)
    monkeypatch.setattr(ws, "minimize_section", spy_minimize)
    # on the disc a cylinder's bound proves its fit infeasible: the proof
    # raises before any constraint set, front or fit
    packet, mesh, eps_bar, budget = pipeline_packets["disc"]
    monkeypatch.setattr(ws, "_constraint_sets", inject(None))
    with pytest.raises(InfeasibleSectionError):
        fit_sections(packet, mesh, eps_bar, budget=budget)
    assert calls == {"sets": [], "front": [], "fits": 0}
    # where every bound holds, a setup failure raises at its own cylinder:
    # after the fits of the cylinders before it (one normal component each),
    # and at the first cylinder before any fit
    packet, mesh, eps_bar, budget = pipeline_packets["circle-perturbed"]
    assert packet.n - packet.d == 1
    filled = int(np.count_nonzero(ws._inside_points(packet, mesh, np.arange(packet.size))[0]))
    for position in (filled // 2, 0):
        calls.update(sets=[], front=[], fits=0)
        monkeypatch.setattr(ws, "_constraint_sets", inject(position))
        with pytest.raises(DuplicateSiteError, match="injected"):
            fit_sections(packet, mesh, eps_bar, budget=budget)
        assert calls == {"sets": [filled], "front": [filled - 1], "fits": position}


def test_fit_sections_writes_the_table_that_sections_view(pipeline_packets, monkeypatch):
    packet, mesh, eps_bar, budget = pipeline_packets["circle-perturbed"]
    built = []
    local_section = ws.LocalSection

    def counted(*args, **kwargs):
        built.append(kwargs["cylinder_index"])
        return local_section(*args, **kwargs)

    monkeypatch.setattr(ws, "LocalSection", counted)
    model = fit_sections(packet, mesh, eps_bar, budget=budget)
    assert built == []   # the fit fills the table and builds no section object
    table = model.section_table
    assert len(model.sections) == packet.size
    for j, section in enumerate(model.sections):
        m = int(np.count_nonzero(table.valid[j]))
        assert table.valid[j, :m].all()
        assert section.cylinder_index == table.index[j] == j
        assert section.is_empty == table.empty[j] == (m == 0)
        assert section.solver_paths == table.solver_paths[j]
        assert section.projection_stops == table.projection_stops[j]
        if section.is_empty:
            assert section.fit_values == () and section.shepard_radius == table.radius[j] == 0.0
            continue
        assert section.sites.tobytes() == table.sites[j, :m].tobytes()
        assert section.coefficients.tobytes() == table.coefficients[j, :, :m].tobytes()
        assert section.fit_values == tuple(table.fit_values[j].tolist())
        assert section.shepard_radius == table.radius[j]
    assert built == list(range(packet.size))   # one view a row, on access
    for name, arr in vars(table).items():
        if isinstance(arr, np.ndarray):
            assert not arr.flags.writeable, name
    cylinders = np.arange(3)
    assert not ws._fit_cylinders(packet, mesh, cylinders, eps_bar,
                                 budget).index.flags.writeable
    assert cylinders.flags.writeable   # the table froze its own copy
    short = ws.SectionTable(**{k: v[:-1] for k, v in vars(table).items()})
    with pytest.raises(InvalidParameterError, match="one section per cylinder"):
        SectionModel(packet=packet, mesh=mesh, section_table=short, eps_bar=eps_bar)


def dense_inside_points(packet, mesh, cylinders):
    """Reference: the local coordinates of every (cylinder, mesh point)
    pair, one (mesh, n) @ (n, n) product per cylinder, then the norm test."""
    tb, d = packet.tau_bar, packet.d
    local = np.matmul(mesh.base_points - packet.centers[cylinders][:, None, :],
                      packet.rotations[cylinders])
    inside = ((np.linalg.norm(local[:, :, :d], axis=2) <= tb + 1e-12)
              & (np.linalg.norm(local[:, :, d:], axis=2) <= tb + 1e-12))
    count = inside.sum(axis=1)
    real = np.arange(int(count.max(initial=0))) < count[:, None]
    points = np.zeros(real.shape + (packet.n,))
    points[real] = local[inside] / tb
    return count, points


def assert_same_inside_points(packet, mesh, cylinders):
    got, want = (f(packet, mesh, cylinders) for f in (ws._inside_points, dense_inside_points))
    assert got[0].tolist() == want[0].tolist()
    assert got[1].shape == want[1].shape and got[1].tobytes() == want[1].tobytes()
    return got[0]


@pytest.mark.parametrize("chunk", [1 << 16, 1])
@pytest.mark.parametrize("name", ["circle-ideal", "circle-perturbed", "disc", "sphere"])
def test_inside_points_equal_the_dense_pass(pipeline_packets, name, chunk):
    # the sphere is sphere-d2's sample (n = 3); the cylinders asked for in
    # calls of chunk cylinders each, with chunk 1 one call a cylinder
    packet, mesh, _, _ = pipeline_packets[name]

    def by_chunk(cylinders):
        return np.concatenate([assert_same_inside_points(packet, mesh, cylinders[i:i + chunk])
                               for i in range(0, cylinders.size, chunk)])

    every = np.arange(packet.size)
    assert by_chunk(every).sum() > packet.size
    by_chunk(every[::-3])


def test_inside_points_on_the_cylinder_boundary():
    tb, angle = 0.05, 0.3
    rotation = np.array([[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]])
    center = np.array([0.1, -0.2])
    packet = CylinderPacket([np.zeros(2), center], [np.eye(2), rotation], tb, 1, tau=0.5,
                            c12=1.0, C_align=10.0)
    # local points on the edges and corners of the cylinder, and just past them
    edge = np.array([tb, tb + 1e-12, tb + 3e-12, tb * (1.0 + 1e-15)])
    local = np.concatenate([np.stack([edge, np.zeros(4)], axis=1),
                            np.stack([np.zeros(4), -edge], axis=1),
                            np.stack([edge, edge], axis=1)])
    points = np.vstack([local, local @ rotation.T + center])
    mesh = SimpleNamespace(base_points=points, size=len(points))
    count = assert_same_inside_points(packet, mesh, np.arange(2))
    assert count[0] == 9   # the first cylinder's rotation is exact: tb + 3e-12 lies outside


def failing_problem(packet, mesh, eps_bar, budget):
    """The component fit that stops fit_sections, rebuilt from its
    InfeasibleSectionError: its data, constraints and error, and the
    cylinder's position among the cylinders with mesh points."""
    with pytest.raises(InfeasibleSectionError) as failed:
        fit_sections(packet, mesh, eps_bar, budget=budget)
    error = failed.value
    count, points = ws._inside_points(packet, mesh, np.array([error.cylinder]))
    local = points[0, :count[0]]
    data = sketch(local[:, :packet.d], local[:, packet.d:], 0.02).component(error.component)
    cons = build_constraints(data.sites, 2.0 * packet.tau_bar / packet.tau)
    filled = np.flatnonzero(ws._inside_points(packet, mesh, np.arange(packet.size))[0])
    return data, cons, error, int(np.searchsorted(filled, error.cylinder))


def objective_bound(data, cons):
    return float(ws._objective_bounds(np.asarray(data.targets)[None, :, None],
                                      data.weights[None], cons.M)[0, 0])


@pytest.mark.parametrize("name", ["disc", "disc-1", "disc-2"])
def test_the_bound_is_the_minimum_of_a_failing_fit(pipeline_packets, name):
    packet, mesh, eps_bar, budget = pipeline_packets[name]
    data, cons, error, _ = failing_problem(packet, mesh, eps_bar, budget)
    bound = objective_bound(data, cons)
    np.testing.assert_allclose(error.bound, bound, rtol=1e-12, atol=0.0)
    assert f"objective lower bound {error.bound:.6g} exceeds eps_bar {eps_bar:.6g}" in str(error)
    assert error.eps_bar == eps_bar < bound
    # the bound is attained to 1e-6: the values clamped to [-M, M], with
    # zero derivatives, are feasible
    clamped = np.zeros((cons.m, cons.q))
    clamped[:, 0] = np.clip(data.targets, -cons.M, cons.M)
    assert cons.is_feasible(clamped.ravel())
    assert bound <= section_objective(data, cons, clamped.ravel()) <= bound + 1e-6
    # a lone fit, which runs the cutting plane, never gets below it: it
    # stops at its stall test a little above
    with pytest.raises(BudgetExceededError) as stalled:
        minimize_section(data, cons, eps_bar)
    best = stalled.value.best.value
    assert f"best objective {best:.6g}" in str(stalled.value)
    assert bound <= best


def test_no_certified_fit_falls_below_its_bound():
    rng = np.random.default_rng(23)
    certified = near = stalls = 0
    for trial in range(24):
        d = 1 + trial % 2
        m = int(rng.integers(2, 7))
        sites = rng.uniform(-1.0, 1.0, (m, d))
        targets = rng.normal(0.0, 0.6, m)
        data = ws.SketchedData(sites=sites, targets=targets,
                               multiplicities=rng.integers(1, 4, m),
                               owners=np.arange(m))
        cons = build_constraints(sites, M=float(rng.uniform(0.1, 0.5)))
        bound = objective_bound(data, cons)
        for eps_bar in (bound * 1.05 + 1e-4, bound * 1.5 + 1e-3, bound + 0.5):
            try:
                res = minimize_section(data, cons, eps_bar)
            except BudgetExceededError:
                stalls += 1
                continue
            assert res.certified and cons.is_feasible(res.y)
            assert res.value >= bound
            certified += 1
            near += res.value <= bound * 1.5 + 1e-3
    assert certified > 30 and near > 10 and stalls >= 1


def test_a_cylinder_that_cannot_certify_ends_the_front(pipeline_packets, monkeypatch):
    packet, mesh, eps_bar, budget = pipeline_packets["disc"]
    data, cons, _, before = failing_problem(packet, mesh, eps_bar, budget)
    assert objective_bound(data, cons) > eps_bar
    sizes = []
    front = ws._front

    def spy(data, constraints, eps):
        sizes.append(len(data))
        return front(data, constraints, eps)

    monkeypatch.setattr(ws, "_front", spy)
    with pytest.raises(InfeasibleSectionError):
        fit_sections(packet, mesh, eps_bar, budget=budget)
    assert sizes == []
    # the failing cylinder is the before-th filled one (codim 1); some later
    # cylinder certifies on its own, though the packet fit prepared none
    filled = np.flatnonzero(ws._inside_points(packet, mesh, np.arange(packet.size))[0])
    later = []
    for j in filled[before + 1:before + 8]:
        try:
            later.append(fit_local_section(packet, mesh, j, eps_bar, budget=budget))
        except (BudgetExceededError, InfeasibleSectionError):
            pass
    assert later and all(s.fit_values[0] <= eps_bar for s in later)


@pytest.mark.parametrize("bad", [dict(eps_bar=0.0), dict(eps_bar=-0.5)],
                         ids=["eps_bar-zero", "eps_bar-negative"])
def test_parameter_errors_come_before_any_bound(pipeline_packets, bad, monkeypatch):
    # on the disc a bound fails at the valid parameters, and with a
    # nonpositive eps_bar every bound would
    packet, mesh, eps_bar, budget = pipeline_packets["disc"]
    compared = []
    bounds = ws._objective_bounds

    def spy(*args):
        compared.append(args)
        return bounds(*args)

    monkeypatch.setattr(ws, "_objective_bounds", spy)
    with pytest.raises(InvalidParameterError):
        fit_sections(packet, mesh, **{"eps_bar": eps_bar, "budget": budget, **bad})
    assert compared == []


def test_the_front_reports_the_honest_cap_and_falls_through():
    # a lone projection of this warm start meets the target on every sweep
    # but passes the feasibility slack on none before the cap, and says so
    data, cons = line_fixture(sigma=0.02, seed=0)
    y, stop = ws._project_constraints(
        cons, warm_start(data, cons),
        good_enough=lambda y: section_objective(data, cons, y) <= 0.01)
    assert stop == "cap" and not cons.is_feasible(y)
    # a front that cannot certify hands its feasible retraction on, and the
    # fit goes on from it in the cutting plane
    data, cons = line_fixture(sigma=0.2)
    front = ws._front([data], [cons], 0.02)[0]
    assert (front.solver, front.certified, front.projection_stops) == ("retracted", False, ())
    assert cons.is_feasible(front.y) and front.value > 0.02
    res = minimize_section(data, cons, eps_bar=0.02, start=front)
    assert res.solver == "cutting-plane" and res.certified and res.value < front.value
    assert ws.FEASIBILITY_REL == 2e-6
    defaults = inspect.signature(ws._project_constraints).parameters
    assert defaults["sweeps"].default == 400 and defaults["move_tol"].default == 1e-13

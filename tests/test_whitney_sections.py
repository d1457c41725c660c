"""The jet layout, sketching, the convex section solver, and partition-of-unity patching."""
import math

import numpy as np
import pytest

from manifold_test.asdf_bundle import (
    Cylinder,
    CylinderPacket,
    bump_profile,
    extract_putative_manifold,
    ideal_packet,
)
from manifold_test.core_geometry import AffineSubspace, PointCloud
from manifold_test.errors import (
    BudgetExceededError,
    DuplicateSiteError,
    EmptyInputError,
    InvalidParameterError,
    OutOfTubeError,
    SiteMismatchError,
    UncoveredPointError,
)
from manifold_test.pipeline import generate_synthetic
import manifold_test.whitney_sections as ws
from manifold_test.whitney_sections import (
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
    constraints = build_constraints(data.sites, M=0.5, c_w=3.0)
    return data, constraints


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
    cons = build_constraints(np.array([[0.0], [0.5]]), M=1.0, c_w=3.0)
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
    cons = build_constraints(np.array([[0.0], [0.5]]), M=1.0, c_w=3.0)
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
    data, cons = line_fixture(sigma=0.005)
    res = minimize_section(data, cons, eps_bar=0.01)
    assert res.solver == "warm-start-projected"
    assert res.certified
    assert res.value <= 0.01
    assert cons.is_feasible(res.y)


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
    feasible = ws._warm_start(*line_fixture())
    y, stop = ws._project_constraints(cons, feasible)
    assert stop == "move_tol"
    np.testing.assert_array_equal(y, feasible)
    y0 = ws._warm_start(data, cons)
    assert not cons.is_feasible(y0)
    _, stop = ws._project_constraints(cons, y0, sweeps=1)
    assert stop == "cap"


def test_warm_start_projection_stops_at_the_callers_target():
    data, cons = line_fixture(sigma=0.01, seed=1)
    y0 = ws._warm_start(data, cons)
    assert not cons.is_feasible(y0)
    # without a target the projection runs to its sweep cap here
    _, stop = ws._project_constraints(cons, y0)
    assert stop == "cap"
    y_target, stop = ws._project_constraints(
        cons, y0, good_enough=lambda y: section_objective(data, cons, y) <= 0.01)
    assert stop == "target"
    res = minimize_section(data, cons, eps_bar=0.01)
    assert res.solver == "warm-start-projected"
    np.testing.assert_array_equal(res.y, y_target)
    assert cons.is_feasible(res.y)
    assert res.value <= 0.01
    assert res.value == section_objective(data, cons, res.y)


def test_a_fit_reports_the_stop_of_every_projection(monkeypatch):
    seen = []
    project = ws._project_constraints

    def spy(*args, **kwargs):
        seen.append(project(*args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(ws, "_project_constraints", spy)
    assert minimize_section(*line_fixture(), eps_bar=1e-3).projection_stops == ()
    assert not seen
    # the Dykstra cap bites here although the objective meets the target
    res = minimize_section(*line_fixture(sigma=0.02, seed=0), eps_bar=0.01)
    assert res.solver == "cutting-plane"
    assert res.projection_stops[0] == "cap"
    assert res.projection_stops == tuple(stop for _, stop in seen)


def test_unreachable_target_leaves_the_projection_unchanged():
    data, cons = line_fixture(sigma=0.01, seed=1)
    y0 = ws._warm_start(data, cons)
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
    loose = ws._warm_start(data, build_constraints(data.sites, M=1e9))
    cons = build_constraints(data.sites, M=float(np.median(
        np.linalg.norm(loose.reshape(9, -1), axis=1))), c_w=3.0)
    assert cons.pair_rows.shape[0] > 0
    rows, betas = old_pair_rows(data.sites, cons.M, cons.c_w, cons.pair_radius)
    np.testing.assert_array_equal(cons.pair_rows, rows)
    # |h| comes from the pairwise distance matrix, which can round the last
    # bit differently from the norm of one offset when d >= 2; the value
    # bound holds |h|^4
    np.testing.assert_allclose(cons.pair_betas, betas, rtol=2e-15, atol=0.0)
    if d == 1:
        np.testing.assert_array_equal(cons.pair_betas, betas)
    y = ws._warm_start(data, cons)
    np.testing.assert_array_equal(y, old_warm_start(data, cons))
    norms = np.linalg.norm(y.reshape(cons.m, cons.q), axis=1)
    assert np.any(np.isclose(norms, cons.M)) and np.any(norms < 0.99 * cons.M)


def _five_site_fixture(seed: int):
    sites = np.linspace(-1.0, 1.0, 5).reshape(-1, 1)
    targets = np.random.default_rng(seed).uniform(-0.4, 0.4, 5)
    data = sketch(sites, targets, 0.0)
    return data, build_constraints(data.sites, M=0.5, c_w=3.0)


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
    packet = ideal_packet(cloud, tangents, tau=0.5, cbar12=0.1)
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
    packet = ideal_packet(cloud, tangents, tau=0.4, cbar12=0.25)
    mesh = extract_putative_manifold(packet, np.vstack([packet.centers, cloud.points]))
    return packet, mesh, fit_sections(packet, mesh)


def single_cylinder_model():
    tb = 0.05
    cyl = Cylinder(rotation=np.eye(2), center=np.zeros(2), scale=tb,
                   tangent_dim=1)
    packet = CylinderPacket([cyl], tau=0.5, c12=1.0, C_align=10.0)
    xs = np.linspace(-0.8 * tb, 0.8 * tb, 15)
    pts = np.stack([xs, 0.05 * xs ** 2 / tb], axis=1)
    mesh = extract_putative_manifold(packet, pts)
    model = fit_sections(packet, mesh)
    return packet, model


def test_fit_local_section_empty_when_unpopulated():
    tb = 0.05
    a = Cylinder(rotation=np.eye(2), center=np.zeros(2), scale=tb, tangent_dim=1)
    b = Cylinder(rotation=np.eye(2), center=np.array([0.9, 0.0]), scale=tb,
                 tangent_dim=1)
    packet = CylinderPacket([a, b], tau=0.5, c12=1.0, C_align=10.0)
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

    def graph_point(u_amb):
        vals = section.evaluate(u_amb / tb)[0] * tb
        return packet.cylinders[j].to_ambient(np.concatenate([u_amb, vals]))

    u = packet.cylinders[j].to_local(base)[:d].copy()
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
    solved = 0
    for chart in mesh.charts:
        base = chart.base_point
        rows = chart.tangent_basis
        idx, _ = partition_weights(packet, base, model.sections)
        for j in idx:
            section = model.sections[j]
            expected = forward_difference_fiber_intersection(packet, section, int(j),
                                                             rows, base)
            point = ws._fiber_intersection(packet, section, int(j), rows, base)
            if expected is None:
                assert point is None
                continue
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

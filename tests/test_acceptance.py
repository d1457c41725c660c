"""Acceptance suite: one test per contracted behavior, tolerances pinned.

Each test states its pass condition in asserts; shared heavy artifacts
(the noisy-circle verdict, the ideal circle packet) are module fixtures.
"""
import json
import math
import time

import numpy as np
import pytest

from test_asdf_bundle import (
    FD_STEP,
    circle_cloud_and_tangents,
    fd_errors,
    flat_packet,
    interior_probes,
    torus_patch_packet,
)

from manifold_test.asdf_bundle import (
    Cylinder,
    CylinderPacket,
    extract_putative_manifold,
    ideal_packet,
)
from manifold_test.complexity_bounds import (
    BoundParams,
    FatProfile,
    chaining_bound,
    covering_bound,
    fat_bound_maxmin,
    jl_project,
    lift_identity_check,
    sample_complexity,
)
from manifold_test.core_geometry import (
    AffineSubspace,
    PointCloud,
    federer_reach,
    greedy_net,
    hausdorff_distance,
)
from manifold_test.errors import BudgetExceededError
from manifold_test.pipeline import (
    TestConfig,
    generate_synthetic,
    run_test,
    verify_output,
)
from manifold_test.whitney_sections import (
    build_constraints,
    fit_sections,
    global_section,
    mfin_distance,
    minimize_section,
    partition_weights,
    sketch,
)


# ---- shared fixtures ----

@pytest.fixture(scope="module")
def circle_fixture():
    """Ideal cylinder packet over 200 evenly spaced unit-circle samples."""
    cloud, tangents = circle_cloud_and_tangents()
    packet = ideal_packet(cloud, tangents, tau=0.5, cbar12=0.1, net=greedy_net(cloud, 0.025))
    return cloud, tangents, packet


NOISE_SIGMA = 0.003
NOISY_CONFIG = TestConfig(d=1, V=7.0, tau=0.3, eps=4 * NOISE_SIGMA ** 2,
                          delta=0.1, C=4.0, packet_budget=3, seed=0)


@pytest.fixture(scope="module")
def noisy_circle_result():
    cloud, _ = generate_synthetic("sphere", n=2, size=400, seed=3,
                                  noise=NOISE_SIGMA, radius=1.0, even=True)
    start = time.monotonic()
    verdict = run_test(cloud, NOISY_CONFIG)
    elapsed = time.monotonic() - start
    return cloud, verdict, elapsed


BALL_CONFIG = TestConfig(d=1, V=7.0, tau=0.3, eps=1e-4, delta=0.1,
                         packet_budget=2, seed=0)


@pytest.fixture(scope="module")
def ball_result():
    """The verdict on the 300-point uniform disc (the unrotated sample of
    the ball-reject benchmark workload), which has no manifold to find."""
    ball, _ = generate_synthetic("uniform_ball", n=2, size=300, seed=5)
    start = time.monotonic()
    verdict = run_test(ball, BALL_CONFIG)
    return ball, verdict, time.monotonic() - start


def solver_fixture(sigma: float, seed: int = 0):
    """25 sites on [-1, 1], quadratic truth, optional Gaussian target noise."""
    sites = np.linspace(-1.0, 1.0, 25).reshape(-1, 1)
    truth = 0.05 + 0.1 * sites[:, 0] + 0.075 * sites[:, 0] ** 2
    targets = truth
    if sigma > 0:
        targets = truth + sigma * np.random.default_rng(seed).standard_normal(25)
    data = sketch(sites, targets, 0.0)
    constraints = build_constraints(data.sites, M=0.5, c_w=3.0)
    return data, constraints


# ---- criteria ----

def test_criterion_01_reach_oracle_recovers_circle_and_torus():
    start = time.monotonic()
    ang = 2.0 * np.pi * np.arange(2000) / 2000
    pts = np.stack([np.cos(ang), np.sin(ang)], axis=1)
    tangents = {
        i: AffineSubspace(base=pts[i],
                          basis=np.array([[-math.sin(a), math.cos(a)]]))
        for i, a in enumerate(ang)
    }
    cloud = PointCloud.from_points(pts, require_unit_ball=False)
    circle_reach = federer_reach(cloud, tangents)
    circle_time = time.monotonic() - start
    assert 0.9 <= circle_reach.value <= 1.05
    assert circle_time < 10.0

    start = time.monotonic()
    R, r = 2.0, 0.5
    theta = 2.0 * np.pi * np.arange(25) / 25
    phi = 2.0 * np.pi * np.arange(20) / 20
    tpts = []
    ttans = {}
    k = 0
    for a in theta:
        for b in phi:
            p = np.array([(R + r * math.cos(b)) * math.cos(a),
                          (R + r * math.cos(b)) * math.sin(a),
                          r * math.sin(b)])
            b1 = np.array([-math.sin(a), math.cos(a), 0.0])
            b2 = np.array([-math.cos(a) * math.sin(b),
                           -math.sin(a) * math.sin(b), math.cos(b)])
            tpts.append(p)
            ttans[k] = AffineSubspace(base=p, basis=np.stack([b1, b2]))
            k += 1
    torus = PointCloud.from_points(np.stack(tpts), require_unit_ball=False)
    torus_reach = federer_reach(torus, ttans)
    torus_time = time.monotonic() - start
    assert 0.4 <= torus_reach.value <= 0.55
    assert torus_time < 10.0


def test_criterion_02_greedy_nets_cover_and_pack():
    rng = np.random.default_rng(2024)
    checked = 0
    for _ in range(50):
        n = int(rng.integers(1, 21))
        size = int(rng.integers(50, 2001))
        pts = rng.uniform(-1.0, 1.0, (size, n)) / math.sqrt(n)
        cloud = PointCloud.from_points(pts)
        sample = pts[rng.integers(0, size, 200)]
        dist = np.linalg.norm(sample[:, None, :] - sample[None, :, :],
                              axis=2).ravel()
        dist = dist[dist > 0]
        for q in (0.1, 0.25, 0.5, 0.75, 0.9):
            radius = float(np.quantile(dist, q))
            net = np.asarray(greedy_net(cloud, radius))
            dmin = np.full(size, np.inf)
            for j in net:
                np.minimum(dmin, np.linalg.norm(pts - pts[j], axis=1), out=dmin)
            assert np.all(dmin < radius)
            if net.size > 1:
                netp = pts[net]
                sep = np.linalg.norm(netp[:, None, :] - netp[None, :, :], axis=2)
                np.fill_diagonal(sep, np.inf)
                assert float(sep.min()) >= radius
            checked += 1
    assert checked == 250


def test_criterion_03_plane_lifting_identity_matches_brute_force():
    rng = np.random.default_rng(33)
    worst_gap = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 9))
        d = int(rng.integers(0, min(n, 4) + 1))
        k = int(rng.integers(1, 6))
        planes = []
        for _j in range(k):
            if d:
                q, _ = np.linalg.qr(rng.standard_normal((n, d)))
                basis = q[:, :d].T
            else:
                basis = np.zeros((0, n))
            base = rng.standard_normal(n)
            base *= rng.uniform(0.0, 0.9) / np.linalg.norm(base)
            planes.append(AffineSubspace(base=base, basis=basis))
        x = rng.standard_normal(n)
        x *= rng.uniform(0.0, 1.0) / np.linalg.norm(x)
        lhs, rhs = lift_identity_check(x, planes)
        brute = math.inf
        for sub in planes:
            off = x - sub.base
            if d:
                off = off - sub.basis.T @ (sub.basis @ off)
            brute = min(brute, float(off @ off))
        assert abs(lhs - brute) <= 1e-12
        worst_gap = max(worst_gap, abs(lhs - rhs))
    assert worst_gap <= 1e-9


def test_criterion_04_random_projection_preserves_pairwise_distances():
    gamma = 0.5
    count = 20
    g = math.ceil(4.0 * math.log(count) / gamma ** 2)
    assert g == 48
    raw = np.random.default_rng(777).standard_normal((count, 128))
    vecs = raw / np.linalg.norm(raw, axis=1, keepdims=True)
    cloud = PointCloud.from_points(vecs)
    upper = np.triu_indices(count, 1)
    base = np.linalg.norm(vecs[:, None, :] - vecs[None, :, :], axis=2)[upper]
    wins = 0
    for seed in range(200):
        projected, scale = jl_project(cloud, g, seed)
        red = math.sqrt(scale) * np.linalg.norm(
            projected.points[:, None, :] - projected.points[None, :, :],
            axis=2)[upper]
        if np.all(np.abs(red - base) <= (gamma / 2.0) * base):
            wins += 1
    assert wins / 200.0 >= 0.4


def test_criterion_05_field_derivatives_match_finite_differences(circle_fixture):
    _, _, circle_packet = circle_fixture
    packets = (("flat", flat_packet(), 101),
               ("circle", circle_packet, 102),
               ("torus", torus_patch_packet(), 103))
    for _name, packet, seed in packets:
        probes = interior_probes(packet, 100, seed)
        assert probes.shape[0] == 100
        for z in probes:
            grad_err, hess_err = fd_errors(packet, z)
            assert grad_err < 1e-5
            assert hess_err < 1e-5


def test_criterion_06_flat_packet_recovers_plane_exactly():
    packet = flat_packet()
    rng = np.random.default_rng(6)
    seeds = np.zeros((40, 2))
    seeds[:, 0] = rng.uniform(-0.28, 0.28, 40)
    mesh = extract_putative_manifold(packet, seeds)
    assert len(mesh.charts) > 0
    assert float(np.max(np.abs(mesh.base_points[:, 1]))) < 1e-10
    exact = np.array([[0.0, 0.0], [0.0, 1.0]])
    for chart in mesh.charts:
        np.testing.assert_allclose(chart.projector_hi, exact, atol=1e-9)


def test_criterion_07_circle_packet_recovers_circle(circle_fixture):
    cloud, _, packet = circle_fixture
    start = time.monotonic()
    mesh = extract_putative_manifold(packet, cloud.points)
    mesh_cloud = PointCloud.from_points(mesh.base_points,
                                        require_unit_ball=False)
    ang = 2.0 * np.pi * np.arange(4000) / 4000
    truth = PointCloud.from_points(
        np.stack([np.cos(ang), np.sin(ang)], axis=1), require_unit_ball=False)
    gap = hausdorff_distance(mesh_cloud, truth)
    tangents = {
        i: AffineSubspace(base=mesh.base_points[i],
                          basis=mesh.charts[i].tangent_basis)
        for i in range(len(mesh.charts))
    }
    reach = federer_reach(mesh_cloud, tangents)
    elapsed = time.monotonic() - start
    assert gap <= 0.02
    assert reach.value >= 0.25
    assert elapsed < 60.0


def test_criterion_08_section_solver_tracks_noise_floor():
    data, constraints = solver_fixture(0.0)
    clean = minimize_section(data, constraints, eps_bar=1e-3)
    assert clean.certified
    assert clean.value <= 1e-6

    sigma = 0.2
    achieved = []
    for seed in range(20):
        data, constraints = solver_fixture(sigma, seed)
        with pytest.raises(BudgetExceededError) as excinfo:
            minimize_section(data, constraints, eps_bar=1e-3)
        best = excinfo.value.best
        assert best is not None
        assert constraints.is_feasible(best.y)
        achieved.append(best.value)
    mean = float(np.mean(achieved))
    assert 0.5 * sigma ** 2 <= mean <= 2.0 * sigma ** 2


def test_criterion_09_sketching_contracts_and_objective_gap():
    rng = np.random.default_rng(5)
    sites = np.sort(rng.uniform(-1.0, 1.0, 120)).reshape(-1, 1)
    truth = 0.05 + 0.1 * sites[:, 0] + 0.075 * sites[:, 0] ** 2
    targets = truth + 0.03 * rng.standard_normal(120)
    eps_bar = 0.05
    sk = sketch(sites, targets, eps_bar)
    assert sk.size == 30

    to_rep = np.abs(sites - sk.sites.T)
    assert float(to_rep.min(axis=1).max()) <= eps_bar
    sep = np.abs(sk.sites - sk.sites.T)
    np.fill_diagonal(sep, np.inf)
    assert float(sep.min()) >= eps_bar

    constraints = build_constraints(sk.sites, M=0.5, c_w=3.0)
    res = minimize_section(sk, constraints, eps_bar=1e-3)
    assert res.certified
    sketched_value = res.value

    nearest = np.argmin(to_rep, axis=1)
    pred = np.empty(120)
    for i in range(120):
        r = int(nearest[i])
        h = sites[i, 0] - sk.sites[r, 0]
        pred[i] = res.y[3 * r] + res.y[3 * r + 1] * h + 0.5 * res.y[3 * r + 2] * h * h
    full_value = float(np.mean((targets - pred) ** 2))
    scale = max(float(np.max(np.abs(targets))), 0.5)
    assert abs(sketched_value - full_value) <= 4.0 * eps_bar * scale


def test_criterion_10_partition_weights_and_patching_identity(circle_fixture):
    cloud, _, packet = circle_fixture
    mesh = extract_putative_manifold(packet, cloud.points)
    model = fit_sections(packet, mesh)
    rng = np.random.default_rng(44)
    covered = 0
    for _ in range(50):
        a = rng.uniform(0.0, 2.0 * np.pi)
        radial = 1.0 + rng.uniform(-0.3, 0.3) * packet.tau_bar
        x = radial * np.array([math.cos(a), math.sin(a)])
        idx, wts = partition_weights(packet, x, model.sections)
        covered += 1
        assert abs(float(wts.sum()) - 1.0) <= 1e-12
        assert np.all(wts >= 0.0)
        assert idx.size == wts.size
    assert covered == 50

    tb = 0.05
    lone = CylinderPacket(
        [Cylinder(rotation=np.eye(2), center=np.zeros(2), scale=tb,
                  tangent_dim=1)],
        tau=0.5, c12=1.0, C_align=10.0)
    xs = np.linspace(-0.8 * tb, 0.8 * tb, 15)
    pts = np.stack([xs, 0.05 * xs ** 2 / tb], axis=1)
    lone_model = fit_sections(lone, extract_putative_manifold(lone, pts))
    probe = np.array([0.01, 0.002])
    value = global_section(lone_model, probe)
    assert mfin_distance(lone_model, value.point) == 0.0


def test_criterion_11_end_to_end_verdicts(noisy_circle_result, ball_result):
    cloud, verdict, elapsed = noisy_circle_result
    assert verdict.case == "one"
    assert verdict.best_loss <= NOISY_CONFIG.threshold
    assert elapsed < 300.0
    report = verify_output(verdict, cloud)
    assert report.passed

    again = run_test(cloud, NOISY_CONFIG)
    assert again.case == verdict.case
    assert again.best_loss == verdict.best_loss
    assert again.certificate == verdict.certificate
    assert {"samples", "sample_complexity"} <= set(verdict.certificate)

    _, ball_verdict, ball_elapsed = ball_result
    assert ball_verdict.case == "two"
    assert ball_elapsed < 300.0


def test_case_two_candidates_keep_their_reasons_and_counts(ball_result):
    # every packet of the disc fails its section fit: a cylinder's objective
    # lower bound exceeds eps_bar. Each reason names the cylinder at which
    # the cutting plane used to stop (193: 41 cuts, best objective 0.573533;
    # 195: 48 cuts, 0.523557), with a bound at or below that best objective.
    # The work counts are pinned as computed with one kernel call per Newton
    # halving and a section front over every cylinder.
    _, verdict, _ = ball_result
    got = [{key: c[key] for key in ("reason", "seed_failures", "mesh_newton",
                                    "packet_failures")}
           for c in verdict.certificate["candidates"]]
    assert got == [
        {"reason": "InfeasibleSectionError: cylinder 193 component 0 cannot certify: "
                   "objective lower bound 0.573488 exceeds eps_bar 0.5",
         "seed_failures": {"InsufficientGapError": 2},
         "mesh_newton": {"seeds": 593, "solved": 300, "evaluations": 1332},
         "packet_failures": {"angle": 720, "rotation": 0, "offset": 0, "coverage": 184}},
        {"reason": "InfeasibleSectionError: cylinder 195 component 0 cannot certify: "
                   "objective lower bound 0.523525 exceeds eps_bar 0.5",
         "seed_failures": {"InsufficientGapError": 11, "NoConvergenceError": 22},
         "mesh_newton": {"seeds": 593, "solved": 593, "evaluations": 6429},
         "packet_failures": {"angle": 792, "rotation": 0, "offset": 0, "coverage": 199}},
    ]
    assert verdict.best_loss == math.inf and verdict.model is None


def test_the_certificate_records_its_sample_size_against_the_guarantee(ball_result):
    # circle-search's sample and config (case one) and the disc (case two)
    circle, _ = generate_synthetic("sphere", n=2, size=120, noise=0.003, radius=0.5,
                                   even=True, seed=3)
    circle_config = TestConfig(d=1, V=7.0, tau=0.3, eps=3.6e-5, delta=0.1, C=4.0,
                               packet_budget=2, seed=0)
    ball, ball_verdict, _ = ball_result
    runs = [(circle, run_test(circle, circle_config), circle_config, "one"),
            (ball, ball_verdict, BALL_CONFIG, "two")]
    for cloud, verdict, config, case in runs:
        cert = verdict.certificate
        want = sample_complexity(BoundParams(d=config.d, V=config.V, tau=config.tau,
                                             eps=config.eps, delta=config.delta, C=config.C))
        assert cert["samples"] == cloud.size and cert["sample_complexity"] == want
        assert math.isfinite(want) and want > cloud.size
        assert verdict.case == case
        json.dumps(cert, allow_nan=False)


def test_criterion_12_patched_loss_within_constant_of_optimal(noisy_circle_result):
    cloud, verdict, _ = noisy_circle_result
    # the best manifold for this sample is the unit circle itself
    norms = np.linalg.norm(cloud.points, axis=1)
    optimal_loss = float(np.sum(cloud.weights * (norms - 1.0) ** 2))
    comparison_constant = 4.0
    bound = comparison_constant * (optimal_loss + NOISY_CONFIG.eps)
    assert verdict.case == "one"
    assert verdict.best_loss <= bound


def test_criterion_13_bound_calculators_reproduce_formulas():
    for d in (1, 2, 3):
        for tau in (0.3, 0.5, 0.7):
            for eps in (0.05, 0.1, 0.2):
                params = BoundParams(d=d, V=5.0, tau=tau, eps=eps,
                                     delta=0.05, C=1.5)
                r = 2.0 * eps
                u_direct = 1.5 * 5.0 * (tau ** -d + (tau * r) ** (-d / 2.0))
                assert covering_bound(params, r) == pytest.approx(
                    u_direct, rel=1e-9)
                u_eps = 1.5 * 5.0 * (tau ** -d + (tau * eps) ** (-d / 2.0))
                s_direct = 1.5 * (
                    u_eps * eps ** -2 * math.log(max(u_eps / eps, 1.0)) ** 4
                    + eps ** -2 * math.log(1.0 / 0.05))
                assert sample_complexity(params) == pytest.approx(
                    s_direct, rel=1e-9)

    for k in (1, 4, 9):
        for l in (2, 3, 5):
            for gamma in (0.25, 0.9, 1.7):
                x = 1.3 * k * l / gamma ** 2
                direct = x * math.log(max(x, math.e)) ** 2
                assert fat_bound_maxmin(k, l, gamma, C=1.3) == pytest.approx(
                    direct, rel=1e-9)
    assert fat_bound_maxmin(3, 3, 2.5) == 0.0

    for amp in (0.5, 2.0, 5.0):
        for s in (50.0, 400.0, 3000.0):
            for eps in (0.1, 0.2, 0.4):
                profile = FatProfile(evaluator=lambda g, a=amp: a / g,
                                     support_ceiling=1.0)
                got = chaining_bound(profile, eps, s, c=1.5)
                direct = eps + 24.0 * math.sqrt(amp / (1.5 * s)) * (
                    1.0 - math.sqrt(eps / 4.0))
                assert got == pytest.approx(direct, rel=1e-9)

    params_lo = BoundParams(d=2, V=5.0, tau=0.5, eps=0.1, delta=0.05)
    assert covering_bound(params_lo, 0.05) > covering_bound(params_lo, 0.2)
    bigger_v = BoundParams(d=2, V=9.0, tau=0.5, eps=0.1, delta=0.05)
    assert covering_bound(bigger_v, 0.1) > covering_bound(params_lo, 0.1)
    tighter_eps = BoundParams(d=2, V=5.0, tau=0.5, eps=0.02, delta=0.05)
    assert sample_complexity(tighter_eps) > sample_complexity(params_lo)
    surer = BoundParams(d=2, V=5.0, tau=0.5, eps=0.1, delta=0.01)
    assert sample_complexity(surer) > sample_complexity(params_lo)
    assert fat_bound_maxmin(4, 2, 0.2) >= fat_bound_maxmin(4, 2, 0.4)
    assert fat_bound_maxmin(6, 2, 0.4) >= fat_bound_maxmin(4, 2, 0.4)
    rich = FatProfile(evaluator=lambda g: 4.0 / g, support_ceiling=1.0)
    poor = FatProfile(evaluator=lambda g: 1.0 / g, support_ceiling=1.0)
    assert chaining_bound(rich, 0.1, 100.0) > chaining_bound(poor, 0.1, 100.0)
    assert chaining_bound(poor, 0.1, 100.0) > chaining_bound(poor, 0.1, 400.0)

"""End-to-end decision pipeline: data generation, reduction, search, verdicts."""
import json
import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

import manifold_test.pipeline as pipeline
import manifold_test.whitney_sections as whitney_sections
from manifold_test.asdf_bundle import Cylinder, CylinderPacket
from manifold_test.core_geometry import PointCloud, federer_reach, greedy_net
from manifold_test.errors import (
    EmptyInputError,
    InsufficientDataError,
    InvalidParameterError,
    NoValidPacketError,
)
from manifold_test.pipeline import (
    BudgetEstimate,
    _dense_manifold_sample,
    TestConfig,
    TestVerdict,
    best_section_model,
    budget_estimate,
    generate_synthetic,
    reduce_dimension,
    run_test,
    verify_output,
)

CIRCLE_CONFIG = TestConfig(d=1, V=7.0, tau=0.5, eps=1e-4, delta=0.1,
                           packet_budget=1, seed=0)


@pytest.fixture(scope="module")
def circle_verdict():
    cloud, _ = generate_synthetic("sphere", n=2, size=150, seed=1,
                                  radius=1.0, even=True)
    return cloud, run_test(cloud, CIRCLE_CONFIG)


@pytest.fixture(scope="module")
def ball_verdict():
    cloud, _ = generate_synthetic("uniform_ball", n=2, size=200, seed=5)
    config = TestConfig(d=1, V=7.0, tau=0.3, eps=1e-4, delta=0.1,
                        packet_budget=2, seed=0)
    return cloud, run_test(cloud, config)


# ---- configuration ----

def test_config_derived_quantities():
    cfg = CIRCLE_CONFIG
    assert cfg.tau_bar == pytest.approx(0.05)
    assert cfg.threshold == pytest.approx(4e-4)
    assert cfg.cylinder_cap == 560  # ceil((4 / 0.1) * 7 / 0.5)
    cfg2 = TestConfig(d=2, V=7.0, tau=0.5, eps=1e-4, delta=0.1)
    assert cfg2.cylinder_cap == 1120
    capped = TestConfig(d=1, V=7.0, tau=0.5, eps=1e-4, delta=0.1,
                        max_cylinders=33)
    assert capped.cylinder_cap == 33


@pytest.mark.parametrize("bad", [
    dict(d=0),
    dict(tau=0.0),
    dict(tau=1.5),
    dict(V=-1.0),
    dict(eps=0.0),
    dict(C=0.0),
    dict(delta=0.0),
    dict(delta=1.0),
    dict(cbar12=0.0),
    dict(cbar12=1.0),
    dict(packet_budget=0),
    dict(eps_bar=0.0),
])
def test_config_validation(bad):
    kwargs = dict(d=1, V=7.0, tau=0.5, eps=1e-4, delta=0.1)
    kwargs.update(bad)
    with pytest.raises(InvalidParameterError):
        TestConfig(**kwargs)


# ---- synthetic data ----

def test_even_circle_samples():
    cloud, meta = generate_synthetic("sphere", n=4, size=100, seed=0,
                                     radius=0.8, even=True)
    assert cloud.points.shape == (100, 4)
    np.testing.assert_allclose(np.linalg.norm(cloud.points, axis=1), 0.8,
                               atol=1e-12)
    np.testing.assert_allclose(cloud.points[:, 2:], 0.0)
    ang = 2.0 * math.pi * np.arange(100) / 100
    np.testing.assert_allclose(cloud.points[:, 0], 0.8 * np.cos(ang), atol=1e-12)
    assert meta["kind"] == "sphere" and meta["even"] is True


def test_random_sphere_radius():
    cloud, _ = generate_synthetic("sphere", n=5, size=300, seed=2,
                                  dim=2, radius=0.7)
    np.testing.assert_allclose(np.linalg.norm(cloud.points, axis=1), 0.7,
                               atol=1e-12)
    np.testing.assert_allclose(cloud.points[:, 3:], 0.0)


def test_torus_equation():
    cloud, meta = generate_synthetic("torus", n=4, size=250, seed=3,
                                     R=0.6, r=0.25)
    x, y, z = cloud.points[:, 0], cloud.points[:, 1], cloud.points[:, 2]
    lhs = (np.sqrt(x * x + y * y) - 0.6) ** 2 + z * z
    np.testing.assert_allclose(lhs, 0.25 ** 2, atol=1e-12)
    np.testing.assert_allclose(cloud.points[:, 3], 0.0)
    assert meta["R"] == 0.6


def test_uniform_ball_inside():
    cloud, _ = generate_synthetic("uniform_ball", n=6, size=500, seed=4)
    norms = np.linalg.norm(cloud.points, axis=1)
    assert float(norms.max()) <= 1.0
    assert float(norms.min()) > 0.0


def test_kplanes_cloud_shape():
    cloud, meta = generate_synthetic("kplanes", n=5, size=120, seed=6,
                                     k=3, dim=2)
    assert cloud.points.shape == (120, 5)
    assert meta["k"] == 3 and meta["dim"] == 2


def test_generation_is_deterministic():
    a, _ = generate_synthetic("torus", n=3, size=50, seed=9, noise=0.01)
    b, _ = generate_synthetic("torus", n=3, size=50, seed=9, noise=0.01)
    np.testing.assert_array_equal(a.points, b.points)
    c, _ = generate_synthetic("torus", n=3, size=50, seed=10, noise=0.01)
    assert not np.array_equal(a.points, c.points)


def test_noise_perturbs_and_stays_in_ball():
    clean, _ = generate_synthetic("sphere", n=2, size=80, seed=1, radius=1.0)
    noisy, _ = generate_synthetic("sphere", n=2, size=80, seed=1, radius=1.0,
                                  noise=0.05)
    assert not np.array_equal(clean.points, noisy.points)
    assert float(np.linalg.norm(noisy.points, axis=1).max()) <= 1.0


@pytest.mark.parametrize("kind,kwargs", [
    ("sphere", dict(dim=4, n=4)),
    ("sphere", dict(radius=1.5)),
    ("torus", dict(R=0.9, r=0.2)),
    ("torus", dict(R=0.2, r=0.3)),
    ("torus", dict(r=-0.1)),
    ("kplanes", dict(dim=9)),
    ("kplanes", dict(k=0)),
    ("mystery", dict()),
])
def test_generation_validation(kind, kwargs):
    n = kwargs.pop("n", 5)
    with pytest.raises(InvalidParameterError):
        generate_synthetic(kind, n=n, size=10, **kwargs)
    with pytest.raises(InvalidParameterError):
        generate_synthetic("sphere", n=3, size=0)


def test_torus_needs_three_ambient_dims():
    with pytest.raises(InvalidParameterError):
        generate_synthetic("torus", n=2, size=10)


# ---- dimension reduction ----

def test_reduction_preserves_squared_norms():
    rng = np.random.default_rng(21)
    pts = rng.uniform(-0.3, 0.3, (60, 8))
    cloud = PointCloud.from_points(pts)
    net = greedy_net(cloud, 0.1)
    red = reduce_dimension(cloud, net, extra_dim=3)
    assert red.cloud.size == 60
    assert red.basis.shape[1] == 8
    np.testing.assert_allclose(red.basis @ red.basis.T,
                               np.eye(red.reduced_dim), atol=1e-12)
    total = np.sum(pts * pts, axis=1)
    reduced_sq = np.sum(red.cloud.points ** 2, axis=1)
    np.testing.assert_allclose(reduced_sq + red.perp_sq, total, atol=1e-12)
    back = red.to_ambient(red.cloud.points)
    gap_sq = np.sum((pts - back) ** 2, axis=1)
    np.testing.assert_allclose(gap_sq, red.perp_sq, atol=1e-12)


def test_reduction_finds_a_planted_plane():
    rng = np.random.default_rng(22)
    ang = rng.uniform(0, 2 * math.pi, 40)
    pts5 = np.zeros((40, 5))
    pts5[:, 0] = 0.6 * np.cos(ang)
    pts5[:, 1] = 0.6 * np.sin(ang)
    cloud = PointCloud.from_points(pts5)
    red = reduce_dimension(cloud, np.arange(40), extra_dim=5)
    assert red.span_rank == 2
    assert red.reduced_dim == 2
    np.testing.assert_allclose(red.perp_sq, 0.0, atol=1e-15)


def test_reduction_validation():
    cloud = PointCloud.from_points(np.zeros((3, 2)))
    with pytest.raises(EmptyInputError):
        reduce_dimension(cloud, np.array([], dtype=np.int64))


# ---- verdicts ----

def test_clean_circle_is_case_one(circle_verdict):
    cloud, verdict = circle_verdict
    assert verdict.case == "one"
    assert verdict.best_loss <= verdict.threshold
    assert verdict.best_loss < 1e-5
    assert verdict.samples_used == 150
    assert verdict.model is not None
    assert len(verdict.candidates) == 1
    cand = verdict.candidates[0]
    assert cand.kind == "ideal" and cand.reason is None
    assert cand.out_of_tube == 0 and cand.empty_sections == 0
    assert best_section_model(verdict) is verdict.model


def test_circle_certificate_contents(circle_verdict):
    _, verdict = circle_verdict
    cert = verdict.certificate
    json.loads(json.dumps(cert))
    for key in ("case", "best_loss", "threshold", "best_candidate",
                "candidates", "reduced_dim", "span_rank", "net_size",
                "net_size_before_cap", "tau_bar", "search", "cylinders", "mesh_points"):
        assert key in cert
    assert cert["case"] == "one"
    assert cert["best_candidate"] == 0
    assert cert["reduced_dim"] == 2 and cert["span_rank"] == 2
    assert cert["net_size"] == 150
    assert cert["tau_bar"] == pytest.approx(0.05)
    assert cert["search"] == "searched 1 of ~2^28.0 admissible packets"
    entry = cert["candidates"][0]
    for key in ("index", "kind", "loss", "reason", "packet_conditions_ok",
                "mesh_size", "empty_sections", "out_of_tube", "seed_failures",
                "section_paths", "mesh_newton", "projection_stops"):
        assert key in entry
    assert entry["packet_conditions_ok"] is True
    assert entry["mesh_size"] == cert["mesh_points"]


def test_circle_verdict_verifies(circle_verdict):
    cloud, verdict = circle_verdict
    report = verify_output(verdict, cloud)
    assert report.passed
    assert report.reach_ok and report.loss_ok and report.coefficients_ok
    assert report.reach_value >= 0.9
    assert report.flags == ()
    assert report.dense_points > 0


def test_verify_flags_a_jet_block_over_its_bound(circle_verdict):
    cloud, verdict = circle_verdict
    model = verdict.model
    bound = 2.0 * model.packet.tau_bar / model.packet.tau
    section = model.sections[0]
    # one block of norm 1.05 bound spread evenly over its q entries, the
    # section's other blocks zero: no single coefficient, and no coefficient's
    # norm across sites or components, exceeds the bound; only the block does
    coefficients = np.zeros_like(section.coefficients)
    q = coefficients.shape[2]
    coefficients[0, 0] = 1.05 * bound / math.sqrt(q)
    assert np.linalg.norm(coefficients[0, 0]) > bound
    sections = (replace(section, coefficients=coefficients),) + model.sections[1:]
    report = verify_output(replace(verdict, model=replace(model, sections=sections)),
                           cloud)
    assert not report.coefficients_ok
    assert not report.passed
    assert "a jet block exceeds its coefficient bound" in report.flags


def test_run_test_is_deterministic(circle_verdict):
    cloud, verdict = circle_verdict
    again = run_test(cloud, CIRCLE_CONFIG)
    assert again.case == verdict.case
    assert again.best_loss == verdict.best_loss
    assert again.certificate == verdict.certificate


def test_uniform_ball_is_case_two(ball_verdict):
    _, verdict = ball_verdict
    assert verdict.case == "two"
    assert verdict.best_loss == math.inf
    assert verdict.model is None
    assert verdict.certificate["best_loss"] is None
    assert verdict.certificate["best_candidate"] is None
    assert all(c.reason for c in verdict.candidates)
    json.loads(json.dumps(verdict.certificate))


def test_ball_has_no_model_to_verify(ball_verdict):
    cloud, verdict = ball_verdict
    with pytest.raises(NoValidPacketError) as excinfo:
        best_section_model(verdict)
    assert len(excinfo.value.failures) == 2
    with pytest.raises(InvalidParameterError):
        verify_output(verdict, cloud)


def test_run_test_rejects_empty_cloud():
    empty = PointCloud(points=np.zeros((0, 2)), weights=np.zeros(0))
    with pytest.raises(EmptyInputError):
        run_test(empty, CIRCLE_CONFIG)


@pytest.mark.parametrize("points", [
    np.array([[0.1, 0.2]]),
    np.tile([[0.3, -0.2]], (50, 1)),
    np.linspace(-0.9, 0.9, 40)[:, None],
    np.array([[0.1, 0.2, 0.3], [0.2, 0.4, 0.6]]),
], ids=["one-point", "duplicates", "one-dimensional", "collinear-in-R3"])
def test_run_test_rejects_a_sample_spanning_at_most_d_dimensions(points):
    with pytest.raises(InsufficientDataError,
                       match=r"spans 1 dimension\(s\); testing for d = 1 needs at least 2"):
        run_test(PointCloud.from_points(points), CIRCLE_CONFIG)


def test_certificate_counts_seed_failures_by_kind(monkeypatch):
    meshes = []
    extract = pipeline.extract_putative_manifold

    def recording_extract(*args, **kwargs):
        meshes.append(extract(*args, **kwargs))
        return meshes[-1]

    monkeypatch.setattr(pipeline, "extract_putative_manifold", recording_extract)
    cloud, _ = generate_synthetic("uniform_ball", n=2, size=200, seed=5)
    config = TestConfig(d=1, V=7.0, tau=0.3, eps=1e-4, delta=0.1,
                        packet_budget=1, seed=0)
    entry = run_test(cloud, config).certificate["candidates"][0]
    (mesh,) = meshes
    assert entry["mesh_newton"] == mesh.newton
    assert mesh.newton["seeds"] == mesh.packet.size + cloud.size
    counts = entry["seed_failures"]
    assert len(counts) >= 2
    assert list(counts) == sorted(counts)
    assert sum(counts.values()) == len(mesh.failures) > 0
    for kind, count in counts.items():
        assert count == sum(1 for _, text in mesh.failures
                            if text.startswith(kind + ":"))


def test_certificate_counts_section_fits_by_solver_path(circle_verdict, ball_verdict):
    _, verdict = circle_verdict
    paths = verdict.certificate["candidates"][0]["section_paths"]
    assert list(paths) == sorted(paths)
    assert set(paths) <= {"warm-start", "warm-start-projected", "cutting-plane"}
    fits = sum(s.codim for s in verdict.model.sections if not s.is_empty)
    assert sum(paths.values()) == fits > 0
    _, failed = ball_verdict
    assert [c["section_paths"] for c in failed.certificate["candidates"]] == [{}, {}]


def test_certificate_counts_projection_stops_by_reason(circle_verdict, ball_verdict,
                                                       monkeypatch):
    cloud, verdict = circle_verdict
    seen = []
    project = whitney_sections._project_constraints

    def spy(*args, **kwargs):
        out = project(*args, **kwargs)
        seen.append(out[1])
        return out

    monkeypatch.setattr(whitney_sections, "_project_constraints", spy)
    # the ideal packet's sections all certify from the warm start; the
    # perturbed packet's need projections
    ideal, perturbed = run_test(cloud, replace(CIRCLE_CONFIG, packet_budget=2)
                                ).certificate["candidates"]
    assert ideal == verdict.certificate["candidates"][0]
    assert ideal["projection_stops"] == {}
    stops = perturbed["projection_stops"]
    assert list(stops) == sorted(stops) and set(stops) <= {"cap", "move_tol", "target"}
    assert stops == dict(Counter(seen)) and sum(stops.values()) == len(seen) > 0
    _, failed = ball_verdict
    assert [c["projection_stops"] for c in failed.certificate["candidates"]] == [{}, {}]


def test_a_candidate_that_fails_before_extraction_has_no_counts(circle_verdict,
                                                                monkeypatch):
    cloud, _ = circle_verdict

    def failing_validation(packet):
        raise InvalidParameterError("packet rejected")

    monkeypatch.setattr(pipeline, "validate_packet", failing_validation)
    (entry,) = run_test(cloud, CIRCLE_CONFIG).certificate["candidates"]
    assert entry["reason"] == "InvalidParameterError: packet rejected"
    for key in ("seed_failures", "section_paths", "mesh_newton", "projection_stops"):
        assert entry[key] == {}


@pytest.mark.parametrize("angle", [0.3, 2.0])
def test_dense_sample_keeps_its_points_under_a_rigid_motion(angle):
    # a small noisy circle: merging in coordinate order kept 48 or 49 points
    # here, and the reach read 0.104, 0.130 or 0.083 across these rotations
    cloud, _ = generate_synthetic("sphere", n=2, size=120, seed=3, noise=0.003,
                                  radius=0.5, even=True)
    model = run_test(cloud, TestConfig(d=1, V=7.0, tau=0.3, eps=3.6e-5, delta=0.1,
                                       packet_budget=1, seed=0)).model
    q = np.array([[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]])
    packet = model.packet
    moved = CylinderPacket(
        [Cylinder(rotation=q @ c.rotation, center=q @ c.center, scale=c.scale,
                  tangent_dim=c.tangent_dim) for c in packet.cylinders],
        tau=packet.tau, c12=packet.c12, C_align=packet.C_align)
    reach = []
    samples = []
    for m in (model, replace(model, packet=moved)):
        points, tangents = _dense_manifold_sample(m, merge_fraction=2.0)
        samples.append(points)
        dense = PointCloud.from_points(points, require_unit_ball=False)
        reach.append(federer_reach(dense, dict(enumerate(tangents))).value)
    assert samples[1].shape == samples[0].shape
    np.testing.assert_allclose(samples[1], samples[0] @ q.T, rtol=0.0, atol=1e-12)
    assert reach[1] == pytest.approx(reach[0], rel=1e-9)


def test_certificate_reports_the_net_size_before_the_cap(circle_verdict):
    cloud, verdict = circle_verdict
    assert verdict.certificate["net_size_before_cap"] == verdict.certificate["net_size"]
    capped = run_test(cloud, replace(CIRCLE_CONFIG, max_cylinders=10)).certificate
    assert capped["net_size"] == 10
    assert capped["net_size_before_cap"] == verdict.certificate["net_size"] == 150


# ---- search budget ----

def test_budget_estimate_literal():
    est = budget_estimate(CIRCLE_CONFIG, 2)
    # (V / tau^d) * n * ln(1/tau) / ln 2 = 14 * 2 * ln 2 / ln 2
    assert est.log2_count == pytest.approx(28.0, abs=1e-12)
    assert est.describe(3) == "searched 3 of ~2^28.0 admissible packets"
    scaled = budget_estimate(CIRCLE_CONFIG, 4, c_budget=0.5)
    assert scaled.log2_count == pytest.approx(28.0, abs=1e-12)


def test_budget_estimate_validation():
    with pytest.raises(InvalidParameterError):
        budget_estimate(CIRCLE_CONFIG, 0)
    assert isinstance(budget_estimate(CIRCLE_CONFIG, 1), BudgetEstimate)


def test_verdict_type(circle_verdict):
    _, verdict = circle_verdict
    assert isinstance(verdict, TestVerdict)
    assert verdict.config is CIRCLE_CONFIG
    assert verdict.reduction is not None

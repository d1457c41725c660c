"""End-to-end decision pipeline: data generation, reduction, search, verdicts."""
import gc
import json
import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from test_core_geometry import reference_tangent

import manifold_test.asdf_bundle as asdf_bundle
import manifold_test.core_geometry as core_geometry
import manifold_test.pipeline as pipeline
import manifold_test.whitney_sections as whitney_sections
from manifold_test.asdf_bundle import CylinderPacket, RowOutcomes
from manifold_test.complexity_bounds import BoundParams, sample_complexity
from manifold_test.core_geometry import PointCloud, federer_reach, greedy_net
from manifold_test.errors import (
    EmptyInputError,
    InsufficientDataError,
    InvalidParameterError,
    NoValidPacketError,
    OutOfTubeError,
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


# ---- packet perturbation ----

def reference_perturb_packet(packet, rng):
    """One cylinder at a time: draw, then build its Cayley twist."""
    tb = packet.tau_bar
    center_scale = min(0.1 * packet.C_align * tb * tb / packet.tau, 0.25 * tb)
    rot_scale = 0.3 * packet.c12 * tb
    centers, rotations = [], []
    for j in range(packet.size):
        shift = rng.normal(size=packet.n)
        nrm = float(np.linalg.norm(shift))
        if nrm > 0:
            shift = shift / nrm * center_scale * rng.uniform(0.0, 1.0)
        a = rng.normal(size=(packet.n, packet.n))
        s = a - a.T
        s *= rot_scale / float(np.linalg.norm(s, 2))
        eye = np.eye(packet.n)
        rotations.append(np.linalg.solve(eye - 0.5 * s, eye + 0.5 * s) @ packet.rotations[j])
        centers.append(packet.centers[j] + shift)
    return np.stack(centers), np.stack(rotations)


def random_frames_packet(n, d, size, seed):
    rng = np.random.default_rng(seed)
    centers, rotations = [], []
    for _ in range(size):
        q, r = np.linalg.qr(rng.normal(size=(n, n)))
        q *= np.sign(np.diag(r))
        if np.linalg.det(q) < 0:
            q[:, 0] = -q[:, 0]
        rotations.append(q)
        centers.append(rng.uniform(-0.3, 0.3, n))
    return CylinderPacket(centers, rotations, 0.05, d, tau=0.5, c12=3.0, C_align=20.0)


@pytest.mark.parametrize("n, d", [(2, 1), (3, 2), (7, 2)])
def test_perturbed_packet_matches_the_per_cylinder_draws(n, d):
    packet = random_frames_packet(n, d, 30, seed=n)
    seed = pipeline._packet_seed(0, 1)
    got = pipeline._perturb_packet(packet, np.random.default_rng(seed))
    centers, rotations = reference_perturb_packet(packet, np.random.default_rng(seed))
    assert np.array_equal(got.centers, centers)
    assert np.array_equal(got.rotations, rotations)
    assert (got.c12, got.C_align, got.tau, got.tau_bar) == (3.0, 20.0, 0.5, 0.05)
    assert not np.array_equal(got.rotations, packet.rotations)


def perturb_packet_loop(packet, rng):
    """(centers, rotations) of _perturb_packet as one loop over the cylinders
    that normalises and scales each shift as it draws it, twists stacked."""
    tb, n = packet.tau_bar, packet.n
    center_scale = min(0.1 * packet.C_align * tb * tb / packet.tau, 0.25 * tb)
    shifts, gens = [], []
    for _ in range(packet.size):
        shift = rng.normal(size=n)
        nrm = float(np.linalg.norm(shift))
        if nrm > 0:
            shift = shift / nrm * center_scale * rng.uniform(0.0, 1.0)
        shifts.append(shift)
        gens.append(rng.normal(size=(n, n)))
    gens = np.stack(gens)
    s = gens - gens.transpose(0, 2, 1)
    norms = np.linalg.norm(s, 2, axis=(1, 2))
    s *= (0.3 * packet.c12 * tb / np.where(norms < 1e-300, np.inf, norms))[:, None, None]
    eye = np.eye(n)
    rotations = np.linalg.solve(eye - 0.5 * s, eye + 0.5 * s) @ packet.rotations
    return packet.centers + np.stack(shifts), rotations


@pytest.mark.parametrize("name", ["circle", "disc", "sphere", "random"])
def test_perturbed_packet_matches_the_draw_loop(name):
    import test_asdf_bundle as packets   # it imports this module: load it once both exist
    if name == "circle":
        cloud, tangents = packets.circle_cloud_and_tangents()
        packet = asdf_bundle.ideal_packet(cloud, tangents, tau=0.5, cbar12=0.1,
                                          net=greedy_net(cloud, 0.025))
    else:
        packet = getattr(packets, f"{name}_packet")()
    for seed in range(1, 6):
        got = pipeline._perturb_packet(packet, np.random.default_rng(seed))
        centers, rotations = perturb_packet_loop(packet, np.random.default_rng(seed))
        assert np.array_equal(got.centers, centers), (name, seed)
        assert np.array_equal(got.rotations, rotations), (name, seed)


# ---- net tangents: one ladder pass against the per-point ladder ----

def reference_net_tangents(cloud, net, d, tau_bar):
    """_net_tangents one point and one radius at a time: for each net index
    the ladder position that served it and its basis, or -1 and
    np.eye(d, n) when no radius serves it."""
    out = {}
    for idx in net:
        out[int(idx)] = (-1, np.eye(d, cloud.ambient_dim))
        for r, factor in enumerate(pipeline.TANGENT_RADIUS_LADDER):
            basis = reference_tangent(cloud.points, int(idx), factor * tau_bar, d)
            if basis is not None:
                out[int(idx)] = (r, basis)
                break
    return out


def served_rungs(cloud, net, d, tau_bar):
    """_net_tangents' bases, checked bit-equal to the reference, and the
    ladder position that served each net point."""
    got = pipeline._net_tangents(cloud, net, d, tau_bar)
    want = reference_net_tangents(cloud, net, d, tau_bar)
    assert list(got) == list(want)
    for idx, (_, basis) in want.items():
        assert got[idx].basis.tobytes() == basis.tobytes(), idx
        assert got[idx].base.tobytes() == cloud.points[idx].tobytes(), idx
    radii = [f * tau_bar for f in pipeline.TANGENT_RADIUS_LADDER]
    found = core_geometry._tangent_ladder(cloud.points, np.asarray(net), radii, d)[1]
    assert found.tolist() == [r for r, _ in want.values()]
    return found.tolist()


def test_net_tangents_walk_the_ladder_like_the_per_point_loop():
    # tau_bar = 0.01: the ladder's radii are 0.02, 0.04, 0.08 and 0.16
    pts = np.array([
        [0.0, 0.0], [0.03, 0.002], [-0.035, 0.001],        # 0: one point within 0.02
        [0.5, 0.5], [0.5, 0.5], [0.5, 0.5], [0.53, 0.51],   # 3: duplicates within 0.02
        [-0.5, -0.5], [-0.5, -0.5], [-0.5, -0.5],           # 7: duplicates at every radius
        [0.8, -0.3],                                         # 10: alone at every radius
        [-0.3, 0.6], [-0.29, 0.6], [-0.28, 0.605],          # 11: served at once
        [0.0, -0.6], [0.1, -0.6], [-0.1, -0.59],            # 14: served at 0.16
        [0.2, -0.2], [0.2 + 2e-13, -0.2 + 1e-13],           # 17: covariance below 1e-24
    ])
    cloud = PointCloud.from_points(pts)
    net = [0, 3, 7, 10, 11, 14, 12, 17]
    assert served_rungs(cloud, net, 1, 0.01) == [1, 1, -1, -1, 0, 3, 0, -1]
    tangents = pipeline._net_tangents(cloud, net, 1, 0.01)
    assert tangents[7].basis.tobytes() == tangents[10].basis.tobytes() == np.eye(1, 2).tobytes()


def test_net_tangents_match_the_per_point_ladder_on_the_samples():
    disc, _ = generate_synthetic("uniform_ball", n=2, size=300, seed=5)
    circle, _ = generate_synthetic("sphere", n=2, size=120, seed=3, noise=0.003,
                                   radius=0.5, even=True)
    sphere, _ = generate_synthetic("sphere", n=3, size=150, seed=7, dim=2, radius=0.5)
    rungs = []
    for cloud, d, tb in ((disc, 1, 0.03), (circle, 1, 0.03), (sphere, 2, 0.1)):
        rungs += served_rungs(cloud, greedy_net(cloud, tb / 2.0), d, tb)
    # every point of the disc, more than one block of _tangent_ladder's centers
    rungs += served_rungs(disc, np.arange(disc.size), 1, 0.01)
    assert disc.size > core_geometry._MERGE_BLOCK
    assert {0, 1} <= set(rungs)


def test_run_test_builds_no_cylinder_and_one_net_for_its_packets(monkeypatch):
    nets, packet_nets = [], []
    ideal = pipeline._ideal_packet
    monkeypatch.setattr(pipeline, "greedy_net",
                        lambda *a: nets.append(greedy_net(*a)) or nets[-1])
    monkeypatch.setattr(pipeline, "_ideal_packet",
                        lambda *a, net: packet_nets.append(net) or ideal(*a, net=net))
    cloud, _ = generate_synthetic("uniform_ball", n=2, size=200, seed=5)
    config = TestConfig(d=1, V=7.0, tau=0.3, eps=1e-4, delta=0.1, packet_budget=3, seed=0,
                        max_cylinders=40)
    verdict = run_test(cloud, config)
    assert len(verdict.candidates) == 3
    # the net of the original cloud and the net of the reduced one, capped for the packet
    assert len(nets) == 2 and len(nets[1]) > 40 and packet_nets == [nets[1][:40]]


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
                "net_size_before_cap", "tau_bar", "search", "samples", "sample_complexity",
                "cylinders", "mesh_points"):
        assert key in cert
    assert cert["case"] == "one"
    assert cert["best_candidate"] == 0
    assert cert["reduced_dim"] == 2 and cert["span_rank"] == 2
    assert cert["net_size"] == 150
    assert cert["tau_bar"] == pytest.approx(0.05)
    assert cert["search"] == "searched 1 of ~2^28.0 admissible packets"
    entry = cert["candidates"][0]
    for key in ("index", "kind", "loss", "reason", "packet_conditions_ok",
                "packet_failures", "mesh_size", "empty_sections", "out_of_tube",
                "out_of_tube_causes", "seed_failures", "section_paths", "mesh_newton",
                "projection_stops", "loss_newton"):
        assert key in entry
    assert entry["packet_conditions_ok"] is True
    assert entry["packet_failures"] == {"angle": 0, "rotation": 0, "offset": 0, "coverage": 0}
    assert entry["mesh_size"] == cert["mesh_points"]


def test_certificate_sample_complexity_only_inside_its_range(circle_verdict):
    cloud, verdict = circle_verdict
    cfg = CIRCLE_CONFIG
    assert verdict.certificate["samples"] == cloud.size == 150
    assert verdict.certificate["sample_complexity"] == sample_complexity(
        BoundParams(d=cfg.d, V=cfg.V, tau=cfg.tau, eps=cfg.eps, delta=cfg.delta, C=cfg.C))
    # the loss scale of the bound lies in (0, 1); a config past it records none
    assert pipeline._sample_complexity(replace(cfg, eps=1.5)) is None


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
    table = model.section_table
    # one block of norm 1.05 bound spread evenly over its q entries, section
    # 0's other blocks zero: no single coefficient, and no coefficient's
    # norm across sites or components, exceeds the bound; only the block does
    coefficients = table.coefficients.copy()
    coefficients[0] = 0.0
    q = coefficients.shape[3]
    coefficients[0, 0, 0] = 1.05 * bound / math.sqrt(q)
    assert np.linalg.norm(coefficients[0, 0, 0]) > bound
    over = replace(model, section_table=replace(table, coefficients=coefficients))
    report = verify_output(replace(verdict, model=over), cloud)
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
    ((mesh,),) = meshes
    assert entry["mesh_newton"] == mesh.newton
    assert mesh.newton["seeds"] == mesh.packet.size + cloud.size
    counts = entry["seed_failures"]
    assert len(counts) >= 2
    assert list(counts) == sorted(counts)
    assert sum(counts.values()) == len(mesh.failures) > 0
    for kind, count in counts.items():
        assert count == sum(1 for _, text in mesh.failures
                            if text.startswith(kind + ":"))


def test_run_test_solves_every_packets_mesh_in_one_call(monkeypatch):
    calls = []
    solve = asdf_bundle.solve_base_point

    def spy(packet, z0, *args, **kwargs):
        calls.append(packet)
        return solve(packet, z0, *args, **kwargs)

    monkeypatch.setattr(asdf_bundle, "solve_base_point", spy)
    cloud, _ = generate_synthetic("uniform_ball", n=2, size=200, seed=5)
    verdict = run_test(cloud, TestConfig(d=1, V=7.0, tau=0.3, eps=1e-4, delta=0.1,
                                         packet_budget=3, seed=0))
    assert [len(c["mesh_newton"]) for c in verdict.certificate["candidates"]] == [5, 5, 5]
    (packets,) = calls
    assert len(packets) == 3


def test_certificate_counts_section_fits_by_solver_path(circle_verdict, ball_verdict):
    _, verdict = circle_verdict
    paths = verdict.certificate["candidates"][0]["section_paths"]
    assert list(paths) == sorted(paths)
    assert set(paths) <= {"warm-start", "retracted", "cutting-plane"}
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

    # the cutting plane's harvest is the only projection a fit makes
    monkeypatch.setattr(whitney_sections, "_project_constraints", spy)
    config = replace(CIRCLE_CONFIG, packet_budget=2)
    # every section certifies in the closed-form front, so nothing projects
    ideal, perturbed = run_test(cloud, config).certificate["candidates"]
    assert ideal == verdict.certificate["candidates"][0]
    assert ideal["projection_stops"] == perturbed["projection_stops"] == {}
    assert not seen
    # at a tighter target some perturbed fits go on to the cutting plane,
    # and the certificate counts its projections
    ideal, perturbed = run_test(cloud, replace(config, eps_bar=1e-5)).certificate["candidates"]
    assert ideal["projection_stops"] == {} and "cutting-plane" in perturbed["section_paths"]
    stops = perturbed["projection_stops"]
    assert list(stops) == sorted(stops) and set(stops) <= {"cap", "move_tol", "target"}
    assert stops == dict(Counter(seen)) and sum(stops.values()) == len(seen) > 0
    _, failed = ball_verdict
    assert [c["projection_stops"] for c in failed.certificate["candidates"]] == [{}, {}]


def test_certificate_counts_the_loss_pass_newton_work(circle_verdict, ball_verdict,
                                                     monkeypatch):
    cloud, verdict = circle_verdict
    passes = []
    distance = pipeline.mfin_distance

    def recording_distance(*args, **kwargs):
        passes.append(distance(*args, **kwargs))
        return passes[-1]

    monkeypatch.setattr(pipeline, "mfin_distance", recording_distance)
    again = run_test(cloud, CIRCLE_CONFIG)
    (entry,) = verdict.certificate["candidates"]
    counts = entry["loss_newton"]
    # deterministic: a second run repeats every count exactly
    assert again.certificate["candidates"][0]["loss_newton"] == counts
    (found,) = passes
    assert counts == found.counts
    assert list(counts) == ["points", "rounds", "solved", "evaluations"]
    assert counts["points"] == len(found) == cloud.size
    # every in-tube point's base is solved again by global_section; on this
    # clean circle each point starts at its own chart, so no round is needed
    assert counts["solved"] >= counts["points"] - entry["out_of_tube"]
    assert counts["evaluations"] >= counts["solved"] and 0 <= counts["rounds"] <= 60
    assert entry["out_of_tube_causes"] == dict.fromkeys(pipeline.TUBE_CAUSES, 0)
    _, failed = ball_verdict
    assert [c["loss_newton"] for c in failed.certificate["candidates"]] == [{}, {}]
    assert [c["out_of_tube_causes"] for c in failed.certificate["candidates"]] == [{}, {}]


def test_certificate_tallies_out_of_tube_points_by_cause(circle_verdict, monkeypatch):
    cloud, verdict = circle_verdict
    texts = {
        0: "DecompositionFailedError: no convergence in 60 alternations",
        1: "DecompositionFailedError: fiber offset 0.2 exceeds 0.1",
        2: ("DecompositionFailedError: base-point update failed: "
            "NoConvergenceError: no convergence in 60 Newton steps"),
        3: "InsufficientGapError: spectral gap 0.001 below tolerance 0.01",
        4: "UncoveredPointError: every member cylinder failed the fiber solve",
    }
    distance = pipeline.mfin_distance

    def failing_distance(*args, **kwargs):
        found = distance(*args, **kwargs)
        outcomes = [OutOfTubeError(texts[i]) if i in texts else out
                    for i, out in enumerate(found)]
        return RowOutcomes(outcomes, **found.counts)

    monkeypatch.setattr(pipeline, "mfin_distance", failing_distance)
    (entry,) = run_test(cloud, CIRCLE_CONFIG).certificate["candidates"]
    assert list(entry["out_of_tube_causes"]) == list(pipeline.TUBE_CAUSES)
    assert entry["out_of_tube_causes"] == {"cap": 1, "offset": 1, "base_point": 2,
                                           "uncovered": 1}
    assert entry["out_of_tube"] == 5
    assert entry["loss"] > verdict.certificate["candidates"][0]["loss"]


def test_the_loss_pass_converges_in_few_alternation_rounds():
    # the circle-search bench sample: the plain alternation took 9 rounds on
    # the ideal packet and 44 on the perturbed one
    cloud, _ = generate_synthetic("sphere", n=2, size=120, noise=0.003, radius=0.5,
                                  even=True, seed=3)
    verdict = run_test(cloud, TestConfig(d=1, V=7.0, tau=0.3, eps=3.6e-5, delta=0.1, C=4.0,
                                         packet_budget=2, seed=0))
    ideal, perturbed = verdict.certificate["candidates"]
    assert verdict.case == "one" and ideal["out_of_tube"] == perturbed["out_of_tube"] == 0
    assert ideal["loss_newton"]["rounds"] <= 4
    assert perturbed["loss_newton"]["rounds"] <= 10


def test_a_candidate_that_fails_before_extraction_has_no_counts(circle_verdict,
                                                                monkeypatch):
    cloud, _ = circle_verdict

    def failing_validation(packet, *pairs):
        raise InvalidParameterError("packet rejected")

    monkeypatch.setattr(pipeline, "validate_packet", failing_validation)
    monkeypatch.setattr(pipeline, "_validate_packet", failing_validation)
    (entry,) = run_test(cloud, CIRCLE_CONFIG).certificate["candidates"]
    assert entry["reason"] == "InvalidParameterError: packet rejected"
    for key in ("seed_failures", "section_paths", "mesh_newton", "projection_stops",
                "loss_newton", "out_of_tube_causes"):
        assert entry[key] == {}
    assert entry["packet_failures"] is None and entry["packet_conditions_ok"] is None


def test_failed_packets_leave_no_reference_cycle(circle_verdict, monkeypatch):
    # run_test keeps a failed packet's error without its traceback and raises
    # a fresh copy: a kept error's traceback would hold run_test's frame,
    # whose locals hold the error (935 unreachable objects after these five
    # runs when it kept and raised the error itself)
    cloud, _ = circle_verdict

    def failing_validation(packet, *pairs):
        raise InvalidParameterError("packet rejected")

    monkeypatch.setattr(pipeline, "validate_packet", failing_validation)
    monkeypatch.setattr(pipeline, "_validate_packet", failing_validation)
    config = replace(CIRCLE_CONFIG, packet_budget=2)
    gc.collect()
    gc.disable()
    try:
        for _ in range(5):
            assert run_test(cloud, config).case == "two"
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_failed_candidates_keep_their_packet_failure_counts(monkeypatch):
    # the uniform-ball fixture: every packet fails its section fit, after
    # validation has found it inadmissible
    reports = []

    def recording(validate):   # the ideal packet's validation takes its pairs
        def record(*args):
            reports.append(validate(*args))
            return reports[-1]
        return record

    monkeypatch.setattr(pipeline, "validate_packet", recording(pipeline.validate_packet))
    monkeypatch.setattr(pipeline, "_validate_packet", recording(pipeline._validate_packet))
    cloud, _ = generate_synthetic("uniform_ball", n=2, size=200, seed=5)
    verdict = run_test(cloud, TestConfig(d=1, V=7.0, tau=0.3, eps=1e-4, delta=0.1,
                                         packet_budget=2, seed=0))
    assert verdict.case == "two" and len(reports) == 2
    for candidate, entry, report in zip(verdict.candidates,
                                        verdict.certificate["candidates"], reports):
        assert entry["reason"] and entry["loss"] is None
        counts = entry["packet_failures"]
        assert candidate.packet_failures == counts   # counts only, not the failure texts
        assert list(counts) == ["angle", "rotation", "offset", "coverage"]
        assert counts == report.failure_counts
        assert sum(counts.values()) == len(report.failures) > 0
        assert entry["packet_conditions_ok"] is False


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
    moved = CylinderPacket([q @ c for c in packet.centers], q @ packet.rotations,
                           packet.tau_bar, packet.d, tau=packet.tau, c12=packet.c12,
                           C_align=packet.C_align)
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
    # linear in the ambient dimension
    assert budget_estimate(CIRCLE_CONFIG, 4).log2_count == pytest.approx(56.0, abs=1e-12)


def test_budget_estimate_validation():
    with pytest.raises(InvalidParameterError):
        budget_estimate(CIRCLE_CONFIG, 0)
    assert isinstance(budget_estimate(CIRCLE_CONFIG, 1), BudgetEstimate)


def test_verdict_type(circle_verdict):
    _, verdict = circle_verdict
    assert isinstance(verdict, TestVerdict)
    assert verdict.config is CIRCLE_CONFIG
    assert verdict.reduction is not None

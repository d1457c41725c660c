"""Cylinder packets, the approximate squared-distance field, and its bundle."""
import gc
import json
import math
import tracemalloc

import numpy as np
import pytest
from test_core_geometry import reference_frame, reference_lexsort_dedup
from test_pipeline import reference_perturb_packet

import manifold_test.asdf_bundle as asdf_bundle
import manifold_test.pipeline as pipeline
from manifold_test.asdf_bundle import (
    BASE_POINT_ERRORS,
    GAP_TOL,
    BundleChart,
    CylinderPacket,
    PacketValidation,
    PutativeMesh,
    bump_profile,
    bundle_coordinates,
    check_asdf_conditions,
    extract_putative_manifold,
    ideal_packet,
    load_mesh,
    packet_from_json,
    packet_to_json,
    save_mesh,
    solve_base_point,
    validate_packet,
)
from manifold_test.core_geometry import (
    AffineSubspace,
    PointCloud,
    _ball_grid,
    federer_reach,
    greedy_net,
    lexsort_dedup,
)
from manifold_test.errors import (
    DecompositionFailedError,
    DegenerateCoverError,
    EmptyInputError,
    EmptyMeshError,
    EscapedDomainError,
    InsufficientGapError,
    InvalidParameterError,
    NoConvergenceError,
    OutOfDomainError,
)
from manifold_test.pipeline import (
    TestConfig,
    _net_tangents,
    _perturb_packet,
    generate_synthetic,
    run_test,
)

FD_STEP = 4e-6


def circle_cloud_and_tangents(size: int = 200):
    ang = 2.0 * np.pi * np.arange(size) / size
    pts = np.stack([np.cos(ang), np.sin(ang)], axis=1)
    tangents = {
        i: AffineSubspace(base=pts[i],
                          basis=np.array([[-math.sin(a), math.cos(a)]]))
        for i, a in enumerate(ang)
    }
    return PointCloud.from_points(pts), tangents


@pytest.fixture(scope="module")
def circle_packet():
    cloud, tangents = circle_cloud_and_tangents()
    packet = ideal_packet(cloud, tangents, tau=0.5, cbar12=0.1, net=greedy_net(cloud, 0.025))
    return packet, cloud, tangents


@pytest.fixture(scope="module")
def circle_mesh(circle_packet):
    packet, cloud, _ = circle_packet
    return extract_putative_manifold(packet, cloud.points)


def flat_packet(tb: float = 0.1, centers=(-0.2, -0.1, 0.0, 0.1, 0.2)):
    """Cylinders along the x-axis of R^2; the manifold is the line y = 0."""
    return CylinderPacket([[c, 0.0] for c in centers], [np.eye(2)] * len(centers), tb, 1,
                          tau=0.5, c12=1.0, C_align=10.0)


def torus_patch_packet():
    """Grid of cylinders on a patch of a small torus."""
    R, r, tau, cbar12 = 0.6, 0.15, 0.12, 0.3
    tb = cbar12 * tau
    thetas = np.linspace(-0.09, 0.09, 7)
    phis = np.linspace(-0.35, 0.35, 7)
    centers, frames = [], []
    for th in thetas:
        for ph in phis:
            center = np.array([(R + r * math.cos(ph)) * math.cos(th),
                               (R + r * math.cos(ph)) * math.sin(th),
                               r * math.sin(ph)])
            b1 = np.array([-math.sin(th), math.cos(th), 0.0])
            b2 = np.array([-math.cos(th) * math.sin(ph),
                           -math.sin(th) * math.sin(ph), math.cos(ph)])
            nrm = np.array([math.cos(th) * math.cos(ph),
                            math.sin(th) * math.cos(ph), math.sin(ph)])
            frame = np.stack([b1, b2, nrm], axis=1)
            if np.linalg.det(frame) < 0:
                frame[:, 2] = -frame[:, 2]
            centers.append(center)
            frames.append(frame)
    return CylinderPacket(centers, frames, tb, 2, tau=tau, c12=1.0, C_align=10.0)


def interior_probes(packet, count: int, seed: int, normal_scale: float = 0.3):
    """Random in-cylinder points kept clear of the bump plateau edge.

    The radial bump has a curvature jump where |tangential| crosses half a
    squared-cylinder radius; finite differences are only meaningful away
    from it.
    """
    rng = np.random.default_rng(seed)
    tb = packet.tau_bar
    d = packet.d
    guard = 50 * FD_STEP
    probes = []
    while len(probes) < count:
        j = int(rng.integers(packet.size))
        u = rng.uniform(-0.5, 0.5, packet.n)
        u[:d] *= tb
        u[d:] *= normal_scale * tb
        z = packet.rotations[j] @ u + packet.centers[j]
        _, idx, w = asdf_bundle._member_pairs(packet, z[None, :], factor=2.0)
        if idx.size == 0:
            continue
        tan = np.linalg.norm(w[:, :d], axis=1)
        if np.all(np.abs(tan - 0.5 * tb) > guard):
            probes.append(z)
    return np.stack(probes)


def fd_errors(packet, z):
    """Relative sup-norm error of analytic derivatives vs central differences:
    z and its 2n neighbours at +-FD_STEP along each axis in one field-kernel
    call, every row of which must lie in the field's domain."""
    n = z.shape[0]
    steps = FD_STEP * np.eye(n)
    value, grad, hess, _, status = asdf_bundle._asdf_terms(
        packet, np.vstack([z, z + steps, z - steps]), order=2)
    assert not status.any()
    fd_g = (value[1:n + 1] - value[n + 1:]) / (2 * FD_STEP)
    fd_h = (grad[1:n + 1] - grad[n + 1:]) / (2 * FD_STEP)
    fd_h = 0.5 * (fd_h + fd_h.T)
    grad, hess = grad[0], hess[0]
    ge = float(np.max(np.abs(grad - fd_g))) / max(float(np.max(np.abs(grad))), 1.0)
    he = float(np.max(np.abs(hess - fd_h))) / max(float(np.max(np.abs(hess))), 1.0)
    return ge, he


# ---- bump profile ----

def test_bump_plateau_and_support():
    r = np.array([0.0, 0.1, 0.25, 0.5, 0.99, 1.0, 3.0])
    vals = bump_profile(r)[0]
    assert vals[0] == 1.0 and vals[1] == 1.0 and vals[2] == 1.0
    assert 0.0 < vals[3] < 1.0
    assert vals[5] == 0.0 and vals[6] == 0.0
    grid = bump_profile(np.linspace(0.0, 1.0, 101))[0]
    assert np.all(np.diff(grid) <= 1e-15)


def test_bump_profile_derivatives_match_fd():
    # h'' jumps at the plateau edge r = 1/4, so the radii stay clear of it
    r = np.linspace(0.27, 0.97, 36)
    step = 1e-6
    h, h1, h2 = bump_profile(r)
    hp, h1p, _ = bump_profile(r + step)
    hm, h1m, _ = bump_profile(r - step)
    assert np.all(h1 < 0.0)
    np.testing.assert_allclose(h1, (hp - hm) / (2 * step), rtol=1e-6, atol=1e-8)
    np.testing.assert_allclose(h2, (h1p - h1m) / (2 * step), rtol=1e-6, atol=1e-8)


def test_bump_profile_flat_regions():
    r = np.array([0.0, 0.1, 0.25, 1.0, 1.2, 3.0])
    h, h1, h2 = bump_profile(r)
    np.testing.assert_array_equal(h, [1.0, 1.0, 1.0, 0.0, 0.0, 0.0])
    np.testing.assert_array_equal(h1, 0.0)
    np.testing.assert_array_equal(h2, 0.0)


def masked_bump_profile(radii):
    """Reference: the bump evaluated on the ramp entries only, then scattered."""
    r = np.asarray(radii, dtype=np.float64)
    h = (r <= 0.25).astype(np.float64)
    h1 = np.zeros_like(r)
    h2 = np.zeros_like(r)
    ramp = (r > 0.25) & (r < 1.0)
    if np.any(ramp):
        width = 0.75
        t = np.minimum((r[ramp] - 0.25) / width, 1.0 - 1e-9)
        one_m = 1.0 - t * t
        g = np.exp(1.0 - 1.0 / one_m)
        phi1 = -2.0 * t / one_m ** 2
        phi2 = -2.0 / one_m ** 2 - 8.0 * t * t / one_m ** 3
        h[ramp] = g
        h1[ramp] = g * phi1 / width
        h2[ramp] = g * (phi2 + phi1 * phi1) / width ** 2
    return h, h1, h2


@pytest.mark.parametrize("radii", [
    np.array([0.0, 0.25, np.nextafter(0.25, 0.0), np.nextafter(0.25, 1.0),
              np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0), 1.0, 2.0]),
    np.linspace(0.0, 1.2, 97),
    np.zeros(0),
], ids=["edges", "grid", "empty"])
def test_bump_profile_matches_the_masked_version(radii):
    for got, want in zip(bump_profile(radii), masked_bump_profile(radii)):
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


# ---- cylinders and packets ----

def test_cylinder_validation():
    """A one-cylinder packet raises each check's exact text."""
    for rotation, scale, d, text in (
            (np.array([[1.0, 0.1], [0.0, 1.0]]), 0.1, 1, "rotation is not orthogonal to 1e-10"),
            (np.diag([1.0, -1.0]), 0.1, 1, "rotation must be proper (det +1)"),
            (np.eye(2), 0.0, 1, "cylinder scale must be positive"),
            (np.eye(2), 0.1, 2, "tangent dimension 2 invalid for ambient 2")):
        with pytest.raises(InvalidParameterError) as exc:
            CylinderPacket(np.zeros((1, 2)), rotation[None], scale, d, tau=0.5, c12=1.0,
                           C_align=10.0)
        assert str(exc.value) == text


def test_packet_members_matches_contains():
    packet = flat_packet()
    zs = np.random.default_rng(8).uniform(-0.4, 0.4, (50, 2))
    for factor in (1.0, 2.0):
        pi, ki, wi = asdf_bundle._member_pairs(packet, zs, factor=factor)
        assert np.all(np.diff(pi) >= 0)   # by row
        for row, z in enumerate(zs):
            idx, w = ki[pi == row], wi[pi == row]
            # cylinder j holds z when both parts of its local coordinates are
            # within factor * tau_bar, up to the 1e-12 membership slack
            lim = factor * packet.tau_bar + 1e-12
            local = [packet.rotations[j].T @ (z - packet.centers[j]) for j in range(packet.size)]
            direct = {j for j, u in enumerate(local)
                      if np.linalg.norm(u[:1]) <= lim and np.linalg.norm(u[1:]) <= lim}
            assert set(idx.tolist()) == direct
            for j, u in zip(idx, w):
                np.testing.assert_allclose(u, local[j], atol=1e-15)
                np.testing.assert_allclose(packet.rotations[j] @ u + packet.centers[j], z,
                                           atol=1e-15)


def test_packet_json_round_trip():
    packet = torus_patch_packet()
    text = packet_to_json(packet)
    back = packet_from_json(text)
    assert back.size == packet.size
    assert back.tau == packet.tau and back.tau_bar == packet.tau_bar
    np.testing.assert_array_equal(back.centers, packet.centers)
    np.testing.assert_array_equal(back.rotations, packet.rotations)
    assert json.loads(text)["d"] == 2


def test_packet_from_json_rejects_a_center_of_the_wrong_length():
    payload = json.loads(packet_to_json(torus_patch_packet()))
    payload["cylinders"][1]["center"] = payload["cylinders"][1]["center"][:-1]
    with pytest.raises(InvalidParameterError, match="^rotation shape does not match center$"):
        packet_from_json(json.dumps(payload))
    payload["cylinders"] = []
    with pytest.raises(EmptyInputError):
        packet_from_json(json.dumps(payload))


# ---- the squared-distance field ----

def test_flat_field_is_exact():
    packet = flat_packet(tb=0.5, centers=(0.0,))
    z = np.array([[0.05, 0.2]])
    val, grad, hess, _, status = asdf_bundle._asdf_terms(packet, z, order=2)
    assert status[0] == 0
    assert val[0] == pytest.approx(0.04, abs=1e-15)
    np.testing.assert_allclose(grad[0], [0.0, 0.4], atol=1e-15)
    np.testing.assert_allclose(hess[0], [[0.0, 0.0], [0.0, 2.0]], atol=1e-15)
    assert asdf_bundle._asdf_terms(packet, z, order=0)[0][0] == pytest.approx(0.04, abs=1e-15)


def field_status(packet, z) -> int:
    """The field kernel's status of the one row z, at both orders."""
    statuses = {int(asdf_bundle._asdf_terms(packet, z[None, :], order)[4][0])
                for order in (0, 2)}
    assert len(statuses) == 1
    return statuses.pop()


def test_field_raises_outside_every_cylinder():
    status = field_status(flat_packet(), np.array([0.9, 0.9]))
    assert status == 1 and type(asdf_bundle._field_error(status)) is OutOfDomainError


def test_field_degenerate_when_all_bumps_vanish():
    packet = flat_packet(tb=0.5, centers=(0.0,))
    # exactly on the squared-cylinder rim: still a member, but zero weight
    status = field_status(packet, np.array([1.0, 0.0]))
    assert status == 2 and type(asdf_bundle._field_error(status)) is DegenerateCoverError


@pytest.mark.parametrize("builder,seed", [
    (lambda: flat_packet(), 11),
    (torus_patch_packet, 12),
])
def test_field_derivatives_match_fd(builder, seed):
    packet = builder()
    for z in interior_probes(packet, 20, seed):
        ge, he = fd_errors(packet, z)
        assert ge < 1e-5
        assert he < 1e-5


def test_circle_field_derivatives_match_fd(circle_packet):
    packet, _, _ = circle_packet
    for z in interior_probes(packet, 20, 13):
        ge, he = fd_errors(packet, z)
        assert ge < 1e-5
        assert he < 1e-5


def member_loop_field(packet, z):
    """Field value, gradient and Hessian summed one member cylinder at a time.

    Reference for the array kernel: the bump's tangential Hessian is built in
    local coordinates from the radial profile, then rotated to ambient.
    """
    d, n = packet.d, packet.n
    two_tb = 2.0 * packet.tau_bar
    a_val = b_val = 0.0
    a_grad, b_grad = np.zeros(n), np.zeros(n)
    a_hess, b_hess = np.zeros((n, n)), np.zeros((n, n))
    for k in asdf_bundle._member_pairs(packet, z[None, :], factor=2.0)[1]:
        rot = packet.rotations[k]
        w = rot.T @ (z - packet.centers[k])
        tan, nor = w[:d], w[d:]
        x = tan / two_tb
        rr = float(np.linalg.norm(x))
        h, h1, h2 = (float(v[0]) for v in bump_profile(np.array([rr])))
        if h1 == 0.0:
            tgrad_u, thess_u = np.zeros(d), np.zeros((d, d))
        else:
            unit = x / rr
            tgrad_u = h1 * unit
            thess_u = (h2 * np.outer(unit, unit)
                       + (h1 / rr) * (np.eye(d) - np.outer(unit, unit)))
        t_frame, n_frame = rot[:, :d], rot[:, d:]
        theta_grad = t_frame @ (tgrad_u / two_tb)
        theta_hess = t_frame @ (thess_u / two_tb ** 2) @ t_frame.T
        phi = float(nor @ nor)
        phi_grad = 2.0 * (n_frame @ nor)
        phi_hess = 2.0 * (n_frame @ n_frame.T)
        a_val += phi * h
        b_val += h
        a_grad += phi * theta_grad + h * phi_grad
        b_grad += theta_grad
        a_hess += (phi * theta_hess + np.outer(phi_grad, theta_grad)
                   + np.outer(theta_grad, phi_grad) + h * phi_hess)
        b_hess += theta_hess
    value = a_val / b_val
    grad = (a_grad - value * b_grad) / b_val
    hess = (a_hess - value * b_hess - np.outer(grad, b_grad)
            - np.outer(b_grad, grad)) / b_val
    return value, grad, hess


@pytest.fixture(scope="module")
def kernel_probes(circle_packet):
    packets = [flat_packet(), circle_packet[0], torus_patch_packet()]
    return [(packet, z) for seed, packet in enumerate(packets)
            for z in interior_probes(packet, 20, 30 + seed)]


def test_field_kernel_matches_member_loop(kernel_probes):
    for packet, z in kernel_probes:
        ref = member_loop_field(packet, z)
        value, grad, hess, _, status = asdf_bundle._asdf_terms(packet, z[None, :], order=2)
        assert status[0] == 0
        for got, want in zip((value[0], grad[0], hess[0]), ref):
            scale = float(np.max(np.abs(want)))
            np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12 * scale)


def test_field_value_is_the_same_for_both_orders(kernel_probes):
    for packet, z in kernel_probes:
        values = [asdf_bundle._asdf_terms(packet, z[None, :], order)[0][0] for order in (0, 2)]
        assert values[0] == values[1]


# ---- fiber projectors ----

def test_pi_hi_exact_diagonal():
    evals, top, gap = asdf_bundle._top_eigenspaces(np.diag([0.2, 2.0, 2.2])[None], codim=2)
    np.testing.assert_allclose(top[0].T @ top[0], np.diag([0.0, 1.0, 1.0]), atol=1e-12)
    assert gap[0] == pytest.approx(1.8)
    np.testing.assert_allclose(evals[0], [0.2, 2.0, 2.2])


def test_pi_hi_insufficient_gap():
    # the Newton loop ends a row whose gap is below GAP_TOL with InsufficientGapError
    gap = asdf_bundle._top_eigenspaces(np.diag([1.0, 1.1, 1.2])[None], codim=1)[2]
    assert gap[0] < GAP_TOL


# ---- base points and meshes ----

def test_solve_base_point_flat():
    packet = flat_packet()
    chart = solve_base_point(packet, np.array([0.03, 0.04]))
    np.testing.assert_allclose(chart.base_point, [0.03, 0.0], atol=1e-9)
    np.testing.assert_allclose(chart.projector_hi, [[0.0, 0.0], [0.0, 1.0]],
                               atol=1e-9)
    assert chart.residual <= 1e-10
    # tangent basis spans the kernel of the fiber projector
    np.testing.assert_allclose(np.abs(chart.tangent_basis), [[1.0, 0.0]],
                               atol=1e-9)


def test_solve_base_point_outside_domain():
    packet = flat_packet()
    with pytest.raises(OutOfDomainError):
        solve_base_point(packet, np.array([5.0, 5.0]))


def test_flat_mesh_extraction_is_exact():
    packet = flat_packet()
    rng = np.random.default_rng(3)
    xs = rng.uniform(-0.25, 0.25, 40)
    seeds = np.stack([xs, 0.05 * packet.tau_bar * rng.standard_normal(40)], axis=1)
    mesh = extract_putative_manifold(packet, seeds)
    assert not mesh.failures
    resid = np.abs(mesh.base_points[:, 1])
    assert float(resid.max()) < 1e-10
    for chart in mesh.charts:
        np.testing.assert_allclose(chart.projector_hi,
                                   [[0.0, 0.0], [0.0, 1.0]], atol=1e-9)


def test_mesh_deduplicates_identical_seeds():
    packet = flat_packet()
    seeds = np.tile(np.array([[0.02, 0.01]]), (5, 1))
    mesh = extract_putative_manifold(packet, seeds)
    assert len(mesh.charts) == 1


def assert_same_chart(a: BundleChart, b: BundleChart):
    for name in ("base_point", "projector_hi", "fiber_basis"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name
    assert a.eigenvalues == b.eigenvalues
    assert a.owning_cylinder == b.owning_cylinder
    assert a.residual == b.residual


def one_solve_per_seed(packet, seeds):
    """Reference: a solve for every seed index, then the mesh's dedup."""
    charts, failures = [], []
    for s, seed in enumerate(seeds):
        try:
            charts.append(solve_base_point(packet, seed))
        except BASE_POINT_ERRORS as exc:
            failures.append((s, f"{type(exc).__name__}: {exc}"))
    kept = lexsort_dedup(np.stack([c.base_point for c in charts]),
                         packet.tau_bar * 0.01)
    return [charts[i] for i in kept], failures


def test_equal_seeds_share_one_solve(circle_packet, monkeypatch):
    packet, cloud, _ = circle_packet
    outside = np.array([[0.5, 0.5]])
    seeds = np.vstack([cloud.points[:20], outside, cloud.points[5:15], outside,
                       cloud.points[:3], np.array([[0.9, 0.05]])])
    want_charts, want_failures = one_solve_per_seed(packet, seeds)

    calls, built = [], []
    solve, stack = asdf_bundle.solve_base_point, BundleChart._checked_stack

    def spy(packets, z0, *args, **kwargs):
        (z,) = z0   # the multi-packet form, with this packet alone
        calls.append(np.array(z))
        return solve(packets, z0, *args, **kwargs)

    monkeypatch.setattr(asdf_bundle, "solve_base_point", spy)
    monkeypatch.setattr(BundleChart, "_checked_stack",
                        classmethod(lambda cls, *fields: built.append(1) or stack(*fields)))
    mesh = extract_putative_manifold(packet, seeds)
    assert not built   # the lone call builds no BundleChart
    (rows,) = calls
    first_seen = np.vstack([cloud.points[:20], outside, np.array([[0.9, 0.05]])])
    assert rows.shape == (22, 2) and rows.tobytes() == first_seen.tobytes()
    assert mesh.newton["seeds"] == len(seeds) and mesh.newton["solved"] == 22
    assert mesh.failures == tuple(want_failures)
    assert [s for s, _ in mesh.failures] == [20, 31]
    assert mesh.failures[0][1].startswith("OutOfDomainError:")
    assert len(mesh.charts) == len(want_charts)
    for got, want in zip(mesh.charts, want_charts):
        assert_same_chart(got, want)


def unreachable_after(call, times: int = 100) -> int:
    """The objects left to the cyclic collector by `times` failing calls."""
    gc.collect()
    gc.disable()
    try:
        for _ in range(times):
            try:
                call()
            except (*BASE_POINT_ERRORS, EmptyMeshError, DecompositionFailedError):
                pass
            else:
                raise AssertionError("the call did not fail")
        return gc.collect()
    finally:
        gc.enable()


def test_failed_one_point_calls_leave_no_reference_cycle(circle_packet, circle_mesh):
    # a failed one-point call raises a fresh error: the stored one, held by
    # the frames of its traceback, would tie them into a cycle (1,400
    # unreachable objects per 100 failed solves when it was raised itself)
    packet = circle_packet[0]
    outside = np.array([5.0, 5.0])
    assert unreachable_after(lambda: solve_base_point(packet, outside)) == 0
    assert unreachable_after(lambda: extract_putative_manifold(packet, outside[None])) == 0
    assert unreachable_after(
        lambda: bundle_coordinates(packet, circle_mesh, np.array([0.05, 0.05]))) == 0


def owner_at(packet, z):
    """The member cylinder with the largest bump weight at z."""
    _, idx, w = asdf_bundle._member_pairs(packet, z[None, :], factor=2.0)
    radii = np.linalg.norm(w[:, :packet.d], axis=1) / (2.0 * packet.tau_bar)
    return int(idx[int(np.argmax(bump_profile(radii)[0]))])


def chart_from_scratch(packet, z):
    """Reference: every piece of a chart derived again at its base point."""
    _, grad, hess, _, status = asdf_bundle._asdf_terms(packet, z[None, :], order=2)
    assert status[0] == 0 and not asdf_bundle._asymmetric(hess)[0]
    evals, fiber, gap = asdf_bundle._top_eigenspaces(hess, packet.n - packet.d)
    assert gap[0] >= GAP_TOL
    fiber = fiber[0]
    return BundleChart(
        base_point=z.copy(), projector_hi=fiber.T @ fiber, fiber_basis=fiber,
        owning_cylinder=owner_at(packet, z), residual=float(np.linalg.norm(fiber @ grad[0])),
        eigenvalues=tuple(float(v) for v in evals[0]))


@pytest.mark.parametrize("perturbed", [False, True], ids=["ideal", "perturbed"])
def test_mesh_charts_equal_charts_built_from_scratch(circle_packet, circle_mesh,
                                                     perturbed):
    packet, cloud, _ = circle_packet
    mesh = circle_mesh
    if perturbed:
        packet = _perturb_packet(packet, np.random.default_rng(1))
        mesh = extract_putative_manifold(packet, np.vstack([packet.centers,
                                                            cloud.points]))
    assert len(mesh.charts) >= 150
    for chart in mesh.charts:
        assert_same_chart(chart, chart_from_scratch(packet, chart.base_point))


def test_chart_owner_is_read_at_the_base_point_not_at_the_seed(circle_packet):
    packet, _, _ = circle_packet
    rng = np.random.default_rng(4)
    ang = rng.uniform(0.0, 2.0 * np.pi, 60)
    rad = rng.uniform(0.93, 1.07, 60)
    moved = 0
    for seed in np.stack([rad * np.cos(ang), rad * np.sin(ang)], axis=1):
        chart = solve_base_point(packet, seed)
        assert_same_chart(chart, chart_from_scratch(packet, chart.base_point))
        moved += chart.owning_cylinder != owner_at(packet, seed)
    assert moved > 0


def test_mesh_rejects_overtolerance_chart():
    packet = flat_packet()
    chart = solve_base_point(packet, np.array([0.0, 0.05]))
    object.__setattr__(chart, "residual", 1e-3)
    with pytest.raises(InvalidParameterError, match="chart residual 0.001 exceeds tolerance"):
        mesh_of_charts([chart], 1e-10, packet)


# ---- the batched field kernel and Newton against the per-point references ----

def reference_asdf_terms(packet, z, order, counter=None):
    """Reference: the per-point field kernel, every member cylinder at once."""
    if counter is not None:
        counter[0] += 1
    _, idx, w = asdf_bundle._member_pairs(packet, z[None, :], factor=2.0)
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


def reference_solve(packet, z0, newton_tol=1e-10, max_steps=60, counter=None):
    """Reference: the per-point damped Newton; counter[0] counts kernel calls."""
    z = np.asarray(z0, dtype=np.float64).copy()
    codim = packet.n - packet.d
    _, grad, hess, owner = reference_asdf_terms(packet, z, 2, counter)
    for _ in range(max_steps):
        if asdf_bundle._asymmetric(hess[None])[0]:
            raise InvalidParameterError("hessian is not symmetric to 1e-9")
        evals, fiber, gap = (a[0] for a in asdf_bundle._top_eigenspaces(hess[None], codim))
        if gap < GAP_TOL:
            raise InsufficientGapError(f"spectral gap {gap:.6g} below tolerance {GAP_TOL:.6g}")
        resid = fiber @ grad
        rnorm = math.sqrt(resid @ resid)
        if rnorm <= newton_tol:
            return BundleChart(
                base_point=z.copy(), projector_hi=fiber.T @ fiber,
                fiber_basis=fiber, owning_cylinder=owner, residual=rnorm,
                eigenvalues=tuple(evals.tolist()))
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
                _, g2, h2, o2 = reference_asdf_terms(packet, cand, 2, counter)
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


def reference_outcome(packet, z0, counter=None):
    try:
        return reference_solve(packet, z0, counter=counter)
    except BASE_POINT_ERRORS as exc:
        return exc


def distinct_rows(seeds):
    return seeds[np.sort(np.unique(seeds, axis=0, return_index=True)[1])]


@pytest.fixture(scope="module")
def newton_cases(circle_packet):
    """(name, packet, distinct seed rows): the ideal and a perturbed packet of
    the circle fixture and of a 200-point disc, seeded as run_test seeds them;
    the circle's seeds also hold off-circle and out-of-domain points."""
    packet, cloud, _ = circle_packet
    rng = np.random.default_rng(8)
    ang, rad = rng.uniform(0.0, 2.0 * np.pi, 40), rng.uniform(0.9, 1.1, 40)
    extra = np.vstack([np.stack([rad * np.cos(ang), rad * np.sin(ang)], axis=1),
                       [[0.5, 0.5], [0.0, 0.0]]])
    disc, _ = generate_synthetic("uniform_ball", n=2, size=200, seed=5)
    tb = 0.1 * 0.3
    net = greedy_net(disc, tb / 2.0)
    disc_packet = ideal_packet(disc, _net_tangents(disc, net, 1, tb), tau=0.3, cbar12=0.1,
                               net=net)
    cases = []
    for name, ideal, points in (("circle", packet, np.vstack([cloud.points, extra])),
                                ("disc", disc_packet, disc.points)):
        for kind, pk in (("ideal", ideal),
                         ("perturbed", _perturb_packet(ideal, np.random.default_rng(1)))):
            cases.append((f"{name}-{kind}", pk, distinct_rows(np.vstack([pk.centers, points]))))
    return cases


def corner_probes(packet, seed):
    """Points near the corner of each squared cylinder, where both the
    tangential and the normal part are close to their limit 2 tau_bar."""
    rng = np.random.default_rng(seed)
    d, n = packet.d, packet.n
    probes = []
    for k in range(0, packet.size, 3):
        w = rng.standard_normal(n)
        w[:d] *= 0.97 * 2.0 * packet.tau_bar / np.linalg.norm(w[:d])
        w[d:] *= 0.97 * 2.0 * packet.tau_bar / np.linalg.norm(w[d:])
        probes.append(packet.rotations[k] @ w + packet.centers[k])
    return np.stack(probes)


def test_batched_field_kernel_matches_the_per_point_kernel(newton_cases):
    for name, packet, rows in newton_cases:
        points = np.vstack([rows, corner_probes(packet, 5)])
        value, grad, hess, owner, status = asdf_bundle._asdf_terms(packet, points, 2)
        assert value[status == 0].tobytes() == asdf_bundle._asdf_terms(
            packet, points, 0)[0][status == 0].tobytes()
        kinds = set()
        for i, z in enumerate(points):
            try:
                want = reference_asdf_terms(packet, z, 2)
            except (OutOfDomainError, DegenerateCoverError) as exc:
                got = asdf_bundle._field_error(int(status[i]))
                assert (type(got), str(got)) == (type(exc), str(exc)), (name, i)
                kinds.add(type(exc))
                continue
            assert status[i] == 0 and owner[i] == want[3], (name, i)
            for got, ref in zip((value[i], grad[i], hess[i]), want[:3]):
                np.testing.assert_allclose(got, ref, rtol=0.0,
                                           atol=1e-12 * float(np.max(np.abs(ref))))
        assert name.startswith("disc") or OutOfDomainError in kinds


def assert_same_outcome(got, want, exact: bool):
    assert type(got) is type(want)
    if not isinstance(want, BundleChart):
        assert str(got) == str(want)
    elif exact:
        assert_same_chart(got, want)
    else:
        np.testing.assert_allclose(got.base_point, want.base_point, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(got.projector_hi, want.projector_hi, rtol=0.0, atol=1e-12)
        assert abs(got.residual - want.residual) <= 1e-12
        assert got.owning_cylinder == want.owning_cylinder


def test_batched_newton_matches_the_per_point_newton(newton_cases):
    kinds = set()
    for name, packet, rows in newton_cases:
        outcomes = solve_base_point(packet, rows)
        assert isinstance(outcomes, tuple) and len(outcomes) == len(rows)
        for z, got in zip(rows, outcomes):
            want = reference_outcome(packet, z)
            assert_same_outcome(got, want, exact=False)
            kinds.add(type(want).__name__)
    assert {"BundleChart", "OutOfDomainError", "InsufficientGapError",
            "NoConvergenceError"} <= kinds


@pytest.mark.parametrize("case", [0, 3], ids=["circle-ideal", "disc-perturbed"])
def test_a_row_solves_alike_in_any_batch(newton_cases, case):
    _name, packet, rows = newton_cases[case]
    rows = rows[np.random.default_rng(2).permutation(len(rows))][:150]
    for z, got in zip(rows, solve_base_point(packet, rows)):
        try:
            alone = solve_base_point(packet, z)
        except BASE_POINT_ERRORS as exc:
            alone = exc
        assert_same_outcome(got, alone, exact=True)


def test_a_singular_row_fails_alone(circle_packet, monkeypatch):
    packet, cloud, _ = circle_packet
    singular = np.array([0.0, 1.05])
    rows = np.vstack([cloud.points[:8], singular, cloud.points[100:104] * 1.02])
    want = [solve_base_point(packet, z) for z in np.delete(rows, 8, axis=0)]
    terms = asdf_bundle._asdf_terms

    def with_a_singular_fiber(packet, points, order):
        out = terms(packet, points, order)
        # eigenvalues -1 and 0 keep the gap, but the fiber Hessian is 0
        out[2][(points == singular).all(1)] = np.diag([-1.0, 0.0])
        return out

    monkeypatch.setattr(asdf_bundle, "_asdf_terms", with_a_singular_fiber)
    outcomes = solve_base_point(packet, rows)
    assert type(outcomes[8]) is NoConvergenceError
    assert str(outcomes[8]) == "singular fiber Hessian in the Newton step"
    for got, alone in zip(outcomes[:8] + outcomes[9:], want):
        assert_same_chart(got, alone)


def test_an_asymmetric_hessian_ends_only_its_own_row():
    # near the bump's outer edge the Hessian's rounding asymmetry passes 1e-9
    disc, _ = generate_synthetic("uniform_ball", n=2, size=300, seed=5)
    packet = _perturb_packet(disc_packet(), np.random.default_rng(1))
    rows = distinct_rows(np.vstack([packet.centers, disc.points]))
    bad = np.array([0.3216, -0.1074])
    text = "hessian is not symmetric to 1e-9"
    with pytest.raises(InvalidParameterError, match=text):
        solve_base_point(packet, bad)
    want = solve_base_point(packet, rows)
    at = 200
    got = solve_base_point(packet, np.vstack([rows[:at], bad, rows[at:]]))
    assert type(got[at]) is InvalidParameterError and str(got[at]) == text
    kinds = set()
    for a, b in zip(got[:at] + got[at + 1:], want):
        assert_same_outcome(a, b, exact=True)
        kinds.add(type(b).__name__)
    assert "BundleChart" in kinds and len(kinds) > 2
    mesh = extract_putative_manifold(packet, np.vstack([rows, bad]))
    assert mesh.failures[-1] == (len(rows), f"InvalidParameterError: {text}")
    assert mesh.size == extract_putative_manifold(packet, rows).size


def test_mesh_counts_the_newton_work_of_the_reference_loop(newton_cases):
    _name, packet, rows = newton_cases[2]
    seeds = np.vstack([rows, rows[:30]])
    counter = [0]
    for z in rows:
        reference_outcome(packet, z, counter)
    mesh = extract_putative_manifold(packet, seeds)
    assert mesh.newton == {"seeds": len(seeds), "solved": len(rows),
                           "evaluations": counter[0], "steps": 37, "capped": 0}
    assert counter[0] > 3 * len(rows)


# ---- every packet's mesh in one stacked extraction ----

@pytest.fixture(scope="module")
def searched_packets():
    """(name, packets, seeds) that run_test hands its one stacked extraction,
    on the samples and configs of the circle-search and ball-reject
    benchmark workloads."""
    runs = (("circle-search",
             dict(kind="sphere", n=2, size=120, noise=0.003, radius=0.5, even=True, seed=3),
             TestConfig(d=1, V=7.0, tau=0.3, eps=3.6e-5, delta=0.1, packet_budget=2)),
            ("ball-reject", dict(kind="uniform_ball", n=2, size=300, seed=5),
             TestConfig(d=1, V=7.0, tau=0.3, eps=1e-4, delta=0.1, packet_budget=3)))
    cases, extract = [], pipeline.extract_putative_manifold
    with pytest.MonkeyPatch.context() as mp:
        for name, sample, config in runs:
            seen = []
            mp.setattr(pipeline, "extract_putative_manifold",
                       lambda packets, seeds, *a: seen.append((packets, seeds))
                       or extract(packets, seeds, *a))
            run_test(generate_synthetic(**sample)[0], config)
            ((packets, seeds),) = seen
            assert len(packets) == config.packet_budget
            cases.append((name, packets, seeds))
    return cases


@pytest.mark.parametrize("reverse", [False, True], ids=["in-order", "reversed"])
def test_a_stacked_extraction_equals_each_lone_extraction(searched_packets, reverse):
    for name, packets, seeds in searched_packets:
        # one more packet, whose seeds all leave the domain
        packets = [*packets, packets[0]]
        seeds = [*seeds, np.array([[3.0, 3.0], [-3.0, 0.5], [3.0, 3.0]])]
        if reverse:
            packets, seeds = packets[::-1], seeds[::-1]
        stacked = extract_putative_manifold(packets, seeds)
        assert len(stacked) == len(packets)
        empty = 0
        for packet, rows, got in zip(packets, seeds, stacked):
            try:
                want = extract_putative_manifold(packet, rows)
            except EmptyMeshError as exc:
                assert type(got) is EmptyMeshError and str(got) == str(exc), name
                empty += 1
                continue
            assert got.packet is packet and got.newton == want.newton, name
            assert got.failures == want.failures and got.size == want.size, name
            for a, b in zip(got.charts, want.charts, strict=True):
                assert_same_chart(a, b)
        assert empty == 1
        assert len(stacked.charts) == sum(m.size for m in stacked if isinstance(m, PutativeMesh))


def mesh_of_charts(charts, tolerance, packet, **kwargs):
    """The PutativeMesh of chart objects: each field stacked chart by chart."""
    fields = ("base_point", "projector_hi", "fiber_basis", "owning_cylinder", "residual",
              "eigenvalues")
    return PutativeMesh(tuple(np.array([getattr(c, f) for c in charts]) for f in fields),
                        tolerance, packet, **kwargs)


def chart_object_mesh(packet, seeds, newton_tol=1e-10, dedup_fraction=0.01):
    """Reference: the mesh built from chart objects. One lone solve of the
    distinct seed rows (in order of first appearance), each seed's chart or
    failure text, the greedy scan over the lexsorted charts' base points,
    then mesh_of_charts."""
    first: dict = {}
    slot = [first.setdefault(seed.tobytes(), len(first)) for seed in seeds]
    rows = np.array([seeds[slot.index(k)] for k in range(len(first))])
    outs = solve_base_point(packet, rows, newton_tol)
    charts = [outs[j] for j in slot if isinstance(outs[j], BundleChart)]
    failures = tuple((s, f"{type(outs[j]).__name__}: {outs[j]}") for s, j in enumerate(slot)
                     if not isinstance(outs[j], BundleChart))
    if not charts:
        return EmptyMeshError(f"no seed converged ({len(failures)} failures, "
                              f"first: {failures[0][1]})")
    kept = reference_lexsort_dedup(np.stack([c.base_point for c in charts]),
                                   packet.tau_bar * dedup_fraction)
    return mesh_of_charts([charts[i] for i in kept], newton_tol, packet, failures=failures,
                          newton={"seeds": len(seeds), "solved": len(rows), **outs.counts})


def assert_same_mesh(got, want):
    if isinstance(want, EmptyMeshError):
        assert type(got) is EmptyMeshError and str(got) == str(want)
        return
    assert got.packet is want.packet and got.tolerance == want.tolerance
    assert got.failures == want.failures and got.newton == want.newton
    for a, b in zip(got._fields, want._fields, strict=True):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_the_array_mesh_equals_the_chart_object_mesh(searched_packets):
    for name, packets, seeds in searched_packets:
        # repeated seeds, a seed outside the domain, and one more packet
        # whose seeds all leave it
        packets = [*packets, packets[0]]
        seeds = [*(np.vstack([s, s[::5], [[2.5, -2.5]], s[:3]]) for s in seeds),
                 np.array([[3.0, 3.0], [-3.0, 0.5], [3.0, 3.0]])]
        want = [chart_object_mesh(p, s) for p, s in zip(packets, seeds)]
        assert [type(w) for w in want].count(EmptyMeshError) == 1, name
        assert all(any(text.startswith("OutOfDomainError:") for _, text in w.failures)
                   for w in want[:-1]), name
        for got in (list(extract_putative_manifold(packets, seeds)),
                    [extract_putative_manifold(p, s) if isinstance(w, PutativeMesh)
                     else pytest.raises(EmptyMeshError, extract_putative_manifold, p, s).value
                     for p, s, w in zip(packets, seeds, want)]):
            for a, b in zip(got, want, strict=True):
                assert_same_mesh(a, b)


def test_member_pairs_of_a_mixed_stack_are_each_packets_lone_pairs(searched_packets):
    _name, packets, seeds = searched_packets[1]
    rng = np.random.default_rng(0)
    group = np.repeat(np.arange(len(packets)), [len(s) for s in seeds])
    order = rng.permutation(group.size)   # the packets' rows interleaved
    points, group = np.concatenate(seeds)[order], group[order]
    points[::7] += rng.normal(scale=0.02, size=points[::7].shape)
    stack = asdf_bundle._PacketStack(packets, group)
    pi, ki, w = asdf_bundle._member_pairs(stack, points)
    assert np.all(np.diff(pi) >= 0)
    terms = asdf_bundle._asdf_terms(stack, points, 2)
    for g, packet in enumerate(packets):
        mine, sel = np.flatnonzero(group == g), group[pi] == g
        lone_pi, lone_ki, lone_w = asdf_bundle._member_pairs(packet, points[mine])
        assert np.array_equal(pi[sel], mine[lone_pi])
        assert np.array_equal(ki[sel] - stack.first[g], lone_ki)
        assert w[sel].tobytes() == lone_w.tobytes()
        # the field, owners numbered within the row's packet
        for got, want in zip(terms, asdf_bundle._asdf_terms(packet, points[mine], 2)):
            assert got[mine].tobytes() == want.tobytes()


# ---- the cell-list candidate pass against the dense pass ----

def dense_member_pairs(packet, points, factor):
    """Reference: every (row, cylinder) pair, by row, then cylinder (for a
    stack, the cylinders of the row's own packet), then the exact member test."""
    size = packet.centers.shape[0]
    pi, ki = np.divmod(np.arange(points.shape[0] * size), size)
    if isinstance(packet, asdf_bundle._PacketStack):
        own = packet.group[pi] == np.searchsorted(packet.first, ki, side="right") - 1
        pi, ki = pi[own], ki[own]
    w = np.einsum("kji,kj->ki", packet.rotations[ki], points[pi] - packet.centers[ki])
    lim = factor * packet.tau_bar + 1e-12
    tan, nor = w[:, :packet.d], w[:, packet.d:]
    inside = (np.sqrt((tan * tan).sum(1)) <= lim) & (np.sqrt((nor * nor).sum(1)) <= lim)
    return pi[inside], ki[inside], w[inside]


def cell_side(tau_bar, factor):
    lim = factor * tau_bar + 1e-12
    return math.sqrt(2.0 * lim * lim * (1.0 + 1e-6) + 1e-12)


def probe_packet(rng, n, d, tau_bar, count, snap=None, radius=0.6):
    """count random cylinders in the ball of the given radius of R^n,
    centers on the grid of spacing snap when given."""
    centers = rng.normal(size=(count, n))
    centers *= radius * rng.uniform(size=(count, 1)) ** (1.0 / n) / np.linalg.norm(
        centers, axis=1)[:, None]
    if snap:
        centers = np.round(centers / snap) * snap
    rotations = proper_rotations(n, count, seed=int(rng.integers(1 << 30)))[0]
    return CylinderPacket(centers, rotations, tau_bar, d, tau=0.5, c12=1.0, C_align=10.0)


def member_probes(rng, packet, per_cylinder):
    """Points in and around each cylinder's factor-2 dilation (tangential
    and normal parts each of norm up to 2.5 tau_bar), copies of them
    snapped onto the cell edges of both factors, and far points."""
    tb, n, d = packet.tau_bar, packet.n, packet.d
    local = rng.normal(size=(packet.size, per_cylinder, n))
    for part in (slice(0, d), slice(d, n)):
        local[..., part] *= rng.uniform(0.0, 2.5 * tb, size=local.shape[:2] + (1,)) \
            / np.linalg.norm(local[..., part], axis=2, keepdims=True)
    near = (np.matmul(local, packet.rotations.transpose(0, 2, 1))
            + packet.centers[:, None, :]).reshape(-1, n)
    snapped = [np.round(near / s) * s for s in (cell_side(tb, 1.0), cell_side(tb, 2.0))]
    far = np.array([[50.0] * n, [-1e8] + [0.0] * (n - 1), [0.0] * (n - 1) + [7.0],
                    [np.nan] + [0.0] * (n - 1)])
    return np.concatenate([near, *snapped, far])


def assert_same_member_pairs(packet, points):
    for factor in (1.0, 2.0):
        got = asdf_bundle._member_pairs(packet, points, factor)
        want = dense_member_pairs(packet, points, factor)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1]), factor
        assert got[2].dtype == want[2].dtype and got[2].tobytes() == want[2].tobytes(), factor
        assert want[0].size > packet.centers.shape[0] // 4, factor   # the probes meet members


@pytest.mark.filterwarnings("error")   # a far or NaN point's cell is clamped before its cast
@pytest.mark.parametrize("n, d", [(2, 1), (3, 2), (5, 2)])
def test_member_pairs_equal_the_dense_pass(n, d):
    rng = np.random.default_rng(n)
    tb = 0.04
    # a lone packet, its centers on the factor-2 cell edges
    packet = probe_packet(rng, n, d, tb, 60, snap=cell_side(tb, 2.0))
    assert_same_member_pairs(packet, member_probes(rng, packet, 6))
    # an interleaved stack of three packets: a row meets its own packet's cylinders only
    packets = [packet, probe_packet(rng, n, d, tb, 40), probe_packet(rng, n, d, tb, 50)]
    points = [member_probes(rng, p, 4) for p in packets]
    group = np.repeat(np.arange(3), [len(p) for p in points])
    order = rng.permutation(group.size)
    stack = asdf_bundle._PacketStack(packets, group[order])
    assert_same_member_pairs(stack, np.concatenate(points)[order])
    # the cells of n <= 3 gridded coordinates
    assert asdf_bundle._cell_lists(tuple(packets), cell_side(tb, 2.0))[0] == min(n, 3)


def test_member_pairs_at_a_tiny_scale_keep_their_keys_in_int64():
    # sides of about 1e-6 over centers spread across the unit ball: three
    # gridded coordinates of two packets would need keys past 2^63
    rng = np.random.default_rng(4)
    tb = 1e-9
    packets = [probe_packet(rng, 3, 1, tb, 300, radius=1.0),
               probe_packet(rng, 3, 1, tb, 200, radius=1.0)]
    spread = np.ptp(np.concatenate([p.centers for p in packets]), axis=0)
    assert 2 * np.prod(spread / cell_side(tb, 2.0)) > 2.0 ** 63
    points = [member_probes(rng, p, 3) for p in packets]
    group = np.repeat(np.arange(2), [len(p) for p in points])
    stack = asdf_bundle._PacketStack(packets, group)
    assert_same_member_pairs(stack, np.concatenate(points))
    assert asdf_bundle._cell_lists(tuple(packets), cell_side(tb, 2.0))[0] < 3
    for packet, mine in zip(packets, points):
        assert_same_member_pairs(packet, mine)


def test_member_pairs_hold_no_dense_array():
    # 4,096 points against 3,000 cylinders: the dense (points, cylinders)
    # array alone would take 98 MB
    rng = np.random.default_rng(9)
    packet = probe_packet(rng, 2, 1, 0.01, 3000)
    points = rng.uniform(-0.7, 0.7, size=(4096, 2))
    asdf_bundle._cell_lists.cache_clear()   # the index is built inside the measurement
    tracemalloc.start()
    try:
        pi, _, _ = asdf_bundle._member_pairs(packet, points)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert pi.size > 1000 and peak < 8 * 2 ** 20


# ---- the stacked halving ladder against the halving loop ----

def reference_newton(packet, z0, newton_tol=1e-10, max_steps=60):
    """Reference: the masked Newton with one field-kernel call per halving,
    and its counts: field evaluations, steps of the slowest row, capped rows."""
    codim = packet.n - packet.d
    z = z0.copy()
    _, grad, hess, owner, status = asdf_bundle._asdf_terms(packet, z, order=2)
    evaluations, steps = z.shape[0], 0
    outcomes = [asdf_bundle._field_error(s) if s else None for s in status]
    converged: dict = {}
    active = np.nonzero(status == 0)[0]
    for _ in range(max_steps):
        if not active.size:
            break
        h = hess[active]
        evals, fiber, gap = asdf_bundle._top_eigenspaces(h, codim)
        resid = np.matmul(fiber, grad[active][:, :, None])
        rnorm = np.sqrt((resid * resid).sum((1, 2)))
        narrow = gap < asdf_bundle.GAP_TOL
        for i in np.nonzero(narrow)[0]:
            outcomes[active[i]] = InsufficientGapError(
                f"spectral gap {gap[i]:.6g} below tolerance {asdf_bundle.GAP_TOL:.6g}")
        for i in np.nonzero(~narrow & (rnorm <= newton_tol))[0]:
            r, fib = active[i], fiber[i].copy()
            converged[r] = dict(
                base_point=z[r].copy(), projector_hi=fib.T @ fib, fiber_basis=fib,
                owning_cylinder=int(owner[r]), residual=float(rnorm[i]),
                eigenvalues=tuple(evals[i].tolist()))
        going = ~narrow & (rnorm > newton_tol)
        active, h, fiber, resid, rnorm = (a[going] for a in (active, h, fiber, resid, rnorm))
        if not active.size:
            break
        hf = np.matmul(np.matmul(fiber, h), fiber.transpose(0, 2, 1))
        delta, singular = asdf_bundle._solve_rows(hf, -resid[:, :, 0])
        if singular.any():
            for r in active[singular]:
                outcomes[r] = NoConvergenceError("singular fiber Hessian in the Newton step")
            active, fiber, rnorm, delta = (a[~singular] for a in (active, fiber, rnorm, delta))
        step = np.matmul(fiber.transpose(0, 2, 1), delta[:, :, None])[:, :, 0]
        steps += bool(active.size)
        lam = np.ones(active.size)
        exits = np.zeros(active.size, dtype=np.int64)
        pending = np.arange(active.size)
        for _halving in range(21):
            rows = active[pending]
            cand = z[rows] + lam[pending, None] * step[pending]
            _, g2, h2, o2, s2 = asdf_bundle._asdf_terms(packet, cand, order=2)
            evaluations += rows.size
            exits[pending] += s2 != 0
            r2 = np.matmul(fiber[pending], g2[:, :, None])
            taken = (s2 == 0) & (np.sqrt((r2 * r2).sum((1, 2))) < rnorm[pending])
            won = rows[taken]
            z[won], grad[won], hess[won], owner[won] = cand[taken], g2[taken], h2[taken], o2[taken]
            pending = pending[~taken]
            if not pending.size:
                break
            lam[pending] *= 0.5
        for i in pending:
            outcomes[active[i]] = (
                EscapedDomainError("every damped step left the packet domain")
                if exits[i] == 21 else NoConvergenceError(
                    f"residual {rnorm[i]:.3g} would not decrease after 20 halvings"))
        if pending.size:
            active = np.delete(active, pending)
    for r in active:
        outcomes[r] = NoConvergenceError(f"no convergence in {max_steps} Newton steps")
    for r, fields in converged.items():
        outcomes[r] = BundleChart(**fields)
    return outcomes, {"evaluations": evaluations, "steps": steps, "capped": len(active)}


def fenced_kernel(kernel):
    """The field kernel with every point of positive first coordinate
    outside the domain: a seed on the fence whose steps point out of it
    leaves the domain at every trial."""
    def fenced(packet, points, order):
        value, grad, hess, owner, status = kernel(packet, points, order)
        status = np.where(points[:, 0] > 0.0, np.int8(1), status)
        return value, grad, hess, owner, status
    return fenced


@pytest.fixture(scope="module")
def ladder_cases():
    """(name, packet, seed rows, max_steps) on the 300-point disc: its ideal
    and a perturbed packet seeded as run_test seeds them, the same with a
    4-step limit, and with the seeds moved onto the fence of fenced_kernel."""
    ideal = disc_packet()
    disc, _ = generate_synthetic("uniform_ball", n=2, size=300, seed=5)
    cases = []
    for kind, packet in (("ideal", ideal),
                         ("perturbed", _perturb_packet(ideal, np.random.default_rng(1)))):
        rows = distinct_rows(np.vstack([packet.centers, disc.points]))
        fence = rows.copy()
        fence[:, 0] = np.minimum(fence[:, 0], 0.0)
        cases += [(kind, packet, rows, 60), (f"{kind}-4-steps", packet, rows, 4),
                  (f"{kind}-fenced", packet, fence, 60)]
    return cases


def test_stacked_halvings_match_the_halving_loop(ladder_cases, monkeypatch):
    texts = set()
    kernel = asdf_bundle._asdf_terms
    for name, packet, rows, steps in ladder_cases:
        if name.endswith("fenced"):
            monkeypatch.setattr(asdf_bundle, "_asdf_terms", fenced_kernel(kernel))
        monkeypatch.setattr(asdf_bundle, "NEWTON_STEPS", steps)
        got = solve_base_point(packet, rows)
        want, counts = reference_newton(packet, rows, max_steps=steps)
        monkeypatch.undo()
        assert got.counts == counts, name
        for i, (a, b) in enumerate(zip(got, want, strict=True)):
            assert type(a) is type(b), (name, i)
            if isinstance(b, BundleChart):
                assert_same_chart(a, b)
            else:
                assert str(a) == str(b), (name, i)
                texts.add(f"{type(b).__name__}: {str(b)[:9]}")
    assert {"InsufficientGapError: spectral ", "NoConvergenceError: residual ",
            "NoConvergenceError: no conver", "EscapedDomainError: every dam",
            "OutOfDomainError: point lie"} <= texts


def test_the_trial_stack_is_split_into_bounded_calls(ladder_cases, monkeypatch):
    _name, packet, rows, _steps = ladder_cases[3]
    whole = solve_base_point(packet, rows)
    sizes = []
    kernel = asdf_bundle._asdf_terms

    def spy(packet, points, order):
        sizes.append(len(points))
        return kernel(packet, points, order)

    monkeypatch.setattr(asdf_bundle, "_asdf_terms", spy)
    monkeypatch.setattr(asdf_bundle, "_TRIAL_CHUNK", 45)
    split = solve_base_point(packet, rows)
    # past the seeds' own evaluation, no call holds more than 45 trial
    # points: 45 full steps, or the 20 halvings of two rows
    assert split.counts == whole.counts
    assert max(sizes[1:]) <= 45 and sizes.count(40) > 2
    for a, b in zip(split, whole, strict=True):
        assert type(a) is type(b)
        if isinstance(b, BundleChart):
            assert_same_chart(a, b)
        else:
            assert str(a) == str(b)


def test_circle_mesh_stays_on_the_circle(circle_mesh):
    radial = np.abs(np.linalg.norm(circle_mesh.base_points, axis=1) - 1.0)
    assert float(radial.max()) < 2e-3
    assert len(circle_mesh.charts) >= 150


def test_circle_mesh_reach(circle_mesh):
    pts = circle_mesh.base_points
    tangents = {
        i: AffineSubspace(base=pts[i], basis=chart.tangent_basis)
        for i, chart in enumerate(circle_mesh.charts)
    }
    cloud = PointCloud.from_points(pts, require_unit_ball=False)
    est = federer_reach(cloud, tangents)
    assert est.value >= 0.25


# ---- bundle coordinates ----

def test_bundle_coordinates_round_trip(circle_packet, circle_mesh):
    packet, _, _ = circle_packet
    z = np.array([1.02, 0.015])
    dec = bundle_coordinates(packet, circle_mesh, z)
    np.testing.assert_allclose(dec.base_point + dec.v, z, atol=1e-8)
    assert float(np.linalg.norm(dec.v)) <= 2.0 * packet.tau_bar
    assert dec.x.shape == (1,)
    # the offset is a fiber vector of the chart
    p = dec.chart.projector_hi
    np.testing.assert_allclose(p @ dec.v, dec.v, atol=1e-8)


def test_bundle_coordinates_rejects_large_offset(circle_packet, circle_mesh):
    packet, _, _ = circle_packet
    with pytest.raises(DecompositionFailedError):
        bundle_coordinates(packet, circle_mesh, np.array([1.15, 0.0]))


def test_bundle_coordinates_context_type(circle_packet, circle_mesh):
    packet, _, _ = circle_packet
    with pytest.raises(InvalidParameterError):
        bundle_coordinates(packet, "mesh", np.array([1.0, 0.0]))
    # a chart's own base point, over the one-row mesh of that chart
    chart = circle_mesh.charts[0]
    dec = bundle_coordinates(packet, mesh_of_charts([chart], circle_mesh.tolerance, packet),
                             chart.base_point)
    assert float(np.linalg.norm(dec.v)) <= 1e-10


# ---- packet validation and conditions ----

def test_ideal_circle_packet_satisfies_conditions(circle_packet):
    packet, _, _ = circle_packet
    report = validate_packet(packet)
    assert report.all_ok, report.failures
    assert report.worst_opnorm <= packet.c12 * packet.tau_bar
    assert report.worst_coverage_gap <= packet.tau_bar


def misaligned_packet():
    """Two neighbouring cylinders whose tangents differ by 60 degrees."""
    tb = 0.05
    theta = math.pi / 3.0
    rot = np.array([[math.cos(theta), -math.sin(theta)],
                    [math.sin(theta), math.cos(theta)]])
    return CylinderPacket([[0.0, 0.0], [tb, 0.0]], [np.eye(2), rot], tb, 1, tau=0.5, c12=1.0,
                          C_align=10.0)


def test_validate_packet_flags_misalignment():
    report = validate_packet(misaligned_packet())
    assert not report.all_ok
    assert not report.condition2_ok
    assert report.failures


# ---- the pair kernel against the per-pair loops it replaced ----

def reference_neighbor_indices(packet, i):
    lim = 4.0 * math.sqrt(2.0) * packet.tau_bar
    dist = np.linalg.norm(packet.centers - packet.centers[i], axis=1)
    nbrs = np.nonzero(dist <= lim)[0]
    return nbrs[nbrs != i]


def reference_alignment_stats(packet, i, j):
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


def reference_validate_packet(packet, spacing_fraction=0.05, angle_limit=1.0):
    tb = packet.tau_bar
    bound2 = packet.c12 * tb
    bound3 = packet.C_align * tb * tb / packet.tau
    h = tb * spacing_fraction
    grid = _ball_grid(np.arange(-3.0 * tb, 3.0 * tb + h / 2.0, h), packet.d, 3.0 * tb)
    worst_angle = worst_op = worst_tr = worst_gap = 0.0
    failures = []
    counts = dict.fromkeys(("angle", "rotation", "offset", "coverage"), 0)
    for i in range(packet.size):
        offsets = [np.zeros(packet.d)]
        for j in reference_neighbor_indices(packet, i):
            opnorm, tr_norm, tan_off = reference_alignment_stats(packet, i, int(j))
            theta = 2.0 * math.asin(min(opnorm / 2.0, 1.0))
            worst_angle = max(worst_angle, theta)
            worst_op = max(worst_op, opnorm)
            worst_tr = max(worst_tr, tr_norm)
            if theta > angle_limit:
                counts["angle"] += 1
                failures.append(f"cyl {i} nbr {j}: principal angle {theta:.4f}")
            if opnorm > bound2:
                counts["rotation"] += 1
                failures.append(f"cyl {i} nbr {j}: ||Id-U|| {opnorm:.4g} > {bound2:.4g}")
            if tr_norm > bound3:
                counts["offset"] += 1
                failures.append(f"cyl {i} nbr {j}: |Tr(0)| {tr_norm:.4g} > {bound3:.4g}")
            offsets.append(tan_off)
        centers = np.stack(offsets)
        d2 = (np.sum(grid * grid, axis=1)[:, None] - 2.0 * grid @ centers.T
              + np.sum(centers * centers, axis=1)[None, :])
        np.maximum(d2, 0.0, out=d2)
        gap = float(np.sqrt(d2.min(axis=1)).max())
        worst_gap = max(worst_gap, gap)
        if gap > tb + 1e-12:
            counts["coverage"] += 1
            failures.append(f"cyl {i}: coverage gap {gap:.4g} > tau_bar {tb:.4g}")
    return PacketValidation(
        condition1_ok=counts["angle"] == 0, condition2_ok=counts["rotation"] == 0,
        condition3_ok=counts["offset"] == 0, condition4_ok=counts["coverage"] == 0,
        worst_angle=worst_angle, worst_opnorm=worst_op, worst_normal_offset=worst_tr,
        worst_coverage_gap=worst_gap, failures=tuple(failures), failure_counts=counts)


def reference_constants(packet):
    """ideal_packet's measured (c12, C_align), one pair at a time."""
    worst_op = worst_tr = 0.0
    for i in range(packet.size):
        for j in reference_neighbor_indices(packet, i):
            opnorm, tr_norm, _ = reference_alignment_stats(packet, i, int(j))
            worst_op = max(worst_op, opnorm)
            worst_tr = max(worst_tr, tr_norm)
    tb = packet.tau_bar
    return (max(worst_op * 1.25 / tb, 1.0),
            max(worst_tr * 1.25 * packet.tau / tb ** 2, 10.0))


def disc_packet():
    """The ideal packet of a ball-reject-like 300-point disc."""
    disc, _ = generate_synthetic("uniform_ball", n=2, size=300, seed=5)
    tb = 0.1 * 0.3
    net = greedy_net(disc, tb / 2.0)
    return ideal_packet(disc, _net_tangents(disc, net, 1, tb), tau=0.3, cbar12=0.1, net=net)


def sphere_packet():
    """The ideal packet of a 2-sphere of radius 0.5 in R^3, as in sphere-d2."""
    sphere, _ = generate_synthetic("sphere", n=3, size=150, seed=7, dim=2, radius=0.5)
    tb = 0.25 * 0.4
    net = greedy_net(sphere, tb / 2.0)
    return ideal_packet(sphere, _net_tangents(sphere, net, 2, tb), tau=0.4, cbar12=0.25,
                        net=net)


def random_packet():
    """Random 2-planes in R^5: three normal directions, so the normal offset
    is a dot product of length 3."""
    rng = np.random.default_rng(11)
    centers, rotations = [], []
    for _ in range(40):
        q, r = np.linalg.qr(rng.normal(size=(5, 5)))
        q *= np.sign(np.diag(r))
        if np.linalg.det(q) < 0:
            q[:, 0] = -q[:, 0]
        rotations.append(q)
        centers.append(rng.uniform(-0.2, 0.2, 5))
    return CylinderPacket(centers, rotations, 0.05, 2, tau=0.5, c12=1.0, C_align=10.0)


def validate_as(packet, spacing_fraction=None, angle_limit=None):
    """validate_packet with COVERAGE_SPACING and ANGLE_LIMIT set to the
    reference's spacing_fraction and angle_limit, where given."""
    with pytest.MonkeyPatch.context() as mp:
        for name, value in (("COVERAGE_SPACING", spacing_fraction),
                            ("ANGLE_LIMIT", angle_limit)):
            if value is not None:
                mp.setattr(asdf_bundle, name, value)
        return validate_packet(packet)


@pytest.fixture(scope="module")
def kernel_cases(circle_packet):
    """(name, packet, validate_as keyword arguments)."""
    packet = circle_packet[0]
    single = CylinderPacket(packet.centers[:1], packet.rotations[:1], packet.tau_bar, packet.d,
                            tau=0.5, c12=1.0, C_align=10.0)
    return [
        ("circle-ideal", packet, {}),
        ("circle-perturbed", _perturb_packet(packet, np.random.default_rng(1)), {}),
        ("disc", disc_packet(), {}),
        # a coarser grid keeps the d = 2 coverage check short
        ("sphere", sphere_packet(), {"spacing_fraction": 0.1}),
        ("single", single, {}),
        ("misaligned", misaligned_packet(), {}),
        ("random", random_packet(), {"angle_limit": 0.5}),
    ]


def test_pair_kernel_matches_the_per_pair_stats(kernel_cases):
    for name, packet, _ in kernel_cases:
        i, j, opnorm, normal, tangential = asdf_bundle._packet_pairs(packet)
        pairs = [(a, int(b)) for a in range(packet.size)
                 for b in reference_neighbor_indices(packet, a)]
        assert list(zip(i.tolist(), j.tolist())) == pairs, name
        for p, (a, b) in enumerate(pairs):
            op, nor, tan = reference_alignment_stats(packet, a, b)
            assert (opnorm[p], normal[p]) == (op, nor), (name, a, b)
            assert np.array_equal(tangential[p], tan), (name, a, b)


def test_validate_packet_matches_the_per_pair_loop(kernel_cases):
    seen = {}
    for name, packet, kwargs in kernel_cases:
        got = validate_as(packet, **kwargs)
        want = reference_validate_packet(packet, **kwargs)
        assert got == want, name
        assert got.failures == want.failures, name   # element for element
        seen[name] = got
    assert len(seen["disc"].failures) > 900
    assert sum(seen["sphere"].failure_counts.values()) > 0
    assert seen["random"].failure_counts["offset"] > 0
    assert seen["circle-perturbed"].failure_counts["rotation"] > 0
    single = seen["single"]   # no neighbours: margins 0, coverage from the zero offset
    tb = kernel_cases[0][1].tau_bar
    assert (single.worst_angle, single.worst_opnorm, single.worst_normal_offset) == (0, 0, 0)
    assert single.worst_coverage_gap > 2.9 * tb
    assert single.failures == (f"cyl 0: coverage gap {single.worst_coverage_gap:.4g} "
                               f"> tau_bar {tb:.4g}",)
    assert single.failure_counts == {"angle": 0, "rotation": 0, "offset": 0, "coverage": 1}


def test_validate_packet_formats_its_failure_texts_when_read(kernel_cases):
    (packet, kwargs), = [(p, k) for name, p, k in kernel_cases if name == "disc"]
    got = validate_as(packet, **kwargs)
    # the count needs no text; the texts are formatted at the first read
    assert len(got.failures) == sum(got.failure_counts.values()) > 900
    assert "texts" not in vars(got.failures)
    want = reference_validate_packet(packet, **kwargs).failures
    assert tuple(got.failures) == want and vars(got.failures)["texts"] == want


def test_ideal_packet_constants_match_the_per_pair_loop(kernel_cases):
    built = {name: packet for name, packet, _ in kernel_cases
             if name in ("circle-ideal", "disc", "sphere")}
    assert len(built) == 3
    for name, packet in built.items():
        assert (packet.c12, packet.C_align) == reference_constants(packet), name
        assert packet.c12 > 1.0 or packet.C_align > 10.0, name   # measured, not a floor


def test_ideal_packet_centers_form_a_net(circle_packet):
    packet, _, _ = circle_packet
    c = packet.centers
    dist = np.linalg.norm(c[:, None, :] - c[None, :, :], axis=2)
    np.fill_diagonal(dist, np.inf)
    assert float(dist.min()) >= packet.tau_bar / 2.0 - 1e-12


def test_ideal_packet_needs_tangents_for_net_points():
    cloud, tangents = circle_cloud_and_tangents(50)
    partial = {i: t for i, t in tangents.items() if i % 2 == 1}
    with pytest.raises(InvalidParameterError):
        ideal_packet(cloud, partial, tau=0.5, cbar12=0.1, net=greedy_net(cloud, 0.025))


def test_ideal_packet_respects_cylinder_cap():
    # run_test caps its net; the packet has exactly the capped net's centers
    cloud, tangents = circle_cloud_and_tangents(60)
    net = greedy_net(cloud, 0.025)[:10]
    packet = ideal_packet(cloud, tangents, tau=0.5, cbar12=0.1, net=net)
    assert packet.size == 10
    assert packet.centers.tobytes() == cloud.points[net].tobytes()


# ---- packets built from stacked arrays ----

def proper_rotations(n, count, seed):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        q, r = np.linalg.qr(rng.normal(size=(n, n)))
        q *= np.sign(np.diag(r))
        if np.linalg.det(q) < 0:
            q[:, 0] = -q[:, 0]
        out.append(q)
    return np.stack(out), rng.uniform(-0.3, 0.3, (count, n))


def cylinder_error(rotation, center, scale, tangent_dim):
    """The text a packet of this cylinder alone raises, or None."""
    try:
        CylinderPacket(center[None], rotation[None], scale, tangent_dim, tau=0.5, c12=1.0,
                       C_align=10.0)
    except InvalidParameterError as exc:
        return str(exc)
    return None


def test_a_packet_from_arrays_rejects_its_first_bad_cylinder_as_cylinder_does():
    rotations, centers = proper_rotations(3, 6, seed=2)
    skewed = rotations.copy()
    skewed[:, 0, 0] += 1e-3
    flipped = -rotations   # det -1 in odd dimension, still orthogonal
    cases = []
    for first, later in ((skewed, flipped), (flipped, skewed)):
        rot = rotations.copy()
        rot[2], rot[4] = first[2], later[4]
        cases.append((rot, centers, 0.05, 1))
    cases += [(rotations[:, :2, :2], centers, 0.05, 1),   # shapes that do not match
              (rotations, centers, 0.0, 1), (rotations, centers, 0.05, 3)]
    texts = []
    for rot, cen, scale, dim in cases:
        with pytest.raises(InvalidParameterError) as exc:
            CylinderPacket(cen, rot, scale, dim, tau=0.5, c12=1.0, C_align=10.0)
        errors = [cylinder_error(r, c, scale, dim) for r, c in zip(rot, cen)]
        assert str(exc.value) == next(e for e in errors if e is not None)
        texts.append(str(exc.value))
    assert texts == ["rotation is not orthogonal to 1e-10", "rotation must be proper (det +1)",
                     "rotation shape does not match center", "cylinder scale must be positive",
                     "tangent dimension 3 invalid for ambient 3"]


@pytest.mark.parametrize("n, d", [(2, 1), (3, 2), (7, 3)])
def test_a_packet_from_arrays_equals_the_packet_of_its_cylinders(n, d):
    """The packet stores its cylinders' arrays bit for bit, as read-only
    copies."""
    rotations, centers = proper_rotations(n, 12, seed=n)
    got = CylinderPacket(list(centers), list(rotations), 0.05, d, tau=0.5, c12=2.0,
                         C_align=12.0)
    for name, want in (("centers", centers), ("rotations", rotations)):
        stored = getattr(got, name)
        assert stored.dtype == want.dtype and stored.shape == want.shape, name
        assert stored.tobytes() == want.tobytes(), name
        assert not stored.flags.writeable and stored.flags.c_contiguous, name
    stacked = CylinderPacket(centers, rotations, 0.05, d, tau=0.5, c12=2.0, C_align=12.0)
    assert centers.flags.writeable and rotations.flags.writeable   # copied, not frozen
    assert stacked.centers is not centers and stacked.rotations is not rotations
    assert (got.tau, got.tau_bar, got.c12, got.C_align, got.d, got.n, got.size) == (
        0.5, 0.05, 2.0, 12.0, d, n, 12)
    with pytest.raises(InvalidParameterError, match="too far outside the unit ball"):
        CylinderPacket(centers * 10.0, rotations, 0.05, d, tau=0.5, c12=2.0, C_align=12.0)
    with pytest.raises(EmptyInputError):
        CylinderPacket(centers[:0], rotations[:0], 0.05, d, tau=0.5, c12=2.0, C_align=12.0)


def reference_ideal_packet(cloud, tangents, tau, cbar12):
    """ideal_packet one cylinder at a time: a greedy net, then a frame and
    a center per net point, constants from the per-pair loop."""
    tb = cbar12 * tau
    net = greedy_net(cloud, tb / 2.0)
    rotations = [reference_frame(tangents[idx].basis) for idx in net]
    centers = [cloud.points[idx].copy() for idx in net]
    d = tangents[net[0]].dim
    packet = CylinderPacket(centers, rotations, tb, d, tau=tau, c12=1.0, C_align=10.0)
    c12, C_align = reference_constants(packet)
    return CylinderPacket(centers, rotations, tb, d, tau=tau, c12=c12, C_align=C_align)


def assert_same_packet(got, want):
    for name in ("centers", "rotations"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
    assert ((got.tau, got.tau_bar, got.c12, got.C_align, got.d, got.n)
            == (want.tau, want.tau_bar, want.c12, want.C_align, want.d, want.n))


@pytest.mark.parametrize("n, d", [(2, 1), (3, 2), (7, 1)])
def test_ideal_and_perturbed_packets_equal_the_per_cylinder_builds(n, d):
    if n == 2:
        cloud, _ = generate_synthetic("uniform_ball", n=2, size=300, seed=5)
    else:
        cloud, _ = generate_synthetic("sphere", n=n, size=150, seed=7, dim=d,
                                      radius=0.5, noise=0.01)
    tau, cbar12 = (0.3, 0.1) if d == 1 else (0.4, 0.25)
    tb = tau * cbar12
    net = greedy_net(cloud, tb / 2.0)
    tangents = _net_tangents(cloud, net, d, tb)
    want = reference_ideal_packet(cloud, tangents, tau, cbar12)
    got = ideal_packet(cloud, tangents, tau=tau, cbar12=cbar12, net=net)
    assert_same_packet(got, want)
    assert got.c12 > 1.0 or got.C_align > 10.0   # measured, not a floor
    perturbed = _perturb_packet(got, np.random.default_rng(1))
    centers, rotations = reference_perturb_packet(want, np.random.default_rng(1))
    assert perturbed.centers.tobytes() == centers.tobytes()
    assert perturbed.rotations.tobytes() == rotations.tobytes()
    assert (perturbed.c12, perturbed.C_align) == (want.c12, want.C_align)


def test_the_coverage_pass_does_not_depend_on_its_chunks(kernel_cases, monkeypatch):
    for chunk in (1, 1 << 30):
        monkeypatch.setattr(asdf_bundle, "_COVERAGE_CHUNK", chunk)
        for name, packet, kwargs in kernel_cases:
            if name != "sphere":   # slow against the reference; "random" has d = 2
                assert validate_as(packet, **kwargs) == reference_validate_packet(
                    packet, **kwargs), (chunk, name)


def test_a_coverage_chunk_holds_at_most_its_bound(kernel_cases, monkeypatch):
    cases = {name: (packet, kwargs) for name, packet, kwargs in kernel_cases}
    stride, matmul = asdf_bundle._COVERAGE_STRIDE, np.matmul
    for name in ("disc", "sphere"):
        packet, kwargs = cases[name]
        width = int(np.bincount(asdf_bundle._packet_pairs(packet)[0]).max()) + 1
        tb = packet.tau_bar
        h = tb * kwargs.get("spacing_fraction", 0.05)
        grid = _ball_grid(np.arange(-3.0 * tb, 3.0 * tb + h / 2.0, h), packet.d, 3.0 * tb)
        for chunk in (1 << 10, 1 << 17):
            calls = []

            def spy(a, b, *args, **kw):
                out = matmul(a, b, *args, **kw)
                if out.ndim == 3 and out.shape[2] == width:   # grid rows against offsets
                    calls.append((a.ndim, out.shape))
                return out

            monkeypatch.setattr(asdf_bundle, "_COVERAGE_CHUNK", chunk)
            monkeypatch.setattr(np, "matmul", spy)
            validate_as(packet, **kwargs)
            monkeypatch.setattr(np, "matmul", matmul)
            # the cells' representatives against chunks of cylinders, then
            # cells (rows padded to stride^d) against their cylinder's offsets
            coarse = [shape for ndim, shape in calls if ndim == 2]
            fine = [shape for ndim, shape in calls if ndim == 3]
            reps = coarse[0][1]
            assert sum(shape[0] for shape in coarse) == packet.size, (name, chunk)
            assert all(shape[1] == reps for shape in coarse) and reps < grid.shape[0]
            assert fine and all(shape[1] == stride ** packet.d for shape in fine)
            sizes = [math.prod(shape) for _, shape in calls]
            assert max(sizes) <= max(chunk, reps * width, stride ** packet.d * width)
            assert len(coarse) > 1 or chunk > 1 << 10
            # the fine pass measures a part of the dense pass's grid
            assert sum(sizes) < packet.size * grid.shape[0] * width / 2, (name, chunk)


@pytest.mark.parametrize("setting", ["chunk-1", "sphere-default-spacing", "ragged-axis",
                                     "single"])
def test_the_coverage_pass_at_its_edges(kernel_cases, monkeypatch, setting):
    cases = [(name, packet, kwargs) for name, packet, kwargs in kernel_cases
             if setting != "single" or name == "single"]
    if setting == "chunk-1":   # one cylinder, and one cell, at a time
        monkeypatch.setattr(asdf_bundle, "_COVERAGE_CHUNK", 1)
    elif setting == "sphere-default-spacing":   # sphere-d2's grid
        cases = [(name, packet, {}) for name, packet, _ in cases if name == "sphere"]
        tb = cases[0][1].tau_bar
        axis = np.arange(-3.0 * tb, 3.0 * tb + tb / 40.0, tb / 20.0)
        assert _ball_grid(axis, 2, 3.0 * tb).shape[0] == 11289
    elif setting == "ragged-axis":   # the last cell along each axis holds two steps
        cases = [(name, packet, {**kwargs, "spacing_fraction": 0.07})
                 for name, packet, kwargs in cases if name != "sphere"]
        tb = cases[0][1].tau_bar
        axis = np.arange(-3.0 * tb, 3.0 * tb + 0.035 * tb, 0.07 * tb)
        assert axis.size % asdf_bundle._COVERAGE_STRIDE == 2
    for name, packet, kwargs in cases:
        got = validate_as(packet, **kwargs)
        want = reference_validate_packet(packet, **kwargs)
        assert got == want, (setting, name)
        assert got.failures == want.failures, (setting, name)
    if setting == "single":   # the zero offset alone: the gap is 3 tau_bar, the grid's far end
        tb = packet.tau_bar
        far = float(np.arange(-3.0 * tb, 3.0 * tb + tb / 40.0, tb / 20.0)[-1])
        assert got.worst_coverage_gap == far and abs(far - 3.0 * tb) < 1e-15


def test_the_coverage_cells_are_built_once_per_scale(kernel_cases):
    packets = [packet for name, packet, _ in kernel_cases
               if name in ("circle-ideal", "circle-perturbed", "single")]
    assert len({(p.tau_bar, p.d) for p in packets}) == 1
    asdf_bundle._coverage_cells.cache_clear()
    found = [validate_packet(p) for p in packets]
    info = asdf_bundle._coverage_cells.cache_info()
    assert (info.misses, info.hits) == (1, 2)
    cells = asdf_bundle._coverage_cells(packets[0].tau_bar, packets[0].d,
                                        asdf_bundle.COVERAGE_SPACING)
    assert not any(a.flags.writeable for a in cells)
    # cells built afresh for each packet give the same validations
    for p, want in zip(packets, found):
        asdf_bundle._coverage_cells.cache_clear()
        assert validate_packet(p) == want


def test_the_ideal_packet_validates_on_the_pairs_it_measured(monkeypatch):
    circle, circle_tangents = circle_cloud_and_tangents()
    disc, _ = generate_synthetic("uniform_ball", n=2, size=300, seed=5)
    disc_net = greedy_net(disc, 0.015)
    builds = {"circle": (circle, circle_tangents, 0.5, greedy_net(circle, 0.025)),
              "disc": (disc, _net_tangents(disc, disc_net, 1, 0.03), 0.3, disc_net)}
    for name, (cloud, tangents, tau, net) in builds.items():
        packet, pairs = asdf_bundle._ideal_packet(cloud, tangents, tau, 0.1, net=net)
        assert_same_packet(packet, ideal_packet(cloud, tangents, tau, 0.1, net=net))
        got, want = asdf_bundle._validate_packet(packet, pairs), validate_packet(packet)
        assert got == want, name   # field for field
        assert tuple(got.failures) == tuple(want.failures), name
    # run_test validates its ideal packet on the pairs, with validate_packet's counts
    seen, check = [], pipeline._validate_packet
    monkeypatch.setattr(pipeline, "_validate_packet",
                        lambda packet, pairs: seen.append((packet, check(packet, pairs)))
                        or seen[-1][1])
    verdict = run_test(disc, TestConfig(d=1, V=7.0, tau=0.3, eps=1e-4, delta=0.1,
                                        packet_budget=2, seed=0))
    (packet, got), = seen
    want = validate_packet(packet)
    assert got == want and tuple(got.failures) == tuple(want.failures)
    assert verdict.candidates[0].packet_failures == want.failure_counts
    assert sum(want.failure_counts.values()) > 0


def test_check_asdf_conditions_on_circle(circle_packet):
    packet, cloud, tangents = circle_packet
    pick = list(range(0, 200, 25))
    sub = PointCloud.from_points(cloud.points[pick])
    sub_tan = {new: tangents[old] for new, old in enumerate(pick)}
    report = check_asdf_conditions(packet, sub, sub_tan)
    assert report.passed, report.violations
    assert 0.8 <= report.c1_empirical <= 1.0
    assert 1.0 <= report.C1_empirical <= 1.3
    assert report.evaluated > 0


# ---- mesh persistence ----

def test_mesh_save_load_round_trip(circle_packet, circle_mesh, tmp_path):
    packet, _, _ = circle_packet
    csv_path = str(tmp_path / "mesh.csv")
    sidecar = str(tmp_path / "mesh.json")
    save_mesh(circle_mesh, csv_path, sidecar)
    back = load_mesh(packet, csv_path, sidecar)
    assert len(back.charts) == len(circle_mesh.charts)
    np.testing.assert_allclose(back.base_points, circle_mesh.base_points,
                               atol=1e-15)
    for a, b in zip(back.charts, circle_mesh.charts):
        np.testing.assert_allclose(a.projector_hi, b.projector_hi, atol=1e-8)
    # the six field arrays, re-derived at the stored base points, bit for bit
    for a, b in zip(back._fields, circle_mesh._fields, strict=True):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    assert back.tolerance == circle_mesh.tolerance and back.packet is packet


def test_save_mesh_writes_the_sidecar_of_the_mesh_charts(circle_mesh, tmp_path):
    save_mesh(circle_mesh, str(tmp_path / "mesh.csv"), str(tmp_path / "mesh.json"))
    payload = {"tolerance": circle_mesh.tolerance, "charts": [
        {"base": c.base_point.tolist(), "projector": c.projector_hi.ravel().tolist(),
         "owning_cylinder": c.owning_cylinder, "residual": c.residual}
        for c in circle_mesh.charts]}
    with open(tmp_path / "charts.json", "w") as fh:
        json.dump(payload, fh, sort_keys=True)
    assert (tmp_path / "mesh.json").read_bytes() == (tmp_path / "charts.json").read_bytes()


def test_load_mesh_rejects_projector_mismatch(circle_packet, circle_mesh, tmp_path):
    packet, _, _ = circle_packet
    csv_path = str(tmp_path / "mesh.csv")
    sidecar = str(tmp_path / "mesh.json")
    save_mesh(circle_mesh, csv_path, sidecar)
    with open(sidecar) as fh:
        payload = json.load(fh)
    payload["charts"][0]["projector"] = (np.eye(2) - np.asarray(
        payload["charts"][0]["projector"]).reshape(2, 2)).ravel().tolist()
    with open(sidecar, "w") as fh:
        json.dump(payload, fh)
    with pytest.raises(InvalidParameterError):
        load_mesh(packet, csv_path, sidecar)


def test_load_mesh_raises_the_error_of_a_failed_row(circle_packet, circle_mesh, tmp_path):
    packet, _, _ = circle_packet
    csv_path = str(tmp_path / "mesh.csv")
    sidecar = str(tmp_path / "mesh.json")
    save_mesh(circle_mesh, csv_path, sidecar)
    points = np.loadtxt(csv_path, delimiter=",", ndmin=2)
    points[3] = [3.0, 3.0]   # outside every cylinder
    np.savetxt(csv_path, points, delimiter=",", fmt="%.17g")
    with pytest.raises(OutOfDomainError, match="point lies outside every squared cylinder"):
        load_mesh(packet, csv_path, sidecar)


def test_a_chart_built_from_outside_checks_its_projector():
    fib = np.array([[0.0, 1.0]])
    fields = dict(base_point=np.zeros(2), projector_hi=fib.T @ fib, fiber_basis=fib,
                  owning_cylinder=0, residual=0.0, eigenvalues=(0.0, 1.0))
    BundleChart(**fields)
    for projector, text in ((np.array([[0.0, 1.0], [0.0, 1.0]]), "symmetric"),
                            (np.diag([0.0, 2.0]), "idempotent"), (np.eye(2), "trace")):
        with pytest.raises(InvalidParameterError, match=text):
            BundleChart(**{**fields, "projector_hi": projector})


def test_a_mesh_checks_its_projectors_at_construction(monkeypatch):
    packet = flat_packet()
    mesh = extract_putative_manifold(packet, np.array([[0.0, 0.05]]))
    for projector, text in ((np.array([[0.0, 1.0], [0.0, 1.0]]), "projector is not symmetric"),
                            (np.diag([0.0, 2.0]), "projector is not idempotent"),
                            (np.eye(2), "projector trace does not match the codimension")):
        fields = (mesh.base_points, projector[None], *mesh._fields[2:])
        with pytest.raises(InvalidParameterError, match=text):
            PutativeMesh(fields, mesh.tolerance, packet)
    # an extraction checks each mesh's kept rows once
    shapes = []
    check = asdf_bundle._check_projectors
    monkeypatch.setattr(asdf_bundle, "_check_projectors",
                        lambda p, codim: shapes.append(p.shape) or check(p, codim))
    meshes = extract_putative_manifold([packet, packet], [np.array([[0.0, 0.05]] * 2),
                                                          np.array([[0.1, 0.0], [-0.1, 0.02]])])
    assert shapes == [(1, 2, 2), (2, 2, 2)] and [m.size for m in meshes] == [1, 2]


def test_a_stacked_solve_checks_its_projectors_once(circle_packet, circle_mesh, monkeypatch):
    packet, cloud, _ = circle_packet
    shapes = []
    check = asdf_bundle._check_projectors

    def spy(p, codim):
        shapes.append(p.shape)
        return check(p, codim)

    monkeypatch.setattr(asdf_bundle, "_check_projectors", spy)
    charts = [out for out in solve_base_point(packet, cloud.points[:40])
              if isinstance(out, BundleChart)]
    assert len(charts) > 1 and shapes == [(len(charts), 2, 2)]
    for chart in charts:
        np.testing.assert_array_equal(chart.projector_hi, chart.fiber_basis.T @ chart.fiber_basis)
    # a mesh rebuilds all of its charts with one check too
    shapes.clear()
    assert len(circle_mesh.charts) == circle_mesh.size and shapes == [(circle_mesh.size, 2, 2)]

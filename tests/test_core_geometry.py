"""Point clouds, nets, tangent estimation, and the reach estimator."""
import math

import numpy as np
import pytest

import manifold_test.core_geometry as core_geometry
from manifold_test.core_geometry import (
    AffineSubspace,
    PointCloud,
    _sign_fix_rows,
    dist_to_affine,
    estimate_tangent,
    federer_reach,
    frame_from_tangent,
    greedy_merge,
    greedy_net,
    hausdorff_distance,
    lexsort_dedup,
    load_csv,
    load_mnfd,
    orthonormal_completion,
    residuals_to_subspace,
    save_csv,
    save_mnfd,
)
from manifold_test.errors import (
    DegenerateNeighborhoodError,
    EmptyInputError,
    InsufficientDataError,
    InvalidParameterError,
    UnderdeterminedTangentError,
)


def unit_circle(size: int, radius: float = 1.0):
    """Evenly spaced circle points with their exact tangent lines."""
    ang = 2.0 * np.pi * np.arange(size) / size
    pts = radius * np.stack([np.cos(ang), np.sin(ang)], axis=1)
    tangents = {
        i: AffineSubspace(base=pts[i],
                          basis=np.array([[-math.sin(a), math.cos(a)]]))
        for i, a in enumerate(ang)
    }
    return pts, tangents


# ---- PointCloud ----

def test_from_points_defaults_to_uniform_weights():
    cloud = PointCloud.from_points(np.zeros((4, 2)))
    assert cloud.size == 4
    assert cloud.ambient_dim == 2
    np.testing.assert_allclose(cloud.weights, 0.25)


def test_weights_must_sum_to_one():
    with pytest.raises(InvalidParameterError):
        PointCloud(points=np.zeros((2, 2)), weights=np.array([0.6, 0.6]))


def test_negative_weights_rejected():
    with pytest.raises(InvalidParameterError):
        PointCloud(points=np.zeros((2, 2)), weights=np.array([1.5, -0.5]))


def test_unit_ball_enforcement():
    far = np.array([[1.1, 0.0]])
    with pytest.raises(InvalidParameterError):
        PointCloud.from_points(far)
    cloud = PointCloud.from_points(far, require_unit_ball=False)
    assert cloud.size == 1


def test_empty_cloud_is_representable():
    cloud = PointCloud.from_points(np.zeros((0, 3)))
    assert cloud.size == 0
    with pytest.raises(EmptyInputError):
        greedy_net(cloud, 0.1)


# ---- affine subspaces ----

def test_affine_subspace_requires_orthonormal_basis():
    with pytest.raises(InvalidParameterError):
        AffineSubspace(base=np.zeros(2), basis=np.array([[1.0, 1.0]]))


def test_nearest_to_origin_on_a_line():
    # horizontal line through (1, 1): closest point to the origin is (0, 1)
    sub = AffineSubspace(base=np.array([1.0, 1.0]), basis=np.array([[1.0, 0.0]]))
    np.testing.assert_allclose(sub.nearest_to_origin(), [0.0, 1.0], atol=1e-15)


def test_dist_to_affine_hand_value():
    sub = AffineSubspace(base=np.zeros(2), basis=np.array([[1.0, 0.0]]))
    assert dist_to_affine(np.array([3.0, 4.0]), sub) == pytest.approx(4.0)


def test_residuals_to_subspace_removes_tangential_part():
    sub = AffineSubspace(base=np.array([1.0, 0.0, 0.0]),
                         basis=np.array([[0.0, 1.0, 0.0]]))
    pts = np.array([[2.0, 5.0, 3.0]])
    np.testing.assert_allclose(residuals_to_subspace(pts, sub),
                               [[1.0, 0.0, 3.0]], atol=1e-15)


def test_point_subspace_residual_is_full_offset():
    sub = AffineSubspace(base=np.array([1.0, 2.0]), basis=np.zeros((0, 2)))
    np.testing.assert_allclose(residuals_to_subspace(np.array([[4.0, 6.0]]), sub),
                               [[3.0, 4.0]])
    assert dist_to_affine(np.array([4.0, 6.0]), sub) == pytest.approx(5.0)


# ---- greedy nets ----

def _check_net(points: np.ndarray, indices, r: float):
    net = points[indices]
    # packing: selected points are pairwise >= r apart
    for a in range(len(indices)):
        for b in range(a + 1, len(indices)):
            assert np.linalg.norm(net[a] - net[b]) >= r
    # covering: every point is within < r of some selected point
    d = np.linalg.norm(points[:, None, :] - net[None, :, :], axis=2)
    assert float(d.min(axis=1).max()) < r


def test_greedy_net_cover_and_packing_random():
    rng = np.random.default_rng(42)
    for trial in range(10):
        n = int(rng.integers(1, 9))
        size = int(rng.integers(2, 400))
        pts = rng.uniform(-1.0, 1.0, (size, n)) / math.sqrt(n)
        cloud = PointCloud.from_points(pts, require_unit_ball=False)
        dists = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
        positive = dists[dists > 0]
        if positive.size == 0:
            continue
        for q in (0.05, 0.25, 0.5, 0.75, 0.95):
            r = float(np.quantile(positive, q))
            if r <= 0:
                continue
            _check_net(pts, greedy_net(cloud, r), r)


def test_greedy_net_starts_at_index_zero():
    pts = np.array([[0.0, 0.0], [0.5, 0.0], [0.0, 0.9]])
    cloud = PointCloud.from_points(pts)
    assert greedy_net(cloud, 10.0) == [0]
    assert greedy_net(cloud, 0.4) == [0, 1, 2]


def test_greedy_net_rejects_bad_radius():
    cloud = PointCloud.from_points(np.zeros((2, 2)))
    with pytest.raises(InvalidParameterError):
        greedy_net(cloud, 0.0)


def reference_greedy_merge(points, r):
    """Reference: the point-by-point scan, one norm row per kept point."""
    points = np.asarray(points, dtype=np.float64)
    kept = [0]
    dmin = np.linalg.norm(points - points[0], axis=1)
    for i in range(1, points.shape[0]):
        if dmin[i] >= r:
            kept.append(i)
            np.minimum(dmin, np.linalg.norm(points - points[i], axis=1), out=dmin)
    return kept


def merge_cases():
    """(points, radii): random clouds in 1 to 12 dimensions (7 and 8 on
    either side of the length from which numpy sums a norm's squares
    pairwise), clouds with duplicate rows, and integer grids whose
    distances equal r exactly."""
    rng = np.random.default_rng(17)
    cases = []
    for n, size in ((1, 50), (2, 700), (3, 300), (7, 200), (8, 200), (9, 260), (12, 90)):
        pts = rng.uniform(-1.0, 1.0, (size, n))
        dists = np.linalg.norm(pts[:, None] - pts[None], axis=2)
        cases.append((pts, [float(np.quantile(dists[dists > 0], q)) for q in (0.01, 0.1, 0.5)]))
    for n in (8, 12):
        # r is the norm of the second point from the first, which a left to
        # right sum of its squares rounds below r
        pts = rng.uniform(-1.0, 1.0, (400, n))
        sq = np.zeros(len(pts))
        for k in range(n):
            sq += (pts[:, k] - pts[0, k]) ** 2
        first = np.flatnonzero(np.sqrt(sq) < np.linalg.norm(pts - pts[0], axis=1))[0]
        pts[[1, first]] = pts[[first, 1]]
        cases.append((pts, [float(np.linalg.norm(pts[1] - pts[0]))]))
    base = rng.uniform(-1.0, 1.0, (60, 3))
    cases.append((base[rng.integers(0, 60, 400)], [1e-12, 0.05, 0.3]))
    grid = np.stack(np.meshgrid(np.arange(12.0), np.arange(12.0)), axis=-1).reshape(-1, 2)
    cases.append((grid[rng.permutation(len(grid))], [1.0, 2.0, 5.0, math.sqrt(2.0)]))
    cases.append((np.vstack([grid, grid[::-1]]), [1.0, 3.0]))
    return cases


@pytest.mark.parametrize("block", [256, 7])
def test_greedy_merge_matches_the_point_by_point_scan(block, monkeypatch):
    monkeypatch.setattr(core_geometry, "_MERGE_BLOCK", block)
    for pts, radii in merge_cases():
        for r in radii + [0.0]:
            assert greedy_merge(pts, r) == reference_greedy_merge(pts, r), (pts.shape, r)
        assert greedy_merge(pts, 0.0) == list(range(len(pts)))


def test_greedy_merge_keeps_ties_at_exactly_r():
    pts = np.array([[0.0, 0.0], [3.0, 4.0], [1.0, 1.0], [6.0, 8.0], [3.0, 4.0]])
    assert greedy_merge(pts, 5.0) == [0, 1, 3]
    assert greedy_merge(pts, 5.0 + 1e-12) == [0, 3]
    assert greedy_merge(pts, 0.0) == [0, 1, 2, 3, 4]
    assert greedy_merge(pts[:1], 1.0) == [0]


def test_greedy_merge_holds_at_most_a_block_of_distances(monkeypatch):
    pts = np.random.default_rng(4).uniform(-1.0, 1.0, (3200, 2))
    largest = [0]
    row_distances = core_geometry._row_distances

    def spy(a, b):
        out = row_distances(a, b)
        largest[0] = max(largest[0], out.size)
        return out

    monkeypatch.setattr(core_geometry, "_row_distances", spy)
    kept = greedy_merge(pts, 0.01)
    assert kept == reference_greedy_merge(pts, 0.01) and len(kept) > 2000
    assert 0 < largest[0] <= core_geometry._MERGE_BLOCK ** 2 < 3200 * 3200


def test_lexsort_dedup_keeps_points_in_sorted_order():
    pts = np.array([[2.0, 0.0], [0.0, 1.5], [0.0, 0.0], [0.25, 0.0]])
    # visited as 2, 1, 3, 0; point 3 lies 0.25 from point 2
    assert lexsort_dedup(pts, 0.5) == [2, 1, 0]
    assert lexsort_dedup(pts, 0.25) == [2, 1, 3, 0]
    assert lexsort_dedup(pts, 0.0) == [2, 1, 3, 0]
    assert lexsort_dedup(np.zeros((3, 2)), 1e-9) == [0]


def test_lexsort_dedup_matches_the_plain_merge_loop():
    rng = np.random.default_rng(3)
    pts = np.round(rng.uniform(-1.0, 1.0, (300, 3)), 1)  # ties in every column
    for radius in (0.05, 0.2, 0.5):
        kept: list[int] = []
        for pos in np.lexsort(pts.T[::-1]):
            if kept and np.min(np.linalg.norm(pts[kept] - pts[pos], axis=1)) < radius:
                continue
            kept.append(int(pos))
        assert lexsort_dedup(pts, radius) == kept


# ---- tangent estimation ----

def test_estimate_tangent_recovers_a_line():
    t = np.linspace(-0.5, 0.5, 21)
    pts = np.stack([t, np.zeros_like(t)], axis=1)
    cloud = PointCloud.from_points(pts)
    sub = estimate_tangent(cloud, 10, radius=0.3, d=1)
    assert abs(float(sub.basis[0] @ np.array([1.0, 0.0]))) == pytest.approx(1.0)
    np.testing.assert_allclose(sub.base, pts[10])


def test_estimate_tangent_needs_enough_neighbors():
    pts = np.array([[0.0, 0.0], [0.9, 0.0]])
    cloud = PointCloud.from_points(pts)
    with pytest.raises(UnderdeterminedTangentError):
        estimate_tangent(cloud, 0, radius=0.1, d=1)


def test_estimate_tangent_parameter_checks():
    cloud = PointCloud.from_points(np.zeros((3, 2)))
    with pytest.raises(InvalidParameterError):
        estimate_tangent(cloud, 5, radius=0.1, d=1)
    with pytest.raises(InvalidParameterError):
        estimate_tangent(cloud, 0, radius=0.1, d=3)


# ---- the stacked tangent ladder and frames against the per-point code ----

def reference_tangent(points, index, radius, d):
    """The per-point estimate: one norm row, one covariance and one eigh;
    None for fewer than d+1 neighbours or a zero covariance."""
    center = points[index]
    nb = points[np.linalg.norm(points - center, axis=1) <= radius]
    if nb.shape[0] < d + 1:
        return None
    centered = nb - nb.mean(axis=0)
    cov = centered.T @ centered / nb.shape[0]
    if float(np.max(np.abs(cov))) < 1e-24:
        return None
    return _sign_fix_rows(np.linalg.eigh(cov)[1][:, ::-1][:, :d].T)


def reference_frame(basis):
    """frame_from_tangent of one basis: a completion, a determinant, a flip."""
    frame = np.vstack([basis, orthonormal_completion(basis, basis.shape[1])]).T
    if np.linalg.det(frame) < 0:
        frame = frame.copy()
        frame[:, -1] = -frame[:, -1]
    return frame


def tangent_clouds():
    """(points, d): noisy curves and surfaces in 2, 3, 7, 8 and 10 dimensions;
    the rows of 8 or more coordinates take _row_distances' norm branch."""
    rng = np.random.default_rng(4)
    out = []
    for n, d, size in ((2, 1, 300), (3, 2, 200), (7, 1, 120), (8, 2, 150), (10, 3, 150)):
        core = rng.normal(size=(size, d + 1))
        core = 0.5 * core / np.linalg.norm(core, axis=1, keepdims=True)
        pts = np.zeros((size, n))
        pts[:, :d + 1] = core
        out.append((pts + rng.normal(0.0, 0.01, pts.shape), d))
    return out


def test_estimate_tangent_is_bit_equal_to_the_per_point_estimate():
    served = failed = 0
    for pts, d in tangent_clouds():
        cloud = PointCloud.from_points(pts, require_unit_ball=False)
        for index in range(0, cloud.size, 7):
            for radius in (0.02, 0.08, 0.3):
                want = reference_tangent(pts, index, radius, d)
                if want is None:
                    with pytest.raises(UnderdeterminedTangentError):
                        estimate_tangent(cloud, index, radius, d)
                    failed += 1
                    continue
                got = estimate_tangent(cloud, index, radius, d)
                assert got.basis.tobytes() == want.tobytes(), (pts.shape, index, radius)
                assert got.base.tobytes() == pts[index].tobytes()
                served += 1
    assert served > 200 and failed > 20


@pytest.mark.parametrize("n", [3, 10])
def test_a_tangent_block_holds_at_most_its_bound(n, monkeypatch):
    # 2,000 points: in R^10 a block's norm pass holds (centers, N, n) doubles
    rng = np.random.default_rng(n)
    core = rng.normal(size=(2000, 3))
    pts = np.zeros((2000, n))
    pts[:, :3] = 0.5 * core / np.linalg.norm(core, axis=1, keepdims=True)
    pts += rng.normal(0.0, 0.01, pts.shape)
    centers = np.arange(0, 2000, 20)
    sizes = []
    row_distances = core_geometry._row_distances

    def spy(a, b):
        sizes.append(a.shape[0] * b.size if n >= 8 else a.shape[0] * b.shape[0])
        return row_distances(a, b)

    monkeypatch.setattr(core_geometry, "_row_distances", spy)
    bases, found, _ = core_geometry._tangent_ladder(pts, centers, (0.1,), 2)
    assert len(sizes) > 1 and max(sizes) <= core_geometry._TANGENT_BLOCK
    assert (found == 0).all()
    for index, basis in zip(centers, bases):
        assert basis.tobytes() == reference_tangent(pts, index, 0.1, 2).tobytes(), index


def test_estimate_tangent_errors_name_the_neighbourhood():
    pts = np.array([[0.0, 0.0], [0.05, 0.0], [0.9, 0.0], [0.3, 0.3], [0.3, 0.3]])
    cloud = PointCloud.from_points(pts)
    with pytest.raises(UnderdeterminedTangentError) as exc:
        estimate_tangent(cloud, 2, radius=0.1, d=1)
    assert str(exc.value) == "1 neighbors within radius 0.1, need at least 2"
    with pytest.raises(DegenerateNeighborhoodError) as exc:
        estimate_tangent(cloud, 3, radius=0.1, d=1)
    assert str(exc.value) == "neighborhood covariance is zero"


@pytest.mark.parametrize("n, d", [(2, 1), (3, 1), (3, 2), (7, 2), (7, 5)])
def test_stacked_frames_are_bit_equal_to_the_per_tangent_frames(n, d):
    rng = np.random.default_rng(n * 10 + d)
    basis = np.stack([np.linalg.qr(rng.normal(size=(n, d)))[0].T for _ in range(40)])
    want = np.stack([reference_frame(b) for b in basis])
    got = core_geometry._frames(basis)
    assert got.tobytes() == want.tobytes()
    assert got.flags.c_contiguous
    flips = [np.linalg.det(np.vstack([b, orthonormal_completion(b, n)]).T) < 0 for b in basis]
    assert 0 < sum(flips) < len(flips)   # both branches are taken
    for b, frame in zip(basis, want):
        sub = AffineSubspace(base=np.zeros(n), basis=b)
        assert frame_from_tangent(sub).tobytes() == frame.tobytes()


def test_a_checked_stack_of_subspaces_equals_the_checked_objects():
    rng = np.random.default_rng(3)
    bases = rng.normal(size=(6, 4))
    basis = np.stack([np.linalg.qr(rng.normal(size=(4, 2)))[0].T for _ in range(6)])
    for got, base, rows in zip(AffineSubspace._checked_stack(bases, basis), bases, basis):
        want = AffineSubspace(base=base, basis=rows)
        assert got.base.tobytes() == want.base.tobytes()
        assert got.basis.tobytes() == want.basis.tobytes()
    basis[4, 1] *= 1.001
    with pytest.raises(InvalidParameterError, match="not orthonormal"):
        AffineSubspace._checked_stack(bases, basis)


# ---- Federer reach ----

def test_reach_of_unit_circle_is_one():
    pts, tangents = unit_circle(500)
    cloud = PointCloud.from_points(pts)
    est = federer_reach(cloud, tangents)
    assert est.value == pytest.approx(1.0, abs=1e-9)
    assert est.argpair is not None


def test_reach_scales_with_the_sample():
    pts, tangents = unit_circle(200, radius=0.37)
    cloud = PointCloud.from_points(pts)
    est = federer_reach(cloud, tangents)
    assert est.value == pytest.approx(0.37, abs=1e-9)


def test_reach_never_decreases_on_a_subsample():
    rng = np.random.default_rng(7)
    ang = np.sort(rng.uniform(0.0, 2.0 * np.pi, 80))
    pts = np.stack([np.cos(ang), np.sin(ang)], axis=1)
    pts += 0.002 * rng.standard_normal(pts.shape)
    pts /= np.maximum(np.linalg.norm(pts, axis=1, keepdims=True), 1.0)
    cloud = PointCloud.from_points(pts)
    tangents = {i: estimate_tangent(cloud, i, radius=0.35, d=1)
                for i in range(cloud.size)}
    full = federer_reach(cloud, tangents)
    keep = list(range(0, cloud.size, 2))
    sub_cloud = PointCloud.from_points(pts[keep])
    sub_tan = {new: tangents[old] for new, old in enumerate(keep)}
    sub = federer_reach(sub_cloud, sub_tan)
    assert sub.value >= full.value - 1e-12


def test_reach_requires_a_tangent_per_point():
    pts, tangents = unit_circle(10)
    cloud = PointCloud.from_points(pts)
    del tangents[3]
    with pytest.raises(InvalidParameterError):
        federer_reach(cloud, tangents)


def test_reach_rejects_off_point_tangent_base():
    pts, tangents = unit_circle(10)
    cloud = PointCloud.from_points(pts)
    tangents[0] = AffineSubspace(base=pts[0] + np.array([1e-3, 0.0]),
                                 basis=tangents[0].basis)
    with pytest.raises(InvalidParameterError):
        federer_reach(cloud, tangents)


def test_reach_of_a_straight_line_is_infinite():
    t = np.linspace(-0.5, 0.5, 9)
    pts = np.stack([t, np.zeros_like(t)], axis=1)
    cloud = PointCloud.from_points(pts)
    line = np.array([[1.0, 0.0]])
    tangents = {i: AffineSubspace(base=pts[i], basis=line) for i in range(9)}
    est = federer_reach(cloud, tangents)
    assert math.isinf(est.value)
    assert est.argpair is None


def test_reach_needs_two_points():
    cloud = PointCloud.from_points(np.zeros((1, 2)))
    with pytest.raises(InsufficientDataError):
        federer_reach(cloud, {0: AffineSubspace(base=np.zeros(2),
                                                basis=np.array([[1.0, 0.0]]))})


# ---- Hausdorff distance ----

def test_hausdorff_matches_brute_force():
    rng = np.random.default_rng(11)
    a = rng.uniform(-0.5, 0.5, (40, 3))
    b = rng.uniform(-0.5, 0.5, (25, 3))
    ca = PointCloud.from_points(a)
    cb = PointCloud.from_points(b)
    cross = np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2)
    brute = max(float(cross.min(axis=1).max()), float(cross.min(axis=0).max()))
    assert hausdorff_distance(ca, cb) == pytest.approx(brute, abs=1e-9)


def test_hausdorff_simple_shift():
    a = PointCloud.from_points(np.array([[0.0, 0.0]]))
    b = PointCloud.from_points(np.array([[0.3, 0.4]]))
    assert hausdorff_distance(a, b) == pytest.approx(0.5)
    assert hausdorff_distance(a, a) == 0.0


# ---- persistence ----

def test_csv_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    pts = rng.uniform(-2.0, 2.0, (17, 4))
    w = rng.uniform(0.1, 1.0, 17)
    cloud = PointCloud.from_points(pts, weights=w, require_unit_ball=False)
    path = str(tmp_path / "cloud.csv")
    save_csv(cloud, path, include_weights=True)
    back = load_csv(path, has_weights=True, require_unit_ball=False)
    np.testing.assert_array_equal(back.points, cloud.points)
    np.testing.assert_array_equal(back.weights, cloud.weights)


def test_csv_round_trip_without_weights(tmp_path):
    pts = np.array([[0.1, 0.2], [0.3, -0.4]])
    cloud = PointCloud.from_points(pts)
    path = str(tmp_path / "plain.csv")
    save_csv(cloud, path)
    back = load_csv(path)
    np.testing.assert_array_equal(back.points, pts)
    np.testing.assert_allclose(back.weights, 0.5)


def test_mnfd_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(9)
    pts = rng.standard_normal((11, 5))
    w = rng.uniform(0.5, 1.5, 11)
    cloud = PointCloud.from_points(pts, weights=w, require_unit_ball=False)
    path = str(tmp_path / "cloud.mnfd")
    save_mnfd(cloud, path)
    back = load_mnfd(path)
    np.testing.assert_array_equal(back.points, cloud.points)
    np.testing.assert_array_equal(back.weights, cloud.weights)


# ---- frames ----

def sign_fix_loop(rows, tol=1e-12):
    """Reference: the row-by-row sign fix."""
    out = rows.copy()
    for k in range(out.shape[0]):
        row = out[k]
        nz = np.nonzero(np.abs(row) > tol)[0]
        if nz.size and row[nz[0]] < 0:
            out[k] = -row
    return out


def test_sign_fix_rows_matches_the_row_loop():
    rng = np.random.default_rng(11)
    small = np.array([[1e-13, -0.5, 0.2], [-1e-13, 0.5, -0.2], [-1e-12, 1e-12, -3.0],
                      [-1e-13, 0.0, 1e-14]])
    cases = [rng.standard_normal((6, 4)), rng.standard_normal((1, 7)), np.zeros((3, 5)),
             -np.zeros((2, 3)), small, np.vstack([small, rng.standard_normal((2, 3))]),
             np.zeros((0, 3)),
             # the reversed, transposed eigenvector view that pi_hi passes
             np.linalg.eigh(np.cov(rng.standard_normal((3, 9))))[1][:, ::-1][:, :2].T]
    for rows in cases:
        want = sign_fix_loop(rows)
        got = _sign_fix_rows(rows)
        assert got.shape == want.shape and got.strides == want.strides
        assert got.tobytes() == want.tobytes()
        assert sign_fix_loop(rows, tol=0.3).tobytes() == _sign_fix_rows(rows, tol=0.3).tobytes()


def test_orthonormal_completion_spans_the_complement():
    basis = np.array([[0.6, 0.8, 0.0]])
    comp = orthonormal_completion(basis, 3)
    assert comp.shape == (2, 3)
    np.testing.assert_allclose(comp @ comp.T, np.eye(2), atol=1e-12)
    np.testing.assert_allclose(comp @ basis.T, 0.0, atol=1e-12)
    assert orthonormal_completion(np.zeros((0, 3)), 3).shape == (3, 3)


def test_frame_from_tangent_is_a_proper_rotation():
    sub = AffineSubspace(base=np.zeros(3),
                         basis=np.array([[0.0, 1.0, 0.0]]))
    frame = frame_from_tangent(sub)
    assert frame.shape == (3, 3)
    np.testing.assert_allclose(frame.T @ frame, np.eye(3), atol=1e-12)
    assert np.linalg.det(frame) == pytest.approx(1.0, abs=1e-12)
    # the first column carries the tangent direction
    assert abs(float(frame[:, 0] @ sub.basis[0])) == pytest.approx(1.0, abs=1e-12)

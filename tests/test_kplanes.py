"""Piecewise-linear baseline: alternating fits and the deviation experiment."""
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from manifold_test.core_geometry import AffineSubspace, PointCloud
from manifold_test.errors import (
    EmptyInputError,
    InfeasibleModelError,
    InvalidParameterError,
)
from manifold_test.kplanes import (
    KPlanesModel,
    deviation_experiment,
    fit_kplanes,
    kplanes_loss,
    model_from_json,
    model_to_json,
)


def two_planted_lines(per_line: int = 40):
    t = np.linspace(-0.4, 0.4, per_line)
    a = np.stack([t, np.full_like(t, 0.3), np.zeros_like(t)], axis=1)
    b = np.stack([np.full_like(t, -0.2), t, np.full_like(t, 0.1)], axis=1)
    return PointCloud.from_points(np.vstack([a, b]))


def test_planted_lines_recovered():
    cloud = two_planted_lines()
    model = fit_kplanes(cloud, k=2, d=1, restarts=4, seed=0)
    assert kplanes_loss(cloud, model) <= 1e-10


def test_loss_matches_brute_force():
    rng = np.random.default_rng(6)
    pts = rng.uniform(-0.5, 0.5, (60, 3))
    w = rng.uniform(0.2, 1.0, 60)
    cloud = PointCloud.from_points(pts, weights=w)
    planes = []
    for _ in range(3):
        basis = np.linalg.qr(rng.standard_normal((3, 1)))[0][:, :1].T
        base = rng.uniform(-0.3, 0.3, 3)
        planes.append(AffineSubspace(base=base, basis=basis))
    model = KPlanesModel(planes=tuple(planes), k=3, d=1)
    brute = 0.0
    for i in range(cloud.size):
        d2 = []
        for sub in planes:
            rel = pts[i] - sub.base
            proj = rel - sub.basis.T @ (sub.basis @ rel)
            d2.append(float(proj @ proj))
        brute += cloud.weights[i] * min(d2)
    assert kplanes_loss(cloud, model) == pytest.approx(brute, rel=1e-12)


def test_fit_is_deterministic_per_seed():
    cloud = two_planted_lines(25)
    a = fit_kplanes(cloud, k=2, d=1, restarts=2, seed=5)
    b = fit_kplanes(cloud, k=2, d=1, restarts=2, seed=5)
    for pa, pb in zip(a.planes, b.planes):
        np.testing.assert_array_equal(pa.base, pb.base)
        np.testing.assert_array_equal(pa.basis, pb.basis)


def test_zero_iterations_returns_the_seeding():
    cloud = two_planted_lines(25)
    model = fit_kplanes(cloud, k=2, d=1, restarts=1, max_iters=0, seed=1)
    assert len(model.planes) <= 2
    assert np.isfinite(kplanes_loss(cloud, model))


def test_model_validation():
    line = AffineSubspace(base=np.zeros(2), basis=np.array([[1.0, 0.0]]))
    with pytest.raises(InvalidParameterError):
        KPlanesModel(planes=(line, line), k=1, d=1)  # over budget
    plane2 = AffineSubspace(base=np.zeros(2), basis=np.eye(2))
    with pytest.raises(InvalidParameterError):
        KPlanesModel(planes=(plane2,), k=1, d=1)  # dimension over budget
    far = AffineSubspace(base=np.array([2.0, 0.0]), basis=np.array([[0.0, 1.0]]))
    with pytest.raises(InvalidParameterError):
        KPlanesModel(planes=(far,), k=1, d=1)  # misses the unit ball


def test_fit_parameter_checks():
    cloud = two_planted_lines(10)
    with pytest.raises(InfeasibleModelError):
        fit_kplanes(cloud, k=100, d=1)
    with pytest.raises(InvalidParameterError):
        fit_kplanes(cloud, k=0, d=1)
    with pytest.raises(InvalidParameterError):
        fit_kplanes(cloud, k=1, d=7)
    with pytest.raises(EmptyInputError):
        fit_kplanes(PointCloud.from_points(np.zeros((0, 2))), k=1, d=1)
    with pytest.raises(EmptyInputError):
        kplanes_loss(PointCloud.from_points(np.zeros((0, 2))),
                     KPlanesModel(planes=(AffineSubspace(
                         base=np.zeros(2), basis=np.array([[1.0, 0.0]])),),
                         k=1, d=1))


def test_model_json_round_trip():
    cloud = two_planted_lines()
    model = fit_kplanes(cloud, k=2, d=1, restarts=2, seed=0)
    text = model_to_json(model)
    payload = json.loads(text)
    assert set(payload) == {"k", "d", "planes"}
    back = model_from_json(text)
    assert back.k == model.k and back.d == model.d
    assert kplanes_loss(cloud, back) == pytest.approx(
        kplanes_loss(cloud, model), rel=1e-12)


def test_deviation_experiment_structure():
    def sampler(count, rng):
        t = rng.uniform(-0.5, 0.5, count)
        return np.stack([t, 0.2 * t], axis=1)

    report = deviation_experiment(sampler, k=1, d=1, s=30, trials=3, seed=0,
                                  restarts=2, max_iters=20)
    assert len(report.deviations) == 3
    assert len(report.train_losses) == 3
    assert len(report.holdout_losses) == 3
    assert all(dv >= 0 for dv in report.deviations)
    assert report.median == pytest.approx(float(np.median(report.deviations)))
    # the sampler is an exact line, so both losses collapse
    assert max(report.train_losses) <= 1e-12
    assert max(report.holdout_losses) <= 1e-12


def test_deviation_experiment_validation():
    with pytest.raises(InvalidParameterError):
        deviation_experiment(lambda c, r: np.zeros((c, 2)), k=1, d=1, s=0,
                             trials=1, seed=0)


def test_the_package_loads_kplanes_on_first_use():
    src = str(Path(__file__).resolve().parent.parent / "src")
    script = (
        "import sys, manifold_test as mt\n"
        "names = dir(mt)\n"
        "print('manifold_test.kplanes' in sys.modules)\n"
        "fit = mt.fit_kplanes\n"
        "print('manifold_test.kplanes' in sys.modules, fit is mt.kplanes.fit_kplanes)\n"
        "print(dir(mt) == names, {'kplanes', 'fit_kplanes', 'KPlanesModel'} <= set(names))\n")
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "True", "True", "True", "True"]

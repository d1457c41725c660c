"""Command-line behavior: exit codes, output formats, config merging."""
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from manifold_test.cli import entrypoint
from manifold_test.complexity_bounds import BoundParams, covering_bound, sample_complexity
from manifold_test.core_geometry import load_csv
from manifold_test.pipeline import TestConfig, budget_estimate

CIRCLE_ARGS = ["--dim", "1", "--volume", "7.0", "--tau", "0.5",
               "--eps", "1e-4", "--delta", "0.1", "--packet-budget", "1"]


@pytest.fixture(scope="module")
def circle_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "circle.csv"
    code = entrypoint(["gen", "--kind", "sphere", "--ambient-dim", "2",
                       "--size", "150", "--seed", "1", "--radius", "1.0",
                       "--even", "--out", str(path), "--quiet"])
    assert code == 0
    return path


@pytest.fixture(scope="module")
def ball_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "ball.csv"
    assert entrypoint(["gen", "--kind", "uniform_ball", "--ambient-dim", "2",
                       "--size", "200", "--seed", "5", "--out", str(path),
                       "--quiet"]) == 0
    return path


def test_gen_reports_what_it_wrote(tmp_path, capsys):
    out = tmp_path / "torus.csv"
    code = entrypoint(["gen", "--kind", "torus", "--ambient-dim", "3",
                       "--size", "40", "--seed", "2", "--out", str(out)])
    assert code == 0
    assert capsys.readouterr().out.strip() == \
        f"wrote 40 points of kind torus to {out}"
    cloud = load_csv(str(out))
    assert cloud.points.shape == (40, 3)


def test_gen_rejects_unknown_kind(tmp_path):
    with pytest.raises(SystemExit):
        entrypoint(["gen", "--kind", "blob", "--ambient-dim", "2",
                    "--size", "10", "--out", str(tmp_path / "x.csv")])


def test_run_circle_case_one(circle_csv, tmp_path, capsys):
    report = tmp_path / "report.json"
    residuals = tmp_path / "residuals.csv"
    code = entrypoint(["run", "--input", str(circle_csv), *CIRCLE_ARGS,
                       "--report", str(report), "--residuals", str(residuals)])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2
    fields = dict(part.split("=") for part in lines[0].split())
    assert fields["case"] == "one"
    assert float(fields["best_loss"]) < 1e-5
    assert float(fields["threshold"]) == pytest.approx(4e-4)
    assert fields["samples"] == "150"
    assert lines[1] == "searched 1 of ~2^28.0 admissible packets"

    cert = json.loads(report.read_text())
    assert cert["case"] == "one"
    assert cert["threshold"] == pytest.approx(4e-4)
    assert cert["best_loss"] == pytest.approx(float(fields["best_loss"]), rel=1e-4)

    body = residuals.read_text().splitlines()
    assert body[0] == "index,distance"
    arr = np.loadtxt(str(residuals), delimiter=",", skiprows=1)
    assert arr.shape == (150, 2)
    np.testing.assert_array_equal(arr[:, 0], np.arange(150))
    assert float(arr[:, 1].max()) < 0.01
    # the residuals are the per-point terms of the reported loss
    weights = load_csv(str(circle_csv)).weights
    assert float(np.sum(weights * arr[:, 1] ** 2)) == \
        pytest.approx(cert["best_loss"], rel=1e-12)


def test_run_quiet_silences_stdout(circle_csv, capsys):
    code = entrypoint(["run", "--input", str(circle_csv), *CIRCLE_ARGS,
                       "--quiet"])
    assert code == 0
    assert capsys.readouterr().out == ""


def test_run_ball_case_two(ball_csv, tmp_path, capsys):
    report = tmp_path / "report.json"
    residuals = tmp_path / "residuals.csv"
    code = entrypoint(["run", "--input", str(ball_csv), "--dim", "1",
                       "--volume", "7.0", "--tau", "0.3", "--eps", "1e-4",
                       "--delta", "0.1", "--packet-budget", "2",
                       "--report", str(report), "--residuals", str(residuals)])
    assert code == 10
    captured = capsys.readouterr()
    assert captured.out.startswith("case=two best_loss=inf ")
    assert "no model available; residuals not written" in captured.err
    assert not residuals.exists()
    cert = json.loads(report.read_text())
    assert cert["case"] == "two"
    assert cert["best_loss"] is None


def test_config_file_merging(circle_csv, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# circle settings\n"
        "dim=1\n"
        "volume=7.0\n"
        "tau=0.5\n"
        "eps=1e-4\n"
        "delta=0.1\n"
        "packet_budget=1\n"
        "constant=9.0\n"
        "\n")
    from_file = tmp_path / "from_file.json"
    code = entrypoint(["run", "--input", str(circle_csv), "--config", str(cfg),
                       "--report", str(from_file), "--quiet"])
    assert code == 0
    assert json.loads(from_file.read_text())["threshold"] == pytest.approx(9e-4)

    overridden = tmp_path / "overridden.json"
    code = entrypoint(["run", "--input", str(circle_csv), "--config", str(cfg),
                       "--constant", "2.0", "--report", str(overridden),
                       "--quiet"])
    assert code == 0
    assert json.loads(overridden.read_text())["threshold"] == pytest.approx(2e-4)


def test_config_file_rejects_garbage(circle_csv, tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("dim 1\n")
    code = entrypoint(["run", "--input", str(circle_csv), "--config", str(cfg)])
    assert code == 2
    assert "expected key=value" in capsys.readouterr().err


def test_config_file_rejects_unknown_keys(circle_csv, tmp_path, capsys):
    cfg = tmp_path / "typo.cfg"
    cfg.write_text("dim=1\npacket_budegt=5\nsolver=projected-gradient\n")
    code = entrypoint(["run", "--input", str(circle_csv), *CIRCLE_ARGS,
                       "--config", str(cfg)])
    assert code == 2
    assert capsys.readouterr().err.strip() == \
        f"error: {cfg}: unknown key(s): packet_budegt, solver"


def test_run_has_no_solver_flag(circle_csv, capsys):
    # no prefix matching either: --solver must not read as --solver-budget
    for value in ("cutting-plane", "50"):
        with pytest.raises(SystemExit) as exc:
            entrypoint(["run", "--input", str(circle_csv), *CIRCLE_ARGS,
                        "--solver", value])
        assert exc.value.code == 2
        assert "unrecognized arguments: --solver" in capsys.readouterr().err


def test_run_missing_input_is_an_error(tmp_path, capsys):
    code = entrypoint(["run", "--input", str(tmp_path / "nope.csv"),
                       *CIRCLE_ARGS])
    assert code == 2
    assert capsys.readouterr().err.startswith("error:")


def test_run_missing_settings_is_an_error(circle_csv, capsys):
    code = entrypoint(["run", "--input", str(circle_csv), "--dim", "1"])
    assert code == 2
    err = capsys.readouterr().err
    assert "missing required settings" in err
    assert "volume" in err


def test_run_invalid_tau_is_an_error(circle_csv, capsys):
    code = entrypoint(["run", "--input", str(circle_csv), "--dim", "1",
                       "--volume", "7.0", "--tau", "1.5", "--eps", "1e-4",
                       "--delta", "0.1"])
    assert code == 2
    assert "tau" in capsys.readouterr().err


def test_run_degenerate_sample_is_an_error(tmp_path, capsys):
    path = tmp_path / "duplicates.csv"
    np.savetxt(path, np.tile([[0.3, -0.2]], (50, 1)), delimiter=",")
    code = entrypoint(["run", "--input", str(path), *CIRCLE_ARGS])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "needs at least 2" in err


def test_bounds_match_direct_evaluation(capsys):
    code = entrypoint(["bounds", "--dim", "1", "--volume", "7.0",
                       "--tau", "0.5", "--eps", "0.01", "--delta", "0.05",
                       "--constant", "2.0", "--net-radius", "0.1",
                       "--ambient-dim", "2"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    params = BoundParams(d=1, V=7.0, tau=0.5, eps=0.01, delta=0.05, C=2.0)
    assert lines[0] == f"covering_bound={covering_bound(params, 0.1):.6g}"
    assert lines[1] == f"sample_complexity={sample_complexity(params):.6g}"
    config = TestConfig(d=1, V=7.0, tau=0.5, eps=0.01, delta=0.05)
    assert lines[2] == f"log2_packets={budget_estimate(config, 2).log2_count:.2f}"


def test_bounds_net_radius_defaults_to_eps(capsys):
    code = entrypoint(["bounds", "--dim", "2", "--volume", "3.0",
                       "--tau", "0.4", "--eps", "0.02", "--delta", "0.1"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2
    params = BoundParams(d=2, V=3.0, tau=0.4, eps=0.02, delta=0.1, C=1.0)
    assert lines[0] == f"covering_bound={covering_bound(params, 0.02):.6g}"


def test_kplanes_subcommand(tmp_path, capsys):
    data = tmp_path / "planes.csv"
    assert entrypoint(["gen", "--kind", "kplanes", "--ambient-dim", "3",
                       "--size", "80", "--seed", "6", "--k", "2",
                       "--intrinsic-dim", "1", "--out", str(data),
                       "--quiet"]) == 0
    model_out = tmp_path / "model.json"
    code = entrypoint(["kplanes", "--input", str(data), "--k", "2",
                       "--dim", "1", "--model-out", str(model_out)])
    assert code == 0
    out = capsys.readouterr().out.strip()
    assert out.startswith("k=2 dim=1 loss=")
    assert float(out.rpartition("=")[2]) < 1e-10
    model = json.loads(model_out.read_text())
    assert model["k"] == 2 and model["d"] == 1
    assert len(model["planes"]) == 2


REPO_ROOT = Path(__file__).resolve().parent.parent


def _load_toml(path):
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with open(path, "rb") as fh:
        return tomllib.load(fh)


def _write_console_script(bin_dir, name, entry):
    """Write the launcher an installer makes for a ``module:func`` entry."""
    module, _, func = entry.partition(":")
    script = bin_dir / name
    script.write_text(
        f"#!{sys.executable}\n"
        "# -*- coding: utf-8 -*-\n"
        "import re\n"
        "import sys\n"
        f"from {module} import {func}\n"
        "if __name__ == '__main__':\n"
        "    sys.argv[0] = re.sub(r'(-script\\.pyw|\\.exe)?$', '', sys.argv[0])\n"
        f"    sys.exit({func}())\n")
    script.chmod(0o755)


def test_console_script_is_installed(tmp_path):
    # Install the [project.scripts] entry of this checkout the way an
    # installer does, then run it by name ahead of anything else on PATH.
    scripts = _load_toml(REPO_ROOT / "pyproject.toml")["project"]["scripts"]
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    _write_console_script(bin_dir, "manifold-test", scripts["manifold-test"])
    env = dict(os.environ)
    env["PATH"] = os.pathsep.join([str(bin_dir), env.get("PATH", "")])
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    proc = subprocess.run(
        ["manifold-test", "bounds", "--dim", "1", "--volume", "7.0",
         "--tau", "0.5", "--eps", "0.01", "--delta", "0.05"],
        capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 0
    assert proc.stdout.startswith("covering_bound=")


def test_module_entrypoint_guard():
    proc = subprocess.run(
        [sys.executable, "-m", "manifold_test.cli", "bounds", "--dim", "1",
         "--volume", "2.0", "--tau", "0.5", "--eps", "0.1", "--delta", "0.1"],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    assert "sample_complexity=" in proc.stdout

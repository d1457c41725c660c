"""Command-line interface.

Subcommands: run (the manifold test), gen (synthetic samples), bounds
(sample-size and search-budget calculators), kplanes (the piecewise-linear
baseline). Exit codes for run: 0 case one, 10 case two, 2 on error.
"""
from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .complexity_bounds import BoundParams, covering_bound, sample_complexity
from .core_geometry import PointCloud, load_csv, save_csv
from .errors import ManifoldTestError
from .kplanes import fit_kplanes, kplanes_loss, model_to_json
from .pipeline import (TestConfig, budget_estimate, generate_synthetic,
                       point_residuals, run_test)

EXIT_CASE_ONE = 0
EXIT_CASE_TWO = 10
EXIT_ERROR = 2


def _read_config_file(path: str) -> dict[str, str]:
    """key=value lines; blank lines and # comments skipped, unknown keys rejected."""
    values: dict[str, str] = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value")
            key, _, val = line.partition("=")
            values[key.strip()] = val.strip()
    unknown = sorted(set(values) - set(_RUN_KEYS))
    if unknown:
        raise ValueError(f"{path}: unknown key(s): {', '.join(unknown)}")
    return values


_RUN_KEYS = {
    "dim": int, "volume": float, "tau": float, "eps": float, "delta": float,
    "constant": float, "cbar12": float, "packet_budget": int, "seed": int,
    "eps_bar": float, "extra_dim": int, "max_cylinders": int,
    "solver_budget": int,
}
# keys that name a TestConfig field differently; the others are the field name
_CONFIG_FIELDS = {"dim": "d", "volume": "V", "constant": "C"}


def _resolve(args: argparse.Namespace, file_values: dict[str, str]):
    """Explicit flags win over config-file entries, which win over defaults."""
    merged = {}
    for key, cast in _RUN_KEYS.items():
        flag = getattr(args, key, None)
        if flag is not None:
            merged[key] = flag
        elif key in file_values:
            merged[key] = cast(file_values[key])
    return merged


def _build_config(merged: dict) -> TestConfig:
    required = ("dim", "volume", "tau", "eps", "delta")
    missing = [k for k in required if k not in merged]
    if missing:
        raise ValueError(f"missing required settings: {', '.join(missing)}")
    return TestConfig(**{_CONFIG_FIELDS.get(k, k): v for k, v in merged.items()})


def _cmd_run(args: argparse.Namespace) -> int:
    file_values = _read_config_file(args.config) if args.config else {}
    config = _build_config(_resolve(args, file_values))
    cloud = load_csv(args.input)
    verdict = run_test(cloud, config)
    if not args.quiet:
        loss = verdict.best_loss
        loss_str = f"{loss:.6g}" if math.isfinite(loss) else "inf"
        print(f"case={verdict.case} best_loss={loss_str} "
              f"threshold={verdict.threshold:.6g} samples={verdict.samples_used}")
        print(verdict.certificate["search"])
    if args.report:
        with open(args.report, "w") as fh:
            json.dump(verdict.certificate, fh, sort_keys=True, indent=2)
            fh.write("\n")
    if args.residuals:
        if verdict.model is None:
            print("no model available; residuals not written", file=sys.stderr)
        else:
            sq = point_residuals(verdict.model, verdict.reduction)[0]
            arr = np.column_stack([np.arange(sq.size), np.sqrt(sq)])
            np.savetxt(args.residuals, arr, delimiter=",", fmt=["%d", "%.17g"],
                       header="index,distance", comments="")
    return EXIT_CASE_ONE if verdict.case == "one" else EXIT_CASE_TWO


def _cmd_gen(args: argparse.Namespace) -> int:
    params = {}
    for key in ("radius", "R", "r", "k"):
        val = getattr(args, key, None)
        if val is not None:
            params[key] = val
    if args.intrinsic_dim is not None:
        params["dim"] = args.intrinsic_dim
    if args.even:
        params["even"] = True
    cloud, meta = generate_synthetic(args.kind, args.ambient_dim, args.size,
                                     seed=args.seed, noise=args.noise, **params)
    save_csv(cloud, args.out)
    if not args.quiet:
        print(f"wrote {cloud.size} points of kind {meta['kind']} to {args.out}")
    return 0


def _cmd_bounds(args: argparse.Namespace) -> int:
    params = BoundParams(d=args.dim, V=args.volume, tau=args.tau,
                         eps=args.eps, delta=args.delta, C=args.constant)
    net_radius = args.net_radius if args.net_radius is not None else args.eps
    print(f"covering_bound={covering_bound(params, net_radius):.6g}")
    print(f"sample_complexity={sample_complexity(params):.6g}")
    if args.ambient_dim is not None:
        config = TestConfig(d=args.dim, V=args.volume, tau=args.tau,
                            eps=args.eps, delta=args.delta)
        est = budget_estimate(config, args.ambient_dim)
        print(f"log2_packets={est.log2_count:.2f}")
    return 0


def _cmd_kplanes(args: argparse.Namespace) -> int:
    cloud = load_csv(args.input)
    model = fit_kplanes(cloud, args.k, args.dim, restarts=args.restarts,
                        max_iters=args.max_iters, seed=args.seed)
    loss = kplanes_loss(cloud, model)
    print(f"k={args.k} dim={args.dim} loss={loss:.9g}")
    if args.model_out:
        with open(args.model_out, "w") as fh:
            fh.write(model_to_json(model))
            fh.write("\n")
    return 0


def _make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="manifold-test",
        description="Test whether a weighted sample is close to a bounded-volume, "
                    "bounded-reach manifold.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", allow_abbrev=False,
                           help="run the manifold test on a CSV sample")
    p_run.add_argument("--input", required=True, help="CSV of points (weights optional)")
    p_run.add_argument("--config", help="key=value file; explicit flags win")
    p_run.add_argument("--dim", type=int, help="manifold dimension d")
    p_run.add_argument("--volume", type=float, help="volume bound V")
    p_run.add_argument("--tau", type=float, help="reach bound tau")
    p_run.add_argument("--eps", type=float, help="loss tolerance")
    p_run.add_argument("--delta", type=float, help="failure probability")
    p_run.add_argument("--constant", type=float, help="threshold multiplier C")
    p_run.add_argument("--cbar12", type=float, help="cylinder scale factor")
    p_run.add_argument("--packet-budget", dest="packet_budget", type=int)
    p_run.add_argument("--seed", type=int)
    p_run.add_argument("--eps-bar", dest="eps_bar", type=float,
                       help="section fit target")
    p_run.add_argument("--extra-dim", dest="extra_dim", type=int,
                       help="extra principal directions kept by reduction")
    p_run.add_argument("--max-cylinders", dest="max_cylinders", type=int)
    p_run.add_argument("--solver-budget", dest="solver_budget", type=int)
    p_run.add_argument("--report", help="write the JSON certificate here")
    p_run.add_argument("--residuals", help="write per-point distances as CSV")
    p_run.add_argument("--quiet", action="store_true")
    p_run.set_defaults(func=_cmd_run)

    p_gen = sub.add_parser("gen", allow_abbrev=False,
                           help="generate a synthetic sample")
    p_gen.add_argument("--kind", required=True,
                       choices=("sphere", "torus", "kplanes", "uniform_ball"))
    p_gen.add_argument("--ambient-dim", dest="ambient_dim", type=int, required=True)
    p_gen.add_argument("--size", type=int, required=True)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--noise", type=float, default=0.0)
    p_gen.add_argument("--out", required=True)
    p_gen.add_argument("--radius", type=float, help="sphere radius")
    p_gen.add_argument("--intrinsic-dim", dest="intrinsic_dim", type=int,
                       help="intrinsic dimension for sphere/kplanes")
    p_gen.add_argument("--even", action="store_true",
                       help="evenly spaced circle samples (sphere, dim 1)")
    p_gen.add_argument("--R", type=float, help="torus major radius")
    p_gen.add_argument("--r", type=float, help="torus minor radius")
    p_gen.add_argument("--k", type=int, help="number of planes")
    p_gen.add_argument("--quiet", action="store_true")
    p_gen.set_defaults(func=_cmd_gen)

    p_bounds = sub.add_parser("bounds", allow_abbrev=False,
                              help="sample-size and budget calculators")
    p_bounds.add_argument("--dim", type=int, required=True)
    p_bounds.add_argument("--volume", type=float, required=True)
    p_bounds.add_argument("--tau", type=float, required=True)
    p_bounds.add_argument("--eps", type=float, required=True)
    p_bounds.add_argument("--delta", type=float, required=True)
    p_bounds.add_argument("--constant", type=float, default=1.0)
    p_bounds.add_argument("--net-radius", dest="net_radius", type=float,
                          help="net radius for the covering bound (default eps)")
    p_bounds.add_argument("--ambient-dim", dest="ambient_dim", type=int,
                          help="also print the packet-search exponent")
    p_bounds.set_defaults(func=_cmd_bounds)

    p_kp = sub.add_parser("kplanes", allow_abbrev=False,
                          help="fit the k-planes baseline")
    p_kp.add_argument("--input", required=True)
    p_kp.add_argument("--k", type=int, required=True)
    p_kp.add_argument("--dim", type=int, required=True)
    p_kp.add_argument("--restarts", type=int, default=5)
    p_kp.add_argument("--max-iters", dest="max_iters", type=int, default=100)
    p_kp.add_argument("--seed", type=int, default=0)
    p_kp.add_argument("--model-out", dest="model_out")
    p_kp.set_defaults(func=_cmd_kplanes)
    return parser


def entrypoint(argv=None) -> int:
    parser = _make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ManifoldTestError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(entrypoint())

"""Write the certificate and verify report of every benchmark input, one per line.

Run from the repository root, naming the source tree to import:

    python3 tools/dump_certificates.py --src src ball-reject:1-10 circle-search:1-10 \
        sphere-d2:1-3 criterion-11 > after.txt

Each argument is a workload of bench/workloads.py with its run seeds
(`name:3`, `name:1-10` or `name:1,4,7`), `criterion-11`, the noisy
400-point circle of tests/test_acceptance.py, or `solver-sweep`, 52 inputs
that exercise the section solver off the benchmark: 48 noisy circles (two
sizes, four noise scales, six seeds, eps the noise variance), then four
exact circles under ever tighter eps_bar. For each input, in order, one
line holds `json.dumps([certificate, verify])`, key order kept, where
verify is every VerificationReport field of a case-one verdict and null on
case two. Two source trees decide and verify alike on these inputs when
their outputs are byte-equal (`cmp before.txt after.txt`).

The inputs are made by bench/workloads.py, which this tool reads and does
not change.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def runs(spec: str):
    """(cloud, config) of every input the spec names."""
    import manifold_test as mt
    from workloads import WORKLOADS, setup

    if spec == "criterion-11":   # test_acceptance.py's NOISY_CONFIG and its sample
        cloud, _ = mt.generate_synthetic("sphere", n=2, size=400, seed=3, noise=0.003,
                                         radius=1.0, even=True)
        yield cloud, mt.TestConfig(d=1, V=7.0, tau=0.3, eps=4 * 0.003 ** 2, delta=0.1,
                                   C=4.0, packet_budget=3, seed=0)
        return
    if spec == "solver-sweep":
        for size in (150, 400):
            for noise in (0.02, 0.04, 0.06, 0.08):
                for seed in range(6):
                    cloud, _ = mt.generate_synthetic("sphere", n=2, size=size, seed=seed,
                                                     noise=noise, radius=1.0, even=True)
                    yield cloud, mt.TestConfig(d=1, V=7.0, tau=0.3, eps=noise ** 2, delta=0.1,
                                               packet_budget=3, seed=0)
        cloud, _ = mt.generate_synthetic("sphere", n=2, size=150, seed=1, radius=1.0, even=True)
        for eps_bar in (1e-5, 3e-6, 1e-6, 3e-7):
            yield cloud, mt.TestConfig(d=1, V=7.0, tau=0.5, eps=1e-4, delta=0.1,
                                       packet_budget=2, seed=0, eps_bar=eps_bar)
        return
    name, _, seeds = spec.partition(":")
    for seed in seed_list(seeds or "1"):
        _, clouds, config = setup(WORKLOADS[name], seed)
        for cloud in clouds:
            yield cloud, config


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True, help="the source tree to import manifold_test from")
    parser.add_argument("specs", nargs="+", help="workload:seeds, criterion-11 or solver-sweep")
    args = parser.parse_args(argv)
    sys.path[:0] = [str(Path(args.src).resolve()), str(ROOT / "bench")]
    import manifold_test as mt

    for spec in args.specs:
        for cloud, config in runs(spec):
            verdict = mt.run_test(cloud, config)
            verify = None
            if verdict.case == "one":
                report = mt.verify_output(verdict, cloud)
                verify = {f.name: getattr(report, f.name)
                          for f in dataclasses.fields(report)}
            # numpy scalars (a report's flags may be numpy bools) as their Python values
            print(json.dumps([verdict.certificate, verify], default=lambda x: x.item()),
                  flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

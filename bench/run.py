"""Benchmark of `run_test` and `verify_output` on fixed workloads.

Run from the repository root:

    python3 bench/run.py --workload circle-search --seed 1 --seconds 10 --trace 0

A run makes the workload's inputs from `--seed` (see workloads.py). One
client in one process runs them as a closed loop: a step decides one input
with `run_test` and verifies a case-one verdict with `verify_output`, and
starts only when the previous step finished. A pass is one step on each
input, in order. Passes follow one another while the next is expected to
end within `--seconds` (at least one pass). Every verdict is checked. The
last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`; earlier lines give the environment,
the verdicts and each metric with its unit. A full record, and with
`--trace 1` every span of the last pass, is written under `.bench_out/` in
the repository root.

`--trace 0` reports the end-to-end metrics with tracing off: a time is the
mean over the inputs of a pass, and the median over the run's passes.
`--trace 1` makes one untraced pass as a reference and then traced passes,
and reports the per-layer metrics (see tracer.py): times per input, counts
summed over the inputs of a pass.
"""
from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

from tracer import Tracer, layer_bindings, layer_metrics
from workloads import WORKLOADS, setup

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_SAMPLES = 11

# Times the set-up in a fresh interpreter, so the import is a first import.
SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
sys.path[:0] = sys.argv[1:3]
import workloads
workloads.setup(workloads.WORKLOADS[sys.argv[3]], int(sys.argv[4]),
                None if sys.argv[5] == "-" else int(sys.argv[5]))
print(time.perf_counter() - t0)
"""


@dataclass
class Step:
    verdict: object
    report: object          # VerificationReport, or None on case two
    decide_s: float
    verify_s: float
    answer_s: float


def run_step(mt, cloud, config, tracer: Tracer | None = None) -> Step:
    """Decide, then verify a case-one verdict."""
    def call(name, fn, *args):
        return tracer.call(name, fn, *args) if tracer else fn(*args)

    t0 = time.perf_counter()
    verdict = call("pipeline.run_test", mt.run_test, cloud, config)
    t1 = time.perf_counter()
    report = None
    if verdict.case == "one":
        report = call("pipeline.verify_output", mt.verify_output, verdict, cloud)
    t2 = time.perf_counter()
    return Step(verdict, report, t1 - t0, t2 - t1 if report else 0.0, t2 - t0)


def outcome(step: Step) -> dict:
    """What a step decided: the certificate (verdict, losses, reasons) and
    the verification outcome, which is recorded but not gated on."""
    report = step.report
    verify = None if report is None else {
        "passed": report.passed, "reach_value": report.reach_value,
        "recomputed_loss": report.recomputed_loss, "flags": list(report.flags)}
    return {"certificate": step.verdict.certificate, "verify": verify}


class Gate:
    """Counts failed steps: a raise, the wrong case, or a certificate that
    differs from the first step's on the same input."""

    def __init__(self, expected_case: str):
        self.expected_case = expected_case
        self.references: dict[int, str] = {}
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, index: int, step: Step | None, error: str | None = None) -> bool:
        self.attempted += 1
        problem = error
        if problem is None:
            cert = json.dumps(step.verdict.certificate, sort_keys=True)
            if step.verdict.case != self.expected_case:
                problem = f"case {step.verdict.case}, expected {self.expected_case}"
            elif cert != self.references.setdefault(index, cert):
                problem = "certificate differs from the first step's on this input"
        if problem is not None:
            self.failures.append(f"step {self.attempted} (input {index}): {problem}")
        return problem is None


def guarded_step(gate: Gate, index: int, *args, **kwargs) -> Step | None:
    try:
        step = run_step(*args, **kwargs)
    except Exception:
        gate.check(index, None, traceback.format_exc())
        return None
    return step if gate.check(index, step) else None


def run_pass(gate, mt, inputs, config, tracer: Tracer | None = None):
    """One step on each input, in order; None when a step failed."""
    steps = []
    for index, cloud in enumerate(inputs):
        if tracer is None:
            steps.append(guarded_step(gate, index, mt, cloud, config))
        else:
            with tracer.attached(layer_bindings(mt)):
                steps.append(guarded_step(gate, index, mt, cloud, config,
                                          tracer=tracer))
    return None if any(s is None for s in steps) else steps


def closed_loop(seconds: float, one_pass) -> list:
    """Results of passes run one after another, while the next pass is
    expected (from the last one) to end within `seconds`; at least one."""
    results = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        results.append(one_pass())
        now = time.perf_counter()
        if (now - start) + (now - t0) > seconds:
            return results


def per_input(steps: list[Step], field: str) -> float:
    return statistics.fmean(getattr(s, field) for s in steps)


def untraced(mt, inputs, config, seconds, gate):
    passes = [p for p in closed_loop(seconds, lambda: run_pass(gate, mt, inputs, config))
              if p is not None]
    if not passes:
        return {}, {}
    metrics = {
        "decide_s": (statistics.median(per_input(p, "decide_s") for p in passes), "s"),
        "answer_s": (statistics.median(per_input(p, "answer_s") for p in passes), "s"),
    }
    record = {"passes": [[{"decide_s": s.decide_s, "verify_s": s.verify_s,
                           "answer_s": s.answer_s} for s in p] for p in passes],
              "outcomes": [outcome(s) for s in passes[0]]}
    return metrics, record


def verdict_counts(mt, config, steps: list[Step]) -> dict[str, int]:
    """Counts read off the verdicts of one pass, summed over its inputs."""
    counts = dict.fromkeys(("pipeline.packets", "pipeline.packets_failed",
                            "pipeline.out_of_tube", "pipeline.net_size",
                            "pipeline.net_capped"), 0)
    for step in steps:
        cert = step.verdict.certificate
        full_net = mt.greedy_net(step.verdict.reduction.cloud, config.tau_bar / 2.0)
        counts["pipeline.packets"] += len(cert["candidates"])
        counts["pipeline.packets_failed"] += sum(1 for c in cert["candidates"]
                                                 if c["reason"])
        counts["pipeline.out_of_tube"] += sum(c["out_of_tube"]
                                              for c in cert["candidates"])
        counts["pipeline.net_size"] += cert["net_size"]
        counts["pipeline.net_capped"] += len(full_net) - cert["net_size"]
    return counts


def traced(mt, inputs, config, seconds, gate, counts_file: Path):
    start = time.perf_counter()
    reference = run_pass(gate, mt, inputs, config)
    if reference is None:
        return {}, {}
    from_verdicts = verdict_counts(mt, config, reference)
    expected = json.loads(counts_file.read_text()) if counts_file.exists() else None

    def traced_pass():
        tracer = Tracer()
        return run_pass(gate, mt, inputs, config, tracer), tracer

    runs = []
    for steps, tracer in closed_loop(seconds - (time.perf_counter() - start),
                                     traced_pass):
        if steps is None:
            continue
        m = {**layer_metrics(tracer), **from_verdicts}
        m = {k: v / len(inputs) if unit_of(k) == "s" else v for k, v in m.items()}
        counts = {k: v for k, v in m.items() if unit_of(k) == "count"}
        if expected is None:
            expected = counts
            counts_file.write_text(json.dumps(counts, sort_keys=True, indent=1))
        if counts == expected:
            runs.append((steps, tracer, m))
        else:
            gate.failures.append(f"step {gate.attempted}: per-layer counts differ "
                                 "from an earlier traced pass of this seed")
    if not runs:
        return {}, {}

    metrics = {k: (v if unit_of(k) == "count"
                   else statistics.median(m[k] for _s, _t, m in runs), unit_of(k))
               for k, v in runs[0][2].items()}
    traced_decide = statistics.median(per_input(s, "decide_s") for s, _t, _m in runs)
    metrics["trace.overhead_s"] = (traced_decide - per_input(reference, "decide_s"), "s")
    metrics["verify_s"] = (per_input(reference, "verify_s"), "s")
    record = {"reference": [{"decide_s": s.decide_s, "verify_s": s.verify_s}
                            for s in reference],
              "traced_passes": [[{"decide_s": s.decide_s, "verify_s": s.verify_s,
                                  "outcome": outcome(s)} for s in steps]
                                for steps, _t, _m in runs],
              "outcomes": [outcome(s) for s in reference],
              "spans": runs[-1][1].to_json()}
    return metrics, record


def unit_of(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith((".s", "_s")):
        return "s"
    if name.endswith("_pct"):
        return "%"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def time_setup(workload: str, seed: int, sample_seed: int | None) -> float:
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, str(SRC), str(BENCH_DIR), workload,
         str(seed), "-" if sample_seed is None else str(sample_seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def code_digest() -> str:
    """Digest of the program's and the benchmark's sources."""
    h = hashlib.sha256()
    for path in sorted([*(SRC / "manifold_test").glob("*.py"), *BENCH_DIR.glob("*.py")]):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def blas_threads() -> int | None:
    """Threads of the OpenBLAS numpy loaded, when it can be asked (Linux)."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = {line.split()[-1] for line in maps.splitlines() if "openblas" in line}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
            if hasattr(handle, fn):
                return int(getattr(handle, fn)())
    return None


def git_commit() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=30,
                              capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(np, args, sample_seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "code_digest": code_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "sample_seed": sample_seed,
        "inputs": WORKLOADS[args.workload].inputs,
        "blas_threads": blas_threads(),
        "blas_threads_env": os.environ["OPENBLAS_NUM_THREADS"],
        "seconds": args.seconds,
        "trace": args.trace,
        "loop": "closed, 1 client",
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True,
                   help="draws the rotations of the workload's sample")
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--sample-seed", type=int, default=None,
                   help="generate_synthetic seed (default: the workload's own)")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # One BLAS thread, set before numpy loads (in `setup`) and inherited by
    # the set-up subprocesses, so a run stays on one core of a small machine.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    if not (SRC / "manifold_test" / "__init__.py").is_file():
        print(f"bench: no manifold_test package under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    setups = [] if args.trace else [
        time_setup(args.workload, args.seed, args.sample_seed)
        for _ in range(SETUP_SAMPLES)]
    sys.path.insert(0, str(SRC))
    mt, inputs, config = setup(workload, args.seed, args.sample_seed)
    if Path(mt.__file__).resolve().parent != SRC / "manifold_test":
        print(f"bench: imported manifold_test from {mt.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import numpy as np

    sample_seed = workload.sample_seed if args.sample_seed is None else args.sample_seed
    env = environment(np, args, sample_seed)
    print(json.dumps({"env": env}), flush=True)

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-sample{sample_seed}"
    gate = Gate(workload.expected_case)
    if args.trace:
        counts_file = OUT_DIR / f"counts-{stem}-{env['code_digest']}.json"
        metrics, record = traced(mt, inputs, config, args.seconds, gate, counts_file)
    else:
        metrics, record = untraced(mt, inputs, config, args.seconds, gate)
        metrics["setup_s"] = (statistics.median(setups), "s")
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    if args.trace:
        metrics["fail_ratio"] = (len(gate.failures) / gate.attempted, "ratio")

    record.update(env=env, setup_s=setups, failures=gate.failures,
                  metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})
    (OUT_DIR / f"{stem}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))

    for index, result in enumerate(record.get("outcomes", [])):
        cert = result["certificate"]
        print(json.dumps({"verdict": {
            "input": index, "case": cert["case"], "best_loss": cert["best_loss"],
            "candidates": [(c["loss"], c["reason"]) for c in cert["candidates"]],
            "verify": result["verify"]}}))
    for failure in gate.failures:
        print(f"FAILED {failure}", flush=True)
    print(f"{gate.attempted} steps on {len(inputs)} inputs; times are means over "
          f"the inputs of a pass, medians over passes; setup_s is the median of "
          f"{SETUP_SAMPLES} fresh interpreters")
    for name, (value, unit) in sorted(metrics.items()):
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": not gate.failures and bool(metrics),
        "attempted": gate.attempted,
        "failed": len(gate.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""ergodica benchmark: end-to-end sweep metrics, or per-layer traced metrics.

    python3 bench/run.py --workload sin-abc-1d --seed 0 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from `src/`.
Each sample is one fresh worker process (bench/worker.py) that imports
ergodica, builds the SweepConfig and runs one `run_sweep`, which is what
one `ergodica sweep` invocation costs. Samples run one at a time (closed
loop, one client) while the next one is expected to end within `--seconds`
(at least one).

--trace 0 reports the end-to-end metrics (medians over samples); set-up
time gets extra set-up-only workers so that it always has a median of at
least MIN_SETUP_SAMPLES. --trace 1 alternates untraced and traced workers
and reports the per-layer metrics of bench/tracer.py, with the tracing
overhead as the difference of the two medians.

Every report is checked (bench/workloads.py): pinned outputs on seed 0,
invariants on other seeds, and identical rows across all samples of a run.
Human-readable lines come first; the last line is one JSON object.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib.metadata import version

from tracer import COUNT_METRICS, LAYER_METRICS, SELF_METRICS
from workloads import WORKLOADS, check_report, make_config

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
WORKER = os.path.join(HERE, "worker.py")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
MIN_SETUP_SAMPLES = 5
WORKER_TIMEOUT_S = 170
MAX_PROBLEM_LINES = 20

# name -> (unit, better, bound, what a user sees)
END_TO_END = {
    "sweep_s": ("s", "lower", 0.25,
                "wall time of one run_sweep call (what `ergodica sweep` "
                "waits for)"),
    "setup_s": ("s", "lower", 0.25,
                "worker start to `import ergodica` done and SweepConfig "
                "built; every CLI invocation pays it"),
    "peak_rss_mb": ("MB", "lower", 0.1,
                    "peak resident memory of the worker; LU fill and dense "
                    "corrector arrays show here"),
}


class WorkerError(RuntimeError):
    pass


def worker_env(nproc):
    """Serial ergodica path, BLAS/OpenMP threads capped at nproc, src/ only."""
    env = dict(os.environ)
    env.pop("ERGODICA_THREADS", None)
    env["PYTHONPATH"] = SRC
    for var in THREAD_VARS:
        cur = env.get(var, "")
        if not (cur.isdigit() and 1 <= int(cur) <= nproc):
            env[var] = str(nproc)
    return env


def run_worker(config, env, trace=False, setup_only=False):
    cmd = [sys.executable, WORKER, "--config", json.dumps(config)]
    cmd += ["--trace"] * trace + ["--setup-only"] * setup_only
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--t0", repr(t0)], env=env,
                              cwd=os.path.dirname(HERE), capture_output=True,
                              text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"worker timed out after {exc.timeout} s") from exc
    if proc.returncode != 0:
        raise WorkerError(f"worker exited with {proc.returncode}:\n"
                          f"{proc.stderr[-4000:]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    if not os.path.abspath(out["ergodica_file"]).startswith(SRC + os.sep):
        raise WorkerError(f"imported {out['ergodica_file']}, not from {SRC}")
    return out


def tail_percentile(values):
    """Highest of p99/p95/p90/p75/p50 with at least ten samples beyond it."""
    n = len(values)
    for p in (99, 95, 90, 75, 50):
        if n * (100 - p) / 100 >= 10:
            return p, statistics.quantiles(values, n=100)[p - 1]
    return None


def summary_line(name, values, unit):
    med = statistics.median(values)
    tail = tail_percentile(values)
    tail_txt = (f"p{tail[0]} {tail[1]:.4g}" if tail else
                "no percentile has 10 samples beyond it")
    return (f"{name:<12} {med:12.6g} {unit:<5} median of {len(values)} "
            f"(min {min(values):.4g}, max {max(values):.4g}; {tail_txt})")


def rows_without_timing(report):
    return [{k: v for k, v in row.items() if k != "seconds"}
            for row in report["rows"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not os.path.isfile(os.path.join(SRC, "ergodica", "__init__.py")):
        print(f"no ergodica package under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2

    nproc = len(os.sched_getaffinity(0))
    env = worker_env(nproc)
    config = make_config(args.workload, args.seed)
    print(f"# workload {args.workload} seed {args.seed} seconds "
          f"{args.seconds:g} trace {args.trace}: "
          f"{WORKLOADS[args.workload].why}")
    print(f"# config {json.dumps(config)}")
    print(f"# env nproc {nproc}, python {platform.python_version()}, numpy "
          f"{version('numpy')}, scipy {version('scipy')}, ERGODICA_THREADS "
          f"unset, " + ", ".join(f"{v}={env[v]}" for v in THREAD_VARS)
          + ", one worker process at a time")

    untraced, traced, costs = [], [], []
    start = time.monotonic()
    try:
        # start another sample (or pair) only if it should end in time
        while not costs or (time.monotonic() - start + statistics.median(costs)
                            <= args.seconds):
            t = time.monotonic()
            if not args.trace:
                untraced.append(run_worker(config, env))
            else:
                pair = [False, True] if len(traced) % 2 == 0 else [True, False]
                for trace in pair:
                    (traced if trace else untraced).append(
                        run_worker(config, env, trace=trace))
            costs.append(time.monotonic() - t)
        setups = [s["setup_s"] for s in untraced]
        while not args.trace and len(setups) < MIN_SETUP_SAMPLES:
            setups.append(run_worker(config, env, setup_only=True)["setup_s"])
    except WorkerError as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1

    samples = untraced + traced
    attempted = failed = 0
    problems = []
    for sample in samples:
        n_failed, msgs = check_report(args.workload, args.seed, config,
                                      sample["report"])
        attempted += len(config["eps_list"])
        failed += n_failed
        problems.extend(msgs)
    first = rows_without_timing(samples[0]["report"])
    if any(rows_without_timing(s["report"]) != first for s in samples[1:]):
        problems.append("report rows differ between samples of one seed")

    report = samples[0]["report"]
    if "residual" in report["fits"]:
        # recorded, not pinned: the Bellman residual plateau is a known defect
        residuals = [row.get("residual") for row in report["rows"]]
        print(f"# residual column (unpinned) {residuals}; fit "
              f"{json.dumps(report['fits']['residual'])}")
    print(f"# lambda fit {json.dumps(report['fits'].get('lambda'))}")

    metrics = {}
    if not args.trace:
        values = {"sweep_s": [s["sweep_s"] for s in untraced],
                  "setup_s": setups,
                  "peak_rss_mb": [s["peak_rss_mb"] for s in untraced]}
        for name, (unit, _, bound, what) in END_TO_END.items():
            print(summary_line(name, values[name], unit)
                  + f", bound {bound}: {what}")
            metrics[name] = {"value": statistics.median(values[name]),
                             "unit": unit}
    else:
        problems.extend(trace_problems(traced))
        overhead = (statistics.median(s["sweep_s"] for s in traced)
                    - statistics.median(s["sweep_s"] for s in untraced))
        missing = traced[0]["missing_spans"]
        if missing:
            print(f"# missing spans: {', '.join(missing)}")
        for m in LAYER_METRICS:
            if m.value is None:
                value = overhead
            elif m.unit == "s":
                value = statistics.median(s["layers"][m.name] for s in traced)
            else:
                value = traced[0]["layers"][m.name]
            metrics[m.name] = {"value": value, "unit": m.unit}
            print(f"{m.name:<38} {value:14.6g} {m.unit:<5} moves: {m.moves}")
    print(f"fail_frac    {failed / attempted:12.6g} ratio "
          f"{failed} of {attempted} eps rows failed or outside the check")
    for msg in problems[:MAX_PROBLEM_LINES]:
        print(f"# problem: {msg}")
    if len(problems) > MAX_PROBLEM_LINES:
        print(f"# ... {len(problems) - MAX_PROBLEM_LINES} more problems")
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def trace_problems(traced):
    """Self-time partition and exact repetition of counts across samples."""
    problems = []
    for s in traced:
        layers = s["layers"]
        parts = sum(layers[name] for name in SELF_METRICS)
        if abs(parts - layers["trace.sweep_s"]) > 1e-6 * layers["trace.sweep_s"]:
            problems.append(f"self times sum to {parts!r}, traced sweep "
                            f"{layers['trace.sweep_s']!r}")
    first = {name: traced[0]["layers"][name] for name in COUNT_METRICS}
    for s in traced[1:]:
        for name in COUNT_METRICS:
            if s["layers"][name] != first[name]:
                problems.append(f"{name} {s['layers'][name]} != "
                                f"{first[name]} in another traced sample")
    return problems


if __name__ == "__main__":
    sys.exit(main())

"""Self-test of the benchmark's tracer, checks and metadata.

    python3 bench/selftest.py

Run from the root of a checkout; takes a few seconds. It runs small
sweeps of each workload's problem with "timing": false and checks that

- traced and untraced runs give identical reports (the tracer does not
  change the program), and every count repeats exactly across two traced
  passes;
- the per-layer self times sum to the traced run_sweep time;
- no `ergodica.*` name still refers to a function the tracer wrapped;
- a span the metrics read that has been renamed away is reported missing,
  while the renamed function is still traced under every name;
- the pinned seed-0 check accepts the reference and rejects a perturbed one;
- BENCHMARK.json lists exactly the workloads and metrics the code reports.

Exits 0 when every check passes.
"""

import copy
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import ergodica  # noqa: E402

from run import END_TO_END  # noqa: E402
from tracer import COUNT_METRICS, LAYER_METRICS, SELF_METRICS, Tracer  # noqa: E402
from workloads import WORKLOADS, check_report, load_reference, make_config  # noqa: E402

SMALL = [
    dict(problem="sin-abc", mode="linear", eps_list=[1 / 8, 1 / 16, 1 / 32],
         q=16, n_torus=64,
         measurements=("lambda_rate", "eigfun_rate", "z_rate", "v_norm",
                       "residual_slope")),
    dict(problem="bellman-2ctl-1d", mode="bellman",
         eps_list=[1 / 8, 1 / 16, 1 / 32], q=16, n_torus=64,
         measurements=("lambda_rate", "residual_slope")),
    dict(problem="sep-2d", mode="linear", eps_list=[1 / 4, 1 / 8], q=16,
         n_torus=32, measurements=("lambda_rate",)),
]
RENAMED = ("domain", "dirichlet_solve")


def sweep_all():
    return [json.dumps(ergodica.run_sweep(
        ergodica.SweepConfig(timing=False, **cfg)).as_dict(), sort_keys=True)
        for cfg in SMALL]


def check(ok, what, failures):
    print(f"{'PASS' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def rename_case():
    """Rename one layer function before tracing, as a refactor might."""
    layer, name = RENAMED
    mod = sys.modules[f"ergodica.{layer}"]
    setattr(mod, name + "_moved", getattr(mod, name))
    delattr(mod, name)
    tracer = Tracer()
    missing = tracer.install()
    cfg = SMALL[0]
    ergodica.run_sweep(ergodica.SweepConfig(timing=False, **cfg))
    metrics = tracer.metrics()
    print(json.dumps({"missing": missing,
                      "moved_calls": tracer.stats[f"{layer}.{name}_moved"].calls,
                      "missing_spans": metrics["trace.missing_spans"]}))


def main():
    if sys.argv[1:] == ["--rename-case"]:
        rename_case()
        return 0
    failures = []

    untraced = sweep_all()
    tracer = Tracer()
    missing = tracer.install()
    check(missing == [], f"every span the metrics read exists ({missing})",
          failures)

    namespaces = {key: mod for key, mod in sys.modules.items()
                  if key == "ergodica" or key.startswith("ergodica.")}
    originals = {id(obj.__wrapped__) for mod in namespaces.values()
                 for obj in vars(mod).values() if hasattr(obj, "__wrapped__")}
    stale = [f"{key}.{attr}" for key, mod in namespaces.items()
             for attr, obj in vars(mod).items() if id(obj) in originals]
    check(stale == [], f"no ergodica name keeps an unwrapped original "
          f"({stale})", failures)

    passes = []
    for _ in range(2):
        tracer.stats.clear()
        tracer.counters.clear()
        reports = sweep_all()
        passes.append(tracer.metrics())
        check(reports == untraced, "traced reports identical to untraced",
              failures)
    diff = [n for n in COUNT_METRICS if passes[0][n] != passes[1][n]]
    check(diff == [], f"counts repeat exactly across traced passes ({diff})",
          failures)
    busy = [n for n in COUNT_METRICS if passes[0][n] > 0]
    check(len(busy) >= len(COUNT_METRICS) - 1,
          f"every count is exercised by the small sweeps ({busy})", failures)
    m = passes[0]
    parts = sum(m[name] for name in SELF_METRICS)
    check(abs(parts - m["trace.sweep_s"]) <= 1e-9 * m["trace.sweep_s"],
          f"self times {parts:.6f} s partition the traced sweep "
          f"{m['trace.sweep_s']:.6f} s", failures)

    proc = subprocess.run([sys.executable, __file__, "--rename-case"],
                          capture_output=True, text=True, timeout=300)
    ok = proc.returncode == 0
    if ok:
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        layer, name = RENAMED
        ok = (out["missing"] == [f"{layer}.{name}"]
              and out["missing_spans"] == 1 and out["moved_calls"] > 0)
    check(ok, f"a renamed span is reported missing, and its function is "
          f"still traced ({proc.stdout.strip()[-200:] or proc.stderr[-400:]})",
          failures)

    ref = load_reference()
    for name in WORKLOADS:
        config = make_config(name, 0)
        report = {"lambda_bar": ref[name]["lambda_bar"], "failures": [],
                  "rows": [dict(r, lambda_bar=ref[name]["lambda_bar"],
                                abs_err_lambda=abs(r["lambda_eps"]
                                                   - ref[name]["lambda_bar"]))
                           for r in ref[name]["rows"]]}
        failed, problems = check_report(name, 0, config, report)
        check(failed == 0 and problems == [],
              f"{name}: pinned reference passes its own check {problems}",
              failures)
        bad = copy.deepcopy(report)
        bad["rows"][0]["lambda_eps"] += 1e-5
        bad["rows"][0]["abs_err_lambda"] = abs(bad["rows"][0]["lambda_eps"]
                                               - bad["lambda_bar"])
        failed, _ = check_report(name, 0, config, bad)
        check(failed == 1, f"{name}: a 1e-5 shift of lambda_eps is caught",
              failures)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    check([w["name"] for w in bench["workloads"]] == list(WORKLOADS)
          and all(w["why"] == WORKLOADS[w["name"]].why
                  for w in bench["workloads"]),
          "BENCHMARK.json workloads match workloads.py", failures)
    check(bench["end_to_end"] == [
        {"name": n, "unit": u, "better": b, "bound": bound}
        for n, (u, b, bound, _) in END_TO_END.items()],
        "BENCHMARK.json end_to_end matches run.py", failures)
    check(bench["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better}
        for m in LAYER_METRICS],
        "BENCHMARK.json per_layer matches tracer.py", failures)

    print(f"{len(failures)} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

"""One benchmark sample in a fresh process.

    python3 bench/worker.py --t0 T --config JSON [--trace] [--setup-only]

Imports ergodica from the checkout's `src/`, builds the SweepConfig and
reports the set-up time, counted from `T` (a `time.monotonic()` reading the
parent took just before starting this process). Then runs one `run_sweep`,
traced or not, and prints one JSON line: set-up and sweep time, peak
resident memory, the report, and with `--trace` the per-layer metrics.
"""

import argparse
import json
import resource
import time


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--config", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    import ergodica

    raw = json.loads(args.config)
    raw["measurements"] = tuple(raw["measurements"])
    config = ergodica.SweepConfig(**raw)
    out = {"setup_s": time.monotonic() - args.t0}

    if not args.setup_only:
        tracer = None
        if args.trace:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        t = time.perf_counter()
        report = ergodica.run_sweep(config)
        out["sweep_s"] = time.perf_counter() - t
        out["report"] = report.as_dict()
        if tracer is not None:
            out["layers"] = tracer.metrics()
            out["missing_spans"] = tracer.missing
    # ru_maxrss is in KiB on Linux
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out["ergodica_file"] = ergodica.__file__
    print(json.dumps(out))


if __name__ == "__main__":
    main()

"""One benchmark run in a fresh interpreter.

Run from a workload's run directory (it reads ./config.json). The child
builds a Pipeline, prints 'ready' so the parent can time set-up, then
runs the pipeline cold into --out and reruns it warm into the same
directory. It prints one JSON line with its timings and peak memory.
With --spans it installs the span recorder first and writes the spans
there, with counters split into the cold run and the first rerun.
"""
from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import warnings
from pathlib import Path


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--out", required=True)
    parser.add_argument("--reruns", type=int, default=0)
    parser.add_argument("--spans", default=None, help="trace into this file")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    from mission_profiler.pipeline import Pipeline, RunConfig

    config = RunConfig(**json.loads(Path("config.json").read_text(encoding="utf-8")))
    pipe = Pipeline(config, args.out)
    print("ready", flush=True)
    if args.setup_only:
        return

    warnings.simplefilter("ignore")  # pipeline warnings also land in report.json
    rec = None
    if args.spans:
        import tracer

        rec = tracer.Recorder()
        tracer.install(rec)
        rec.phase = "cold"

    start = time.perf_counter()
    report = pipe.run()
    run_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    counters = {}
    if rec is not None:
        counters["cold"] = rec.snapshot()
        rec.reset_counters()
        rec.phase = "rerun"

    rerun_s = []
    rerun_matches = True
    for _ in range(args.reruns):
        start = time.perf_counter()
        again = Pipeline(config, args.out).run()
        rerun_s.append(time.perf_counter() - start)
        rerun_matches = rerun_matches and json.dumps(again, sort_keys=True) == json.dumps(report, sort_keys=True)
        if rec is not None and "rerun" not in counters:
            counters["rerun"] = rec.snapshot()

    if rec is not None:
        tracer.dump(rec, Path(args.spans))
    json.dump({
        "run_s": run_s,
        "rerun_s": rerun_s,
        "peak_rss_mb": peak_rss_mb,
        "rerun_matches": rerun_matches,
        "counters": counters,
    }, sys.stdout)
    print(flush=True)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Compare the work records of two run manifests of the same bench.

The two manifests come from runs at different thread counts (or
observability levels). Work counters and work time series measure work
done, never scheduling, so they must match exactly; timings live in the
histograms, phases and timing series and are not compared.

    compare_manifests.py counters LABEL PARALLEL SINGLE [--present NAME ...] [--nonzero NAME ...]
    compare_manifests.py series LABEL PARALLEL SINGLE

`counters` fails when a `--present` counter is missing from PARALLEL, a
`--nonzero` counter is missing or zero there, or any counter differs
between the two manifests. `series` fails when PARALLEL carries no work
time series or any work series differs point for point. Exit status 0
means the check passed, 1 that it failed.
"""

import argparse
import json
import sys


def load(path):
    with open(path) as f:
        return json.load(f)


def counters(path):
    return {c["name"]: c["value"] for c in load(path)["counters"]}


def work_series(path):
    return {s["name"]: s["points"]
            for s in load(path).get("timeseries") or [] if not s["timing"]}


def report_mismatch(label, kind, parallel, single):
    print(f"{label}: {kind} mismatch between thread counts")
    for name in sorted(set(parallel) | set(single)):
        p, s = parallel.get(name), single.get(name)
        if p != s:
            print(f"  {name}: parallel={p} single={s}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("mode", choices=("counters", "series"))
    ap.add_argument("label", help="bench name used in messages")
    ap.add_argument("parallel", help="manifest of the multi-threaded run")
    ap.add_argument("single", help="manifest of the rerun to compare against")
    ap.add_argument("--present", nargs="*", default=[], metavar="NAME",
                    help="counters PARALLEL must carry")
    ap.add_argument("--nonzero", nargs="*", default=[], metavar="NAME",
                    help="counters PARALLEL must carry with a non-zero value")
    args = ap.parse_args()

    if args.mode == "series":
        parallel, single = work_series(args.parallel), work_series(args.single)
        if not parallel:
            print(f"{args.label} manifest carries no work time series")
            return 1
        if parallel != single:
            report_mismatch(args.label, "work time-series", parallel, single)
            return 1
        print(f"{args.label}: {len(parallel)} work time series identical across thread counts")
        return 0

    parallel, single = counters(args.parallel), counters(args.single)
    missing = [n for n in args.present if n not in parallel]
    missing += [n for n in args.nonzero if not parallel.get(n)]
    for name in missing:
        print(f"missing counter {name} in {args.label} manifest")
    if missing:
        return 1
    if parallel != single:
        report_mismatch(args.label, "counter", parallel, single)
        return 1
    print(f"{args.label} counters identical across thread counts")
    return 0


if __name__ == "__main__":
    sys.exit(main())

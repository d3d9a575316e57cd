"""lsrp benchmark: one seeded closed-loop workload, outputs checked, one JSON result line.

Run from the root of an lsrp checkout:

    python3 bench/run.py --workload handshake-n128 --seed 1 --seconds 30 --trace 0

--trace 0 prints the end-to-end metrics.  --trace 1 is the traced run: it
wraps the public calls of each lsrp module, writes the spans to
bench/results/<workload>-seed<seed>-spans.csv and prints the per-layer
metrics with the tracing overhead.  The last line of standard output is
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

WORKLOADS = ("handshake-n128", "handshake-n256-wideq", "login-mix")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "lsrp", "__init__.py")):
        print("bench/run.py: src/lsrp not found; run from the root of an lsrp checkout",
              file=sys.stderr)
        return 2
    # One BLAS thread per process: with OpenBLAS's default of one thread per
    # core, its spinning workers contend with the protocol threads on small
    # hosts and runs stop repeating (see bench/README.md).  An explicit
    # setting in the environment wins.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    sys.path.insert(0, os.path.abspath("src"))
    import workloads
    from tracing import Tracer

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    if args.workload == "login-mix":
        outcome, metrics = workloads.login_workload(args.seed, args.seconds, tracer)
    else:
        outcome, metrics = workloads.handshake_workload(args.workload, args.seed, args.seconds, tracer)
    for problem in outcome.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not outcome.problems,
        "attempted": len(outcome.latencies),
        "failed": outcome.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

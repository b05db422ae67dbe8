"""Benchmark entry point: one workload, one seed, one JSON result line.

Run from the root of a checkout::

    python3 perfbench/run.py --workload sweep-cold --seed 1 --seconds 20 --trace 0

Workloads (see ``README.md`` for why each exists and what it predicts):
``sweep-cold``, ``sweep-warm-jobs2``, ``fleet-auth`` and ``serve-mix``.
With ``--trace 0`` the result carries the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` a separate traced run reports the
per-layer metrics.  Human-readable detail precedes the result line; the
last line of standard output is always the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402 - needs the path above

WORKLOADS = ("sweep-cold", "sweep-warm-jobs2", "fleet-auth", "serve-mix")


def load_spec(root: str) -> dict:
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _terminate(signum, frame):
    # Unwind through the finally blocks that stop every started process.
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"no program to measure: {src}/repro is missing (run from the "
              "root of a checkout)", file=sys.stderr)
        return 2
    # The harness imports the program only to check served answers and to
    # sign requests the way the program's own clients do.
    sys.path.insert(0, src)
    spec = load_spec(root)
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[section]}

    work = os.path.join(root, ".perfbench", "work", f"{args.workload}-{os.getpid()}")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["TMPDIR"] = work  # temporary files stay inside the checkout
    ctx = workloads.Context(root=root, workload=args.workload, seed=args.seed,
                            seconds=args.seconds, trace=bool(args.trace), work=work,
                            procs=workloads.Processes(env))
    try:
        result, details = workloads.run_workload(ctx)
    except workloads.BenchError as exc:
        print("\n".join(ctx.lines))
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        ctx.procs.stop_all()

    print("\n".join(ctx.lines))
    print(f"{args.workload} seed={args.seed} trace={args.trace}")
    for name, value in sorted(details.items()):
        print(f"  {name:<28} {value:.6g}" if isinstance(value, float)
              else f"  {name:<28} {value}")
    if args.trace:
        # A layer a workload never reaches reads 0 (say, the pool on
        # sweep-cold); name them so a typo cannot pass for a zero.
        absent = sorted(set(units) - set(details))
        print(f"  not on this workload's path (reported as 0): {', '.join(absent)}")
        result.metrics = {name: details.get(name, 0) for name in units}
    missing = set(units) - set(result.metrics)
    if missing:
        print(f"benchmark failed: metrics not measured: {sorted(missing)}",
              file=sys.stderr)
        return 1
    print(result.as_json(units))
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())

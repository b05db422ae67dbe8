"""Command-line entry point: ``python -m repro.experiments [names...]``.

Options
-------
``--quick``       use the cheap settings (small ensembles, subsampled datasets)
``--full``        use the high-fidelity settings
``--executor``    how to dispatch learning-curve cells: ``serial``,
                  ``process`` or ``remote`` (a TCP worker fleet) — results are
                  bit-identical; defaults to ``process`` when ``--jobs`` > 1
                  and ``serial`` otherwise
``--jobs``        worker count for the process executor (``-1`` = CPUs);
                  for ``remote``, the size of the spawned localhost fleet
``--bind``        remote executor: listen address for *external* fleet workers
                  (``HOST:PORT``; default is a loopback ephemeral port)
``--workers``     remote executor: spawn N localhost fleet workers (default:
                  ``--jobs`` when ``--bind`` is not given, else 0)
``--store-dir``   persistent dataset/cache store directory: datasets are
                  simulated and analytical caches warmed at most once, then
                  reloaded by later invocations and worker processes
``--store-url``   the same store behind any registered backend locator:
                  ``file://DIR``, ``memory://`` (process-local scratch) or
                  ``http://HOST:PORT/`` — an S3-style object store (serve one
                  with ``python -m repro.datasets.object_server``).  Locally
                  spawned fleet workers open the same store, so they load
                  artifacts from it instead of through the coordinator relay
``--store-prune`` after the run, delete store entries whose fingerprint none
                  of the executed experiments uses (stale settings, old
                  simulator versions)
``--publish-models`` after each plan-backed experiment, fit one canonical
                  model per servable series on the full dataset and publish
                  it into the store under ``models/<series>-<plan_fp>.npz``;
                  serve the store with ``repro-serve --store-url ...`` (see
                  :mod:`repro.serving` and ``docs/serving.md``)
``--heartbeat-timeout`` / ``--max-retries``
                  remote-executor fault-tolerance knobs: worker liveness
                  deadline and the per-cell requeue budget (see the
                  README's "Operating a fleet" section)
``--batch-cells`` cell-fusion target for the process and remote executors:
                  ``auto`` shapes cost-balanced batches/leases from the
                  calibrated cost model, an integer ``N`` forces ~N cells
                  per batch/lease (for ``remote`` it is the fleet's lease
                  size).  Without the flag the process executor shapes
                  ``auto`` batches and a remote fleet leases fixed 4-cell
                  batches.  Batch shape never affects results.  For
                  ``--executor process`` with ``--jobs`` > 1 a single warm
                  worker pool additionally serves the whole experiment
                  sequence, so workers spawn once and keep their per-plan
                  memos across experiments
``--trace``       record every experiment/plan/batch/cell span of the run —
                  across worker processes and the fleet wire — to
                  FILE as JSON lines and print a per-phase summary (see
                  ``docs/observability.md``)
``--status-port`` remote executor: serve the coordinator's read-only
                  ``/metrics`` (fleet-wide Prometheus text) and ``/healthz``
                  (JSON liveness + load) on this port (0 = ephemeral)
``--auth-key-file`` shared-secret key file: fleet handshakes and frames are
                  HMAC-authenticated, spawned workers inherit the key, the
                  status sidecar and any ``http://`` store requests are
                  signed (see the README's "Securing a fleet" section and
                  ``docs/protocol.md``)
``--insecure``    allow a non-loopback ``--bind`` without ``--auth-key-file``
                  (without it, that combination is a startup error)
``--log-format`` / ``--log-level``
                  structured logging: ``json`` emits one JSON object per
                  line (machine-ingestable), ``text`` the classic format
``names``         experiment names (default: all; see ``EXPERIMENTS``)

Fleet workers
-------------
``python -m repro.experiments fleet-worker --connect HOST:PORT
[--store-dir DIR | --store-url URL]`` starts a worker process for a
``--executor remote --bind`` coordinator on this or any other host (an
alias for ``python -m repro.distributed.worker``; see there for all
options).  Workers load artifacts from their own store when it holds
them and fetch the rest through the coordinator relay, so store-less
workers never re-simulate; give each worker ``--store-url``
to read a shared store directly.
"""

from __future__ import annotations

import argparse
import sys

from repro.cli import (add_auth_args, add_logging_parent, add_store_args,
                       check_bind_safety, load_auth_key)
from repro.experiments.reporting import format_result
from repro.experiments.runner import EXPERIMENTS, ExperimentSettings, run_experiment
from repro.experiments.scheduler import EXECUTORS
from repro.obs.logging import configure_logging
from repro.obs.tracing import TRACER, write_trace


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "fleet-worker":
        from repro.distributed.worker import main as worker_main

        return worker_main(argv[1:])

    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Reproduce the figures of 'Learning with Analytical Models'",
        parents=[
            add_store_args(
                dir_help="persistent dataset/analytical-cache store directory",
                url_help="store locator instead of a directory: file://DIR, "
                         "memory:// or http://HOST:PORT/ (an S3-style object "
                         "store, e.g. python -m repro.datasets.object_server)"),
            add_auth_args(),
            add_logging_parent(),
        ],
    )
    parser.add_argument("names", nargs="*", default=list(EXPERIMENTS),
                        help=f"experiments to run (default: all). Available: {', '.join(EXPERIMENTS)}")
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--quick", action="store_true", help="cheap smoke-test settings")
    group.add_argument("--full", action="store_true", help="high-fidelity settings")
    parser.add_argument("--executor", choices=EXECUTORS, default=None,
                        help="cell executor (results are bit-identical across "
                             "executors; default: process when --jobs > 1, else serial)")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="workers for the process executor (-1 = CPU "
                             "count); local fleet size for --executor remote")
    parser.add_argument("--bind", default=None, metavar="HOST:PORT",
                        help="remote executor: accept external fleet workers on "
                             "this address (start them with the fleet-worker "
                             "subcommand)")
    parser.add_argument("--workers", type=int, default=None, metavar="N",
                        help="remote executor: spawn N localhost fleet workers "
                             "(default: --jobs without --bind, 0 with it)")
    parser.add_argument("--heartbeat-timeout", type=float, default=None,
                        metavar="S",
                        help="remote executor: seconds of heartbeat silence "
                             "before a worker is presumed dead and its leased "
                             "cells are requeued (default 15; must be > 0 and "
                             "well above the workers' 1s heartbeat interval)")
    parser.add_argument("--max-retries", type=int, default=None, metavar="N",
                        help="remote executor: requeue budget per cell before "
                             "the plan fails hard (default 3; 0 = any worker "
                             "death fails the plan)")
    parser.add_argument("--batch-cells", default=None, metavar="auto|N",
                        help="process/remote executors: cell-fusion target — "
                             "'auto' shapes cost-balanced batches (process) "
                             "or adaptive leases (remote) from the cost "
                             "model, an integer forces ~N cells per batch or "
                             "lease (default: auto for process, fixed 4-cell "
                             "leases for remote); results are bit-identical "
                             "for any value")
    parser.add_argument("--store-prune", action="store_true",
                        help="after the run, delete store entries not used by "
                             "the executed experiments (requires --store-dir "
                             "or --store-url)")
    parser.add_argument("--publish-models", action="store_true",
                        help="after each plan-backed experiment, fit one model "
                             "per servable series on the full dataset and "
                             "publish it into the store for the serving tier "
                             "(serve with repro-serve --store-url ...; "
                             "requires --store-dir or --store-url)")
    parser.add_argument("--trace", default=None, metavar="FILE",
                        help="record every experiment/plan/batch/cell span of "
                             "the run to FILE as JSON lines and print a "
                             "per-phase summary (works with every executor; "
                             "spans cross the process-pool and fleet-wire "
                             "boundaries)")
    parser.add_argument("--status-port", type=int, default=None, metavar="PORT",
                        help="remote executor: serve the coordinator's "
                             "read-only /metrics (fleet-wide Prometheus text) "
                             "and /healthz (JSON) on this port (0 = ephemeral)")
    args = parser.parse_args(argv)
    configure_logging(fmt=args.log_format, level=args.log_level)
    auth_key = load_auth_key(args.auth_key_file, parser=parser)

    if args.quick:
        settings = ExperimentSettings.quick()
    elif args.full:
        settings = ExperimentSettings.full()
    else:
        settings = ExperimentSettings()

    executor = args.executor
    if executor is None:
        if args.bind is not None or args.workers is not None:
            executor = "remote"
        else:
            executor = "serial" if args.jobs == 1 else "process"
    if executor != "remote" and (args.bind is not None or args.workers is not None):
        parser.error("--bind/--workers require --executor remote")
    fleet_knobs = {"heartbeat_timeout": args.heartbeat_timeout,
                   "max_retries": args.max_retries}
    fleet_knobs = {k: v for k, v in fleet_knobs.items() if v is not None}
    if fleet_knobs and executor != "remote":
        flags = ", ".join("--" + k.replace("_", "-") for k in fleet_knobs)
        parser.error(f"{flags} require --executor remote")
    if args.heartbeat_timeout is not None and args.heartbeat_timeout <= 0:
        parser.error(f"--heartbeat-timeout must be > 0, got {args.heartbeat_timeout}")
    if args.max_retries is not None and args.max_retries < 0:
        parser.error(f"--max-retries must be >= 0, got {args.max_retries}")
    if args.status_port is not None and executor != "remote":
        parser.error("--status-port requires --executor remote (it serves "
                     "the fleet coordinator's metrics)")
    batch_cells = None
    if args.batch_cells is not None:
        if executor not in ("process", "remote"):
            parser.error("--batch-cells requires --executor process or remote")
        from repro.experiments.pool import resolve_batch_cells

        try:
            batch_cells = resolve_batch_cells(args.batch_cells)
        except ValueError as exc:
            parser.error(str(exc))
        if executor == "remote":
            # For the remote executor the fusion target IS the lease size.
            fleet_knobs["batch_size"] = batch_cells
            batch_cells = None
    if args.store_prune and args.store_url is None and args.store_dir is None:
        parser.error("--store-prune requires --store-dir or --store-url")
    if args.publish_models and args.store_url is None and args.store_dir is None:
        parser.error("--publish-models requires --store-dir or --store-url")

    store = None
    if args.store_url is not None:
        # Always resolved through the scheme registry, so a malformed URL
        # (missing scheme, typo'd http:/) is a usage error instead of
        # silently becoming a local directory named after the URL.
        from repro.datasets.backends import resolve_backend
        from repro.datasets.store import DatasetStore

        try:
            store = DatasetStore(resolve_backend(args.store_url, auth=auth_key))
        except ValueError as exc:
            parser.error(str(exc))
    elif args.store_dir is not None:
        from repro.datasets.store import DatasetStore

        store = DatasetStore(args.store_dir)

    fleet = None
    status_server = None
    if executor == "remote":
        from repro.distributed.coordinator import Coordinator
        from repro.distributed.protocol import parse_address
        from repro.experiments.pool import _resolve_jobs

        bind = ("127.0.0.1", 0) if args.bind is None else parse_address(args.bind)
        check_bind_safety(parser, bind[0], auth=auth_key, insecure=args.insecure)
        fleet = Coordinator(bind=bind, auth_key=auth_key, **fleet_knobs)
        if args.bind is not None:
            host, port = fleet.address
            # A wildcard bind address is not connectable from other hosts;
            # tell workers to use this machine's name instead.
            connect_host = host
            if host in ("0.0.0.0", "::"):
                import socket as _socket

                connect_host = _socket.gethostname()
            print(f"fleet coordinator listening on {host}:{port} "
                  f"(connect workers with: python -m repro.experiments "
                  f"fleet-worker --connect {connect_host}:{port})")
        if args.status_port is not None:
            status_server = fleet.serve_status(("127.0.0.1", args.status_port),
                                               auth=auth_key)
            print(f"fleet status at {status_server.url} "
                  f"(/metrics and /healthz, read-only)")
        n_local = args.workers
        if n_local is None:
            n_local = 0 if args.bind is not None else _resolve_jobs(args.jobs)
        if n_local:
            # Workers open the parent store through its shareable locator
            # (file:// directory, http:// object store); a non-shareable
            # store (memory://) leaves them store-less — they bootstrap
            # from the coordinator's blobs instead.
            fleet.spawn_local_workers(
                n_local, store_url=None if store is None else store.locator,
                auth_key_file=args.auth_key_file)

    pool = None
    if executor == "process":
        from repro.experiments.pool import WorkerPool, _resolve_jobs

        n_workers = _resolve_jobs(args.jobs)
        if n_workers > 1:
            # One warm pool for the whole sequence: workers spawn once and
            # keep their per-plan memos across experiments.
            pool = WorkerPool(n_workers)

    from contextlib import nullcontext

    collect = TRACER.collect() if args.trace is not None else nullcontext([])
    try:
        with collect as trace_spans:
            for name in args.names:
                if args.publish_models:
                    from repro.experiments.plan import experiment_plan

                    publish = experiment_plan(name, settings) is not None
                else:
                    publish = False
                result = run_experiment(name, settings=settings, executor=executor,
                                        jobs=args.jobs, store=store, fleet=fleet,
                                        pool=pool, batch_cells=batch_cells,
                                        publish_models=publish)
                print(format_result(result))
                if publish:
                    outcome = result.extra.get("published_models", {})
                    for series, key in sorted(outcome.get("published", {}).items()):
                        print(f"published model: {series} -> {key}")
                    for series, reason in sorted(outcome.get("skipped", {}).items()):
                        print(f"not servable:    {series} ({reason})")
                print()
    finally:
        if status_server is not None:
            status_server.stop()
        if fleet is not None:
            fleet.close()
        if pool is not None:
            pool.close()

    if args.trace is not None:
        from repro.experiments.reporting import format_trace_summary, summarize_trace

        write_trace(args.trace, trace_spans)
        print(f"trace written to {args.trace}")
        print(format_trace_summary(summarize_trace(trace_spans)))

    if args.store_prune:
        from repro.experiments.plan import experiment_plan

        # Datasets/caches are keyed by dataset fingerprint, published
        # models by plan fingerprint: keep both, or pruning right after
        # --publish-models would delete the just-published models.
        keep = set()
        for name in args.names:
            plan = experiment_plan(name, settings)
            if plan is not None:
                keep.add(plan.dataset.fingerprint)
                keep.add(plan.fingerprint)
        removed = store.prune(keep)
        print(f"store prune: kept {len(keep)} fingerprint(s), "
              f"removed {len(removed)} file(s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Program-side entry of the benchmark: runs the system under test.

Every program process of the benchmark is started through this file, is
a server module started directly, or is a worker the program itself
spawns; the harness in ``run.py`` runs no program code in its own process
except to check served answers.  Modes:

``sweep``    run all 12 experiments through the public ``run_all`` with
             the cold (serial, no store), warm (process executor, 2
             workers, one shared ``WorkerPool``, file store) or fleet
             (one keyed ``Coordinator``, 2 keyed local workers,
             object-store backend) dispatch path, as the CLI does;
``build``    fill a dataset store with every plan's dataset and warmed
             analytical caches (the set-up of the warm and fleet sweeps);
``publish``  run figure5 and figure8 with ``publish_models`` into a store
             (the set-up of the serving workload);
``launch``   run a server's ``main`` with probes installed and write the
             recorded spans when it exits (traced runs only).

Each mode prints one JSON object as its last line of standard output.
With ``--trace-out`` a sweep installs the probes of ``probes.py``, runs
under the program's own ``TRACER.collect()`` (the only view into worker
processes) and reports per-layer figures alongside the rows.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import resource
import sys
import threading
import time

FIGURE_CURVES = ("figure5", "figure6", "figure7", "figure8")


def _settings(seed: int):
    from repro.experiments import ExperimentSettings

    return dataclasses.replace(ExperimentSettings.quick(), random_state=seed)


def _plain(value):
    """JSON-safe form of numpy scalars inside experiment extras."""
    if hasattr(value, "item"):
        return value.item()
    return repr(value)


def results_digest(results: dict) -> str:
    """SHA-256 of the canonical JSON of every result's rows and extras.

    Floats are written with ``repr``, which round-trips exactly, so two
    runs have equal digests only if their rows are bit-identical.
    """
    canon = json.dumps(
        {name: {"rows": result.rows(), "extra": result.extra}
         for name, result in results.items()},
        sort_keys=True, default=_plain)
    return hashlib.sha256(canon.encode()).hexdigest()


def _mean_mape(results: dict, series: str) -> float:
    means = [m for name in FIGURE_CURVES for m in results[name].curves[series].means]
    return sum(means) / len(means)


def _peak_rss_kb() -> int:
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)


# --------------------------------------------------------------------------- #
# sweep
# --------------------------------------------------------------------------- #
def _sweep_layers(rec, trace_spans, *, pool_stats, pool_jobs, fleet_stats,
                  spawn_wait) -> dict:
    """Per-layer figures of one traced sweep (parent-process view)."""
    by_name: dict[str, list] = {}
    for span in rec.spans:
        by_name.setdefault(span.name, []).append(span)

    def total(*names) -> float:
        return sum(s.duration for n in names for s in by_name.get(n, ()))

    def count(*names) -> int:
        return sum(len(by_name.get(n, ())) for n in names)

    def attr_sum(key, *names) -> int:
        return sum(s.attrs.get(key, 0) for n in names for s in by_name.get(n, ()))

    generators = ("grid_only_dataset", "blocked_small_grid_dataset",
                  "threaded_dataset", "fmm_dataset")
    reads = by_name.get("backend.read", [])
    cells = sorted(s.duration for s in trace_spans if s.name == "cell")

    out = {
        "dataset.simulate_s": total(*generators),
        "dataset.simulate_calls": count(*generators),
        "dataset.rows_simulated": attr_sum("rows", *generators),
        "store.read_s": total("backend.read"),
        "store.reads": len(reads),
        "store.hits": sum(1 for s in reads if "error" not in s.attrs),
        "store.write_s": total("backend.write"),
        "store.writes": count("backend.write"),
        "store.bytes_read": attr_sum("bytes", "backend.read"),
        "analytical.warm_s": total("AnalyticalPredictionCache.warm"),
        "analytical.rows_warmed": attr_sum("rows", "AnalyticalPredictionCache.warm"),
        "cell.durations": cells,
        "fit.ml_s": total("Pipeline.fit"),
        "fit.hybrid_s": total("HybridPerformanceModel.fit"),
        "predict.ml_s": total("Pipeline.predict"),
        "predict.hybrid_s": total("HybridPerformanceModel.predict"),
        "split_s": total("PerformanceDataset.train_test_indices"),
        "merge_s": total("merge_cell_results"),
        "opaque.s": total("analytical_accuracy", "ablation_sampling_strategy"),
        "pool.spawn_s": total("pool.spawn"),
        "pool.close_s": total("pool.close"),
        "fleet.spawn_s": spawn_wait,
        "fleet.execute_s": total("fleet.execute"),
        "fleet.frames": count("send_message", "recv_message"),
        "fleet.frame_bytes": attr_sum("bytes", "encode_value", "decode_value"),
        "fleet.codec_s": total("encode_value", "decode_value"),
        "fleet.hmac_s": total("FrameAuth.sign", "FrameAuth.verify"),
        "fleet.close_s": total("fleet.close"),
    }
    if pool_stats is not None:
        busy_window = total("pool.run_batches") * pool_jobs
        out.update({
            "pool.dispatch_s": pool_stats["dispatch_seconds"],
            "pool.compute_s": pool_stats["compute_seconds"],
            "pool.merge_s": pool_stats["merge_seconds"],
            "pool.batches": pool_stats["batches"],
            "pool.idle_frac": (1.0 - pool_stats["compute_seconds"] / busy_window
                               if busy_window > 0 else 0.0),
        })
    if fleet_stats is not None:
        received = fleet_stats["results_received"]
        out.update({
            "fleet.requeued_cells": fleet_stats["requeued_cells"],
            "fleet.duplicate_ratio": (fleet_stats["duplicate_results"] / received
                                      if received else 0.0),
        })
    return out


def _wait_for_workers(fleet, n: int, started: float, box: dict) -> None:
    """Record when *n* fleet workers have connected (traced runs only)."""
    deadline = started + 60.0
    while time.perf_counter() < deadline:
        if len(fleet.worker_snapshot()) >= n:
            box["seconds"] = time.perf_counter() - started
            return
        time.sleep(0.002)


def cmd_sweep(args) -> dict:
    rec = None
    if args.trace_out:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from spans import Recorder

        rec = Recorder(run_id=args.run_id)
        import_span = rec.open("import repro", "import")
    t0 = time.perf_counter()
    import repro.experiments  # noqa: F401 - the import is what is timed
    from repro.experiments import run_all

    import_s = time.perf_counter() - t0
    if rec is not None:
        rec.close(import_span)
        from probes import install_sweep_probes

        install_sweep_probes(rec)
    settings = _settings(args.seed)
    jobs = 2
    pool = fleet = store = None
    spawn_box: dict = {}
    start = time.perf_counter()
    if args.mode == "warm":
        from repro.datasets.store import DatasetStore
        from repro.experiments.pool import WorkerPool

        store = DatasetStore(args.store)
        pool = WorkerPool(jobs)
    elif args.mode == "fleet":
        from repro.cli import load_auth_key
        from repro.datasets.store import DatasetStore
        from repro.distributed.coordinator import Coordinator

        key = load_auth_key(args.key_file)
        store = DatasetStore(args.store, auth=key)
        fleet = Coordinator(auth_key=key)
        spawn_started = time.perf_counter()
        fleet.spawn_local_workers(jobs, store_url=store.locator,
                                  auth_key_file=args.key_file)
        if rec is not None:
            threading.Thread(target=_wait_for_workers, daemon=True,
                             args=(fleet, jobs, spawn_started, spawn_box)).start()

    from contextlib import nullcontext

    from repro.obs.tracing import TRACER

    collect = TRACER.collect() if rec is not None else nullcontext([])
    pool_stats = fleet_stats = None
    try:
        with collect as trace_spans:
            if args.mode == "cold":
                results = run_all(settings)
            elif args.mode == "warm":
                results = run_all(settings, executor="process", jobs=jobs,
                                  store=store, pool=pool)
            else:
                results = run_all(settings, executor="remote", jobs=jobs,
                                  store=store, fleet=fleet)
    finally:
        if pool is not None:
            pool_stats = pool.stats
            pool.close()
        if fleet is not None:
            fleet_stats = fleet.stats
            fleet.close()
    run_s = time.perf_counter() - start
    out = {
        "import_s": import_s,
        "run_s": run_s,
        "digest": results_digest(results),
        "cells_merged": sum(len(point.mapes) for result in results.values()
                            for curve in result.curves.values()
                            for point in curve.points),
        "hybrid_mape_pct": _mean_mape(results, "hybrid"),
        "ml_mape_pct": _mean_mape(results, "extra_trees"),
        "peak_rss_kb": _peak_rss_kb(),
    }
    if rec is not None:
        out["layers"] = _sweep_layers(
            rec, trace_spans, pool_stats=pool_stats, pool_jobs=jobs,
            fleet_stats=fleet_stats, spawn_wait=spawn_box.get("seconds", 0.0))
        rec.write_jsonl(args.trace_out)
    return out


def cmd_reference(args) -> dict:
    """The serial, store-less reference rows (no timing, no probes)."""
    from repro.experiments import run_all

    return {"digest": results_digest(run_all(_settings(args.seed)))}


# --------------------------------------------------------------------------- #
# build / publish
# --------------------------------------------------------------------------- #
def _traced_writes(args):
    """With ``--trace-out``, probe the store layer; return a reporter."""
    if not args.trace_out:
        return lambda: {}
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from probes import install_sweep_probes
    from spans import Recorder

    rec = Recorder(run_id=args.run_id)
    install_sweep_probes(rec)

    def report() -> dict:
        rec.write_jsonl(args.trace_out)
        writes = [s for s in rec.spans if s.name == "backend.write"]
        return {"store.write_s": sum(s.duration for s in writes),
                "store.writes": len(writes)}
    return report


def cmd_build(args) -> dict:
    from repro.analytical import AnalyticalPredictionCache
    from repro.cli import load_auth_key
    from repro.datasets.store import DatasetStore
    from repro.experiments import EXPERIMENTS
    from repro.experiments.plan import build_analytical, experiment_plan

    report = _traced_writes(args)
    key = load_auth_key(args.key_file)
    store = DatasetStore(args.store, auth=key)
    settings = _settings(args.seed)
    for name in EXPERIMENTS:
        plan = experiment_plan(name, settings)
        if plan is None:
            continue
        dataset = store.get(plan.dataset)
        for model_key in plan.cache_keys():
            if store.has_cache(model_key, plan.dataset):
                continue
            cache = AnalyticalPredictionCache(build_analytical(model_key),
                                              dataset.feature_names)
            store.save_analytical_cache(model_key, plan.dataset, cache.warm(dataset.X))
    return {"misses": store.misses, "hits": store.hits, **report()}


def cmd_publish(args) -> dict:
    from repro.datasets.store import DatasetStore
    from repro.experiments import run_all
    from repro.experiments.plan import experiment_plan

    report = _traced_writes(args)
    store = DatasetStore(args.store)
    settings = _settings(args.seed)
    names = ("figure5", "figure8")
    results = run_all(settings, names=names, store=store, publish_models=True)
    models = {}
    for name in names:
        published = results[name].extra["published_models"]["published"]
        models[name] = {"plan": experiment_plan(name, settings).fingerprint,
                        "series": sorted(published)}
    return {"models": models, **report()}


# --------------------------------------------------------------------------- #
# launch (traced servers)
# --------------------------------------------------------------------------- #
def _interrupt(signum, frame):
    raise KeyboardInterrupt


def cmd_launch(args) -> dict:
    import importlib
    import signal

    # The servers' main() treats KeyboardInterrupt as a clean shutdown.
    signal.signal(signal.SIGTERM, _interrupt)
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from probes import PROBES
    from spans import Recorder

    rec = Recorder(run_id=args.run_id)
    module = importlib.import_module(args.module)
    PROBES[args.probe](rec)
    try:
        code = module.main(args.argv)
    finally:
        rec.write_jsonl(args.trace_out)
    return {"exit": code, "spans": len(rec.spans)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    sweep = sub.add_parser("sweep")
    sweep.add_argument("--mode", choices=("cold", "warm", "fleet"), required=True)
    for p in (sweep, sub.add_parser("reference"), sub.add_parser("build"),
              sub.add_parser("publish")):
        p.add_argument("--seed", type=int, required=True)
        p.add_argument("--store", default=None)
        p.add_argument("--key-file", default=None)
    for p in (sweep, sub.choices["build"], sub.choices["publish"]):
        p.add_argument("--trace-out", default=None)
        p.add_argument("--run-id", default="")
    launch = sub.add_parser("launch")
    launch.add_argument("--probe", choices=("serve", "objstore"), required=True)
    launch.add_argument("--trace-out", required=True)
    launch.add_argument("--run-id", default="")
    launch.add_argument("module")
    launch.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    handler = {"sweep": cmd_sweep, "reference": cmd_reference, "build": cmd_build,
               "publish": cmd_publish, "launch": cmd_launch}[args.cmd]
    out = handler(args)
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The four workloads: set-up, timed phase, output checks and metrics.

This module is the load side.  Every program process is a child
started through ``program.py`` or a server module, so the harness's own
memory and imports stay out of the measurements.  The harness imports
``repro`` only to compute the served answers it expects
(``decode_model(...).predict_rows``) and to sign a ``/metrics`` scrape of
the keyed object server in traced fleet runs.

End-to-end metrics are the same five on every workload (each must be
reported, non-zero, on every workload); what "operation"
means differs, see ``README.md``:

=================  ==========================  ===============================
metric             sweep-* workloads           serve-mix
=================  ==========================  ===============================
setup_s            median of 3 set-ups         median of 3 set-ups
latency_p50_ms     median sweep, launch→exit   /predict p50 at the reference
                   (sweep-cold: host-scaled)
                                               rate, timed from the due time
latency_tail_ms    the median (no sweep p90)   /predict p90, same phase
throughput_per_s   cells merged per second     highest ladder rate meeting
                   of sweep (median sweep)     the latency limit (achieved)
peak_rss_mb        largest program process in the timed phase
=================  ==========================  ===============================
"""

from __future__ import annotations

import json
import os
import random
import re
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

import benchstats
import loadgen
from spans import format_table, layer_table, load_jsonl

HERE = os.path.dirname(os.path.abspath(__file__))
PROGRAM = os.path.join(HERE, "program.py")

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPS = 3
#: Timed sweeps per run, at least (more while ``--seconds`` lasts).
MIN_SWEEPS = 3
#: sweep-cold is scaled to a host on which :func:`host_probe` takes this
#: long (seconds); see :func:`host_probe`.
HOST_PROBE_REF_S = 0.3
#: Cells per quick sweep of all 12 experiments (plan cells + the points of
#: the plan-less sampling ablation); a sweep merging fewer failed.
CELLS_PER_SWEEP = 198
#: Serving: the reference rate (below the unchanged code's capacity),
#: the latency limit, and the rate ladder around the reference rate.
REF_RPS = 20.0
LIMIT_MS = 100.0
#: The percentile the limit applies to.  p99 would need 1000 /predict per
#: step; p90 keeps wide margins on both sides of the reference rate on the
#: unchanged code (about 47 ms at 20/s, far above 100 ms at 50/s), where
#: p95 at 20/s came within 10% of the limit.
LIMIT_Q = 90.0
#: Steps at least 2.4x apart, so the value repeats (at 40/s the unchanged
#: code's tail came within 10% of the limit).
LADDER_UP = (50.0, 125.0, 300.0, 750.0)
LADDER_DOWN = (8.0, 3.0)
#: 223 requests hold 201 /predict: even p95 has ten samples beyond it.
LADDER_MIN_REQUESTS = 223
RECOMMEND_SHARE = 0.1
RECOMMEND_GRID = 400
CONNECTIONS = 2
SERVED = (("figure5", "hybrid"), ("figure8", "hybrid"))

#: Layers of the self-time table; the rows reported as ``self.<layer>_s``.
TABLE_LAYERS = ("import", "scheduler", "dataset", "store", "analytical", "split",
                "cell", "fit.ml", "fit.hybrid", "predict.ml", "predict.hybrid",
                "merge", "opaque", "pool", "fleet", "fleet.wire", "fleet.codec",
                "fleet.hmac", "serve.handler", "serve.batcher",
                "serve.predict_rows", "serve.model_load")


class BenchError(RuntimeError):
    """The benchmark could not run (not a wrong answer from the program)."""


# --------------------------------------------------------------------------- #
# Processes
# --------------------------------------------------------------------------- #
class Processes:
    """Every process the run starts; :meth:`stop_all` ends and reaps them."""

    def __init__(self, env: dict) -> None:
        self.env = env
        self.live: list[subprocess.Popen] = []

    def run_json(self, args: list[str], timeout: float = 170.0) -> tuple[dict, float]:
        """Run ``program.py args``; return its JSON line and wall seconds."""
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, PROGRAM, *args], env=self.env,
                              capture_output=True, text=True, timeout=timeout)
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            raise BenchError(f"program.py {args[0]} exited {proc.returncode}:\n"
                             f"{proc.stderr[-3000:]}")
        return json.loads(proc.stdout.strip().splitlines()[-1]), wall

    def start_server(self, cmd: list[str], timeout: float = 60.0) -> tuple[subprocess.Popen, str]:
        """Start a server; wait for the URL it prints on its first line."""
        proc = subprocess.Popen(cmd, env=self.env, stdout=subprocess.PIPE,
                                stderr=subprocess.DEVNULL, text=True)
        self.live.append(proc)
        box: dict = {}

        def read_first_line() -> None:
            box["line"] = proc.stdout.readline()

        reader = threading.Thread(target=read_first_line, daemon=True)
        reader.start()
        reader.join(timeout)
        match = re.search(r"http://[^\s/]+/", box.get("line", ""))
        if match is None:
            self.stop(proc)
            raise BenchError(f"server did not start: {cmd!r}")
        # Keep draining stdout so a chatty server can never block on a pipe.
        threading.Thread(target=proc.stdout.read, daemon=True).start()
        return proc, match.group(0)

    def stop(self, proc: subprocess.Popen) -> None:
        if proc.poll() is None:
            # SIGTERM, not SIGINT: a process started from a background job
            # inherits an ignored SIGINT.  Traced launchers turn SIGTERM
            # into a clean exit that writes their spans.
            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        if proc in self.live:
            self.live.remove(proc)

    def stop_all(self) -> None:
        for proc in list(self.live):
            self.stop(proc)


def peak_rss_kb(pid: int) -> int:
    """High-water RSS of a live process (``VmHWM``), in KiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


@dataclass
class Context:
    root: str
    workload: str
    seed: int
    seconds: int
    trace: bool
    work: str
    procs: Processes
    lines: list[str] = field(default_factory=list)

    def say(self, text: str) -> None:
        self.lines.append(text)


@dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    metrics: dict

    def as_json(self, units: dict) -> str:
        return json.dumps({
            "correct": self.correct, "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in self.metrics.items()}})


# --------------------------------------------------------------------------- #
# Sweeps
# --------------------------------------------------------------------------- #
def host_probe() -> float:
    """Seconds a fixed single-thread NumPy + Python workload takes right now.

    This host drifts between a fast and a slow state for minutes at a
    time, and a serial sweep, which runs on one CPU, slows by up to 1.5x
    in the slow state.  The probe is benchmark code, so a change to the
    program cannot move it; it runs just before each cold sweep, and the
    sweep's wall time is scaled by ``HOST_PROBE_REF_S / probe``.  Measured
    on this host: in two runs 40 minutes apart the raw cold sweeps
    differed by 1.5x and the scaled ones by about 3%.
    """
    import numpy as np

    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    a = rng.random((64, 300))
    acc = 0.0
    for i in range(330):
        order = np.argsort(a, axis=1)
        acc += float(np.take_along_axis(a, order, axis=1)[:, :3].sum())
        acc += float((a[:, (i * 7) % 300:] * 1.0001).mean())
        counts: dict[int, int] = {}
        for j in range(3000):
            counts[j & 255] = counts.get(j & 255, 0) + j
        acc += len(counts)
    if not acc > 0:  # consumes the result, so no step can be skipped
        raise BenchError("host probe computed nothing")
    return time.perf_counter() - t0


def _trace_path(ctx: Context) -> str:
    """Where a traced run leaves its spans (kept after the run)."""
    path = os.path.join(ctx.root, ".perfbench", "traces",
                        f"{ctx.workload}-seed{ctx.seed}.jsonl")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    return path


def _key_file(ctx: Context) -> str:
    path = os.path.join(ctx.work, "fleet.key")
    with open(path, "w", encoding="ascii") as fh:
        fh.write(os.urandom(32).hex())
    return path


def _start_objstore(ctx: Context, root: str, key_file: str, traced_out=None):
    server = [sys.executable, "-m", "repro.datasets.object_server",
              "--bind", "127.0.0.1", "--port", "0", "--root", root,
              "--auth-key-file", key_file]
    if traced_out is not None:
        server = [sys.executable, PROGRAM, "launch", "--probe", "objstore",
                  "--trace-out", traced_out, "--run-id", ctx.workload,
                  "repro.datasets.object_server", *server[3:]]
    return ctx.procs.start_server(server)


def _setup_trace_args(ctx: Context, last: bool) -> list[str]:
    """Traced runs probe the store writes of the last set-up."""
    if not (ctx.trace and last):
        return []
    return ["--trace-out", os.path.join(ctx.work, "setup-spans.jsonl"),
            "--run-id", f"{ctx.workload}-{ctx.seed}-setup"]


def _sweep_setup(ctx: Context, mode: str, key_file: str | None, traced_objstore):
    """Run the set-up SETUP_REPS times; keep the last; return (times, state)."""
    times, state = [], {"build": {}}
    for rep in range(SETUP_REPS):
        last = rep == SETUP_REPS - 1
        t0 = time.perf_counter()
        if mode == "cold":
            # Nothing precedes a cold sweep but a fresh interpreter that
            # can import the package; time exactly that.
            subprocess.run([sys.executable, "-c", "import repro.experiments"],
                           env=ctx.procs.env, check=True, timeout=120)
        elif mode == "warm":
            store = os.path.join(ctx.work, f"store{rep}")
            state["build"], _ = ctx.procs.run_json(
                ["build", "--seed", str(ctx.seed), "--store", store,
                 *_setup_trace_args(ctx, last)])
            state["store"] = store
        else:
            root = os.path.join(ctx.work, f"objroot{rep}")
            proc, url = _start_objstore(ctx, root, key_file,
                                        traced_objstore if last else None)
            state["build"], _ = ctx.procs.run_json(
                ["build", "--seed", str(ctx.seed), "--store", url,
                 "--key-file", key_file, *_setup_trace_args(ctx, last)])
            if last:
                state.update(objstore=proc, store=url)
            else:
                ctx.procs.stop(proc)
        times.append(time.perf_counter() - t0)
    return times, state


def _sweep_args(ctx: Context, mode: str, state: dict, key_file, trace_out=None):
    args = ["sweep", "--mode", mode, "--seed", str(ctx.seed), "--run-id",
            f"{ctx.workload}-{ctx.seed}"]
    if mode != "cold":
        args += ["--store", state["store"]]
    if key_file is not None:
        args += ["--key-file", key_file]
    if trace_out is not None:
        args += ["--trace-out", trace_out]
    return args


def _scrape_objstore(url: str, key_file: str) -> int:
    """Requests served by the object server so far, from its /metrics."""
    import urllib.request

    from repro.obs.http import sign_request  # signing is the program's own scheme

    with open(key_file, "rb") as fh:
        key = fh.read().strip()
    req = urllib.request.Request(url + "metrics", headers={
        "Authorization": sign_request(key, "GET", "/metrics", b"")})
    with urllib.request.urlopen(req, timeout=10) as resp:
        text = resp.read().decode()
    total = 0
    for line in text.splitlines():
        m = re.match(r"repro_object_store_(gets|heads|puts|lists|deletes)_total\S* (\S+)",
                     line)
        if m:
            total += int(float(m.group(2)))
    return total


def sweep_workload(ctx: Context, mode: str) -> tuple[Result, dict]:
    key_file = _key_file(ctx) if mode == "fleet" else None
    traced_objstore = (os.path.join(ctx.work, "objstore-spans.jsonl")
                       if ctx.trace and mode == "fleet" else None)
    setup_times, state = _sweep_setup(ctx, mode, key_file, traced_objstore)
    sweeps: list[tuple[float, dict]] = []
    traced: list[tuple[float, dict, float]] = []
    probes: list[float] = []
    objstore_before = objstore_after = 0
    t_begin = time.perf_counter()
    if not ctx.trace:
        while len(sweeps) < MIN_SWEEPS or time.perf_counter() - t_begin < ctx.seconds:
            if mode == "cold":
                probes.append(host_probe())
            out, wall = ctx.procs.run_json(_sweep_args(ctx, mode, state, key_file))
            sweeps.append((wall, out))
    else:
        # Untraced and traced sweeps alternate, so the overhead estimate
        # sees the same machine state on both sides.
        trace_out = _trace_path(ctx)
        for _ in range(2):
            out, wall = ctx.procs.run_json(_sweep_args(ctx, mode, state, key_file))
            sweeps.append((wall, out))
            if mode == "fleet":
                objstore_before = _scrape_objstore(state["store"], key_file)
            t_start = time.perf_counter()
            out, wall = ctx.procs.run_json(
                _sweep_args(ctx, mode, state, key_file, trace_out))
            traced.append((wall, out, t_start))
            if mode == "fleet":
                objstore_after = _scrape_objstore(state["store"], key_file)
    peak_kb = max(out["peak_rss_kb"] for _, out in sweeps + [t[:2] for t in traced])
    objstore_spans = []
    if "objstore" in state:
        peak_kb = max(peak_kb, peak_rss_kb(state["objstore"].pid))
        ctx.procs.stop(state["objstore"])
        if traced_objstore is not None:
            objstore_spans = load_jsonl(traced_objstore)

    # Output checks: every sweep equals the serial reference at this seed.
    outputs = [out for _, out in sweeps] + [out for _, out, _ in traced]
    if mode == "cold":
        reference = outputs[0]["digest"]
    else:
        reference = ctx.procs.run_json(["reference", "--seed", str(ctx.seed)])[0]["digest"]
    attempted = CELLS_PER_SWEEP * len(outputs)
    failed = sum(CELLS_PER_SWEEP if out["digest"] != reference
                 else CELLS_PER_SWEEP - out["cells_merged"] for out in outputs)
    ctx.say(f"rows digest {reference} (serial reference, seed {ctx.seed}); "
            f"{sum(out['digest'] == reference for out in outputs)}/{len(outputs)} "
            f"sweeps match")

    walls = [wall for wall, _ in sweeps]
    sweep_s = benchstats.median(walls)
    # sweep-cold is gated host-scaled (see host_probe); sweep_s stays raw.
    gated_s = (benchstats.median([w * HOST_PROBE_REF_S / p
                                  for w, p in zip(walls, probes, strict=True)])
               if probes else sweep_s)
    details = {
        "setup_s": benchstats.median(setup_times),
        "sweep_s": sweep_s,
        "sweep_n": len(walls),
        "peak_rss_mb": peak_kb / 1024.0,
        "error_rate": failed / attempted,
        "cells.attempted": attempted,
        "cells.merged": sum(out["cells_merged"] for out in outputs),
        "hybrid_mape_pct": outputs[0]["hybrid_mape_pct"],
        "ml_mape_pct": outputs[0]["ml_mape_pct"],
        "import.repro_s": benchstats.median([out["import_s"] for out in outputs]),
    }
    ctx.say("sweeps (s): " + " ".join(f"{w:.3f}" for w in walls))
    if probes:
        details["host_probe_s"] = benchstats.median(probes)
        details["sweep_s_host_scaled"] = gated_s
        ctx.say("host probes (s): " + " ".join(f"{p:.3f}" for p in probes))
    metrics = {
        "setup_s": details["setup_s"],
        "latency_p50_ms": gated_s * 1000.0,
        # p90 needs ten sweeps beyond it, far more than a run holds, so
        # the tail falls back to the median (see README.md).
        "latency_tail_ms": gated_s * 1000.0,
        "throughput_per_s": CELLS_PER_SWEEP / gated_s,
        "peak_rss_mb": details["peak_rss_mb"],
    }
    if ctx.trace:
        details.update(_sweep_layer_metrics(ctx, traced, trace_out, sweep_s,
                                            objstore_spans,
                                            objstore_after - objstore_before))
        for key in ("store.write_s", "store.writes"):
            details[key] += state["build"].get(key, 0)
    return Result(failed == 0, attempted, failed, metrics), details


def _sweep_layer_metrics(ctx: Context, traced, trace_out: str, untraced_s: float,
                         objstore_spans, objstore_requests: int) -> dict:
    wall, out, t_start = traced[-1]
    layers = dict(out["layers"])
    cells = layers.pop("cell.durations")
    # The blocking path is the sweep process's main thread; the wall is
    # the sweep as the harness saw it, so interpreter start-up and exit
    # land in the unattributed row.
    main = [s for s in load_jsonl(trace_out) if s.thread == "MainThread"]
    table = layer_table(main, wall, TABLE_LAYERS)
    ctx.say(f"traced sweep: per-layer self time (main thread), wall {wall:.3f} s")
    ctx.say(format_table(table, wall))
    reads = layers.pop("store.reads")
    hits = layers.pop("store.hits")
    window = [s for s in objstore_spans if t_start <= s.start <= t_start + wall]
    metrics = {
        **layers,
        "store.reads": reads,
        "store.hit_ratio": hits / reads if reads else 0.0,
        "cell.count": len(cells),
        "cell.p50_ms": 1000.0 * benchstats.nearest_rank(cells, 50) if cells else 0.0,
        "cell.p90_ms": 1000.0 * (benchstats.percentile_or_none(cells, 90) or 0.0),
        "objstore.requests": objstore_requests,
        "objstore.bytes": sum(s.attrs.get("bytes", 0) for s in window),
        "trace.wall_s": wall,
        "trace.overhead_frac": benchstats.median([w for w, _, _ in traced]) / untraced_s - 1.0,
    }
    metrics.update({f"self.{layer}_s": value for layer, value in table.items()})
    return metrics


# --------------------------------------------------------------------------- #
# Serving
# --------------------------------------------------------------------------- #
@dataclass
class ServedSet:
    """Row pools and locally computed expected answers per served model."""

    plan: dict
    rows: dict
    expected: dict


def _serve_cmd(ctx: Context, store: str, trace_out=None) -> list[str]:
    args = ["--store-dir", store, "--bind", "127.0.0.1", "--port", "0"]
    if trace_out is None:
        return [sys.executable, "-m", "repro.serving.server", *args]
    return [sys.executable, PROGRAM, "launch", "--probe", "serve", "--trace-out",
            trace_out, "--run-id", ctx.workload, "repro.serving.server", *args]


def _load_models(url: str, sset: ServedSet) -> None:
    """One request per model: the server fetches and decodes it on first use."""
    host, port = _host_port(url)
    requests = [loadgen.Request(0.0, "/predict", json.dumps(
        {"plan": sset.plan[name], "series": series,
         "rows": [sset.rows[name][0]]}).encode(),
        {"name": name, "idx": [0]}) for name, series in SERVED]
    outcomes = loadgen.run_open_loop(host, port, requests, connections=1, timeout=60,
                                     check=_checker(sset))
    bad = [o.error for o in outcomes if o.status != loadgen.OK]
    if bad:
        raise BenchError(f"model load failed: {bad}")


def _host_port(url: str) -> tuple[str, int]:
    host, port = url[len("http://"):].rstrip("/").rsplit(":", 1)
    return host, int(port)


def _publish(ctx: Context, store: str, trace_args=()) -> tuple[dict, dict]:
    out, _ = ctx.procs.run_json(["publish", "--seed", str(ctx.seed), "--store", store,
                                 *trace_args])
    served = {}
    for name, series in SERVED:
        info = out["models"][name]
        if series not in info["series"]:
            raise BenchError(f"{name} did not publish a {series!r} model")
        served[name] = info["plan"]
    return served, out


def _expected(ctx: Context, store_dir: str, served: dict) -> ServedSet:
    """Expected answers, computed locally from the published model blobs."""
    import dataclasses

    import numpy as np

    from repro.datasets.store import DatasetStore
    from repro.experiments import ExperimentSettings
    from repro.experiments.plan import experiment_plan
    from repro.serving.model_io import decode_model

    settings = dataclasses.replace(ExperimentSettings.quick(), random_state=ctx.seed)
    store = DatasetStore(store_dir)
    rows, expected = {}, {}
    for name, series in SERVED:
        plan = experiment_plan(name, settings)
        X = np.asarray(store.get(plan.dataset).X, dtype=np.float64)
        model = decode_model(store.model_bytes(served[name], series))
        rows[name] = X.tolist()
        expected[name] = model.predict_rows(X).tolist()
    return ServedSet(plan=served, rows=rows, expected=expected)


def _schedule(rng: random.Random, sset: ServedSet, rate: float, n: int,
              rid_prefix: str = "r") -> list[loadgen.Request]:
    """*n* requests at *rate*: exactly ``RECOMMEND_SHARE`` are /recommend."""
    n_rec = round(n * RECOMMEND_SHARE)
    routes = ["/recommend"] * n_rec + ["/predict"] * (n - n_rec)
    rng.shuffle(routes)
    dues = loadgen.poisson_schedule(rng, rate, n)
    requests = []
    for i, (due, path) in enumerate(zip(dues, routes, strict=True)):
        name, series = SERVED[rng.randrange(len(SERVED))]
        pool = sset.rows[name]
        if path == "/predict":
            idx = [rng.randrange(len(pool))]
        else:
            idx = rng.sample(range(len(pool)), min(RECOMMEND_GRID, len(pool)))
        rid = f"{rid_prefix}{i}"
        body = {"plan": sset.plan[name], "series": series,
                "rows": [pool[j] for j in idx], "rid": rid}
        requests.append(loadgen.Request(due, path, json.dumps(body).encode(),
                                        {"name": name, "idx": idx, "rid": rid}))
    return requests


def _checker(sset: ServedSet):
    def check(req: loadgen.Request, reply: dict) -> bool:
        want = [sset.expected[req.meta["name"]][j] for j in req.meta["idx"]]
        if reply.get("predictions") != want:
            return False
        if req.path == "/recommend":
            best = min(range(len(want)), key=want.__getitem__)
            return reply.get("index") == best and reply.get("predicted") == want[best]
        return True
    return check


def _latencies(outcomes, path: str) -> list[float]:
    """Latencies from due time; a failed or timed-out request counts as infinite."""
    return [o.latency_ms if o.status == loadgen.OK else float("inf")
            for o in outcomes if o.request.path == path]


def _step(url: str, requests, sset: ServedSet):
    host, port = _host_port(url)
    outcomes = loadgen.run_open_loop(host, port, requests, connections=CONNECTIONS,
                                     check=_checker(sset))
    limit_lat = benchstats.percentile_or_none(_latencies(outcomes, "/predict"), LIMIT_Q)
    by_due = sorted(outcomes, key=lambda o: o.due_abs)
    last_third = [o.latency_ms if o.status == loadgen.OK else float("inf")
                  for o in by_due[-len(by_due) // 3:]]
    ok = [o for o in outcomes if o.status == loadgen.OK]
    passed = (len(ok) == len(outcomes) and limit_lat is not None
              and limit_lat <= LIMIT_MS and benchstats.median(last_third) <= LIMIT_MS)
    span = max(o.done for o in outcomes) - min(o.due_abs for o in outcomes)
    return outcomes, passed, len(ok) / span, limit_lat


def _ladder(ctx: Context, url: str, sset: ServedSet, rng: random.Random,
            ref_passed: bool, ref_rate: float):
    """Walk the rate ladder from the reference rate; return (max rps, outcomes)."""
    best = ref_rate if ref_passed else 0.0
    outcomes_all = []
    rates = LADDER_UP if ref_passed else LADDER_DOWN
    for rate in rates:
        n = max(LADDER_MIN_REQUESTS, int(rate))
        outcomes, passed, achieved, limit_lat = _step(
            url, _schedule(rng, sset, rate, n), sset)
        outcomes_all += outcomes
        ctx.say(f"ladder {rate:g} rps: {'pass' if passed else 'fail'} (achieved "
                f"{achieved:.1f}/s, /predict p{LIMIT_Q:g} {limit_lat:.1f} ms)")
        if passed:
            best = achieved
            if not ref_passed:
                break
        elif ref_passed:
            break
    return best, outcomes_all


def _route_counts(outcomes, path: str, prefix: str) -> dict:
    mine = [o for o in outcomes if o.request.path == path]
    return {f"{prefix}.sent": len(mine),
            f"{prefix}.ok": sum(o.status == loadgen.OK for o in mine),
            f"{prefix}.failed": sum(o.status == loadgen.FAILED for o in mine),
            f"{prefix}.timeout": sum(o.status == loadgen.TIMEOUT for o in mine)}


def _stats(url: str) -> dict:
    import urllib.request

    with urllib.request.urlopen(url + "stats", timeout=10) as resp:
        return json.loads(resp.read())


def serve_workload(ctx: Context) -> tuple[Result, dict]:
    setup_times = []
    server = url = store = None
    for rep in range(SETUP_REPS):
        store_rep = os.path.join(ctx.work, f"store{rep}")
        t0 = time.perf_counter()
        served_rep, published = _publish(
            ctx, store_rep, _setup_trace_args(ctx, rep == SETUP_REPS - 1))
        proc, url_rep = ctx.procs.start_server(_serve_cmd(ctx, store_rep))
        if rep == 0:
            # Benchmark-side preparation, not program set-up, but the
            # expected answers are needed to check the loading requests.
            t_prep = time.perf_counter()
            sset = _expected(ctx, store_rep, served_rep)
            t0 += time.perf_counter() - t_prep
        if served_rep != sset.plan:
            raise BenchError("published plans differ between set-ups")
        _load_models(url_rep, sset)
        setup_times.append(time.perf_counter() - t0)
        if server is not None:
            ctx.procs.stop(server)
        server, url, store = proc, url_rep, store_rep
    rng = random.Random(ctx.seed)
    n_ref = max(LADDER_MIN_REQUESTS, round(REF_RPS * ctx.seconds))
    ref_out, ref_passed, ref_rate, _ = _step(url, _schedule(rng, sset, REF_RPS, n_ref),
                                             sset)
    max_rps, ladder_out = _ladder(ctx, url, sset, rng, ref_passed, ref_rate)
    batching = _stats(url)
    peak_kb = peak_rss_kb(server.pid)
    ctx.procs.stop(server)

    everything = ref_out + ladder_out
    failed = sum(o.status != loadgen.OK for o in everything)
    predict = _latencies(ref_out, "/predict")
    recommend = _latencies(ref_out, "/recommend")
    details = {
        "setup_s": benchstats.median(setup_times),
        "peak_rss_mb": peak_kb / 1024.0,
        "error_rate": failed / len(everything),
        "predict_p50_ms": benchstats.nearest_rank(predict, 50),
        "predict_p90_ms": benchstats.percentile_or_none(predict, 90) or 0.0,
        "predict_p95_ms": benchstats.percentile_or_none(predict, 95) or 0.0,
        "recommend_p50_ms": benchstats.percentile_or_none(recommend, 50) or 0.0,
        "serve_max_rps": max_rps,
        "gen.late_p90_ms": 1000.0 * (benchstats.percentile_or_none(
            [o.late for o in everything], 90) or 0.0),
        "serve.batch_requests_mean": (batching["requests"] / batching["batches"]
                                      if batching.get("batches") else 0.0),
        **_route_counts(everything, "/predict", "serve.predict"),
        **_route_counts(everything, "/recommend", "serve.recommend"),
    }
    ctx.say(f"reference {REF_RPS:g} rps: /predict p50 {details['predict_p50_ms']:.2f} ms "
            f"p90 {details['predict_p90_ms']:.2f} ms p95 {details['predict_p95_ms']:.2f} ms "
            f"(n={len(predict)}), /recommend "
            f"p50 {details['recommend_p50_ms']:.2f} ms (n={len(recommend)})")
    metrics = {
        "setup_s": details["setup_s"],
        "latency_p50_ms": details["predict_p50_ms"],
        "latency_tail_ms": details["predict_p90_ms"],
        "throughput_per_s": max_rps,
        "peak_rss_mb": details["peak_rss_mb"],
    }
    attempted = len(everything)
    if ctx.trace:
        extra = _serve_traced(ctx, store, sset, rng, n_ref, details["predict_p50_ms"])
        extra["store.write_s"] = published.get("store.write_s", 0.0)
        extra["store.writes"] = published.get("store.writes", 0)
        attempted += extra.pop("attempted")
        failed += extra.pop("failed")
        details.update(extra)
    return Result(failed == 0, attempted, failed, metrics), details


def _serve_traced(ctx: Context, store: str, sset: ServedSet, rng, n_ref: int,
                  untraced_p50: float) -> dict:
    """The reference phase again against a server with probes installed."""
    trace_out = _trace_path(ctx)
    server, url = ctx.procs.start_server(_serve_cmd(ctx, store, trace_out))
    _load_models(url, sset)
    outcomes, _, _, _ = _step(url, _schedule(rng, sset, REF_RPS, n_ref, rid_prefix="t"),
                           sset)
    ctx.procs.stop(server)
    spans = load_jsonl(trace_out)
    by_rid: dict[str, list] = {}
    for span in spans:
        if span.request_id is not None:
            by_rid.setdefault(span.request_id, []).append(span)
    matched, handler_ms, overhead_ms = [], [], []
    wall = 0.0
    for o in outcomes:
        if o.status != loadgen.OK:
            continue
        mine = by_rid.get(o.request.meta["rid"], [])
        matched += mine
        wall += o.service_ms / 1000.0
        handler = [s.duration for s in mine if s.layer == "serve.handler"]
        if o.request.path == "/predict" and handler:
            handler_ms.append(1000.0 * handler[0])
            overhead_ms.append(o.service_ms - 1000.0 * handler[0])
    table = layer_table(matched, wall, TABLE_LAYERS)
    ctx.say(f"traced reference phase: self time over {len(outcomes)} requests "
            f"(send to reply), wall {wall:.3f} s")
    ctx.say(format_table(table, wall))
    grid_rows = [s.duration for s in spans
                 if s.layer == "serve.predict_rows" and s.attrs.get("rows", 0) >= 100]
    # Loads that decoded a blob (later calls only hit the in-memory model).
    decoding = {s.parent_id for s in spans if s.name == "decode_model"}
    loads = [s.duration for s in spans
             if s.name == "ModelServer.load_model" and s.span_id in decoding]
    traced_p50 = benchstats.nearest_rank(_latencies(outcomes, "/predict"), 50)
    metrics = {
        "attempted": len(outcomes),
        "failed": sum(o.status != loadgen.OK for o in outcomes),
        "serve.model_load_s": sum(loads),
        "serve.handler_ms": benchstats.median(handler_ms) if handler_ms else 0.0,
        "serve.predict_rows_ms": 1000.0 * benchstats.median(grid_rows) if grid_rows else 0.0,
        "serve.http_overhead_ms": benchstats.median(overhead_ms) if overhead_ms else 0.0,
        "trace.wall_s": wall,
        "trace.overhead_frac": traced_p50 / untraced_p50 - 1.0,
    }
    metrics.update({f"self.{layer}_s": value for layer, value in table.items()})
    return metrics


def run_workload(ctx: Context) -> tuple[Result, dict]:
    os.makedirs(ctx.work, exist_ok=True)
    try:
        if ctx.workload == "serve-mix":
            return serve_workload(ctx)
        mode = {"sweep-cold": "cold", "sweep-warm-jobs2": "warm",
                "fleet-auth": "fleet"}[ctx.workload]
        return sweep_workload(ctx, mode)
    finally:
        ctx.procs.stop_all()
        shutil.rmtree(ctx.work, ignore_errors=True)

"""Persistent warm worker pool, cost-aware batch shaping and zero-copy transport.

The process executor's historical constant factors — worker spawn per
plan, per-batch dataset pickling, per-process plan-state rebuild — are
attacked here structurally, in three coordinated layers:

* :class:`WorkerPool` is a process pool that **outlives a single plan**:
  ``run_all`` and the CLI create one pool for a whole experiment
  sequence, so workers are spawned once and keep their per-plan memos
  (see ``_WORKER_STATE`` in :mod:`repro.experiments.scheduler`) across
  plans.  The pool counts distinct worker PIDs (:attr:`WorkerPool.
  spawn_count`) so tests and CI can assert that a second invocation
  *reused* workers instead of respawning, and accumulates a phase
  breakdown (spawn / dispatch / compute / merge) in :attr:`WorkerPool.
  stats` so benchmark history can say which constant factor moved.

* :class:`CostModel` estimates a cell's cost from ``fraction x n_rows x
  estimator-family weight`` and calibrates the per-family
  seconds-per-unit scale from observed batch durations.
  :func:`shape_batches` uses those estimates in a greedy LPT
  (longest-processing-time-first) shaper that replaces the blind
  contiguous split: expensive cells are isolated early, cheap cells are
  fused into large batches, so every batch carries comparable work and
  stragglers shrink.  The same estimates make the distributed
  coordinator's lease size adaptive (``batch_size="auto"``).

* :class:`SharedDataset` ships :class:`~repro.core.features.
  PerformanceDataset` arrays to workers through
  :mod:`multiprocessing.shared_memory`: the parent copies ``X``/``y``
  into one named segment, workers attach and build zero-copy read-only
  views, and only a tiny :class:`SharedDatasetRef` crosses the pickle
  boundary per batch.  When shared memory is unavailable the scheduler
  degrades to shipping the dataset object itself (pickled in-band with
  protocol 5 by the pool machinery) or, with a shareable store locator,
  to the store bootstrap path — both existing routes stay intact as the
  cold-start fallbacks.

Batch shape never affects results: cells are pure, seeds are derived at
planning time and the merge is keyed, so any permutation or fusion of a
plan's cells produces bit-identical rows (property-tested in
``tests/test_pool.py``).
"""

from __future__ import annotations

import hashlib
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from repro.core.features import PerformanceDataset
from repro.obs.metrics import REGISTRY, MetricsRegistry
from repro.parallel.threadpool import weighted_chunk_indices

__all__ = [
    "CostModel",
    "COST_MODEL",
    "SharedDataset",
    "SharedDatasetRef",
    "WorkerPool",
    "resolve_batch_cells",
    "shape_batches",
]

#: ``"auto"`` fusion: batches per pool worker.  Mild oversubscription lets
#: the pool queue absorb cost-estimate error dynamically without paying a
#: dispatch round-trip per cell.
AUTO_BATCHES_PER_WORKER = 2


def resolve_batch_cells(value: int | str | None) -> int | str | None:
    """Validate a ``batch_cells`` knob: ``None``, ``"auto"`` or an int >= 1.

    The shared validator behind ``run_plan(batch_cells=...)``, the
    ``--batch-cells`` CLI flag and ``Coordinator(batch_size=...)``;
    numeric strings (CLI input) are converted.
    """
    if value is None or value == "auto":
        return value
    if isinstance(value, bool):  # bool is an int subclass; reject explicitly
        raise ValueError(f"batch_cells must be 'auto' or an integer >= 1, got {value!r}")
    if isinstance(value, str):
        if not value.isdigit():
            raise ValueError(
                f"batch_cells must be 'auto' or an integer >= 1, got {value!r}")
        value = int(value)
    if not isinstance(value, int):
        raise ValueError(f"batch_cells must be 'auto' or an integer >= 1, got {value!r}")
    if value < 1:
        raise ValueError(f"batch_cells must be 'auto' or an integer >= 1, got {value}")
    return value


# --------------------------------------------------------------------------- #
# Cost model
# --------------------------------------------------------------------------- #
#: Relative per-tree (or per-fit) weight of each estimator family.  Rough
#: priors — :meth:`CostModel.observe` calibrates the absolute scale per
#: family from measured batch durations, so only the ballpark matters.
_FAMILY_WEIGHTS = {
    "decision_tree": 1.0,
    "extra_trees": 0.7,       # random thresholds: no split search
    "random_forest": 1.6,     # exhaustive split search per node
    "bagged_tree": 1.2,
    "knn": 0.05,              # fit is a memcpy; predict dominates
}
_DEFAULT_WEIGHT = 1.0
#: The hybrid wrapper adds one stacked feature + cached analytical calls.
_HYBRID_FACTOR = 1.15
#: Uncalibrated seconds-per-unit: any common scale works for *shaping*
#: (only ratios matter); calibration makes estimates absolute.
_DEFAULT_SECONDS_PER_UNIT = 1e-5


class CostModel:
    """Per-cell cost estimates, calibrated from observed cell durations.

    A cell's *units* are ``family_weight x max(1, n_estimators) x
    fraction x n_rows`` — proportional to the training work of the
    fitted ensemble (trees x training rows).  :meth:`observe` folds
    measured ``(units, seconds)`` samples into a per-family
    seconds-per-unit EWMA, so later plans (and the fleet coordinator's
    adaptive leases) see estimates in real seconds.

    The model is a process-wide singleton (:data:`COST_MODEL`): every
    executor contributes observations and every shaper benefits.
    """

    def __init__(self, smoothing: float = 0.5) -> None:
        if not 0.0 < smoothing <= 1.0:
            raise ValueError(f"smoothing must be in (0, 1], got {smoothing}")
        self.smoothing = smoothing
        self._seconds_per_unit: dict[str, float] = {}
        self.observations = 0

    @staticmethod
    def family(factory) -> str:
        """The calibration family of a :class:`FactorySpec` (estimator name)."""
        return factory.estimator.name

    def factory_units(self, factory, fraction: float, n_rows: float = 1.0) -> float:
        """Estimated cost units of one ``(factory, fraction)`` fit.

        With the default ``n_rows=1`` the result is a *per-row* unit —
        the right scale for :attr:`EvalCell.cost_hint`, where only
        ratios within one plan matter (the dataset size is a common
        factor across a plan's cells).
        """
        est = factory.estimator
        weight = _FAMILY_WEIGHTS.get(est.name, _DEFAULT_WEIGHT)
        units = weight * max(1, est.n_estimators) * fraction * n_rows
        if factory.kind == "hybrid":
            units *= _HYBRID_FACTOR
        return units

    def seconds_per_unit(self, family: str) -> float:
        """Calibrated (or default) seconds-per-unit scale of *family*."""
        return self._seconds_per_unit.get(family, _DEFAULT_SECONDS_PER_UNIT)

    def estimate_seconds(self, family: str, units: float) -> float:
        """Predicted wall-clock seconds for *units* of *family* work."""
        return units * self.seconds_per_unit(family)

    def plan_costs(self, plan, cells, n_rows: int) -> dict[tuple, float]:
        """``cell.key -> estimated seconds`` for every cell of *plan*.

        Estimates are comparable across series (the per-family
        calibration shares the scale), which is what lets the LPT shaper
        and the coordinator's adaptive leases mix families in one batch
        budget.
        """
        factories = {spec.label: spec.factory for spec in plan.series}
        costs: dict[tuple, float] = {}
        for cell in cells:
            factory = factories[cell.factory_key]
            # The 1-unit floor keeps degenerate cells (tiny fractions)
            # from looking free: every cell pays fixed split/predict
            # overhead regardless of training size.
            units = max(self.factory_units(factory, cell.fraction, n_rows), 1.0)
            costs[cell.key] = self.estimate_seconds(self.family(factory), units)
        return costs

    def plan_units(self, plan, cells, n_rows: int) -> dict[tuple, tuple[str, float]]:
        """``cell.key -> (family, units)`` — the raw inputs behind :meth:`plan_costs`."""
        factories = {spec.label: spec.factory for spec in plan.series}
        return {
            cell.key: (
                self.family(factories[cell.factory_key]),
                max(self.factory_units(factories[cell.factory_key],
                                       cell.fraction, n_rows), 1.0),
            )
            for cell in cells
        }

    def observe(self, units_by_family: dict[str, float], seconds: float) -> None:
        """Fold one measured batch into the per-family calibration.

        The batch's wall clock is attributed to its families
        proportionally to their *predicted* share, then each family's
        seconds-per-unit is blended toward the implied scale (EWMA).
        Non-positive observations are ignored (clock glitches).
        """
        total_units = sum(units_by_family.values())
        if seconds <= 0.0 or total_units <= 0.0:
            return
        predicted = sum(self.estimate_seconds(family, units)
                        for family, units in units_by_family.items())
        if predicted <= 0.0:
            return
        scale = seconds / predicted
        for family, units in units_by_family.items():
            if units <= 0.0:
                continue
            implied = self.seconds_per_unit(family) * scale
            old = self._seconds_per_unit.get(family)
            if old is None:
                self._seconds_per_unit[family] = implied
            else:
                alpha = self.smoothing
                self._seconds_per_unit[family] = (1 - alpha) * old + alpha * implied
        self.observations += 1


#: Process-wide cost model shared by the process executor and the fleet
#: coordinator, so calibration from one plan benefits the next.
COST_MODEL = CostModel()


def shape_batches(cells: list, costs: dict[tuple, float],
                  n_batches: int) -> list[list]:
    """Partition *cells* into at most *n_batches* cost-balanced batches.

    A thin adapter over :func:`~repro.parallel.threadpool.
    weighted_chunk_indices` (greedy LPT): expensive cells are isolated
    early, cheap cells are fused, and each batch keeps its cells in plan
    order.  Cells whose key is missing from *costs* count as free.

    Batch shape is a pure throughput knob: any partition of a plan's
    cells merges to bit-identical rows (property-tested).
    """
    weights = [costs.get(cell.key, 0.0) for cell in cells]
    return [[cells[i] for i in chunk]
            for chunk in weighted_chunk_indices(weights, n_batches)]


# --------------------------------------------------------------------------- #
# Zero-copy dataset transport
# --------------------------------------------------------------------------- #
def _dataset_digest(dataset: PerformanceDataset) -> str:
    return hashlib.sha256(dataset.X.tobytes() + dataset.y.tobytes()).hexdigest()


@dataclass(frozen=True)
class SharedDatasetRef:
    """Picklable handle to a :class:`SharedDataset` segment.

    A few hundred bytes cross the process boundary per batch instead of
    the full arrays.  ``canonical`` records whether the content is the
    plan's store-registered dataset (workers may then trust store-loaded
    caches for its fingerprint) or an explicit override (stores must be
    bypassed, exactly like the shipped-object path).
    """

    shm_name: str
    dataset_name: str
    feature_names: tuple[str, ...]
    x_shape: tuple[int, int]
    x_dtype: str
    y_dtype: str
    digest: str
    canonical: bool = True

    def materialize(self) -> PerformanceDataset:
        """Attach to the segment and build a zero-copy, read-only dataset.

        The attached segment is kept alive (and leak-tracker-unregistered)
        in a per-process registry; the parent owns the segment's lifetime
        and unlinks it when the pool closes.
        """
        from multiprocessing import shared_memory

        shm = _ATTACHED_SEGMENTS.get(self.shm_name)
        if shm is None:
            shm = shared_memory.SharedMemory(name=self.shm_name)
            # Attaching registers the segment with the resource tracker on
            # Python < 3.13, which would unlink it when this *worker*
            # exits even though the parent still owns it.  Unregister
            # defensively; the parent's registration does the cleanup.
            try:  # pragma: no cover - interpreter-version dependent
                from multiprocessing import resource_tracker

                resource_tracker.unregister(shm._name, "shared_memory")
            except Exception:
                pass
            _ATTACHED_SEGMENTS[self.shm_name] = shm
        x_size = int(np.prod(self.x_shape)) * np.dtype(self.x_dtype).itemsize
        X = np.ndarray(self.x_shape, dtype=self.x_dtype, buffer=shm.buf)
        y = np.ndarray((self.x_shape[0],), dtype=self.y_dtype,
                       buffer=shm.buf, offset=x_size)
        X.flags.writeable = False
        y.flags.writeable = False
        return PerformanceDataset(name=self.dataset_name, X=X, y=y,
                                  feature_names=list(self.feature_names))


#: Worker-side registry of attached segments: keeps the mapped memory
#: alive for as long as memo'd datasets reference it.
_ATTACHED_SEGMENTS: dict = {}


class SharedDataset:
    """Parent-side owner of one dataset's shared-memory segment.

    ``X`` and ``y`` are copied once into a single named segment;
    :attr:`ref` is the tiny picklable handle workers materialize from.
    The creator must call :meth:`close` (or let the owning
    :class:`WorkerPool` do it) to unlink the segment.

    Configuration objects are deliberately not shipped: cell evaluation
    touches only ``X``/``y``/``feature_names``, and analytical caches
    reconstruct configurations from feature rows.
    """

    def __init__(self, dataset: PerformanceDataset, *, canonical: bool = True) -> None:
        from multiprocessing import shared_memory

        X = np.ascontiguousarray(dataset.X)
        y = np.ascontiguousarray(dataset.y)
        self._shm = shared_memory.SharedMemory(
            create=True, size=max(1, X.nbytes + y.nbytes))
        buf = self._shm.buf
        np.ndarray(X.shape, dtype=X.dtype, buffer=buf)[...] = X
        np.ndarray(y.shape, dtype=y.dtype, buffer=buf, offset=X.nbytes)[...] = y
        self.ref = SharedDatasetRef(
            shm_name=self._shm.name,
            dataset_name=dataset.name,
            feature_names=tuple(dataset.feature_names),
            x_shape=tuple(X.shape),
            x_dtype=X.dtype.str,
            y_dtype=y.dtype.str,
            digest=_dataset_digest(dataset),
            canonical=canonical,
        )
        self._closed = False

    def close(self) -> None:
        """Unmap and unlink the segment (idempotent)."""
        if self._closed:
            return
        self._closed = True
        try:
            self._shm.close()
            self._shm.unlink()
        except (FileNotFoundError, OSError):  # pragma: no cover - already gone
            pass

    def __del__(self) -> None:  # pragma: no cover - GC-order dependent
        self.close()


# --------------------------------------------------------------------------- #
# The persistent pool
# --------------------------------------------------------------------------- #
def _prime_worker(delay: float) -> int:
    """Spawn-time warm-up: pay the heavy imports before the first plan.

    The short sleep keeps the priming tasks from all landing on the
    first worker, so every pool process both exists and is warm when the
    first real batch arrives.
    """
    import repro.experiments.scheduler  # noqa: F401  (imports the eval stack)

    time.sleep(delay)
    return os.getpid()


def _timed_call(fn, args: tuple):
    """Run ``fn(*args)`` in a worker, reporting pid and monotonic span.

    ``time.perf_counter`` is CLOCK_MONOTONIC-backed and system-wide on
    Linux, so the parent can subtract its submit timestamp from the
    worker's start timestamp to measure dispatch latency (queueing +
    argument pickling) separately from compute.
    """
    start = time.perf_counter()
    result = fn(*args)
    return os.getpid(), start, time.perf_counter() - start, result


def _resolve_jobs(jobs: int) -> int:
    """Worker count for a ``jobs`` knob: ``-1`` means one per CPU."""
    if jobs == -1:
        return max(1, os.cpu_count() or 1)
    if jobs < 1:
        raise ValueError(f"jobs must be -1 or >= 1, got {jobs}")
    return jobs


class WorkerPool:
    """A warm process pool that outlives a single ``run_plan`` call.

    Parameters
    ----------
    jobs:
        Worker processes (``-1`` = CPU count).
    prime:
        Spawn all workers eagerly and pay the package imports up front
        (default).  Disable for tests that only inspect bookkeeping.

    Notes
    -----
    One pool serves a whole experiment sequence: workers keep their
    per-plan state memos (dataset, warmed caches, factories) across
    plans, so consecutive plans — or repeated invocations of the same
    plan — skip the per-process rebuild entirely.  :attr:`spawn_count`
    counts distinct worker PIDs ever observed; a warm second invocation
    must not grow it (asserted by the CI ``parallel-smoke`` job).

    :attr:`stats` accumulates the phase breakdown benchmark entries
    record: ``spawn_seconds`` (pool creation + priming),
    ``dispatch_seconds`` (submit-to-worker-start latency: queueing and
    argument pickling), ``compute_seconds`` (in-worker evaluation) and
    ``merge_seconds`` (plan-order result merge, recorded by the
    scheduler).
    """

    #: Phase-breakdown keys accumulated in seconds (floats in ``.stats``).
    _SECONDS_KEYS = ("spawn_seconds", "dispatch_seconds",
                     "compute_seconds", "merge_seconds")
    #: Work-volume keys (ints in ``.stats``).
    _COUNT_KEYS = ("batches", "cells", "plans")

    def __init__(self, jobs: int = -1, *, prime: bool = True) -> None:
        self.jobs = _resolve_jobs(jobs)
        # Registry-backed phase counters: run_batches mutates them from
        # whichever thread drives the plan while monitors read .stats —
        # every increment happens under the registry lock, so a snapshot
        # taken mid-increment can never tear (regression-tested in
        # tests/test_obs.py; the bare dict this replaces could).
        self.metrics = MetricsRegistry(attach_to=REGISTRY)
        self._counters = {
            key: self.metrics.counter(
                f"repro_pool_{key}" if key.endswith("_seconds")
                else f"repro_pool_{key}_total",
                f"Worker pool {key.replace('_', ' ')}")
            for key in self._SECONDS_KEYS + self._COUNT_KEYS
        }
        self._pids: set[int] = set()
        self._shared: dict[str, SharedDataset] = {}
        self._closed = False
        t0 = time.perf_counter()
        self._executor = ProcessPoolExecutor(max_workers=self.jobs)
        if prime:
            delay = 0.02 if self.jobs > 1 else 0.0
            futures = [self._executor.submit(_prime_worker, delay)
                       for _ in range(self.jobs)]
            self._pids.update(f.result() for f in futures)
        self._counters["spawn_seconds"].inc(time.perf_counter() - t0)

    # ------------------------------------------------------------------ #
    @property
    def stats(self) -> dict[str, float]:
        """Compatibility view of the registry counters (atomic snapshot).

        Seconds keys stay floats, volume keys ints — the shape the
        benchmark entries and tests always consumed.
        """
        out: dict[str, float] = {key: self._counters[key].value
                                 for key in self._SECONDS_KEYS}
        out.update({key: int(self._counters[key].value)
                    for key in self._COUNT_KEYS})
        return out

    @property
    def spawn_count(self) -> int:
        """Distinct worker processes observed over the pool's lifetime."""
        return len(self._pids)

    @property
    def worker_pids(self) -> frozenset:
        """The distinct worker PIDs behind :attr:`spawn_count`."""
        return frozenset(self._pids)

    def __enter__(self) -> WorkerPool:
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    def share_dataset(self, dataset: PerformanceDataset, *,
                      canonical: bool = True) -> SharedDatasetRef | None:
        """Place *dataset* in shared memory (memoized by content digest).

        Returns the picklable ref workers materialize from, or ``None``
        when shared memory is unavailable on this platform — callers then
        fall back to shipping the dataset object or the store locator.
        Segments live until :meth:`close`.
        """
        digest = _dataset_digest(dataset)
        shared = self._shared.get(digest)
        if shared is not None:
            return shared.ref
        try:
            shared = SharedDataset(dataset, canonical=canonical)
        except (ImportError, OSError):  # pragma: no cover - platform dependent
            return None
        self._shared[digest] = shared
        return shared.ref

    def run_batches(self, fn, batch_args: list[tuple]) -> list:
        """Run ``fn(*args)`` for every argument tuple; results in order.

        Each call is wrapped to report the worker's PID (spawn counting)
        and its monotonic start/duration (phase accounting).  Returns
        ``[(seconds, result), ...]`` so callers can feed measured batch
        durations back into the cost model.
        """
        if self._closed:
            raise RuntimeError("worker pool is closed")
        submit_times: list[float] = []
        futures = []
        t0 = time.perf_counter()
        for args in batch_args:
            submit_times.append(time.perf_counter())
            futures.append(self._executor.submit(_timed_call, fn, args))
        self._counters["dispatch_seconds"].inc(time.perf_counter() - t0)
        out = []
        for submitted, future in zip(submit_times, futures, strict=True):
            pid, started, seconds, result = future.result()
            self._pids.add(pid)
            self._counters["dispatch_seconds"].inc(max(0.0, started - submitted))
            self._counters["compute_seconds"].inc(seconds)
            out.append((seconds, result))
        self._counters["batches"].inc(len(batch_args))
        return out

    def probe(self, fn, *args):
        """Run ``fn(*args)`` on one (arbitrary) pool worker and return it.

        A testing/monitoring hook — e.g. reading the worker-state memo's
        eviction counter from inside a live worker.
        """
        if self._closed:
            raise RuntimeError("worker pool is closed")
        pid, _, _, result = self._executor.submit(_timed_call, fn, args).result()
        self._pids.add(pid)
        return result

    def record_merge(self, seconds: float, cells: int) -> None:
        """Fold one plan's merge time into the phase stats (scheduler hook)."""
        self._counters["merge_seconds"].inc(seconds)
        self._counters["cells"].inc(cells)
        self._counters["plans"].inc()

    def close(self) -> None:
        """Shut down workers and unlink every shared segment (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self._executor.shutdown(wait=True)
        for shared in self._shared.values():
            shared.close()
        self._shared.clear()

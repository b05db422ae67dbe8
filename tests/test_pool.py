"""Tests for the warm worker pool, cost model and zero-copy transport.

The guarantees under test:

* batch shape is a pure throughput knob: any permutation or fusion of a
  plan's cells — forced batch sizes, LPT auto-shaping, skewed cost
  vectors — merges to **bit-identical** ``ExperimentResult`` rows;
* a :class:`WorkerPool` outlives a single plan: two consecutive plans
  (and two consecutive invocations of the same plan) on one pool reuse
  the same worker processes (``spawn_count`` stays flat) and their
  per-plan memos;
* the per-worker plan memo is a bounded LRU whose evictions are
  observable (the PR-7 fix for the unbounded ``_WORKER_STATE`` global);
* shared-memory dataset transport round-trips arrays exactly, hands
  workers read-only views, and unlinks segments on pool close.
"""

from __future__ import annotations

import multiprocessing

import numpy as np
import pytest

from repro.core.features import PerformanceDataset
from repro.experiments import ExperimentSettings, expand_cells, experiment_plan, run_all
from repro.experiments.pool import (
    COST_MODEL,
    CostModel,
    SharedDataset,
    WorkerPool,
    resolve_batch_cells,
    shape_batches,
)
from repro.experiments.scheduler import run_plan, worker_state_stats
from repro.parallel.threadpool import weighted_chunk_indices

TINY = ExperimentSettings(n_estimators=4, n_repeats=2, max_configs=120, random_state=0)


def _rows(result):
    return (result.rows(), result.extra)


class TestWeightedChunks:
    def test_lpt_isolates_the_giant_cell(self):
        """One giant + many tiny: the giant gets a chunk to itself and the
        tiny cells are fused around it, so the makespan is the giant."""
        weights = [100.0] + [1.0] * 12
        chunks = weighted_chunk_indices(weights, 4)
        assert [0] in chunks
        loads = [sum(weights[i] for i in chunk) for chunk in chunks]
        assert max(loads) == 100.0
        tiny_loads = [load for load in loads if load < 100.0]
        assert max(tiny_loads) - min(tiny_loads) <= 1.0  # balanced remainder

    def test_partition_is_complete_and_disjoint(self):
        weights = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0]
        chunks = weighted_chunk_indices(weights, 3)
        flat = [i for chunk in chunks for i in chunk]
        assert sorted(flat) == list(range(len(weights)))

    def test_chunks_preserve_plan_order(self):
        chunks = weighted_chunk_indices([5.0, 1.0, 5.0, 1.0, 5.0, 1.0], 2)
        for chunk in chunks:
            assert chunk == sorted(chunk)

    def test_deterministic_tie_breaking(self):
        """Equal weights and equal loads resolve by index, so the shape is
        a pure function of the cost vector."""
        weights = [1.0] * 8
        first = weighted_chunk_indices(weights, 3)
        assert first == weighted_chunk_indices(weights, 3)
        # Round-robin by index under uniform weights.
        assert first == [[0, 3, 6], [1, 4, 7], [2, 5]]

    def test_beats_contiguous_split_on_skew(self):
        """The motivating case: a descending cost vector (big fractions
        first) where the naive contiguous split piles the expensive cells
        into one chunk."""
        from repro.parallel.threadpool import chunk_indices

        weights = [8.0, 8.0, 8.0, 8.0, 1.0, 1.0, 1.0, 1.0]
        lpt = weighted_chunk_indices(weights, 4)
        naive = chunk_indices(len(weights), 4)
        makespan = max(sum(weights[i] for i in c) for c in lpt)
        naive_makespan = max(sum(weights[i] for i in c) for c in naive)
        assert makespan == 9.0 < naive_makespan == 16.0

    def test_more_chunks_than_items(self):
        chunks = weighted_chunk_indices([2.0, 1.0], 5)
        assert chunks == [[0], [1]]  # no empty chunks emitted

    def test_validation(self):
        with pytest.raises(ValueError):
            weighted_chunk_indices([1.0], 0)
        assert weighted_chunk_indices([], 3) == []


class TestResolveBatchCells:
    @pytest.mark.parametrize("value,expected", [
        (None, None), ("auto", "auto"), (3, 3), ("7", 7), (1, 1),
    ])
    def test_valid(self, value, expected):
        assert resolve_batch_cells(value) == expected

    @pytest.mark.parametrize("value", [0, -1, True, False, "bogus", "-2", 2.5])
    def test_invalid(self, value):
        with pytest.raises(ValueError, match="batch_cells"):
            resolve_batch_cells(value)


class TestCostModel:
    def test_cells_carry_cost_hints(self):
        """``expand_cells`` stamps every cell with a positive per-row cost
        hint that grows with the training fraction within a series."""
        plan = experiment_plan("figure5", TINY)
        cells = expand_cells(plan)
        assert all(cell.cost_hint > 0.0 for cell in cells)
        for spec in plan.series:
            hints = {cell.fraction: cell.cost_hint
                     for cell in cells if cell.series == spec.label}
            fractions = sorted(hints)
            assert [hints[f] for f in fractions] == sorted(hints.values())

    def test_family_weights_separate_estimators(self):
        """A random forest cell (split search) must cost more units than
        an extra-trees cell (random thresholds) at the same fraction."""
        model = CostModel()
        plan = experiment_plan("ablation_ml_backend", TINY)
        factories = {spec.label: spec.factory for spec in plan.series}
        units = {label: model.factory_units(factory, 0.1)
                 for label, factory in factories.items()}
        assert units["hybrid_random_forest"] > units["hybrid_extra_trees"]
        assert units["hybrid_knn"] < units["hybrid_extra_trees"]

    def test_hints_never_enter_the_fingerprint(self):
        """The hint is advisory scheduling metadata: two expansions of the
        same plan agree on keys and seeds regardless of the model state."""
        plan = experiment_plan("figure5", TINY)
        first = expand_cells(plan)
        COST_MODEL.observe({"extra_trees": 50.0}, 0.123)
        second = expand_cells(plan)
        assert [c.key for c in first] == [c.key for c in second]
        assert [c.seed for c in first] == [c.seed for c in second]

    def test_observe_calibrates_seconds_per_unit(self):
        model = CostModel()
        model.observe({"extra_trees": 100.0}, 0.5)
        assert model.observations == 1
        # First observation pins the scale exactly: 0.5s for 100 units.
        assert model.estimate_seconds("extra_trees", 100.0) == pytest.approx(0.5)
        # A second, slower observation moves the EWMA toward it.
        model.observe({"extra_trees": 100.0}, 1.5)
        assert 0.5 < model.estimate_seconds("extra_trees", 100.0) < 1.5

    def test_observe_ignores_degenerate_samples(self):
        model = CostModel()
        model.observe({}, 1.0)
        model.observe({"extra_trees": 10.0}, 0.0)
        model.observe({"extra_trees": 0.0}, 1.0)
        assert model.observations == 0

    def test_plan_costs_floor_and_positivity(self):
        plan = experiment_plan("figure5", TINY)
        cells = expand_cells(plan)
        costs = COST_MODEL.plan_costs(plan, cells, n_rows=120)
        assert set(costs) == {cell.key for cell in cells}
        assert all(cost > 0.0 for cost in costs.values())

    def test_smoothing_validation(self):
        with pytest.raises(ValueError):
            CostModel(smoothing=0.0)
        with pytest.raises(ValueError):
            CostModel(smoothing=1.5)


class TestShapeBatches:
    def test_partition_matches_cells(self):
        plan = experiment_plan("figure5", TINY)
        cells = expand_cells(plan)
        costs = COST_MODEL.plan_costs(plan, cells, n_rows=120)
        batches = shape_batches(cells, costs, 4)
        flat = [cell.key for batch in batches for cell in batch]
        assert sorted(flat) == sorted(cell.key for cell in cells)
        # Each batch keeps its cells in plan order.
        order = {cell.key: i for i, cell in enumerate(cells)}
        for batch in batches:
            indices = [order[cell.key] for cell in batch]
            assert indices == sorted(indices)

    def test_unknown_costs_count_as_free(self):
        plan = experiment_plan("figure5", TINY)
        cells = expand_cells(plan)
        batches = shape_batches(cells, {}, 3)
        flat = [cell.key for batch in batches for cell in batch]
        assert sorted(flat) == sorted(cell.key for cell in cells)


class TestSharedDataset:
    @pytest.fixture()
    def dataset(self):
        rng = np.random.default_rng(42)
        return PerformanceDataset(
            name="shm-test", X=rng.uniform(size=(31, 4)),
            y=rng.uniform(size=31), feature_names=["a", "b", "c", "d"])

    def test_round_trip_and_read_only_views(self, dataset):
        shared = SharedDataset(dataset)
        try:
            loaded = shared.ref.materialize()
            np.testing.assert_array_equal(loaded.X, dataset.X)
            np.testing.assert_array_equal(loaded.y, dataset.y)
            assert loaded.feature_names == dataset.feature_names
            assert loaded.name == dataset.name
            with pytest.raises(ValueError):
                loaded.X[0, 0] = 1.0
            with pytest.raises(ValueError):
                loaded.y[0] = 1.0
        finally:
            from repro.experiments.pool import _ATTACHED_SEGMENTS

            attached = _ATTACHED_SEGMENTS.pop(shared.ref.shm_name, None)
            if attached is not None:
                attached.close()
            shared.close()

    def test_close_unlinks_the_segment(self, dataset):
        from multiprocessing import shared_memory

        shared = SharedDataset(dataset)
        name = shared.ref.shm_name
        shared.close()
        shared.close()  # idempotent
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)

    def test_pool_memoizes_by_content(self, dataset):
        with WorkerPool(1, prime=False) as pool:
            ref1 = pool.share_dataset(dataset)
            ref2 = pool.share_dataset(dataset)
            assert ref1 is not None and ref1.shm_name == ref2.shm_name
            assert ref1.canonical
        # Pool close unlinked the memoized segment.
        from multiprocessing import shared_memory

        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=ref1.shm_name)


class TestWorkerPool:
    def test_jobs_validation(self):
        with pytest.raises(ValueError):
            WorkerPool(0)
        with pytest.raises(ValueError):
            WorkerPool(-2)

    def test_closed_pool_refuses_work(self):
        pool = WorkerPool(1, prime=False)
        pool.close()
        pool.close()  # idempotent
        with pytest.raises(RuntimeError):
            pool.run_batches(sorted, [((3, 1, 2),)])
        with pytest.raises(RuntimeError):
            pool.probe(sorted, (3, 1, 2))

    def test_pool_requires_the_process_executor(self):
        plan = experiment_plan("figure5", TINY)
        with WorkerPool(1, prime=False) as pool:
            with pytest.raises(ValueError, match="process"):
                run_plan(plan, executor="serial", jobs=2, pool=pool)

    def test_warm_pool_bit_identical_across_plans(self):
        """The acceptance oracle: >= 2 consecutive plans on one pool (and a
        repeat of the first) stay bit-identical to serial while the pool
        reuses its workers — ``spawn_count`` never grows past ``jobs``."""
        names = ("figure5", "figure6")
        serial = {name: run_plan(experiment_plan(name, TINY)) for name in names}
        with WorkerPool(2) as pool:
            assert pool.spawn_count == 2  # primed eagerly
            first = run_all(TINY, names, executor="process", jobs=2, pool=pool)
            second = run_all(TINY, names, executor="process", jobs=2, pool=pool)
            assert pool.spawn_count == 2
            assert pool.stats["plans"] == 4
            assert pool.stats["compute_seconds"] > 0.0
        for name in names:
            assert _rows(first[name]) == _rows(serial[name])
            assert _rows(second[name]) == _rows(serial[name])

    def test_forced_batch_shapes_bit_identical(self):
        """Property: every forced fusion target — singleton batches, odd
        fixed sizes, cost-model auto-shaping — merges to the same rows."""
        plan = experiment_plan("figure5", TINY)
        serial = run_plan(plan)
        with WorkerPool(2) as pool:
            for batch_cells in (1, 3, len(expand_cells(plan)) + 5, "auto"):
                shaped = run_plan(plan, executor="process", jobs=2, pool=pool,
                                  batch_cells=batch_cells)
                assert _rows(shaped) == _rows(serial), batch_cells

    def test_batch_cells_validation(self):
        plan = experiment_plan("figure5", TINY)
        with pytest.raises(ValueError, match="batch_cells"):
            run_plan(plan, executor="process", jobs=2, batch_cells=0)


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="monkeypatched limit must be inherited by fork")
class TestWorkerStateLru:
    def test_memo_is_bounded_and_evictions_are_counted(self, monkeypatch):
        """With the limit forced to 1, a second distinct plan evicts the
        first plan's memo inside the worker — observable via the stats
        probe.  (Workers fork after the monkeypatch, inheriting it.)"""
        monkeypatch.setattr("repro.experiments.scheduler._WORKER_STATE.limit", 1)
        with WorkerPool(1) as pool:
            for name in ("figure5", "figure6"):
                run_plan(experiment_plan(name, TINY), executor="process",
                         jobs=1, pool=pool)
            stats = pool.probe(worker_state_stats)
        assert stats["limit"] == 1
        assert stats["size"] == 1
        assert stats["evictions"] >= 1

    def test_default_limit_keeps_the_quick_suite(self):
        """The default cap fits a whole quick sweep: no evictions, so
        repeated plans on a warm pool always hit their memo."""
        stats = worker_state_stats()
        assert stats["limit"] >= 4

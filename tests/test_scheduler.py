"""Tests for the plan/scheduler/store execution architecture.

The key guarantees:

* every experiment plan expands into picklable cells whose seeds are
  derived at planning time, so the serial and process executors
  produce **bit-identical** ``ExperimentResult`` rows;
* a persistent :class:`DatasetStore` lets a second invocation skip both
  dataset generation and the analytical warm-up (verified through the
  store's hit counters).
"""

import pickle

import numpy as np
import pytest

from repro.core.evaluation import EvalCell
from repro.datasets import DatasetSpec, DatasetStore
from repro.experiments import (
    EXPERIMENTS,
    PLANNED_EXPERIMENTS,
    ExperimentSettings,
    expand_cells,
    experiment_plan,
    run_all,
    run_experiment,
)
from repro.experiments.plan import build_analytical, build_factory
from repro.experiments.scheduler import EXECUTORS, run_plan
from repro.utils.rng import check_random_state, spawn_seeds

TINY = ExperimentSettings(n_estimators=4, n_repeats=2, max_configs=120, random_state=0)

#: A subset covering both applications, hybrid + pure-ML series, degraded
#: analytical models and dataset sharing across experiments.
SUBSET = ("figure5", "figure6", "figure8", "ablation_analytical_quality")


def _all_rows(results):
    return {name: (result.rows(), result.extra) for name, result in results.items()}


class TestPlans:
    def test_every_planned_experiment_has_a_plan(self):
        for name in PLANNED_EXPERIMENTS:
            plan = experiment_plan(name, TINY)
            assert plan is not None and plan.name == name
            assert plan.series and plan.n_repeats == TINY.n_repeats

    def test_opaque_experiments_have_no_plan(self):
        assert experiment_plan("analytical_accuracy", TINY) is None
        assert experiment_plan("ablation_sampling_strategy", TINY) is None
        assert set(PLANNED_EXPERIMENTS) | {"analytical_accuracy",
                                           "ablation_sampling_strategy"} == set(EXPERIMENTS)

    def test_plans_and_cells_are_picklable_and_hashable(self):
        plan = experiment_plan("figure6", TINY)
        assert pickle.loads(pickle.dumps(plan)) == plan
        assert hash(plan) == hash(pickle.loads(pickle.dumps(plan)))
        cells = expand_cells(plan)
        assert all(isinstance(c, EvalCell) for c in cells)
        assert pickle.loads(pickle.dumps(cells)) == cells

    def test_expansion_matches_grid(self):
        plan = experiment_plan("figure5", TINY)
        cells = expand_cells(plan)
        expected = sum(len(s.fractions) * plan.n_repeats for s in plan.series)
        assert len(cells) == expected
        # Every cell carries the dataset fingerprint of the plan.
        assert {c.dataset_fingerprint for c in cells} == {plan.dataset.fingerprint}

    def test_cell_seeds_reproduce_the_serial_stream(self):
        """Planning draws seeds exactly as the serial per-curve loop did."""
        plan = experiment_plan("figure6", TINY)
        for spec in plan.series:
            rng = check_random_state(plan.random_state)
            expected = []
            for _ in spec.fractions:
                expected.extend(spawn_seeds(rng, plan.n_repeats))
            got = [c.seed for c in expand_cells(plan) if c.series == spec.label]
            assert got == expected

    def test_unknown_registry_entries_raise(self):
        with pytest.raises(KeyError):
            build_analytical("nope")
        plan = experiment_plan("figure6", TINY)
        dataset = plan.dataset.build()
        hybrid = plan.series[1].factory
        bad = type(hybrid)(kind="nope", estimator=hybrid.estimator)
        with pytest.raises(KeyError):
            build_factory(bad, dataset)


class TestExecutorDeterminism:
    @pytest.fixture(scope="class")
    def serial_results(self):
        return run_all(TINY)

    def test_process_executor_bit_identical(self, serial_results):
        """The acceptance criterion: process rows == serial rows, bit for bit."""
        processed = run_all(TINY, executor="process", jobs=4)
        assert _all_rows(processed) == _all_rows(serial_results)

    def test_run_experiment_executor_validation(self):
        with pytest.raises(ValueError):
            run_experiment("figure6", TINY, executor="rocket")
        with pytest.raises(ValueError):
            run_experiment("figure6", TINY, executor="process", jobs=0)

    def test_thread_executor_is_rejected(self):
        """The removed ``thread`` executor fails fast, naming the valid ones."""
        assert EXECUTORS == ("serial", "process", "remote")
        plan = experiment_plan("figure6", TINY)
        for run in (lambda: run_plan(plan, executor="thread", jobs=2),
                    lambda: run_experiment("figure6", TINY, executor="thread",
                                           jobs=2)):
            with pytest.raises(ValueError) as excinfo:
                run()
            assert all(name in str(excinfo.value) for name in EXECUTORS)

    def test_dataset_override_with_executors(self, serial_results):
        """Explicit datasets (the test/notebook path) work on every executor."""
        from repro.experiments.figures import figure6

        plan = experiment_plan("figure6", TINY)
        dataset = plan.dataset.build()
        serial = figure6(TINY, dataset)
        assert serial.rows() == serial_results["figure6"].rows()
        processed = figure6(TINY, dataset, executor="process", jobs=2)
        assert processed.rows() == serial.rows()


class TestDatasetStore:
    def test_round_trip_is_bit_identical(self, tmp_path):
        spec = DatasetSpec("stencil-blocked", max_configs=80, random_state=0)
        store = DatasetStore(tmp_path)
        generated = store.get(spec)
        loaded = store.get(spec)
        assert (store.misses, store.hits) == (1, 1)
        np.testing.assert_array_equal(generated.X, loaded.X)
        np.testing.assert_array_equal(generated.y, loaded.y)
        assert generated.feature_names == loaded.feature_names
        assert generated.name == loaded.name
        assert loaded.configs == generated.configs

    def test_fingerprint_distinguishes_specs(self):
        base = DatasetSpec("fmm", max_configs=100, random_state=0)
        assert base.fingerprint == DatasetSpec("fmm", max_configs=100).fingerprint
        assert base.fingerprint != DatasetSpec("fmm", max_configs=101).fingerprint
        assert base.fingerprint != DatasetSpec("fmm", max_configs=100,
                                               random_state=1).fingerprint
        assert base.fingerprint != DatasetSpec("stencil-blocked",
                                               max_configs=100).fingerprint

    def test_analytical_cache_round_trip(self, tmp_path):
        from repro.analytical import AnalyticalPredictionCache

        spec = DatasetSpec("stencil-blocked", max_configs=60, random_state=0)
        store = DatasetStore(tmp_path)
        dataset = store.get(spec)
        model = build_analytical("stencil")
        assert store.load_analytical_cache("stencil", spec, model,
                                           dataset.feature_names) is None
        cache = AnalyticalPredictionCache(model, dataset.feature_names).warm(dataset.X)
        store.save_analytical_cache("stencil", spec, cache)
        reloaded = store.load_analytical_cache("stencil", spec, model,
                                               dataset.feature_names)
        assert (store.cache_misses, store.cache_hits) == (1, 1)
        assert len(reloaded) == len(cache) == dataset.n_samples
        predictions = reloaded.predict(dataset.X)
        # Second load serves every row from disk-backed memory: zero misses.
        assert reloaded.misses == 0 and reloaded.hits == dataset.n_samples
        np.testing.assert_array_equal(predictions, cache.predict(dataset.X))

    def test_warm_store_skips_generation_and_warmup(self, tmp_path):
        """Acceptance: a second invocation with a warm store hits disk only."""
        cold = DatasetStore(tmp_path)
        first = run_all(TINY, SUBSET, store=cold)
        assert cold.misses > 0 and cold.cache_misses > 0
        warm = DatasetStore(tmp_path)
        second = run_all(TINY, SUBSET, store=warm, executor="process", jobs=2)
        assert warm.misses == 0 and warm.cache_misses == 0
        assert warm.hits > 0 and warm.cache_hits > 0
        assert _all_rows(second) == _all_rows(first)

    def test_store_shares_datasets_across_experiments(self, tmp_path):
        store = DatasetStore(tmp_path)
        run_all(TINY, ("figure6", "ablation_aggregation"), store=store)
        # Both experiments use the blocked-stencil dataset and the stencil
        # analytical model: one generation, one warm-up, then pure hits.
        assert store.misses == 1 and store.hits == 1
        assert store.cache_misses == 1 and store.cache_hits == 1

    def test_run_accepts_store_path(self, tmp_path):
        result = run_experiment("figure6", TINY, store=str(tmp_path))
        assert (tmp_path / "datasets").exists()
        assert result.curves["hybrid"].points

    def test_simulator_version_invalidates_fingerprint(self, tmp_path, monkeypatch):
        """Bumping a SIMULATOR_VERSION must miss every stored entry of that
        simulator's datasets (the recipe fingerprint covers the simulators)."""
        import repro.datasets.store as store_mod
        import repro.stencil.perf_sim as stencil_sim

        spec = DatasetSpec("stencil-blocked", max_configs=60, random_state=0)
        store = DatasetStore(tmp_path)
        store.get(spec)
        old_fingerprint = spec.fingerprint
        assert store_mod._FORMAT_VERSION == 2  # v2 added the simulator token
        monkeypatch.setattr(stencil_sim, "SIMULATOR_VERSION",
                            stencil_sim.SIMULATOR_VERSION + 1)
        assert spec.fingerprint != old_fingerprint
        fresh = DatasetStore(tmp_path)
        fresh.get(spec)
        assert (fresh.misses, fresh.hits) == (1, 0)

    def test_format_version_bump_invalidates_fingerprint(self, monkeypatch):
        import repro.datasets.store as store_mod

        spec = DatasetSpec("fmm", max_configs=50)
        old_fingerprint = spec.fingerprint
        monkeypatch.setattr(store_mod, "_FORMAT_VERSION",
                            store_mod._FORMAT_VERSION + 1)
        assert spec.fingerprint != old_fingerprint

    def test_prune_keeps_live_fingerprints_loadable(self, tmp_path):
        from repro.analytical import AnalyticalPredictionCache

        live = DatasetSpec("stencil-blocked", max_configs=60, random_state=0)
        stale = DatasetSpec("stencil-blocked", max_configs=40, random_state=0)
        store = DatasetStore(tmp_path)
        for spec in (live, stale):
            dataset = store.get(spec)
            cache = AnalyticalPredictionCache(
                build_analytical("stencil"), dataset.feature_names).warm(dataset.X)
            store.save_analytical_cache("stencil", spec, cache)

        removed = store.prune(keep_fingerprints={live.fingerprint})
        assert sorted(p.name for p in removed) == sorted([
            store.dataset_path(stale).name, store.cache_path("stencil", stale).name])
        assert not store.dataset_path(stale).exists()

        warm = DatasetStore(tmp_path)
        dataset = warm.get(live)
        assert (warm.misses, warm.hits) == (0, 1)
        assert warm.load_analytical_cache(
            "stencil", live, build_analytical("stencil"),
            dataset.feature_names) is not None
        warm.get(stale)
        assert warm.misses == 1  # the pruned entry is really gone


class TestCommandLine:
    def test_cli_parallel_store_run(self, tmp_path, capsys):
        from repro.experiments.__main__ import main

        args = ["figure6", "--quick", "--executor", "process", "--jobs", "2",
                "--store-dir", str(tmp_path)]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "figure6" in out and "hybrid" in out
        assert (tmp_path / "datasets").exists() and (tmp_path / "caches").exists()

    def test_cli_rejects_thread_executor(self, capsys):
        from repro.experiments.__main__ import main

        with pytest.raises(SystemExit) as excinfo:
            main(["figure6", "--quick", "--executor", "thread"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'thread'" in capsys.readouterr().err

    def test_cli_process_sequence_with_batch_cells(self, tmp_path, capsys):
        """`--jobs 2 --batch-cells auto` runs the sequence on one warm
        pool with cost-shaped batches and prints every experiment."""
        from repro.experiments.__main__ import main

        args = ["figure5", "figure6", "--quick", "--jobs", "2",
                "--batch-cells", "auto", "--store-dir", str(tmp_path)]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "figure5" in out and "figure6" in out

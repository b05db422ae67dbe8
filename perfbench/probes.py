"""Outside-in probes: wrap the program's public calls to record spans.

Nothing here edits the program.  Each probe replaces one public
function or method with a :meth:`spans.Recorder.wrap` wrapper, in the
defining module *and* in every loaded ``repro`` module that imported
the same object by name, so call sites see the wrapper whichever way
they reach it.  Probes only reach the process they are installed in:
pool and fleet workers are measured through the program's own trace
spans and counters instead (see ``program.py``).
"""

from __future__ import annotations

import importlib
import sys

from spans import Recorder


def _rebind(old, new, extra_dicts=()) -> None:
    """Point every ``repro.*`` module global (and *extra_dicts*) at *new*."""
    for name, module in list(sys.modules.items()):
        if not name.startswith("repro") or module is None:
            continue
        namespace = vars(module)
        for attr, value in list(namespace.items()):
            if value is old:
                namespace[attr] = new
    for mapping in extra_dicts:
        for key, value in list(mapping.items()):
            if value is old:
                mapping[key] = new


def patch_function(rec: Recorder, module: str, attr: str, layer: str, *,
                   name: str | None = None, on_call=None, extra_dicts=()) -> None:
    old = getattr(importlib.import_module(module), attr)
    new = rec.wrap(old, name or attr, layer, on_call=on_call)
    _rebind(old, new, extra_dicts)


def patch_method(rec: Recorder, cls, attr: str, layer: str, *,
                 name: str | None = None, on_call=None) -> None:
    old = cls.__dict__[attr]
    setattr(cls, attr, rec.wrap(old, name or f"{cls.__name__}.{attr}", layer,
                                on_call=on_call))


def _rows(span, args, kwargs, result) -> None:
    span.attrs["rows"] = int(result.n_samples)


def _warm_rows(span, args, kwargs, result) -> None:
    span.attrs["rows"] = int(len(args[1]))


def _bytes_out(span, args, kwargs, result) -> None:
    span.attrs["bytes"] = len(result)


def _bytes_in(position: int):
    def hook(span, args, kwargs, result) -> None:
        span.attrs["bytes"] = len(args[position])
    return hook


def install_sweep_probes(rec: Recorder) -> None:
    """Probes on the experiment sweep's layers (parent process only)."""
    import repro.experiments.scheduler  # noqa: F401 - load every importer first
    from repro.analytical.cache import AnalyticalPredictionCache
    from repro.core.features import PerformanceDataset
    from repro.core.hybrid import HybridPerformanceModel
    from repro.datasets.backends import StoreBackend
    from repro.datasets.registry import DATASET_REGISTRY
    from repro.datasets.store import DatasetSpec, DatasetStore
    from repro.distributed.coordinator import Coordinator
    from repro.distributed.protocol import FrameAuth
    from repro.experiments.pool import WorkerPool
    from repro.ml.pipeline import Pipeline

    for module, attr in (
            ("repro.datasets.stencil_datasets", "grid_only_dataset"),
            ("repro.datasets.stencil_datasets", "blocked_small_grid_dataset"),
            ("repro.datasets.stencil_datasets", "threaded_dataset"),
            ("repro.datasets.fmm_datasets", "fmm_dataset")):
        patch_function(rec, module, attr, "dataset", on_call=_rows,
                       extra_dicts=(DATASET_REGISTRY,))
    patch_method(rec, DatasetSpec, "build", "dataset")
    for attr in ("get", "load_analytical_cache", "save_analytical_cache"):
        patch_method(rec, DatasetStore, attr, "store")
    patch_method(rec, StoreBackend, "read", "store", name="backend.read",
                 on_call=_bytes_out)
    patch_method(rec, StoreBackend, "write", "store", name="backend.write",
                 on_call=_bytes_in(2))
    patch_method(rec, AnalyticalPredictionCache, "warm", "analytical",
                 on_call=_warm_rows)
    patch_method(rec, PerformanceDataset, "train_test_indices", "split")
    patch_function(rec, "repro.core.evaluation", "evaluate_cell", "cell")
    patch_function(rec, "repro.core.evaluation", "merge_cell_results", "merge")
    patch_method(rec, HybridPerformanceModel, "fit", "fit.hybrid")
    patch_method(rec, HybridPerformanceModel, "predict", "predict.hybrid")
    patch_method(rec, Pipeline, "fit", "fit.ml")
    patch_method(rec, Pipeline, "predict", "predict.ml")
    patch_function(rec, "repro.experiments.figures", "analytical_accuracy", "opaque")
    patch_function(rec, "repro.experiments.ablations", "ablation_sampling_strategy",
                   "opaque")
    patch_function(rec, "repro.experiments.runner", "run_experiment", "scheduler")
    patch_method(rec, WorkerPool, "__init__", "pool", name="pool.spawn")
    patch_method(rec, WorkerPool, "run_batches", "pool", name="pool.run_batches")
    patch_method(rec, WorkerPool, "close", "pool", name="pool.close")
    patch_method(rec, Coordinator, "spawn_local_workers", "fleet", name="fleet.spawn")
    patch_method(rec, Coordinator, "execute", "fleet", name="fleet.execute")
    patch_method(rec, Coordinator, "close", "fleet", name="fleet.close")
    patch_function(rec, "repro.distributed.protocol", "send_message", "fleet.wire")
    patch_function(rec, "repro.distributed.protocol", "recv_message", "fleet.wire")
    patch_function(rec, "repro.distributed.codec", "encode_value", "fleet.codec",
                   on_call=_bytes_out)
    patch_function(rec, "repro.distributed.codec", "decode_value", "fleet.codec",
                   on_call=_bytes_in(0))
    patch_method(rec, FrameAuth, "sign", "fleet.hmac")
    patch_method(rec, FrameAuth, "verify", "fleet.hmac")


def _request_wrapper(rec: Recorder, fn, name: str):
    """Handler probe: the span carries the client's request id (``rid``)."""
    def wrapper(self, body):
        span = rec.open(name, "serve.handler", request_id=body.get("rid"))
        try:
            return fn(self, body)
        finally:
            rec.close(span)
    return wrapper


def install_serve_probes(rec: Recorder) -> None:
    """Probes on the model server's layers (server process)."""
    from repro.serving.model_io import ServedModel
    from repro.serving.server import MicroBatcher, ModelServer

    for attr in ("predict", "recommend"):
        setattr(ModelServer, attr, _request_wrapper(
            rec, ModelServer.__dict__[attr], f"ModelServer.{attr}"))
    patch_method(rec, ModelServer, "load_model", "serve.model_load")
    patch_function(rec, "repro.serving.model_io", "decode_model", "serve.model_load")
    patch_method(rec, MicroBatcher, "predict", "serve.batcher")
    patch_method(rec, ServedModel, "predict_rows", "serve.predict_rows",
                 on_call=lambda span, args, kwargs, result:
                 span.attrs.__setitem__("rows", len(result)))


def install_objstore_probes(rec: Recorder) -> None:
    """Probes on the object server: payload bytes in (request bodies) and out."""
    from repro.datasets.backends import StoreBackend
    from repro.datasets.object_server import ObjectStoreServer

    patch_method(rec, StoreBackend, "read", "objstore", name="objstore.read",
                 on_call=_bytes_out)
    patch_method(rec, ObjectStoreServer, "handle", "objstore",
                 name="objstore.handle", on_call=_bytes_in(5))


PROBES = {"serve": install_serve_probes, "objstore": install_objstore_probes}

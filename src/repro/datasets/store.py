"""Fingerprint-keyed persistent dataset store over pluggable byte backends.

The executable FMM and stencil simulators are deterministic but not free:
regenerating a dataset in every experiment — and, with a process-pool
executor, in every *worker* — wastes most of a run's wall clock.
:class:`DatasetStore` memoizes generated datasets keyed by a
:class:`DatasetSpec` fingerprint, so a dataset is simulated once and
afterwards loaded by every experiment, repeated invocation and worker
process alike.

All byte I/O is delegated to a
:class:`~repro.datasets.backends.StoreBackend`:

* a directory path (or ``file://`` URL) opens the historical on-disk
  layout via :class:`~repro.datasets.backends.LocalBackend`;
* ``memory://`` URLs open an in-memory store;
* ``http(s)://`` URLs open an S3-style object store (see
  :mod:`repro.datasets.object_server` for the bundled server), which
  lets distributed fleet workers bootstrap shared artifacts directly
  instead of relaying blobs through the coordinator.

Fingerprint scheme
------------------
A :class:`DatasetSpec` is the *recipe* for a dataset: the registry name
plus the generator arguments that affect its content (``max_configs``,
``random_state``).  Its fingerprint is the first 16 hex digits of the
SHA-256 of the canonical JSON encoding of those fields plus a format
version plus the *simulator versions* (the ``SIMULATOR_VERSION``
constants of :mod:`repro.fmm.perf_sim` and
:mod:`repro.stencil.perf_sim`).  Two specs with the same fingerprint
therefore denote the same arrays bit-for-bit (generation is
deterministic), bumping a simulator version automatically invalidates
every dataset that simulator produced, and bumping ``_FORMAT_VERSION``
invalidates every stored artifact at once when the layout changes.

Key layout (identical on every backend)::

    datasets/<name>-<fingerprint>.npz    X, y, feature_names, JSON-encoded configs
    caches/<model_key>-<fingerprint>.npz warmed analytical-prediction caches
    models/<series>-<plan_fp>.npz        published fitted models (serving tier)

The ``models/`` family holds *fitted* hybrid/ML models published by
``run_plan(..., publish_models=True)``, keyed by the experiment plan's
content fingerprint plus the series label; the blob format (packed tree
arenas + scaler/analytical state, no pickle) is owned by
:mod:`repro.serving.model_io`, the store just moves the bytes — which is
what gives the serving tier checksum sidecars and local/memory/HTTP
backend independence for free.

Configuration objects are serialized as JSON field dictionaries plus a
*whitelisted* class name (never pickle), so loading a store can rebuild
configs but cannot execute arbitrary code.

The store also persists warmed
:class:`~repro.analytical.cache.AnalyticalPredictionCache` contents keyed
by ``(analytical model key, dataset fingerprint)``, so the analytical
warm-up — one vectorized evaluation of the full dataset — happens once
ever rather than once per experiment or per worker process.
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import json
import logging
from dataclasses import dataclass
from pathlib import Path, PurePosixPath

import numpy as np

from repro.core.features import PerformanceDataset
from repro.datasets.backends import (
    CHECKSUM_SUFFIX,
    IntegrityError,
    LocalBackend,
    StoreBackend,
    is_checksum_key,
    resolve_backend,
)
from repro.obs.metrics import REGISTRY, MetricsRegistry

__all__ = ["DatasetSpec", "DatasetStore"]

logger = logging.getLogger(__name__)

#: Bump to invalidate every stored dataset/cache when the layout changes.
#: Version 2 added the simulator-version token to the fingerprint recipe.
_FORMAT_VERSION = 2


def _simulator_versions() -> str:
    """Version token covering every executable performance simulator.

    Stored datasets are simulator *output*: a behavioural change to
    :mod:`repro.fmm.perf_sim` or :mod:`repro.stencil.perf_sim` makes every
    memoized dataset stale even though the recipe fields are unchanged.
    Folding the simulators' ``SIMULATOR_VERSION`` constants into the
    fingerprint invalidates stored artifacts automatically when either is
    bumped.  (Looked up at call time, not import time, so a bump is
    honored by already-constructed specs too.)
    """
    from repro.fmm import perf_sim as fmm_sim
    from repro.stencil import perf_sim as stencil_sim

    return f"fmm{fmm_sim.SIMULATOR_VERSION}-stencil{stencil_sim.SIMULATOR_VERSION}"


@dataclass(frozen=True)
class DatasetSpec:
    """Picklable recipe for one of the registry datasets.

    Attributes
    ----------
    name:
        Key in :data:`repro.datasets.registry.DATASET_REGISTRY`.
    max_configs:
        Optional uniform subsample of the configuration space.
    random_state:
        Seed of the optional subsample.
    """

    name: str
    max_configs: int | None = None
    random_state: int = 0

    def canonical(self) -> str:
        """Canonical JSON encoding (stable key order) used for fingerprinting."""
        return json.dumps(
            {
                "name": self.name,
                "max_configs": self.max_configs,
                "random_state": self.random_state,
                "version": _FORMAT_VERSION,
                "simulators": _simulator_versions(),
            },
            sort_keys=True,
        )

    @property
    def fingerprint(self) -> str:
        """First 16 hex digits of the SHA-256 of :meth:`canonical`."""
        return hashlib.sha256(self.canonical().encode()).hexdigest()[:16]

    def build(self) -> PerformanceDataset:
        """Generate the dataset from scratch (deterministic)."""
        from repro.datasets.registry import load_dataset

        return load_dataset(self.name, max_configs=self.max_configs,
                            random_state=self.random_state)


class DatasetStore:
    """Memo of generated datasets and warmed analytical caches.

    Parameters
    ----------
    root:
        Where the store lives: a directory path (the historical local
        layout), a ``file://`` / ``memory://`` / ``http(s)://`` store
        URL, or an explicit :class:`StoreBackend` instance.
    auth:
        Shared-secret key bytes for backends that sign their requests
        (an ``http(s)://`` object store); ignored for local/memory
        roots and explicit backend instances.

    Attributes
    ----------
    hits / misses:
        Number of :meth:`get` calls served from the backend vs. generated.
    cache_hits / cache_misses:
        Number of :meth:`load_analytical_cache` calls that found vs.
        missed a persisted cache.
    """

    def __init__(self, root: str | Path | StoreBackend, *,
                 auth: bytes | None = None) -> None:
        if isinstance(root, StoreBackend):
            self.backend = root
        elif isinstance(root, str) and "://" in root:
            self.backend = resolve_backend(root, auth=auth)
        else:
            self.backend = LocalBackend(root)
        # Hit/miss/integrity counters live on the shared telemetry plane
        # (visible on any /metrics endpoint); the public attribute names
        # stay available as the read-only properties below.
        self.metrics = MetricsRegistry(attach_to=REGISTRY)
        self._counters = {
            key: self.metrics.counter(f"repro_store_{key}_total", help)
            for key, help in (
                ("hits", "Dataset reads served from the backend"),
                ("misses", "Dataset reads that had to generate"),
                ("cache_hits", "Analytical-cache reads served from the backend"),
                ("cache_misses", "Analytical-cache reads that had to re-warm"),
                ("integrity_failures",
                 "Blobs rejected by checksum verification (each one is "
                 "deleted and regenerated/refetched instead of "
                 "deserializing garbage)"),
            )
        }

    @property
    def hits(self) -> int:
        """Dataset reads served from the backend."""
        return int(self._counters["hits"].value)

    @property
    def misses(self) -> int:
        """Dataset reads that had to generate."""
        return int(self._counters["misses"].value)

    @property
    def cache_hits(self) -> int:
        """Analytical-cache reads served from the backend."""
        return int(self._counters["cache_hits"].value)

    @property
    def cache_misses(self) -> int:
        """Analytical-cache reads that had to re-warm."""
        return int(self._counters["cache_misses"].value)

    @property
    def integrity_failures(self) -> int:
        """Blobs rejected by checksum verification."""
        return int(self._counters["integrity_failures"].value)

    @property
    def root(self) -> Path | None:
        """The store directory for local backends, ``None`` otherwise."""
        return self.backend.root if isinstance(self.backend, LocalBackend) else None

    @property
    def locator(self) -> str | None:
        """URL another process can open this store with (``None``: not shareable).

        Process-pool workers and locally spawned fleet workers open the
        parent's store through it.
        """
        return self.backend.locator

    def _artifact_path(self, key: str):
        """Path-like identity of *key*: a real :class:`Path` on local backends."""
        if isinstance(self.backend, LocalBackend):
            return self.backend.path(key)
        return PurePosixPath(key)

    # ------------------------------------------------------------------ #
    # Datasets
    # ------------------------------------------------------------------ #
    @staticmethod
    def dataset_key(spec: DatasetSpec) -> str:
        """Backend key the dataset of *spec* is (or would be) stored under."""
        return f"datasets/{spec.name}-{spec.fingerprint}.npz"

    def dataset_path(self, spec: DatasetSpec):
        """Path-like identity of the dataset of *spec* (a file on local stores)."""
        return self._artifact_path(self.dataset_key(spec))

    def has_dataset(self, spec: DatasetSpec) -> bool:
        """Whether the dataset of *spec* is stored (no counter update)."""
        return self.backend.exists(self.dataset_key(spec))

    def get(self, spec: DatasetSpec) -> PerformanceDataset:
        """Load the dataset of *spec* from the store, generating (and saving) on miss.

        Read-first (no exists/read pair): one backend round trip on the
        warm path, and no window for a concurrent prune to turn an
        observed hit into a crash.  A blob that fails checksum
        verification is rejected — deleted and regenerated like a miss —
        instead of deserializing garbage into an experiment.
        """
        key = self.dataset_key(spec)
        try:
            data = self.backend.read(key)
        except IntegrityError as exc:
            self._counters["integrity_failures"].inc()
            logger.warning("rejecting corrupt dataset blob: %s; regenerating", exc)
            self._discard(key)
        except KeyError:
            pass
        else:
            self._counters["hits"].inc()
            return self._load_dataset(io.BytesIO(data))
        self._counters["misses"].inc()
        dataset = spec.build()
        self.backend.write(key, self.encode_dataset(dataset))
        return dataset

    def _discard(self, key: str) -> None:
        """Best-effort removal of a corrupt blob (and its sidecar)."""
        try:
            self.backend.delete(key)
        except (KeyError, OSError):
            pass

    @staticmethod
    def _config_classes() -> dict:
        """Whitelist of configuration classes the store may rebuild on load."""
        from repro.fmm.config import FmmConfig
        from repro.stencil.config import StencilConfig

        return {"StencilConfig": StencilConfig, "FmmConfig": FmmConfig}

    @classmethod
    def _encode_configs(cls, configs: list) -> str:
        if not configs:
            return json.dumps(None)
        class_name = type(configs[0]).__name__
        if class_name not in cls._config_classes() or any(
                type(c).__name__ != class_name for c in configs):
            raise TypeError(
                f"cannot persist configs of type {class_name!r}; storable types: "
                f"{sorted(cls._config_classes())}")
        return json.dumps({"class": class_name,
                           "configs": [dataclasses.asdict(c) for c in configs]})

    @classmethod
    def _decode_configs(cls, encoded: str) -> list:
        data = json.loads(encoded)
        if data is None:
            return []
        config_cls = cls._config_classes()[data["class"]]
        return [config_cls(**fields) for fields in data["configs"]]

    @classmethod
    def _load_dataset(cls, source) -> PerformanceDataset:
        """Rebuild a dataset from stored ``.npz`` bytes (path or file object)."""
        with np.load(source, allow_pickle=False) as data:
            return PerformanceDataset(
                name=str(data["name"]),
                X=data["X"],
                y=data["y"],
                feature_names=[str(n) for n in data["feature_names"]],
                configs=cls._decode_configs(str(data["configs"])),
            )

    @classmethod
    def encode_dataset(cls, dataset: PerformanceDataset) -> bytes:
        """The dataset as raw ``.npz`` bytes (the store's artifact format).

        The byte form doubles as the wire format of the distributed
        fleet's relay: the coordinator ships exactly what the worker's
        store would hold, so a relayed blob round-trips through
        :meth:`put_dataset_bytes` + :meth:`get` bit-for-bit.
        """
        buf = io.BytesIO()
        np.savez(
            buf,
            name=np.array(dataset.name),
            X=dataset.X,
            y=dataset.y,
            feature_names=np.array(list(dataset.feature_names)),
            configs=np.array(cls._encode_configs(dataset.configs)),
        )
        return buf.getvalue()

    @classmethod
    def decode_dataset_bytes(cls, data: bytes) -> PerformanceDataset:
        """Inverse of :meth:`encode_dataset` (store-less workers use this)."""
        return cls._load_dataset(io.BytesIO(data))

    def put_dataset_bytes(self, spec: DatasetSpec, data: bytes):
        """Install pre-encoded dataset bytes under the fingerprint of *spec*."""
        key = self.dataset_key(spec)
        self.backend.write(key, data)
        return self._artifact_path(key)

    # ------------------------------------------------------------------ #
    # Analytical-prediction caches
    # ------------------------------------------------------------------ #
    @staticmethod
    def cache_key(model_key: str, spec: DatasetSpec) -> str:
        """Backend key of the warmed cache for ``(model_key, spec)``."""
        return f"caches/{model_key}-{spec.fingerprint}.npz"

    def cache_path(self, model_key: str, spec: DatasetSpec):
        """Path-like identity of the ``(model_key, spec)`` cache."""
        return self._artifact_path(self.cache_key(model_key, spec))

    def has_cache(self, model_key: str, spec: DatasetSpec) -> bool:
        """Whether the ``(model_key, spec)`` cache is stored (no counter update)."""
        return self.backend.exists(self.cache_key(model_key, spec))

    def load_analytical_cache(self, model_key: str, spec: DatasetSpec,
                              model, feature_names):
        """Warmed cache for ``(model_key, spec)``, or ``None`` when not stored."""
        from repro.analytical.cache import AnalyticalPredictionCache

        key = self.cache_key(model_key, spec)
        try:
            data = self.backend.read(key)
        except IntegrityError as exc:
            self._counters["integrity_failures"].inc()
            logger.warning("rejecting corrupt cache blob: %s; re-warming", exc)
            self._discard(key)
            self._counters["cache_misses"].inc()
            return None
        except KeyError:
            self._counters["cache_misses"].inc()
            return None
        self._counters["cache_hits"].inc()
        return AnalyticalPredictionCache.load(io.BytesIO(data), model, feature_names)

    def save_analytical_cache(self, model_key: str, spec: DatasetSpec, cache):
        """Persist the memoized rows of *cache* for ``(model_key, spec)``.

        The cache is serialized to memory first and handed to the
        backend whole, so the write inherits the backend's atomicity
        (tmp + rename locally, single PUT on an object store): an
        interrupted run must not leave a truncated cache that poisons
        later loads.
        """
        key = self.cache_key(model_key, spec)
        buf = io.BytesIO()
        cache.save(buf)
        self.backend.write(key, buf.getvalue())
        return self._artifact_path(key)

    def put_cache_bytes(self, model_key: str, spec: DatasetSpec, data: bytes):
        """Install pre-encoded cache bytes under ``(model_key, spec)``."""
        key = self.cache_key(model_key, spec)
        self.backend.write(key, data)
        return self._artifact_path(key)

    # ------------------------------------------------------------------ #
    # Published fitted models (the serving tier's artifacts)
    # ------------------------------------------------------------------ #
    @staticmethod
    def model_key(plan_fingerprint: str, series: str) -> str:
        """Backend key of the published model for ``(plan, series)``.

        The plan fingerprint comes last, matching the
        ``<name>-<fingerprint>`` convention of the other key families,
        so :meth:`prune` parses it the same way.
        """
        if not plan_fingerprint or "/" in plan_fingerprint or "-" in plan_fingerprint:
            raise ValueError(f"invalid plan fingerprint {plan_fingerprint!r}")
        if not series or "/" in series:
            raise ValueError(f"invalid series label {series!r}")
        return f"models/{series}-{plan_fingerprint}.npz"

    def model_path(self, plan_fingerprint: str, series: str):
        """Path-like identity of the ``(plan, series)`` model artifact."""
        return self._artifact_path(self.model_key(plan_fingerprint, series))

    def has_model(self, plan_fingerprint: str, series: str) -> bool:
        """Whether the ``(plan, series)`` model is stored (no counter update)."""
        return self.backend.exists(self.model_key(plan_fingerprint, series))

    def model_bytes(self, plan_fingerprint: str, series: str) -> bytes:
        """Raw bytes of the ``(plan, series)`` model, checksum-verified.

        :class:`KeyError` when absent.  A blob failing checksum
        verification raises :class:`IntegrityError` after being counted
        and discarded — unlike datasets there is nothing to regenerate
        from here, so the caller (the model server answers 503) decides
        what degraded service looks like; the next publish simply
        rewrites the key.
        """
        key = self.model_key(plan_fingerprint, series)
        try:
            return self.backend.read(key)
        except IntegrityError:
            self._counters["integrity_failures"].inc()
            logger.warning("rejecting corrupt model blob %s", key)
            self._discard(key)
            raise

    def put_model_bytes(self, plan_fingerprint: str, series: str, data: bytes):
        """Publish pre-encoded model bytes under ``(plan, series)``."""
        key = self.model_key(plan_fingerprint, series)
        self.backend.write(key, data)
        return self._artifact_path(key)

    def list_models(self, plan_fingerprint: str | None = None) -> list[tuple[str, str]]:
        """``(series, plan_fingerprint)`` pairs of every published model.

        Optionally filtered to one plan.  Sidecars and stray tmp files
        are skipped; ordering follows the backend's sorted key listing.
        """
        models: list[tuple[str, str]] = []
        for key in self.backend.list("models/"):
            if is_checksum_key(key) or not key.endswith(".npz"):
                continue
            stem = PurePosixPath(key).stem
            if stem.endswith(".tmp"):
                continue
            series, sep, fingerprint = stem.rpartition("-")
            if not sep or not series:
                continue
            if plan_fingerprint is None or fingerprint == plan_fingerprint:
                models.append((series, fingerprint))
        return models

    # ------------------------------------------------------------------ #
    # Garbage collection
    # ------------------------------------------------------------------ #
    def prune(self, keep_fingerprints) -> list:
        """Delete every stored artifact whose fingerprint is not kept.

        Long-lived stores accumulate entries for retired settings,
        subsample sizes and simulator versions (each fingerprint change
        *adds* artifacts, it never removes the stale ones).  ``prune``
        lists the ``datasets/``, ``caches/`` and ``models/`` namespaces
        of the backend, parses the fingerprint out of each
        ``<name>-<fingerprint>.npz`` key and deletes artifacts whose
        fingerprint is not in *keep_fingerprints*.  Note the families
        are keyed by different fingerprint kinds — datasets and caches
        by the *dataset* fingerprint, published models by the *plan*
        fingerprint — so a keep set covering both kinds must contain
        both (the CLI's ``--store-prune`` collects them from every
        executed experiment).  Orphaned
        ``*.tmp.npz`` files (left by a writer killed between write and
        rename on a local backend) never parse to a kept fingerprint and
        are collected too.  Checksum sidecars (``*.sha256``) are pruned
        with their blob; a sidecar whose blob is gone (a crash between
        blob delete and sidecar delete, or a kill mid-write) is an
        orphan and is collected even when its fingerprint is kept.
        Returns the removed blob paths (real :class:`Path` objects on
        local backends; sidecars removed alongside a blob are not listed
        separately, orphaned sidecars are).  Not safe against concurrent
        writers of the entries being pruned.
        """
        keep = set(keep_fingerprints)
        removed: list = []
        for prefix in ("datasets/", "caches/", "models/"):
            keys = self.backend.list(prefix)
            present = set(keys)
            for key in keys:
                if is_checksum_key(key):
                    # Sidecars ride with their blob: backend.delete of the
                    # blob removes them, so only orphans (blob gone) or
                    # stale fingerprints are handled here.
                    base = key[:-len(CHECKSUM_SUFFIX)]
                    fingerprint = PurePosixPath(base).stem.rsplit("-", 1)[-1]
                    if base in present and fingerprint in keep:
                        continue
                else:
                    fingerprint = PurePosixPath(key).stem.rsplit("-", 1)[-1]
                    if fingerprint in keep:
                        continue
                try:
                    self.backend.delete(key)
                except KeyError:
                    continue  # pruned with its blob, or a concurrent prune
                removed.append(self._artifact_path(key))
        return removed

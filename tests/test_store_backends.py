"""Tests for the pluggable DatasetStore backends (`repro.datasets.backends`).

Covers the backend contract (read/write/exists/list/delete + locators)
uniformly across the local, in-memory and HTTP object-store backends,
the `--store-url` resolver registry, the bundled object server's API
edges (404s, prefix listing, path-traversal rejection), the atomic-write
regressions (a failed local write must not leak its temp file; `prune`
must collect orphaned temp files) and the CLI integration.
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.datasets import DatasetSpec, DatasetStore
from repro.datasets.backends import (
    LocalBackend,
    MemoryBackend,
    ObjectStoreBackend,
    backend_schemes,
    checksum_key,
    is_checksum_key,
    resolve_backend,
    sha256_hex,
)
from repro.datasets.object_server import ObjectStoreServer

SPEC = DatasetSpec("stencil-blocked", max_configs=60, random_state=0)
OTHER = DatasetSpec("stencil-blocked", max_configs=40, random_state=0)


@pytest.fixture()
def object_server():
    with ObjectStoreServer(MemoryBackend()) as server:
        yield server


@pytest.fixture(params=["local", "memory", "http"])
def backend(request, tmp_path, object_server):
    if request.param == "local":
        return LocalBackend(tmp_path / "store")
    if request.param == "memory":
        return MemoryBackend()
    return ObjectStoreBackend(object_server.url)


class TestBackendContract:
    def test_write_read_round_trip(self, backend):
        backend.write("datasets/a.npz", b"alpha")
        backend.write("caches/b.npz", b"beta")
        assert backend.read("datasets/a.npz") == b"alpha"
        assert backend.read("caches/b.npz") == b"beta"

    def test_overwrite_replaces(self, backend):
        backend.write("datasets/a.npz", b"old")
        backend.write("datasets/a.npz", b"new")
        assert backend.read("datasets/a.npz") == b"new"

    def test_missing_key_raises_keyerror(self, backend):
        with pytest.raises(KeyError):
            backend.read("datasets/nope.npz")
        with pytest.raises(KeyError):
            backend.delete("datasets/nope.npz")
        assert not backend.exists("datasets/nope.npz")

    def test_exists_and_delete(self, backend):
        backend.write("datasets/a.npz", b"alpha")
        assert backend.exists("datasets/a.npz")
        backend.delete("datasets/a.npz")
        assert not backend.exists("datasets/a.npz")

    def test_list_is_sorted_and_prefix_filtered(self, backend):
        backend.write("datasets/b.npz", b"1")
        backend.write("datasets/a.npz", b"2")
        backend.write("caches/c.npz", b"3")
        # Checksum sidecars are real keys and are listed alongside blobs.
        assert backend.list() == [
            "caches/c.npz", "caches/c.npz.sha256",
            "datasets/a.npz", "datasets/a.npz.sha256",
            "datasets/b.npz", "datasets/b.npz.sha256",
        ]
        assert backend.list("datasets/") == [
            "datasets/a.npz", "datasets/a.npz.sha256",
            "datasets/b.npz", "datasets/b.npz.sha256",
        ]
        assert backend.list("nothing/") == []
        blobs = [k for k in backend.list() if not is_checksum_key(k)]
        assert blobs == ["caches/c.npz", "datasets/a.npz", "datasets/b.npz"]

    def test_traversal_keys_rejected(self, backend):
        for key in ("../escape", "a/../../b", "/absolute", "", "a\\b"):
            with pytest.raises((ValueError, KeyError)):
                backend.write(key, b"x")


class TestResolver:
    def test_known_schemes(self):
        assert set(backend_schemes()) == {"file", "memory", "http", "https"}

    def test_file_url_round_trip(self, tmp_path):
        backend = LocalBackend(tmp_path)
        backend.write("datasets/a.npz", b"alpha")
        reopened = resolve_backend(backend.locator)
        assert isinstance(reopened, LocalBackend)
        assert reopened.read("datasets/a.npz") == b"alpha"

    def test_file_url_requires_local_path(self):
        with pytest.raises(ValueError):
            resolve_backend("file://remote-host/share")
        with pytest.raises(ValueError):
            resolve_backend("file://")

    def test_memory_urls(self):
        anonymous = resolve_backend("memory://")
        assert anonymous.locator is None
        assert resolve_backend("memory://") is not anonymous
        named = resolve_backend("memory://shared-test-store")
        named.write("datasets/a.npz", b"alpha")
        again = resolve_backend("memory://shared-test-store")
        assert again is named
        # Even a named memory store is process-local, so it must never
        # advertise a locator (a subprocess resolving the same URL gets
        # an empty store, not this one).
        assert again.locator is None

    def test_http_url(self, object_server):
        backend = resolve_backend(object_server.url)
        assert isinstance(backend, ObjectStoreBackend)
        assert backend.locator == object_server.url

    def test_unknown_scheme_and_missing_scheme(self):
        with pytest.raises(ValueError, match="unknown store URL scheme"):
            resolve_backend("s3://bucket/prefix")
        with pytest.raises(ValueError, match="no scheme"):
            resolve_backend("just-a-directory")

    def test_dataset_store_accepts_backends_and_urls(self, tmp_path):
        assert isinstance(DatasetStore(tmp_path).backend, LocalBackend)
        assert isinstance(DatasetStore(str(tmp_path)).backend, LocalBackend)
        assert isinstance(DatasetStore("memory://").backend, MemoryBackend)
        backend = MemoryBackend()
        assert DatasetStore(backend).backend is backend


class TestDatasetStoreOnBackends:
    def test_memory_store_round_trip(self):
        store = DatasetStore("memory://")
        generated = store.get(SPEC)
        loaded = store.get(SPEC)
        assert (store.misses, store.hits) == (1, 1)
        np.testing.assert_array_equal(generated.X, loaded.X)
        assert loaded.configs == generated.configs

    def test_http_store_round_trip_and_locator(self, object_server):
        store = DatasetStore(object_server.url)
        generated = store.get(SPEC)
        assert store.locator == object_server.url
        again = DatasetStore(object_server.url)
        loaded = again.get(SPEC)
        assert (again.misses, again.hits) == (0, 1)
        np.testing.assert_array_equal(generated.X, loaded.X)
        assert object_server.stats["puts"] >= 1
        assert object_server.stats["gets"] >= 1

    def test_analytical_cache_round_trip_on_memory(self):
        from repro.analytical import AnalyticalPredictionCache
        from repro.experiments.plan import build_analytical

        store = DatasetStore("memory://")
        dataset = store.get(SPEC)
        model = build_analytical("stencil")
        assert store.load_analytical_cache(
            "stencil", SPEC, model, dataset.feature_names) is None
        cache = AnalyticalPredictionCache(model, dataset.feature_names).warm(dataset.X)
        store.save_analytical_cache("stencil", SPEC, cache)
        reloaded = store.load_analytical_cache(
            "stencil", SPEC, model, dataset.feature_names)
        assert (store.cache_misses, store.cache_hits) == (1, 1)
        np.testing.assert_array_equal(
            reloaded.predict(dataset.X), cache.predict(dataset.X))

    def test_prune_is_backend_independent(self):
        store = DatasetStore("memory://")
        store.get(SPEC)
        store.get(OTHER)
        removed = store.prune(keep_fingerprints={SPEC.fingerprint})
        assert [p.name for p in removed] == [store.dataset_path(OTHER).name]
        assert store.has_dataset(SPEC)
        assert not store.has_dataset(OTHER)

    def test_scheduler_runs_on_memory_store(self):
        from repro.experiments import ExperimentSettings, run_experiment

        tiny = ExperimentSettings(n_estimators=4, n_repeats=2, max_configs=120)
        serial = run_experiment("figure6", tiny)
        store = DatasetStore("memory://")
        stored = run_experiment("figure6", tiny, store=store)
        assert stored.rows() == serial.rows()
        assert (store.misses, store.cache_misses) == (1, 1)
        warm = run_experiment("figure6", tiny, store=store)
        assert warm.rows() == serial.rows()
        assert store.hits >= 1 and store.cache_hits >= 1

    def test_process_executor_loads_through_http_locator(self, object_server):
        """Process-pool workers open the parent's http:// store directly."""
        from repro.experiments import ExperimentSettings, run_experiment

        tiny = ExperimentSettings(n_estimators=4, n_repeats=2, max_configs=120)
        serial = run_experiment("figure6", tiny)
        store = DatasetStore(object_server.url)
        parallel = run_experiment("figure6", tiny, store=store,
                                  executor="process", jobs=2)
        assert parallel.rows() == serial.rows()
        # Parent resolve + at least one subprocess each hit the server.
        assert object_server.stats["gets"] + object_server.stats["puts"] >= 2


class TestAtomicWriteRegressions:
    def test_failed_write_does_not_leak_tmp_file(self, tmp_path, monkeypatch):
        """Regression: an exception between tmp-write and rename used to
        leave the half-written ``.tmp.npz`` file behind."""
        from pathlib import Path

        backend = LocalBackend(tmp_path)

        def explode(self, target):
            raise OSError("simulated rename failure")

        monkeypatch.setattr(Path, "replace", explode)
        with pytest.raises(OSError, match="simulated rename failure"):
            backend.write("datasets/a.npz", b"alpha")
        monkeypatch.undo()
        leftovers = [p for p in tmp_path.rglob("*") if p.is_file()]
        assert leftovers == []
        assert not backend.exists("datasets/a.npz")

    def test_prune_collects_orphaned_tmp_files(self, tmp_path):
        """Regression: a writer killed between write and rename leaves a
        ``*.tmp.npz`` orphan; prune must collect it even when every real
        artifact is kept."""
        store = DatasetStore(tmp_path)
        store.get(SPEC)
        orphan = (tmp_path / "datasets" /
                  f"{SPEC.name}-{SPEC.fingerprint}.npz.12345.tmp.npz")
        orphan.write_bytes(b"half-written")
        removed = store.prune(keep_fingerprints={SPEC.fingerprint})
        assert removed == [orphan]
        assert not orphan.exists()
        assert store.has_dataset(SPEC)

    def test_prune_collects_orphaned_checksum_sidecars(self, tmp_path):
        """Regression: a blob deleted out-of-band (or written by a
        pre-checksum store and pruned by it) can leave a ``.sha256``
        sidecar with no blob; prune must collect the orphan even when its
        fingerprint is kept, and must keep live sidecars with their
        blobs."""
        store = DatasetStore(tmp_path)
        store.get(SPEC)
        backend = store.backend
        blob_key = DatasetStore.dataset_key(SPEC)
        sidecar = checksum_key(blob_key)
        assert backend.exists(sidecar)
        # Orphan it: remove the blob only (raw delete bypasses the
        # template method that would also remove the sidecar).
        backend._delete(blob_key)
        assert backend.exists(sidecar)
        removed = store.prune(keep_fingerprints={SPEC.fingerprint})
        assert [p.name for p in removed] == [f"{blob_key.rsplit('/')[-1]}.sha256"]
        assert not backend.exists(sidecar)
        # Live blob + sidecar pairs are pruned (and kept) together; the
        # sidecar riding with its blob is not listed separately.
        store.get(SPEC)
        store.get(OTHER)
        removed = store.prune(keep_fingerprints={SPEC.fingerprint})
        assert [p.name for p in removed] == [
            f"{OTHER.name}-{OTHER.fingerprint}.npz"]
        other_key = DatasetStore.dataset_key(OTHER)
        assert not backend.exists(other_key)
        assert not backend.exists(checksum_key(other_key))
        assert store.has_dataset(SPEC)
        assert backend.exists(checksum_key(blob_key))

    def test_prune_knows_the_models_family(self, tmp_path):
        """Regression: ``prune`` only walked ``datasets/`` and ``caches/``,
        so published ``models/`` blobs (and their sidecars) from retired
        plans were never collected — and, conversely, a keep set without
        the plan fingerprint silently deleted just-published models."""
        store = DatasetStore(tmp_path)
        store.put_model_bytes("feedc0de12345678", "hybrid", b"live-model")
        store.put_model_bytes("0dd0dd0dd0dd0dd0", "hybrid", b"stale-model")
        removed = store.prune(keep_fingerprints={"feedc0de12345678"})
        assert sorted(p.name for p in removed) == [
            "hybrid-0dd0dd0dd0dd0dd0.npz"]
        assert store.has_model("feedc0de12345678", "hybrid")
        assert not store.has_model("0dd0dd0dd0dd0dd0", "hybrid")
        stale_key = DatasetStore.model_key("0dd0dd0dd0dd0dd0", "hybrid")
        assert not store.backend.exists(checksum_key(stale_key))
        live_key = DatasetStore.model_key("feedc0de12345678", "hybrid")
        assert store.backend.exists(checksum_key(live_key))
        assert store.model_bytes("feedc0de12345678", "hybrid") == b"live-model"


class TestChecksums:
    """The integrity layer: sidecars on write, verification on read."""

    def test_write_records_a_sha256_sidecar(self, backend):
        backend.write("datasets/a.npz", b"alpha")
        sidecar = backend.read(checksum_key("datasets/a.npz"))
        assert sidecar.decode("ascii") == sha256_hex(b"alpha")

    def test_corrupt_blob_is_rejected_on_read(self, backend):
        from repro.datasets.backends import IntegrityError

        backend.write("datasets/a.npz", b"alpha")
        # Corrupt below the checksum layer, as bit rot would.
        backend._write("datasets/a.npz", b"alphX")
        with pytest.raises(IntegrityError, match="datasets/a.npz"):
            backend.read("datasets/a.npz")

    def test_legacy_blob_without_sidecar_reads_unverified(self, backend):
        backend._write("datasets/legacy.npz", b"old")
        assert backend.read("datasets/legacy.npz") == b"old"

    def test_delete_removes_the_sidecar_too(self, backend):
        backend.write("datasets/a.npz", b"alpha")
        backend.delete("datasets/a.npz")
        assert not backend.exists("datasets/a.npz")
        assert not backend.exists(checksum_key("datasets/a.npz"))

    def test_store_rejects_and_regenerates_corrupt_dataset(self, tmp_path):
        store = DatasetStore(tmp_path)
        dataset = store.get(SPEC)
        blob_key = DatasetStore.dataset_key(SPEC)
        good = store.backend._read(blob_key)
        store.backend._write(blob_key, good[:-1] + bytes([good[-1] ^ 1]))
        refetched = store.get(SPEC)  # detected, discarded, regenerated
        assert store.integrity_failures == 1
        assert store.backend._read(blob_key) == good  # byte-identical rebuild
        np.testing.assert_array_equal(refetched.X, dataset.X)
        np.testing.assert_array_equal(refetched.y, dataset.y)


class TestObjectServer:
    def test_get_missing_is_404(self, object_server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(object_server.url + "datasets/nope.npz")
        assert excinfo.value.code == 404

    def test_list_endpoint_returns_json(self, object_server):
        backend = ObjectStoreBackend(object_server.url)
        backend.write("datasets/a.npz", b"1")
        backend.write("caches/b.npz", b"2")
        with urllib.request.urlopen(object_server.url + "?prefix=datasets/") as resp:
            assert json.loads(resp.read()) == [
                "datasets/a.npz", "datasets/a.npz.sha256"]

    def test_traversal_is_rejected_with_400(self, object_server):
        request = urllib.request.Request(
            object_server.url + "..%2f..%2fescape", data=b"x", method="PUT")
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request)
        assert excinfo.value.code == 400

    def test_head_existence_probe(self, object_server):
        backend = ObjectStoreBackend(object_server.url)
        assert not backend.exists("datasets/a.npz")
        backend.write("datasets/a.npz", b"1")
        assert backend.exists("datasets/a.npz")
        assert object_server.stats["heads"] == 1  # the 404 probe is not counted

    def test_server_over_local_backend_persists(self, tmp_path):
        with ObjectStoreServer(LocalBackend(tmp_path)) as server:
            client = ObjectStoreBackend(server.url)
            client.write("datasets/a.npz", b"alpha")
        assert (tmp_path / "datasets" / "a.npz").read_bytes() == b"alpha"


class TestCommandLine:
    def test_store_url_flag_memory(self, capsys):
        from repro.experiments.__main__ import main

        assert main(["figure6", "--quick", "--store-url", "memory://",
                     "--store-prune"]) == 0
        out = capsys.readouterr().out
        assert "figure6" in out and "store prune" in out

    def test_store_url_flag_http(self, object_server, capsys):
        from repro.experiments.__main__ import main

        assert main(["figure6", "--quick", "--executor", "process", "--jobs", "2",
                     "--store-url", object_server.url]) == 0
        assert "figure6" in capsys.readouterr().out
        assert object_server.stats["puts"] >= 2  # dataset + warmed cache

    def test_store_url_and_store_dir_conflict(self, tmp_path):
        from repro.experiments.__main__ import main

        with pytest.raises(SystemExit):
            main(["figure6", "--quick", "--store-dir", str(tmp_path),
                  "--store-url", "memory://"])

    def test_bad_store_url_is_a_usage_error(self):
        from repro.experiments.__main__ import main

        with pytest.raises(SystemExit):
            main(["figure6", "--quick", "--store-url", "s3://bucket"])

    def test_store_url_requires_a_scheme(self, tmp_path):
        """A bare path given to --store-url must be a usage error, not a
        silently-created local directory named after the 'URL'."""
        from repro.distributed.worker import main as worker_main
        from repro.experiments.__main__ import main

        with pytest.raises(SystemExit):
            main(["figure6", "--quick", "--store-url", str(tmp_path)])
        with pytest.raises(SystemExit):
            worker_main(["--connect", "127.0.0.1:1", "--store-url", "no-scheme"])

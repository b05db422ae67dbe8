"""Fault-injection tests (`repro.testing.faults`) — the robustness proofs.

Covers the harness itself (programmable corruption/errors/delays under
the checksum layer, frame-aware socket faults), every
`ObjectStoreBackend` error path the retry policy must absorb (HTTP 5xx
bursts, connection refused, mid-body truncation, slow-server timeouts),
`DatasetStore` reject-and-regenerate through the harness, and the
end-to-end chaos run: a worker fleet against a fault-injected object
store still produces rows bit-identical to serial.
"""

from __future__ import annotations

import http.client
import socket
import threading
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.datasets import DatasetSpec, DatasetStore
from repro.datasets.backends import (
    IntegrityError,
    LocalBackend,
    MemoryBackend,
    ObjectStoreBackend,
    checksum_key,
    sha256_hex,
)
from repro.datasets.object_server import ObjectStoreServer
from repro.distributed import protocol
from repro.testing import FaultyBackend, FaultySocket, flip_bit
from repro.utils.retry import RetryPolicy

SPEC = DatasetSpec("stencil-blocked", max_configs=60, random_state=0)

#: Keep test retries fast: same shape as production, millisecond delays.
FAST = RetryPolicy(max_attempts=3, base_delay=0.01, max_delay=0.05)


class TestFlipBit:
    def test_flips_exactly_one_bit(self):
        data = b"\x00\x00"
        assert flip_bit(data) == b"\x01\x00"
        assert flip_bit(data, bit=9) == b"\x00\x02"
        assert flip_bit(b"") == b""

    def test_roundtrip_restores(self):
        assert flip_bit(flip_bit(b"payload")) == b"payload"


class TestFaultyBackend:
    def test_error_fires_times_then_clears(self):
        backend = FaultyBackend(MemoryBackend())
        backend.write("datasets/a.npz", b"alpha")
        backend.inject_error(ConnectionResetError("reset"), op="read", times=2)
        for _ in range(2):
            with pytest.raises(ConnectionResetError):
                backend.read("datasets/a.npz")
        assert backend.read("datasets/a.npz") == b"alpha"
        assert [e["kind"] for e in backend.log] == ["error", "error"]

    def test_key_and_op_filters(self):
        backend = FaultyBackend(MemoryBackend())
        backend.write("datasets/a.npz", b"alpha")
        backend.write("caches/c.npz", b"gamma")
        backend.inject_error(OSError("no"), op="read", key="caches/", times=None)
        assert backend.read("datasets/a.npz") == b"alpha"  # unmatched key
        backend.exists("caches/c.npz")                     # unmatched op
        with pytest.raises(OSError):
            backend.read("caches/c.npz")

    def test_read_corruption_is_caught_by_the_checksum_layer(self):
        """An injected bit-flip below the template read() must surface as
        IntegrityError, never as corrupt bytes."""
        backend = FaultyBackend(MemoryBackend())
        backend.write("datasets/a.npz", b"alpha")
        backend.inject_corruption(op="read", times=1)
        with pytest.raises(IntegrityError):
            backend.read("datasets/a.npz")
        assert backend.read("datasets/a.npz") == b"alpha"  # fault consumed

    def test_write_corruption_lands_a_detectable_torn_blob(self):
        backend = FaultyBackend(MemoryBackend())
        backend.inject_corruption(op="write", times=1)
        backend.write("datasets/a.npz", b"alpha")
        # Sidecar records the intended digest; the blob is torn.
        sidecar = backend.inner._read(checksum_key("datasets/a.npz"))
        assert sidecar.decode() == sha256_hex(b"alpha")
        with pytest.raises(IntegrityError):
            backend.read("datasets/a.npz")

    def test_corruption_skips_checksum_sidecars_by_default(self):
        backend = FaultyBackend(MemoryBackend())
        backend.write("datasets/a.npz", b"alpha")
        backend.inject_corruption(op="read", times=None)
        with pytest.raises(IntegrityError):
            backend.read("datasets/a.npz")
        for entry in backend.log:
            assert not entry["key"].endswith(".sha256")

    def test_delay_and_log_text(self):
        slept: list[float] = []
        backend = FaultyBackend(MemoryBackend())
        backend._sleep = slept.append
        backend.write("datasets/a.npz", b"alpha")
        backend.inject_delay(1.5, op="read", times=1)
        assert backend.read("datasets/a.npz") == b"alpha"
        assert slept == [1.5]
        assert "delay" in backend.log_text()
        assert "datasets/a.npz" in backend.log_text()


class _TruncatingServer:
    """Answers every GET with a Content-Length it never delivers."""

    def __init__(self) -> None:
        self.connections = 0
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._sock.bind(("127.0.0.1", 0))
        self._sock.listen(8)
        self._thread = threading.Thread(target=self._serve, daemon=True)

    @property
    def url(self) -> str:
        host, port = self._sock.getsockname()[:2]
        return f"http://{host}:{port}/"

    def _serve(self) -> None:
        while True:
            try:
                conn, _ = self._sock.accept()
            except OSError:
                return
            self.connections += 1
            try:
                conn.recv(1 << 16)
                conn.sendall(b"HTTP/1.1 200 OK\r\n"
                             b"Content-Type: application/octet-stream\r\n"
                             b"Content-Length: 4096\r\n\r\n"
                             b"only-these-bytes-arrive")
                conn.close()
            except OSError:
                pass

    def __enter__(self) -> _TruncatingServer:
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        try:
            self._sock.close()
        except OSError:
            pass


class TestObjectStoreErrorPaths:
    """Satellite: each transport failure mode, with attempt counts."""

    @pytest.fixture()
    def faulty_server(self):
        with ObjectStoreServer(FaultyBackend(MemoryBackend())) as server:
            yield server

    def test_5xx_burst_is_retried_to_success(self, faulty_server):
        client = ObjectStoreBackend(faulty_server.url, retry=FAST)
        client.write("datasets/a.npz", b"alpha")
        faulty_server.backend.inject_error(
            RuntimeError("disk on fire"), op="read", times=2)
        assert client.read("datasets/a.npz") == b"alpha"
        assert client.retries == 2          # two 500s, then success
        assert faulty_server.stats["errors"] == 2

    def test_5xx_exhaustion_raises_the_final_error(self, faulty_server):
        client = ObjectStoreBackend(faulty_server.url, retry=FAST)
        client.write("datasets/a.npz", b"alpha")
        faulty_server.backend.inject_error(
            RuntimeError("dead disk"), op="read", times=None)
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            client.read("datasets/a.npz")
        assert excinfo.value.code == 500
        assert client.retries == FAST.max_attempts - 1  # full budget spent

    def test_4xx_is_permanent_and_never_retried(self, faulty_server):
        client = ObjectStoreBackend(faulty_server.url, retry=FAST)
        with pytest.raises(KeyError):
            client.read("datasets/nope.npz")
        assert client.retries == 0

    def test_connection_refused_retries_then_raises(self):
        # Port 1 on loopback refuses instantly; nothing ever listens.
        client = ObjectStoreBackend("http://127.0.0.1:1/", retry=FAST)
        with pytest.raises(OSError):
            client.read("datasets/a.npz")
        assert client.retries == FAST.max_attempts - 1

    def test_mid_body_truncation_retries_then_raises(self):
        with _TruncatingServer() as server:
            client = ObjectStoreBackend(server.url, retry=FAST, timeout=5.0)
            with pytest.raises(http.client.IncompleteRead):
                client.read("datasets/a.npz")
            assert server.connections == FAST.max_attempts
            assert client.retries == FAST.max_attempts - 1

    def test_slow_server_attempt_times_out_and_retries(self, faulty_server):
        client = ObjectStoreBackend(faulty_server.url, retry=FAST, timeout=0.3)
        client.write("datasets/a.npz", b"alpha")
        faulty_server.backend.inject_delay(1.2, op="read", times=1)
        assert client.read("datasets/a.npz") == b"alpha"
        assert client.retries == 1          # one timed-out attempt

    def test_corrupt_put_is_rejected_with_422(self, faulty_server):
        request = urllib.request.Request(
            faulty_server.url + "datasets/a.npz", data=b"corrupted-in-flight",
            method="PUT")
        request.add_header("X-Repro-SHA256", sha256_hex(b"what-was-sent"))
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request)
        assert excinfo.value.code == 422
        assert faulty_server.stats["rejected_puts"] == 1
        client = ObjectStoreBackend(faulty_server.url, retry=FAST)
        assert not client.exists("datasets/a.npz")  # nothing was stored


class TestWireFaults:
    def test_corrupted_frame_fails_the_crc_check(self):
        left, right = socket.socketpair()
        try:
            faulty = FaultySocket(left, corrupt_frames={2})
            protocol.send_message(faulty, protocol.Heartbeat("w1"))
            assert protocol.recv_message(right) == protocol.Heartbeat("w1")
            protocol.send_message(faulty, protocol.Heartbeat("w2"))
            with pytest.raises(protocol.ProtocolError, match="CRC"):
                protocol.recv_message(right)
            assert [e["kind"] for e in faulty.log] == ["corrupt"]
        finally:
            left.close()
            right.close()

    def test_drop_after_cuts_the_connection(self):
        left, right = socket.socketpair()
        try:
            faulty = FaultySocket(left, drop_after=1)
            protocol.send_message(faulty, protocol.Heartbeat("w1"))
            with pytest.raises(ConnectionError):
                protocol.send_message(faulty, protocol.Heartbeat("w2"))
        finally:
            right.close()


class TestStoreChaos:
    def test_store_rejects_and_regenerates_through_the_harness(self, tmp_path):
        backend = FaultyBackend(LocalBackend(tmp_path))
        store = DatasetStore(backend)
        first = store.get(SPEC)
        backend.inject_corruption(op="read", key="datasets/", times=1)
        again = store.get(SPEC)
        assert store.integrity_failures == 1
        np.testing.assert_array_equal(again.X, first.X)
        np.testing.assert_array_equal(again.y, first.y)
        # The store healed itself: the rebuilt blob verifies cleanly.
        fresh = DatasetStore(LocalBackend(tmp_path))
        fresh.get(SPEC)
        assert (fresh.misses, fresh.hits) == (0, 1)

    def test_cache_corruption_forces_rewarm_not_garbage(self, tmp_path):
        from repro.analytical import AnalyticalPredictionCache
        from repro.experiments.plan import build_analytical

        backend = FaultyBackend(LocalBackend(tmp_path))
        store = DatasetStore(backend)
        dataset = store.get(SPEC)
        model = build_analytical("stencil")
        cache = AnalyticalPredictionCache(
            model, dataset.feature_names).warm(dataset.X)
        store.save_analytical_cache("stencil", SPEC, cache)
        backend.inject_corruption(op="read", key="caches/", times=1)
        reloaded = store.load_analytical_cache(
            "stencil", SPEC, model, dataset.feature_names)
        assert reloaded is None              # rejected, reported as a miss
        assert store.integrity_failures == 1
        reloaded = store.load_analytical_cache(
            "stencil", SPEC, model, dataset.feature_names)
        assert reloaded is None              # corrupt entry was discarded


class TestChaosFleet:
    """The acceptance criterion: bit-identical rows under injected faults."""

    def test_fleet_bit_identical_under_store_chaos(self):
        from repro.distributed.coordinator import Coordinator
        from repro.distributed.worker import FleetWorker
        from repro.experiments import ExperimentSettings
        from repro.experiments.plan import experiment_plan
        from repro.experiments.scheduler import run_plan

        tiny = ExperimentSettings(n_estimators=4, n_repeats=2,
                                  max_configs=120, random_state=0)
        plan = experiment_plan("figure6", tiny)
        serial = run_plan(plan)

        faulty = FaultyBackend(MemoryBackend())
        with ObjectStoreServer(faulty) as server:
            shared = DatasetStore(server.url)
            run_plan(plan, store=shared)  # seed the object store
            # Chaos: every dataset read is served corrupted (the driver's
            # checksum catches it and regenerates; store-less workers get
            # the driver's in-memory copy through the relay), and cache
            # reads hit a 500 burst (the client's retry policy absorbs it).
            faulty.inject_corruption(op="read", key="datasets/", times=None)
            faulty.inject_error(RuntimeError("error burst"), op="read",
                                key="caches/", times=2)
            with Coordinator() as coordinator:
                workers = [
                    FleetWorker(coordinator.address,
                                retry=RetryPolicy(max_attempts=4,
                                                  base_delay=0.01))
                    for _ in range(2)
                ]
                threads = [threading.Thread(target=w.run, daemon=True)
                           for w in workers]
                for thread in threads:
                    thread.start()
                driver_store = DatasetStore(server.url)
                chaotic = run_plan(plan, executor="remote", fleet=coordinator,
                                   store=driver_store)
            for thread in threads:
                thread.join(timeout=10.0)
                assert not thread.is_alive()

        assert (chaotic.rows(), chaotic.extra) == (serial.rows(), serial.extra)
        # The faults really fired and were survived, not skipped.
        assert {e["kind"] for e in faulty.log} == {"corrupt", "error"}
        assert driver_store.integrity_failures >= 1
        assert sum(w.relay_fetches for w in workers) >= 1
        assert faulty.log_text()

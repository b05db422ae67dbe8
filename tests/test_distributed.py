"""Tests for the distributed worker-fleet executor (`repro.distributed`).

The guarantees under test:

* the ``remote`` executor produces ``ExperimentResult`` rows **bit-identical**
  to the serial executor — for a clean fleet, for a fleet whose worker is
  SIGKILLed mid-plan (leased cells are requeued), and for a worker whose
  heartbeat goes silent;
* the HELLO handshake rejects protocol-version and store-format-version
  mismatches instead of exchanging incompatible artifacts;
* cold-store workers bootstrap the dataset and warmed analytical caches
  without ever re-simulating (store hit counters): from their own store
  when it holds them, through digest-verified coordinator relay frames
  otherwise;
* a cell that exhausts its requeue budget fails the plan with a hard
  error rather than hanging the coordinator.
"""

from __future__ import annotations

import dataclasses
import os
import signal
import socket
import threading
import time

import pytest

from repro.datasets.backends import IntegrityError, sha256_hex
from repro.datasets.store import _FORMAT_VERSION, DatasetStore, _simulator_versions
from repro.distributed import protocol
from repro.distributed.coordinator import Coordinator
from repro.distributed.protocol import PROTOCOL_VERSION, parse_address
from repro.distributed.worker import FleetWorker
from repro.experiments import ExperimentSettings, run_experiment
from repro.experiments.plan import expand_cells, experiment_plan
from repro.experiments.scheduler import EXECUTORS, run_plan

TINY = ExperimentSettings(n_estimators=4, n_repeats=2, max_configs=120, random_state=0)


def _rows(result):
    return (result.rows(), result.extra)


def _raw_handshake(address, *, protocol_version=PROTOCOL_VERSION,
                   store_format_version=_FORMAT_VERSION,
                   simulator_versions=None, worker_id="raw-client"):
    """Connect a bare socket and perform (a possibly broken) HELLO."""
    sock = socket.create_connection(address, timeout=10.0)
    protocol.send_message(sock, protocol.Hello(
        protocol_version=protocol_version,
        store_format_version=store_format_version,
        worker_id=worker_id, pid=os.getpid(),
        simulator_versions=(simulator_versions if simulator_versions is not None
                            else _simulator_versions())))
    return sock, protocol.recv_message(sock)


def _await_plan(sock, worker_id="raw-client", timeout=30.0):
    """Poll GetPlan on a raw client until a PlanAssignment arrives."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        protocol.send_message(sock, protocol.GetPlan(worker_id))
        reply = protocol.recv_message(sock)
        if isinstance(reply, protocol.PlanAssignment):
            return reply
        time.sleep(0.05)
    raise AssertionError("no plan became active in time")


def _run_plan_async(plan, coordinator, **kwargs):
    """run_plan(executor='remote') in a thread; returns (thread, outcome box)."""
    box: dict = {}

    def _target():
        try:
            box["result"] = run_plan(plan, executor="remote", fleet=coordinator,
                                     **kwargs)
        except BaseException as exc:  # noqa: BLE001 - surfaced via the box
            box["error"] = exc

    thread = threading.Thread(target=_target, daemon=True)
    thread.start()
    return thread, box


class TestProtocol:
    def test_frame_round_trip(self):
        blob = os.urandom(1 << 17)
        left, right = socket.socketpair()
        try:
            messages = [
                protocol.Hello(PROTOCOL_VERSION, _FORMAT_VERSION, "w1", 123),
                protocol.Heartbeat("w1"),
                protocol.Blob("abc", None, blob, sha256_hex(blob)),
                protocol.Results("abc", "w1", ()),
            ]
            lock = threading.Lock()
            for message in messages:
                protocol.send_message(left, message, lock)
            for message in messages:
                assert protocol.recv_message(right) == message
        finally:
            left.close()
            right.close()

    def test_eof_raises_connection_closed(self):
        left, right = socket.socketpair()
        left.close()
        try:
            with pytest.raises(protocol.ConnectionClosed):
                protocol.recv_message(right)
        finally:
            right.close()

    def test_parse_address(self):
        assert parse_address("10.0.0.1:9001") == ("10.0.0.1", 9001)
        with pytest.raises(ValueError):
            parse_address("no-port")
        with pytest.raises(ValueError):
            parse_address(":9001")


class TestHandshake:
    @pytest.fixture()
    def coordinator(self):
        with Coordinator() as coordinator:
            yield coordinator

    def test_protocol_version_mismatch_rejected(self, coordinator):
        sock, reply = _raw_handshake(coordinator.address,
                                     protocol_version=PROTOCOL_VERSION + 1)
        sock.close()
        assert isinstance(reply, protocol.Reject)
        assert "protocol version" in reply.reason
        assert coordinator.stats["rejected_handshakes"] == 1

    def test_store_format_version_mismatch_rejected(self, coordinator):
        sock, reply = _raw_handshake(coordinator.address,
                                     store_format_version=_FORMAT_VERSION + 1)
        sock.close()
        assert isinstance(reply, protocol.Reject)
        assert "store fingerprint format" in reply.reason

    def test_simulator_version_mismatch_rejected(self, coordinator):
        """Fingerprints fold in the simulator versions, so a skewed worker
        must not be allowed to exchange store artifacts."""
        sock, reply = _raw_handshake(coordinator.address,
                                     simulator_versions="fmm999-stencil999")
        sock.close()
        assert isinstance(reply, protocol.Reject)
        assert "simulator version" in reply.reason

    def test_matching_versions_welcomed(self, coordinator):
        sock, reply = _raw_handshake(coordinator.address)
        assert isinstance(reply, protocol.Welcome)
        assert reply.coordinator_id == coordinator.coordinator_id
        sock.close()

    def test_request_before_handshake_rejected(self, coordinator):
        sock = socket.create_connection(coordinator.address, timeout=10.0)
        protocol.send_message(sock, protocol.GetPlan("impatient"))
        reply = protocol.recv_message(sock)
        sock.close()
        assert isinstance(reply, protocol.Reject)
        assert "handshake" in reply.reason

    def test_rejected_worker_exits_with_error(self, coordinator, monkeypatch):
        monkeypatch.setattr("repro.distributed.worker.PROTOCOL_VERSION",
                            PROTOCOL_VERSION + 1)
        worker = FleetWorker(coordinator.address, connect_timeout=5.0)
        assert worker.run() == 2


class TestRemoteExecutor:
    def test_remote_is_a_registered_executor(self):
        assert "remote" in EXECUTORS

    def test_in_process_fleet_bit_identical(self):
        """Three workers over real sockets == serial, and the fleet survives
        a second plan on the same connections (per-plan memo reuse)."""
        serial6 = run_experiment("figure6", TINY)
        serial8 = run_experiment("figure8", TINY)
        with Coordinator() as coordinator:
            # A per-cell delay makes one 4-cell lease outlast the 0.2 s
            # NoPlan poll, so no single worker can drain a plan alone.
            workers = [FleetWorker(coordinator.address, cell_delay=0.1)
                       for _ in range(3)]
            threads = [threading.Thread(target=w.run, daemon=True) for w in workers]
            for thread in threads:
                thread.start()
            # Start the first plan only once every worker has connected.
            deadline = time.monotonic() + 30.0
            while (len(coordinator.worker_snapshot()) < len(workers)
                   and time.monotonic() < deadline):
                time.sleep(0.02)
            assert len(coordinator.worker_snapshot()) == len(workers)
            remote6 = run_experiment("figure6", TINY, executor="remote",
                                     fleet=coordinator)
            remote8 = run_experiment("figure8", TINY, executor="remote",
                                     fleet=coordinator)
        for thread in threads:
            thread.join(timeout=10.0)
            assert not thread.is_alive()
        assert _rows(remote6) == _rows(serial6)
        assert _rows(remote8) == _rows(serial8)
        # Work was actually distributed, not funneled through one worker.
        assert sum(w.cells_evaluated for w in workers) == 12 + 12
        assert sum(w.plans_served > 0 for w in workers) >= 2

    def test_local_subprocess_fleet_bit_identical(self, tmp_path):
        """The acceptance criterion: `--executor remote --jobs 2` == serial."""
        serial = run_experiment("figure5", TINY, store=str(tmp_path))
        remote = run_experiment("figure5", TINY, executor="remote", jobs=2,
                                store=str(tmp_path))
        assert _rows(remote) == _rows(serial)

    def test_auto_leases_bit_identical(self):
        """``batch_size="auto"`` (cost-budget leases, expensive-first
        queue) changes only the lease shapes: rows match serial and every
        cell is evaluated exactly as often as the fixed-size path."""
        plan = experiment_plan("figure6", TINY)
        serial = run_plan(plan)
        with Coordinator(batch_size="auto") as coordinator:
            workers = [FleetWorker(coordinator.address) for _ in range(2)]
            threads = [threading.Thread(target=w.run, daemon=True) for w in workers]
            for thread in threads:
                thread.start()
            remote = run_plan(plan, executor="remote", fleet=coordinator)
        for thread in threads:
            thread.join(timeout=10.0)
        assert _rows(remote) == _rows(serial)
        assert sum(w.cells_evaluated for w in workers) == len(expand_cells(plan))

    def test_batch_size_validation(self):
        for bad in (0, -1, "bogus", True, 2.5):
            with pytest.raises(ValueError, match="batch_size"):
                Coordinator(batch_size=bad)

    def test_worker_sigkill_mid_plan_requeues(self, tmp_path):
        """Kill a worker process mid-plan: its leased cells are requeued and
        the merged result is still bit-identical to serial."""
        store = DatasetStore(tmp_path)
        plan = experiment_plan("figure6", TINY)
        serial = run_plan(plan, store=store)
        with Coordinator(batch_size=2, heartbeat_timeout=30.0) as coordinator:
            procs = coordinator.spawn_local_workers(2, store_dir=tmp_path,
                                                    cell_delay=0.4)
            pids = {proc.pid for proc in procs}
            killed: list[int] = []

            def _assassin():
                deadline = time.monotonic() + 60.0
                while time.monotonic() < deadline:
                    for worker in coordinator.worker_snapshot():
                        if worker["pid"] in pids and worker["lease"] > 0:
                            time.sleep(0.15)  # now provably mid-batch
                            os.kill(worker["pid"], signal.SIGKILL)
                            killed.append(worker["pid"])
                            return
                    time.sleep(0.02)

            assassin = threading.Thread(target=_assassin, daemon=True)
            assassin.start()
            remote = run_plan(plan, executor="remote", fleet=coordinator,
                              store=store)
            assassin.join(timeout=5.0)
        assert killed, "no worker held a lease to kill"
        assert coordinator.stats["workers_failed"] >= 1
        assert coordinator.stats["requeued_cells"] >= 1
        assert _rows(remote) == _rows(serial)

    def test_heartbeat_timeout_requeues_silent_worker(self):
        """A worker that stops heartbeating (without dying) loses its lease."""
        plan = experiment_plan("figure6", TINY)
        serial = run_plan(plan)
        coordinator = Coordinator(batch_size=4, heartbeat_timeout=0.6)
        try:
            thread, box = _run_plan_async(plan, coordinator)
            sock, welcome = _raw_handshake(coordinator.address, worker_id="silent")
            assert isinstance(welcome, protocol.Welcome)
            assignment = _await_plan(sock, worker_id="silent")
            protocol.send_message(sock, protocol.GetBatch(assignment.plan_id, "silent"))
            batch = protocol.recv_message(sock)
            assert isinstance(batch, protocol.Batch) and batch.cells
            # Go silent (socket stays open), then let an honest worker finish.
            honest = FleetWorker(coordinator.address)
            honest_thread = threading.Thread(target=honest.run, daemon=True)
            honest_thread.start()
            thread.join(timeout=120.0)
            assert not thread.is_alive()
            sock.close()
        finally:
            coordinator.close()
        assert "error" not in box, box.get("error")
        assert coordinator.stats["requeued_cells"] >= len(batch.cells)
        assert coordinator.stats["workers_failed"] >= 1
        assert honest.cells_evaluated == len(expand_cells(plan))
        assert _rows(box["result"]) == _rows(serial)

    def test_retry_exhaustion_is_a_hard_error(self):
        """A cell whose every lease dies exhausts max_retries and fails the plan."""
        plan = experiment_plan("figure6", TINY)
        coordinator = Coordinator(batch_size=2, max_retries=0)
        try:
            thread, box = _run_plan_async(plan, coordinator)
            sock, welcome = _raw_handshake(coordinator.address, worker_id="dying")
            assert isinstance(welcome, protocol.Welcome)
            assignment = _await_plan(sock, worker_id="dying")
            protocol.send_message(sock, protocol.GetBatch(assignment.plan_id, "dying"))
            assert isinstance(protocol.recv_message(sock), protocol.Batch)
            sock.close()  # die with the lease held
            thread.join(timeout=120.0)
            assert not thread.is_alive()
        finally:
            coordinator.close()
        assert isinstance(box.get("error"), RuntimeError)
        assert "max_retries" in str(box["error"])

    def test_all_local_workers_dead_fails_fast(self, tmp_path):
        """A purely-local fleet with no survivors aborts instead of hanging."""
        plan = experiment_plan("figure6", TINY)
        with Coordinator() as coordinator:
            procs = coordinator.spawn_local_workers(1, store_dir=tmp_path,
                                                    cell_delay=5.0)
            thread, box = _run_plan_async(plan, coordinator)
            deadline = time.monotonic() + 60.0
            while not coordinator.worker_snapshot() and time.monotonic() < deadline:
                time.sleep(0.02)
            for proc in procs:
                proc.kill()
                proc.wait()
            thread.join(timeout=120.0)
            assert not thread.is_alive()
        assert isinstance(box.get("error"), RuntimeError)
        assert "exited" in str(box["error"])

    def test_close_wakes_the_accept_thread(self):
        """close() with connected subprocess workers leaves no accept
        thread blocked in accept(): joining it does not wait out its
        2 s timeout.  Timed from the join alone, so a slow Goodbye to
        the local workers on a loaded host does not count."""
        coordinator = Coordinator()
        accept_thread = coordinator._accept_thread
        join_seconds = []

        def timed_join(timeout=None):
            started = time.monotonic()
            threading.Thread.join(accept_thread, timeout)
            join_seconds.append(time.monotonic() - started)

        accept_thread.join = timed_join
        try:
            coordinator.spawn_local_workers(2)
            deadline = time.monotonic() + 60.0
            while (len(coordinator.worker_snapshot()) < 2
                   and time.monotonic() < deadline):
                time.sleep(0.02)
            assert len(coordinator.worker_snapshot()) == 2
        finally:
            coordinator.close()
        assert not accept_thread.is_alive()
        assert len(join_seconds) == 1
        assert join_seconds[0] < 1.0, f"accept join took {join_seconds[0]:.2f}s"


class TestStoreBootstrap:
    def test_cold_worker_bootstraps_without_simulating(self, tmp_path):
        """Acceptance: a cold --store-dir worker relays the dataset and
        warmed caches from the coordinator; its store never generates."""
        parent = DatasetStore(tmp_path / "parent")
        plan = experiment_plan("figure6", TINY)
        serial = run_plan(plan, store=parent)

        worker_store = DatasetStore(tmp_path / "worker")
        with Coordinator() as coordinator:
            worker = FleetWorker(coordinator.address, store=worker_store)
            thread = threading.Thread(target=worker.run, daemon=True)
            thread.start()
            remote = run_plan(plan, executor="remote", fleet=coordinator,
                              store=parent)
        thread.join(timeout=10.0)
        assert _rows(remote) == _rows(serial)
        # The worker's store was populated by download, not simulation:
        # `misses` counts generations, `cache_misses` counts warm-ups.
        assert worker_store.misses == 0 and worker_store.cache_misses == 0
        assert worker_store.hits >= 1 and worker_store.cache_hits >= 1
        # Dataset + one warmed cache, each relayed exactly once.
        assert worker.relay_fetches == 2
        assert coordinator.stats["datasets_served"] == 1
        assert coordinator.stats["caches_served"] == 1
        assert worker_store.dataset_path(plan.dataset).exists()
        assert worker_store.cache_path("stencil", plan.dataset).exists()

        # A fresh worker on the now-warm store needs no bootstrap traffic.
        warm_store = DatasetStore(tmp_path / "worker")
        with Coordinator() as coordinator2:
            worker2 = FleetWorker(coordinator2.address, store=warm_store)
            thread2 = threading.Thread(target=worker2.run, daemon=True)
            thread2.start()
            remote2 = run_plan(plan, executor="remote", fleet=coordinator2,
                               store=parent)
        thread2.join(timeout=10.0)
        assert _rows(remote2) == _rows(serial)
        assert coordinator2.stats["datasets_served"] == 0
        assert coordinator2.stats["caches_served"] == 0
        assert worker2.relay_fetches == 0
        assert warm_store.misses == 0 and warm_store.cache_misses == 0

    def test_dataset_override_bypasses_warm_worker_store(self, tmp_path):
        """An explicit dataset override has no registered fingerprint: a
        worker whose store already holds the *spec's* dataset must fetch
        the override blob instead of serving the stale store entry."""
        from repro.datasets import DatasetSpec

        plan = experiment_plan("figure6", TINY)
        parent = DatasetStore(tmp_path)
        run_plan(plan, store=parent)  # warm the store with the spec dataset
        override = DatasetSpec("stencil-blocked", max_configs=100,
                               random_state=0).build()
        assert override.n_samples != parent.get(plan.dataset).n_samples
        serial = run_plan(plan, dataset=override)
        with Coordinator() as coordinator:
            worker = FleetWorker(coordinator.address, store=DatasetStore(tmp_path))
            thread = threading.Thread(target=worker.run, daemon=True)
            thread.start()
            remote = run_plan(plan, executor="remote", fleet=coordinator,
                              dataset=override)
        thread.join(timeout=10.0)
        assert coordinator.stats["datasets_served"] == 1  # fetched, not store-read
        assert _rows(remote) == _rows(serial)
        # The override never leaks into the worker's persistent store.
        fresh = DatasetStore(tmp_path)
        assert fresh.get(plan.dataset).n_samples != override.n_samples

    def test_storeless_worker_runs_from_memory(self):
        """No --store-dir at all: blobs are decoded in memory, nothing simulated."""
        plan = experiment_plan("figure5", TINY)
        serial = run_plan(plan)
        with Coordinator() as coordinator:
            worker = FleetWorker(coordinator.address)
            thread = threading.Thread(target=worker.run, daemon=True)
            thread.start()
            remote = run_plan(plan, executor="remote", fleet=coordinator)
        thread.join(timeout=10.0)
        assert worker.store is None
        assert coordinator.stats["datasets_served"] == 1
        assert _rows(remote) == _rows(serial)

    def test_dataset_bytes_round_trip(self, tmp_path):
        """A relayed dataset blob (encode_dataset) installed with
        put_dataset_bytes loads back bit for bit."""
        import numpy as np

        spec = experiment_plan("figure6", TINY).dataset
        dataset = spec.build()
        data = DatasetStore.encode_dataset(dataset)
        decoded = DatasetStore.decode_dataset_bytes(data)
        np.testing.assert_array_equal(decoded.X, dataset.X)
        np.testing.assert_array_equal(decoded.y, dataset.y)

        store = DatasetStore(tmp_path)
        store.put_dataset_bytes(spec, data)
        loaded = store.get(spec)
        assert (store.misses, store.hits) == (0, 1)
        assert loaded.X.tobytes() == dataset.X.tobytes()
        assert loaded.y.tobytes() == dataset.y.tobytes()
        assert loaded.X.dtype == dataset.X.dtype and loaded.y.dtype == dataset.y.dtype
        assert loaded.feature_names == dataset.feature_names
        assert loaded.configs == dataset.configs
        assert DatasetStore.encode_dataset(loaded) == data


class TestObjectStoreBootstrap:
    """Workers whose own store is the bundled S3-style object store."""

    @pytest.fixture()
    def object_store(self):
        from repro.datasets.backends import MemoryBackend
        from repro.datasets.object_server import ObjectStoreServer

        with ObjectStoreServer(MemoryBackend()) as server:
            yield server

    def test_worker_with_object_store_url(self, object_store):
        """A worker whose *own* store is the object store (--store-url
        http://...) loads artifacts directly and needs no bootstrap at all."""
        plan = experiment_plan("figure6", TINY)
        shared = DatasetStore(object_store.url)
        serial = run_plan(plan, store=shared)

        worker_store = DatasetStore(object_store.url)
        with Coordinator() as coordinator:
            worker = FleetWorker(coordinator.address, store=worker_store)
            thread = threading.Thread(target=worker.run, daemon=True)
            thread.start()
            remote = run_plan(plan, executor="remote", fleet=coordinator,
                              store=shared)
        thread.join(timeout=10.0)
        assert _rows(remote) == _rows(serial)
        assert worker.relay_fetches == 0
        assert worker_store.misses == 0 and worker_store.cache_misses == 0
        assert worker_store.hits >= 1 and worker_store.cache_hits >= 1
        assert coordinator.stats["datasets_served"] == 0
        assert coordinator.stats["caches_served"] == 0

    def test_prune_works_on_object_store(self, object_store):
        """`--store-prune` semantics are backend-independent."""
        live = experiment_plan("figure6", TINY).dataset
        stale = experiment_plan(
            "figure6", ExperimentSettings(max_configs=77)).dataset
        store = DatasetStore(object_store.url)
        store.get(live)
        store.get(stale)
        removed = store.prune(keep_fingerprints={live.fingerprint})
        assert [p.name for p in removed] == [store.dataset_path(stale).name]
        fresh = DatasetStore(object_store.url)
        fresh.get(live)
        assert (fresh.misses, fresh.hits) == (0, 1)


class TestFleetWorkerCli:
    def test_unreachable_coordinator_exits_nonzero(self):
        from repro.distributed.worker import main

        # Port 1 on loopback refuses immediately; the retry window is tiny.
        assert main(["--connect", "127.0.0.1:1", "--connect-timeout", "0.2"]) == 1

    def test_fleet_worker_subcommand_delegates(self):
        from repro.experiments.__main__ import main

        assert main(["fleet-worker", "--connect", "127.0.0.1:1",
                     "--connect-timeout", "0.2"]) == 1

    def test_cli_remote_run_with_prune(self, tmp_path, capsys):
        from repro.experiments.__main__ import main

        args = ["figure6", "--quick", "--executor", "remote", "--jobs", "2",
                "--store-dir", str(tmp_path), "--store-prune"]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "figure6" in out and "hybrid" in out
        assert "store prune" in out
        assert (tmp_path / "datasets").exists()

    def test_cli_flag_validation(self, tmp_path):
        from repro.experiments.__main__ import main

        with pytest.raises(SystemExit):
            main(["figure6", "--quick", "--executor", "process", "--workers", "2"])
        with pytest.raises(SystemExit):
            main(["figure6", "--quick", "--store-prune"])


class TestFaultTolerance:
    """Degradation paths: every fallback is taken loudly and recovers."""

    def test_relay_blob_digest_mismatch_is_retried(self):
        """A relay blob that fails digest verification is refetched; the
        second copy passes and the plan completes bit-identically."""
        from repro.testing import flip_bit

        plan = experiment_plan("figure6", TINY)
        serial = run_plan(plan)
        with Coordinator() as coordinator:
            original_reply = coordinator._reply
            tampered = {"done": False}

            def tamper(info, message):
                reply = original_reply(info, message)
                if (isinstance(message, protocol.Fetch)
                        and message.model_key is None
                        and isinstance(reply, protocol.Blob)
                        and not tampered["done"]):
                    tampered["done"] = True
                    return dataclasses.replace(reply, data=flip_bit(reply.data))
                return reply

            coordinator._reply = tamper
            worker = FleetWorker(coordinator.address)
            thread = threading.Thread(target=worker.run, daemon=True)
            thread.start()
            remote = run_plan(plan, executor="remote", fleet=coordinator)
        thread.join(timeout=10.0)
        assert tampered["done"]
        assert worker.blob_integrity_errors == 1
        assert worker.relay_fetches == 2
        assert _rows(remote) == _rows(serial)

    def test_fetch_of_unknown_artifact_severs(self):
        """A Fetch naming an artifact the plan does not have is a protocol
        violation: the coordinator severs that connection, and the plan
        still completes on an honest worker."""
        plan = experiment_plan("figure6", TINY)
        serial = run_plan(plan)
        coordinator = Coordinator()
        try:
            thread, box = _run_plan_async(plan, coordinator)
            sock, welcome = _raw_handshake(coordinator.address, worker_id="rogue")
            assert isinstance(welcome, protocol.Welcome)
            assignment = _await_plan(sock, worker_id="rogue")
            protocol.send_message(sock, protocol.Fetch(assignment.plan_id, "nope"))
            with pytest.raises(protocol.ConnectionClosed):
                protocol.recv_message(sock)
            sock.close()
            honest = FleetWorker(coordinator.address)
            threading.Thread(target=honest.run, daemon=True).start()
            thread.join(timeout=120.0)
            assert not thread.is_alive()
        finally:
            coordinator.close()
        assert "error" not in box, box.get("error")
        assert _rows(box["result"]) == _rows(serial)

    def test_relay_blobs_are_encoded_once_on_first_fetch(self, monkeypatch):
        """The coordinator encodes a relay artifact only when a worker
        first fetches it, then serves every later Fetch of the plan the
        same memoized bytes and digest."""
        plan = experiment_plan("figure6", TINY)
        serial = run_plan(plan)
        encodes = []
        encode = DatasetStore.encode_dataset
        monkeypatch.setattr(DatasetStore, "encode_dataset", classmethod(
            lambda cls, dataset: encodes.append(1) or encode(dataset)))
        coordinator = Coordinator()
        try:
            thread, box = _run_plan_async(plan, coordinator)
            sock, welcome = _raw_handshake(coordinator.address, worker_id="prober")
            assert isinstance(welcome, protocol.Welcome)
            assignment = _await_plan(sock, worker_id="prober")
            assert encodes == []  # the plan is running; nothing fetched yet
            blobs = []
            for key in (None, None, "stencil"):
                protocol.send_message(sock, protocol.Fetch(assignment.plan_id, key))
                blobs.append(protocol.recv_message(sock))
            assert all(isinstance(blob, protocol.Blob) for blob in blobs)
            assert blobs[0] == blobs[1]
            assert blobs[2].sha256 == sha256_hex(blobs[2].data)
            assert len(encodes) == 1
            sock.close()
            honest = FleetWorker(coordinator.address)
            threading.Thread(target=honest.run, daemon=True).start()
            thread.join(timeout=120.0)
            assert not thread.is_alive()
        finally:
            coordinator.close()
        assert "error" not in box, box.get("error")
        assert _rows(box["result"]) == _rows(serial)
        assert honest.relay_fetches == 2
        assert len(encodes) == 1  # the honest worker got the memoized blob
        assert coordinator.stats["datasets_served"] == 3

    def test_relay_blob_digest_is_mandatory(self):
        """A Blob with an empty or a wrong digest is rejected, counted and
        refetched; with the retry budget spent, IntegrityError is raised."""
        from repro.utils.retry import RetryPolicy

        data = b"npz bytes"
        good = protocol.Blob("p", None, data, sha256_hex(data))
        empty = dataclasses.replace(good, sha256="")
        wrong = dataclasses.replace(good, sha256=sha256_hex(b"other"))
        worker = FleetWorker(("127.0.0.1", 1),
                             retry=RetryPolicy(max_attempts=3, base_delay=0.0))
        sent = []

        def serve(replies):
            replies = iter(replies)

            def request(sock, message):
                sent.append(message)
                return next(replies)
            worker._request = request

        serve([empty, wrong, good])
        assert worker._relay(None, "p", None) == data
        assert worker.blob_integrity_errors == 2
        assert sent == [protocol.Fetch("p", None)] * 3

        serve([empty, empty, empty])
        with pytest.raises(IntegrityError):
            worker._relay(None, "p", None)
        assert worker.blob_integrity_errors == 5
        assert worker.relay_fetches == 2

    def test_worker_reconnects_after_connection_cut(self):
        """A severed coordinator connection is survived: the worker
        re-handshakes (same id, memo intact) and serves the next plan."""
        plan = experiment_plan("figure6", TINY)
        serial = run_plan(plan)
        with Coordinator() as coordinator:
            worker = FleetWorker(coordinator.address, reconnect_attempts=5,
                                 reconnect_timeout=5.0)
            thread = threading.Thread(target=worker.run, daemon=True)
            thread.start()
            remote1 = run_plan(plan, executor="remote", fleet=coordinator)
            with coordinator._lock:
                infos = list(coordinator._workers.values())
            assert infos
            for info in infos:
                coordinator._sever(info)
            deadline = time.monotonic() + 20.0
            while worker.reconnects == 0 and time.monotonic() < deadline:
                time.sleep(0.02)
            assert worker.reconnects >= 1
            remote2 = run_plan(plan, executor="remote", fleet=coordinator)
        thread.join(timeout=10.0)
        assert _rows(remote1) == _rows(serial)
        assert _rows(remote2) == _rows(serial)

    def test_worker_memo_is_bounded(self):
        """A long-lived worker serving more distinct plans than its memo
        limit keeps at most ``limit`` plan states and counts evictions."""
        base = experiment_plan("figure6", TINY)
        # One series, one repeat: 3 cheap cells per plan; the seed makes
        # every plan (and so its fingerprint) distinct.
        plans = [dataclasses.replace(base, series=base.series[:1], n_repeats=1,
                                     random_state=seed) for seed in range(10)]
        dataset = base.dataset.build()
        with Coordinator() as coordinator:
            worker = FleetWorker(coordinator.address)
            thread = threading.Thread(target=worker.run, daemon=True)
            thread.start()
            for plan in plans:
                run_plan(plan, executor="remote", fleet=coordinator,
                         dataset=dataset)
        thread.join(timeout=10.0)
        assert not thread.is_alive()
        assert worker.cells_evaluated == 3 * len(plans)
        stats = worker._memo.stats()
        assert stats["limit"] == 8
        assert stats["size"] == 8
        assert stats["evictions"] == len(plans) - 8


class TestSpeculation:
    def test_straggler_lease_is_speculatively_duplicated(self):
        """A worker that holds a lease forever does not stall the plan: once
        the queue drains, its overdue cells are re-leased to a healthy
        worker and dedupe-by-key keeps the duplication harmless."""
        plan = experiment_plan("figure6", TINY)
        serial = run_plan(plan)
        total = len(expand_cells(plan))
        coordinator = Coordinator(batch_size=1, heartbeat_timeout=30.0,
                                  speculation_min_delay=0.2,
                                  speculation_factor=1.5)
        try:
            thread, box = _run_plan_async(plan, coordinator)
            sock, welcome = _raw_handshake(coordinator.address,
                                           worker_id="straggler")
            assert isinstance(welcome, protocol.Welcome)
            assignment = _await_plan(sock, worker_id="straggler")
            protocol.send_message(
                sock, protocol.GetBatch(assignment.plan_id, "straggler"))
            batch = protocol.recv_message(sock)
            assert isinstance(batch, protocol.Batch) and batch.cells
            # Hold the lease forever (the socket stays open, no results
            # ever come) while an honest worker drains the queue.
            honest = FleetWorker(coordinator.address)
            honest_thread = threading.Thread(target=honest.run, daemon=True)
            honest_thread.start()
            thread.join(timeout=120.0)
            assert not thread.is_alive()
            sock.close()
        finally:
            coordinator.close()
        assert "error" not in box, box.get("error")
        assert coordinator.stats["speculative_releases"] >= 1
        # The honest worker really raced the straggler's cells — it
        # evaluated the whole plan, including the held lease.
        assert honest.cells_evaluated == total
        assert _rows(box["result"]) == _rows(serial)


class TestElasticFleet:
    def test_desired_workers_sizing_rule(self):
        from repro.distributed.autoscale import desired_workers

        def load(n):
            return {"outstanding": n}

        assert desired_workers(load(0), min_workers=0, max_workers=4) == 0
        assert desired_workers(load(1), min_workers=0, max_workers=4) == 1
        assert desired_workers(load(9), min_workers=0, max_workers=4,
                               cells_per_worker=4) == 3
        assert desired_workers(load(10**6), min_workers=0, max_workers=4) == 4
        assert desired_workers(load(0), min_workers=2, max_workers=4) == 2
        with pytest.raises(ValueError, match="min_workers"):
            desired_workers(load(0), min_workers=3, max_workers=2)
        with pytest.raises(ValueError, match="cells_per_worker"):
            desired_workers(load(0), min_workers=0, max_workers=1,
                            cells_per_worker=0)

    def test_autoscaler_spawns_for_queue_and_retires_idle(self, tmp_path):
        """Ticks are driven by hand for determinism: a queued plan scales
        the fleet up to target, a drained queue retires it to zero — via
        polite Goodbyes, never an abandoned lease."""
        from repro.distributed.autoscale import LocalAutoscaler

        plan = experiment_plan("figure6", TINY)
        serial = run_plan(plan)
        total = len(expand_cells(plan))
        with Coordinator() as coordinator:
            scaler = LocalAutoscaler(coordinator, min_workers=0, max_workers=2,
                                     cells_per_worker=max(1, total // 2),
                                     idle_ticks=2, store_dir=tmp_path)
            assert coordinator.elastic  # empty fleet is a transient now
            thread, box = _run_plan_async(plan, coordinator)
            deadline = time.monotonic() + 60.0
            while (coordinator.load()["outstanding"] == 0
                   and time.monotonic() < deadline):
                time.sleep(0.02)
            scaler.tick()
            assert scaler.stats["spawned"] == 2
            thread.join(timeout=120.0)
            assert not thread.is_alive()
            assert "error" not in box, box.get("error")
            # The queue has drained: idle ticks retire the whole fleet.
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline:
                scaler.tick()
                if (not coordinator.worker_snapshot()
                        and coordinator.stats["workers_retired"] >= 2):
                    break
                time.sleep(0.1)
            assert scaler.stats["retired"] >= 2
            assert coordinator.stats["workers_retired"] >= 2
            assert not coordinator.worker_snapshot()
        assert _rows(box["result"]) == _rows(serial)


class TestFleetKnobCli:
    def test_knobs_require_remote_executor(self):
        from repro.experiments.__main__ import main

        for flag, value in [("--heartbeat-timeout", "5"),
                            ("--max-retries", "1")]:
            with pytest.raises(SystemExit):
                main(["figure6", "--quick", flag, value])

    def test_knob_value_validation(self):
        from repro.experiments.__main__ import main

        base = ["figure6", "--quick", "--executor", "remote", "--jobs", "1"]
        for flag, bad in [("--heartbeat-timeout", "0"),
                          ("--batch-cells", "0"), ("--max-retries", "-1")]:
            with pytest.raises(SystemExit):
                main(base + [flag, bad])

    def test_knobs_reach_the_coordinator(self, monkeypatch):
        from repro.experiments.__main__ import main

        captured = {}

        class _Probe:
            def __init__(self, **kwargs):
                captured.update(kwargs)
                raise RuntimeError("probe stop")

        monkeypatch.setattr("repro.distributed.coordinator.Coordinator", _Probe)
        with pytest.raises(RuntimeError, match="probe stop"):
            main(["figure6", "--quick", "--executor", "remote", "--jobs", "2",
                  "--heartbeat-timeout", "2.5", "--batch-cells", "3",
                  "--max-retries", "7"])
        assert captured["heartbeat_timeout"] == 2.5
        assert captured["batch_size"] == 3
        assert captured["max_retries"] == 7

    def test_batch_cells_reaches_the_coordinator(self, monkeypatch):
        """``--batch-cells`` is the fleet's lease size for the remote
        executor: ``auto`` and integers both land in ``batch_size``."""
        from repro.experiments.__main__ import main

        captured = {}

        class _Probe:
            def __init__(self, **kwargs):
                captured.update(kwargs)
                raise RuntimeError("probe stop")

        monkeypatch.setattr("repro.distributed.coordinator.Coordinator", _Probe)
        with pytest.raises(RuntimeError, match="probe stop"):
            main(["figure6", "--quick", "--executor", "remote", "--jobs", "2",
                  "--batch-cells", "auto"])
        assert captured["batch_size"] == "auto"
        captured.clear()
        with pytest.raises(RuntimeError, match="probe stop"):
            main(["figure6", "--quick", "--executor", "remote", "--jobs", "2",
                  "--batch-cells", "6"])
        assert captured["batch_size"] == 6

    def test_batch_cells_flag_validation(self):
        from repro.experiments.__main__ import main

        with pytest.raises(SystemExit):  # needs a parallel executor
            main(["figure6", "--quick", "--batch-cells", "auto"])
        with pytest.raises(SystemExit):  # bad value
            main(["figure6", "--quick", "--executor", "process", "--jobs", "2",
                  "--batch-cells", "bogus"])
        with pytest.raises(SystemExit):  # the removed lease-size flag
            main(["figure6", "--quick", "--executor", "remote", "--jobs", "2",
                  "--batch-size", "2"])

    def test_worker_cli_rejects_bad_retry_knobs(self):
        from repro.distributed.worker import main

        with pytest.raises(SystemExit):
            main(["--connect", "127.0.0.1:1", "--max-retries", "0"])
        with pytest.raises(SystemExit):
            main(["--connect", "127.0.0.1:1", "--reconnect-attempts", "-1"])

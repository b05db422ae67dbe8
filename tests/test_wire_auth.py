"""Tests for the safe-by-default wire: schema'd codec + HMAC auth (v5).

The guarantees under test:

* the wire codec round-trips every frame type without pickle — and no
  module reachable from network input even imports pickle (the property
  that makes a crafted frame a parse error instead of code execution);
* a keyed fleet refuses every wrong credential the right way: wrong-key
  and keyless HELLOs are rejected (and counted), a keyed worker refuses
  a keyless coordinator, tampered signed frames fail the *tag* check
  (before the CRC), replayed frames fail the sequence check, and a
  v4/v5 version skew is refused at HELLO;
* a fully keyed fleet produces rows bit-identical to serial with zero
  auth failures — auth changes who may talk, never what is computed;
* the HTTP servers (object store, model server, status sidecar) share
  the same auth convention: unsigned requests get 401 + a labeled
  ``repro_auth_failures_total`` increment, signed clients round-trip,
  ``/healthz`` stays open, and 401/403 is permanent for the retrying
  client (one attempt, no backoff).
"""

from __future__ import annotations

import json
import os
import socket
import threading
import urllib.error
import urllib.request

import pytest

from repro.datasets.backends import MemoryBackend, ObjectStoreBackend, RetryPolicy
from repro.datasets.object_server import ObjectStoreServer
from repro.datasets.store import _FORMAT_VERSION, DatasetStore, _simulator_versions
from repro.distributed import codec, protocol
from repro.distributed.coordinator import Coordinator
from repro.distributed.worker import FleetWorker
from repro.experiments import ExperimentSettings, run_experiment
from repro.obs.http import AUTH_SCHEME, sign_request, verify_request
from repro.testing.faults import FaultySocket

KEY = b"the-fleet-shared-secret"
WRONG_KEY = b"a-different-secret"
FAST = RetryPolicy(max_attempts=3, base_delay=0.01, max_delay=0.02, jitter=0.0)
TINY = ExperimentSettings(n_estimators=4, n_repeats=2, max_configs=120,
                          random_state=0)


def _rows(result):
    return (result.rows(), result.extra)


def _hello(**overrides):
    fields = dict(protocol_version=protocol.PROTOCOL_VERSION,
                  store_format_version=_FORMAT_VERSION,
                  worker_id="raw-client", pid=os.getpid(),
                  simulator_versions=_simulator_versions())
    fields.update(overrides)
    return protocol.Hello(**fields)


def _keyed_hello(key, worker_id="raw-client", **overrides):
    nonce = protocol.auth_nonce()
    return _hello(worker_id=worker_id, auth_nonce=nonce,
                  auth_proof=protocol.hello_proof(key, nonce, worker_id),
                  **overrides), nonce


def _raw_handshake(address, hello):
    sock = socket.create_connection(address, timeout=10.0)
    protocol.send_message(sock, hello)
    try:
        return sock, protocol.recv_message(sock)
    except BaseException:
        sock.close()
        raise


class TestCodec:
    """The schema'd codec: round-trips in, everything else out."""

    def test_round_trips_every_wire_shape(self):
        messages = [
            protocol.Hello(5, _FORMAT_VERSION, "w1", 123, "fmm1",
                           auth_nonce="aa", auth_proof="bb"),
            protocol.Welcome("coord", auth_nonce="cc", auth_proof="dd"),
            protocol.Reject("nope"),
            protocol.Heartbeat("w1"),
            protocol.Fetch("abc", None),
            protocol.Fetch("abc", "stencil"),
            protocol.Blob("abc", "stencil", os.urandom(1 << 12), "ab" * 32),
            protocol.NoPlan(),
            protocol.Goodbye("done"),
        ]
        for message in messages:
            assert codec.decode_value(codec.encode_value(message)) == message

    def test_round_trips_primitives_and_containers(self):
        values = [None, True, False, 0, -1, 2**40, -(2**40), 1.5, float("inf"),
                  "", "héllo", b"", b"\x00\xff", (), (1, (2, 3)),
                  [1, "two", None], {"k": (1.0, b"v")}]
        for value in values:
            assert codec.decode_value(codec.encode_value(value)) == value

    def test_unknown_type_tag_fails_closed(self):
        with pytest.raises(codec.CodecError, match="tag"):
            codec.decode_value(b"\xfe")

    def test_trailing_garbage_fails_closed(self):
        buf = codec.encode_value(protocol.Heartbeat("w1")) + b"\x00"
        with pytest.raises(codec.CodecError):
            codec.decode_value(buf)

    def test_unencodable_object_fails_closed(self):
        with pytest.raises(codec.CodecError):
            codec.encode_value(object())

    def test_unknown_struct_fails_closed(self):
        class Forged:
            pass

        with pytest.raises(codec.CodecError):
            codec.encode_value(Forged())

    def test_no_pickle_reachable_from_network_input(self):
        """The property that makes v5 safe: no module that parses bytes
        arriving from the network imports pickle at all."""
        import repro.datasets.backends
        import repro.datasets.object_server
        import repro.distributed.codec
        import repro.distributed.coordinator
        import repro.distributed.protocol
        import repro.distributed.worker
        import repro.obs.http
        import repro.serving.server

        wire_modules = [
            repro.distributed.codec, repro.distributed.protocol,
            repro.distributed.coordinator, repro.distributed.worker,
            repro.obs.http, repro.datasets.object_server,
            repro.datasets.backends, repro.serving.server,
        ]
        import ast
        from pathlib import Path

        for module in wire_modules:
            tree = ast.parse(Path(module.__file__).read_text())
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    names = [node.module or ""]
                else:
                    continue
                for name in names:
                    assert not name.split(".")[0] == "pickle", (
                        f"{module.__name__} imports pickle")


class TestFrameAuth:
    """Per-frame signing: tamper, replay, downgrade and reflection."""

    def _session_pair(self):
        worker = protocol.FrameAuth(KEY, role="worker")
        coordinator = protocol.FrameAuth(KEY, role="coordinator")
        wn, cn = protocol.auth_nonce(), protocol.auth_nonce()
        worker.activate_session(wn, cn)
        coordinator.activate_session(wn, cn)
        return worker, coordinator

    def test_signed_round_trip(self):
        worker, coordinator = self._session_pair()
        left, right = socket.socketpair()
        try:
            for i in range(3):
                protocol.send_message(left, protocol.Heartbeat(f"w{i}"),
                                      None, worker)
                assert protocol.recv_message(right, coordinator) == \
                    protocol.Heartbeat(f"w{i}")
        finally:
            left.close()
            right.close()

    def test_tampered_payload_fails_the_tag_check_not_the_crc(self):
        """A flipped payload bit on a signed frame must be AuthError:
        the tag covers the payload and is checked before the CRC."""
        worker, coordinator = self._session_pair()
        left, right = socket.socketpair()
        try:
            faulty = FaultySocket(left, corrupt_frames={1})
            protocol.send_message(faulty, protocol.Heartbeat("w1"), None, worker)
            with pytest.raises(protocol.AuthError, match="authentication"):
                protocol.recv_message(right, coordinator)
            assert [e["kind"] for e in faulty.log] == ["corrupt"]
        finally:
            left.close()
            right.close()

    def test_tampered_tag_with_intact_crc_fails(self):
        """Corrupting only the trailing tag leaves payload + CRC valid —
        a rejection here provably comes from the tag check."""
        worker, coordinator = self._session_pair()
        left, right = socket.socketpair()
        try:
            faulty = FaultySocket(left, corrupt_tags={1})
            protocol.send_message(faulty, protocol.Heartbeat("w1"), None, worker)
            with pytest.raises(protocol.AuthError):
                protocol.recv_message(right, coordinator)
            assert [e["kind"] for e in faulty.log] == ["tag"]
        finally:
            left.close()
            right.close()

    def test_replayed_frame_fails_the_sequence_check(self):
        worker, coordinator = self._session_pair()
        left, right = socket.socketpair()
        try:
            # Capture the signed frame bytes, then send them twice.
            captured = []

            class Tap:
                def sendall(self, data):
                    captured.append(data)
                    left.sendall(data)

            protocol.send_message(Tap(), protocol.Heartbeat("w1"), None, worker)
            assert protocol.recv_message(right, coordinator) == \
                protocol.Heartbeat("w1")
            left.sendall(captured[0])  # verbatim replay
            with pytest.raises(protocol.AuthError, match="sequence 1"):
                protocol.recv_message(right, coordinator)
        finally:
            left.close()
            right.close()

    def test_unsigned_frame_on_authenticated_connection_fails(self):
        _, coordinator = self._session_pair()
        left, right = socket.socketpair()
        try:
            protocol.send_message(left, protocol.Heartbeat("w1"))  # no auth
            with pytest.raises(protocol.AuthError, match="unsigned"):
                protocol.recv_message(right, coordinator)
        finally:
            left.close()
            right.close()

    def test_signed_frame_without_session_fails(self):
        worker, _ = self._session_pair()
        left, right = socket.socketpair()
        try:
            protocol.send_message(left, protocol.Heartbeat("w1"), None, worker)
            with pytest.raises(protocol.AuthError, match="unauthenticated"):
                protocol.recv_message(right)  # receiver has no session
        finally:
            left.close()
            right.close()

    def test_reflected_frame_fails_direction_labels(self):
        """A worker's own signed frame bounced back never verifies: send
        and receive directions use distinct HMAC labels."""
        worker, _ = self._session_pair()
        left, right = socket.socketpair()
        try:
            protocol.send_message(left, protocol.Heartbeat("w1"), None, worker)
            with pytest.raises(protocol.AuthError):
                protocol.recv_message(right, worker)  # reflected to sender
        finally:
            left.close()
            right.close()


class TestFleetAuthMatrix:
    """The handshake failure matrix, over real coordinator sockets."""

    @pytest.fixture()
    def keyed_coordinator(self):
        with Coordinator(auth_key=KEY) as coordinator:
            yield coordinator

    def test_wrong_key_hello_rejected_and_counted(self, keyed_coordinator):
        hello, _ = _keyed_hello(WRONG_KEY)
        sock, reply = _raw_handshake(keyed_coordinator.address, hello)
        sock.close()
        assert isinstance(reply, protocol.Reject)
        assert "authentication failed" in reply.reason
        assert keyed_coordinator.auth_failures == 1
        assert keyed_coordinator.stats["rejected_handshakes"] == 1

    def test_keyless_hello_rejected_and_counted(self, keyed_coordinator):
        sock, reply = _raw_handshake(keyed_coordinator.address, _hello())
        sock.close()
        assert isinstance(reply, protocol.Reject)
        assert "authentication required" in reply.reason
        assert keyed_coordinator.auth_failures == 1

    def test_right_key_welcomed_with_coordinator_proof(self, keyed_coordinator):
        hello, nonce = _keyed_hello(KEY)
        sock, reply = _raw_handshake(keyed_coordinator.address, hello)
        sock.close()
        assert isinstance(reply, protocol.Welcome)
        assert reply.auth_proof == protocol.welcome_proof(
            KEY, nonce, reply.auth_nonce)
        assert keyed_coordinator.auth_failures == 0

    def test_version_skew_refused_before_auth(self, keyed_coordinator):
        """A v4 peer (no auth fields) is refused on the version check —
        mixed-version fleets never get as far as exchanging frames."""
        sock, reply = _raw_handshake(
            keyed_coordinator.address,
            _hello(protocol_version=protocol.PROTOCOL_VERSION - 1))
        sock.close()
        assert isinstance(reply, protocol.Reject)
        assert "protocol version" in reply.reason

    def test_wrong_key_worker_exits_with_error(self, keyed_coordinator):
        worker = FleetWorker(keyed_coordinator.address, auth_key=WRONG_KEY,
                             connect_timeout=5.0)
        assert worker.run() == 2
        assert keyed_coordinator.auth_failures == 1

    def test_keyless_worker_exits_with_error(self, keyed_coordinator):
        worker = FleetWorker(keyed_coordinator.address, connect_timeout=5.0)
        assert worker.run() == 2

    def test_keyed_worker_refuses_keyless_coordinator(self):
        """No silent downgrade: a worker configured for an authenticated
        fleet must not accept an unauthenticated session."""
        with Coordinator() as coordinator:
            worker = FleetWorker(coordinator.address, auth_key=KEY,
                                 connect_timeout=5.0)
            assert worker.run() == 2
            assert coordinator.stats["rejected_handshakes"] == 1

    def test_tampered_signed_frame_severs_and_counts(self, keyed_coordinator):
        """Post-handshake tampering: the coordinator counts the auth
        failure and severs — the frame is never processed."""
        hello, nonce = _keyed_hello(KEY, worker_id="tamperer")
        sock, reply = _raw_handshake(keyed_coordinator.address, hello)
        try:
            auth = protocol.FrameAuth(KEY, role="worker")
            auth.activate_session(nonce, reply.auth_nonce)
            faulty = FaultySocket(sock, corrupt_tags={1})
            protocol.send_message(faulty, protocol.GetPlan("tamperer"),
                                  None, auth)
            # The coordinator drops the connection without replying.
            with pytest.raises((protocol.ConnectionClosed, ConnectionError)):
                protocol.recv_message(sock, auth)
        finally:
            sock.close()
        assert keyed_coordinator.auth_failures == 1


class TestKeyedFleetEndToEnd:
    def test_keyed_fleet_bit_identical_with_zero_auth_failures(self):
        serial = run_experiment("figure6", TINY)
        with Coordinator(auth_key=KEY) as coordinator:
            workers = [FleetWorker(coordinator.address, auth_key=KEY)
                       for _ in range(2)]
            threads = [threading.Thread(target=w.run, daemon=True)
                       for w in workers]
            for thread in threads:
                thread.start()
            remote = run_experiment("figure6", TINY, executor="remote",
                                    fleet=coordinator)
            assert coordinator.auth_failures == 0
        for thread in threads:
            thread.join(timeout=10.0)
            assert not thread.is_alive()
        assert _rows(remote) == _rows(serial)
        assert sum(w.cells_evaluated for w in workers) == 12

    def test_keyed_worker_signs_store_requests(self, tmp_path):
        """One secret secures both planes: a worker given the fleet key
        can bootstrap from a keyed object store."""
        store_backend = MemoryBackend()
        with ObjectStoreServer(store_backend, auth=KEY) as server:
            seed = DatasetStore(ObjectStoreBackend(server.url, retry=FAST,
                                                   auth=KEY))
            serial = run_experiment("figure6", TINY, store=seed)
            with Coordinator(auth_key=KEY) as coordinator:
                worker = FleetWorker(coordinator.address, auth_key=KEY,
                                     store=server.url)
                thread = threading.Thread(target=worker.run, daemon=True)
                thread.start()
                remote = run_experiment("figure6", TINY, executor="remote",
                                        fleet=coordinator, store=seed)
            thread.join(timeout=10.0)
            assert _rows(remote) == _rows(serial)
            assert server.auth_failures == 0
            assert worker.relay_fetches == 0  # read its own keyed store


class TestHTTPAuth:
    """The shared Authorization convention across every HTTP server."""

    def test_sign_verify_round_trip(self):
        header = sign_request(KEY, "PUT", "/datasets/a.npz", b"body")
        assert header.startswith(AUTH_SCHEME + " ")
        assert verify_request(KEY, "PUT", "/datasets/a.npz", b"body", header)
        assert not verify_request(KEY, "GET", "/datasets/a.npz", b"body", header)
        assert not verify_request(KEY, "PUT", "/datasets/b.npz", b"body", header)
        assert not verify_request(KEY, "PUT", "/datasets/a.npz", b"other", header)
        assert not verify_request(WRONG_KEY, "PUT", "/datasets/a.npz", b"body",
                                  header)
        assert not verify_request(KEY, "PUT", "/datasets/a.npz", b"body", None)
        assert not verify_request(KEY, "PUT", "/datasets/a.npz", b"body",
                                  "Basic dXNlcg==")

    def test_object_server_rejects_unsigned_and_counts(self):
        with ObjectStoreServer(MemoryBackend(), auth=KEY) as server:
            request = urllib.request.Request(
                server.url + "datasets/a.npz", data=b"blob", method="PUT")
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request)
            assert excinfo.value.code == 401
            assert excinfo.value.headers["WWW-Authenticate"] == AUTH_SCHEME
            assert server.auth_failures == 1
            assert server.stats["puts"] == 0  # rejected before the handler

    def test_object_server_healthz_stays_open(self):
        with ObjectStoreServer(MemoryBackend(), auth=KEY) as server:
            with urllib.request.urlopen(server.url + "healthz") as response:
                assert response.status == 200
                assert json.loads(response.read())["status"] == "ok"
            assert server.auth_failures == 0

    def test_signed_client_round_trips(self):
        with ObjectStoreServer(MemoryBackend(), auth=KEY) as server:
            client = ObjectStoreBackend(server.url, retry=FAST, auth=KEY)
            client.write("datasets/a.npz", b"payload")
            assert client.read("datasets/a.npz") == b"payload"
            assert "datasets/a.npz" in client.list("datasets/")
            assert client.exists("datasets/a.npz")
            client.delete("datasets/a.npz")
            assert server.auth_failures == 0

    def test_signed_client_with_awkward_key_names(self):
        """Signing covers the percent-encoded request target, so keys
        that URL-encode differently still verify."""
        with ObjectStoreServer(MemoryBackend(), auth=KEY) as server:
            client = ObjectStoreBackend(server.url, retry=FAST, auth=KEY)
            key = "datasets/w 1+x/a b.npz"
            client.write(key, b"data")
            assert client.read(key) == b"data"
            assert server.auth_failures == 0

    def test_wrong_key_client_is_permanent_and_never_retries(self):
        """401 is a _giveup error: exactly one attempt, retries counter
        untouched — re-sending the same signature cannot succeed."""
        with ObjectStoreServer(MemoryBackend(), auth=KEY) as server:
            client = ObjectStoreBackend(server.url, retry=FAST, auth=WRONG_KEY)
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                client.write("datasets/a.npz", b"blob")
            assert excinfo.value.code == 401
            assert client.retries == 0
            assert server.auth_failures == 1

    def test_model_server_shares_the_convention(self, tmp_path):
        from repro.serving.server import ModelServer

        with ModelServer(DatasetStore(tmp_path), auth=KEY) as server:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(server.url + "/stats")
            assert excinfo.value.code == 401
            assert server.auth_failures == 1
            # A signed request passes.
            request = urllib.request.Request(server.url + "/stats")
            request.add_header("Authorization",
                               sign_request(KEY, "GET", "/stats"))
            with urllib.request.urlopen(request) as response:
                assert response.status == 200
            # /healthz needs no signature even on a keyed server.
            with urllib.request.urlopen(server.url + "/healthz") as response:
                assert response.status == 200

    def test_status_server_shares_the_convention(self):
        with Coordinator(auth_key=KEY) as coordinator:
            status = coordinator.serve_status(auth=KEY)
            try:
                with pytest.raises(urllib.error.HTTPError) as excinfo:
                    urllib.request.urlopen(status.url + "/metrics")
                assert excinfo.value.code == 401
                request = urllib.request.Request(status.url + "/metrics")
                request.add_header("Authorization",
                                   sign_request(KEY, "GET", "/metrics"))
                with urllib.request.urlopen(request) as response:
                    text = response.read().decode()
                assert "repro_auth_failures_total" in text
                with urllib.request.urlopen(status.url + "/healthz") as response:
                    assert response.status == 200
            finally:
                status.stop()

    def test_unauthenticated_server_ignores_authorization(self):
        """A keyless server serves signed and unsigned clients alike —
        auth is opt-in per server, not inferred from headers."""
        with ObjectStoreServer(MemoryBackend()) as server:
            signed = ObjectStoreBackend(server.url, retry=FAST, auth=KEY)
            signed.write("datasets/a.npz", b"blob")
            plain = ObjectStoreBackend(server.url, retry=FAST)
            assert plain.read("datasets/a.npz") == b"blob"


class TestDatasetStoreAuth:
    def test_store_url_coercion_threads_the_key(self):
        with ObjectStoreServer(MemoryBackend(), auth=KEY) as server:
            store = DatasetStore(server.url, auth=KEY)
            spec_free_key = "caches/x"
            store.backend.write(spec_free_key, b"v")
            assert store.backend.read(spec_free_key) == b"v"
            assert server.auth_failures == 0

"""Fleet worker: pulls cell batches from a coordinator, streams results back.

Runnable as ``python -m repro.distributed.worker --connect HOST:PORT
[--store-dir DIR | --store-url URL]`` (also exposed as ``python -m
repro.experiments fleet-worker ...``).  A worker is a long-lived client: it serves every
plan the coordinator runs over one connection and exits when the
coordinator says :class:`~repro.distributed.protocol.Goodbye` or goes
away.

Per-plan state follows the same memo discipline as the process executor:
the dataset, warmed analytical caches and series factories are resolved
once per plan fingerprint and kept in a bounded LRU
(:class:`~repro.experiments.scheduler.PlanStateMemo`) across batches and
plans, and cells run through the same per-cell loop
(:func:`~repro.experiments.scheduler.evaluate_batch`).  Artifacts come
from exactly two places: the worker's own store (``--store-dir``
directory or any ``--store-url`` backend, e.g. a shared ``http://``
object store) when it holds them under the plan's
fingerprint, and otherwise the coordinator relay — one
``Fetch``/``Blob`` round trip per artifact on the coordinator's socket.
Relayed blobs are saved, so the store warms for future runs; a
store-less worker keeps them in memory.  ``relay_fetches`` counts the
relayed artifacts.  Resolution simulates only to heal the worker's own
store: a stored dataset blob that fails its checksum is regenerated
locally by :meth:`~repro.datasets.store.DatasetStore.get`, not relayed.

A daemon thread heartbeats on an interval even while cells compute, so
the coordinator can tell "slow" from "dead" without bounding cell cost.

Failure semantics: every relay blob is verified against the digest in
its frame; a mismatch is counted (``blob_integrity_errors``), logged and
refetched, and raises :class:`~repro.datasets.backends.IntegrityError`
once the retry budget is spent.  A lost coordinator connection is
retried (``reconnect_attempts`` fresh handshakes, per-plan memo
preserved) before the worker gives up and exits cleanly.
"""

from __future__ import annotations

import argparse
import hmac
import io
import logging
import os
import socket
import sys
import threading
import time
import uuid

from repro.analytical.cache import AnalyticalPredictionCache
from repro.cli import add_auth_args, add_logging_parent, add_store_args, load_auth_key
from repro.datasets.backends import IntegrityError, resolve_backend, sha256_hex
from repro.datasets.store import _FORMAT_VERSION, DatasetStore, _simulator_versions
from repro.distributed import protocol
from repro.distributed.protocol import (
    PROTOCOL_VERSION,
    Batch,
    Blob,
    ConnectionClosed,
    Fetch,
    GetBatch,
    GetPlan,
    Goodbye,
    Heartbeat,
    Hello,
    Idle,
    NoPlan,
    PlanAssignment,
    PlanDone,
    Reject,
    Results,
    parse_address,
)
from repro.experiments.plan import build_analytical
from repro.experiments.scheduler import PlanStateMemo, _series_factories, evaluate_batch
from repro.obs.logging import configure_logging
from repro.obs.metrics import REGISTRY, MetricsRegistry
from repro.utils.retry import RetryPolicy

__all__ = ["FleetWorker", "HandshakeRejected", "main"]

logger = logging.getLogger(__name__)

#: Default policy for a worker's relay-blob refetches on a digest
#: mismatch; jittered so a fleet does not stampede.
WORKER_RETRY = RetryPolicy(max_attempts=3, base_delay=0.1, max_delay=1.0)


class HandshakeRejected(RuntimeError):
    """The coordinator refused the HELLO handshake (version/auth mismatch)."""


class _StalePlan(Exception):
    """The coordinator moved on from the plan being bootstrapped."""


class FleetWorker:
    """One fleet worker: connect, handshake, serve plans until Goodbye.

    Parameters
    ----------
    address:
        ``(host, port)`` of the coordinator.
    store:
        Optional persistent :class:`DatasetStore` (or a directory path /
        ``file://`` / ``memory://`` / ``http(s)://`` store URL).
        Artifacts present under the plan's fingerprint are loaded from
        the store; missing ones are relayed over the coordinator socket
        and saved.  Without a store the relayed blobs stay in memory.
    connect_timeout:
        Seconds to keep retrying the initial connection (workers are
        typically started before, or racing with, the coordinator).
    heartbeat_interval:
        Seconds between liveness heartbeats; must be well under the
        coordinator's ``heartbeat_timeout``.
    cell_delay:
        Artificial per-cell sleep in seconds (fault-injection knob for
        tests and demos; defaults to ``$REPRO_FLEET_CELL_DELAY`` or 0).
    retry:
        :class:`~repro.utils.retry.RetryPolicy` for refetching relay
        blobs that fail digest verification.
    reconnect_attempts:
        Fresh connect+handshake attempts after the coordinator connection
        drops mid-service (each within ``reconnect_timeout`` seconds)
        before the worker exits cleanly.  The per-plan memo survives a
        reconnect, so no artifact is re-fetched.
    auth_key:
        The fleet's shared secret.  With a key the HELLO handshake
        carries a challenge proof, the coordinator's WELCOME is
        verified, and every subsequent frame in both directions is
        HMAC-signed under a per-connection session key; the same key
        signs requests to the worker's own ``http(s)://`` store.
    """

    def __init__(self, address: tuple[str, int], *, store=None,
                 worker_id: str | None = None, connect_timeout: float = 20.0,
                 heartbeat_interval: float = 1.0,
                 cell_delay: float | None = None,
                 retry: RetryPolicy | None = None,
                 reconnect_attempts: int = 3,
                 reconnect_timeout: float = 2.0,
                 auth_key: bytes | None = None) -> None:
        self.address = address
        self.auth_key = auth_key
        if store is None or isinstance(store, DatasetStore):
            self.store = store
        elif isinstance(store, str) and store.startswith(("http://", "https://")):
            self.store = DatasetStore(store, auth=auth_key)
        else:  # a directory path, file://memory:// URL or StoreBackend
            self.store = DatasetStore(store)
        self.worker_id = worker_id or (
            f"{socket.gethostname()}-{os.getpid()}-{uuid.uuid4().hex[:6]}")
        self.connect_timeout = connect_timeout
        self.heartbeat_interval = heartbeat_interval
        if cell_delay is None:
            cell_delay = float(os.environ.get("REPRO_FLEET_CELL_DELAY", "0") or 0)
        self.cell_delay = cell_delay
        self.retry = retry or WORKER_RETRY
        if reconnect_attempts < 0:
            raise ValueError(
                f"reconnect_attempts must be >= 0, got {reconnect_attempts}")
        self.reconnect_attempts = reconnect_attempts
        self.reconnect_timeout = reconnect_timeout
        # The worker's telemetry registry: every counter below is shipped
        # to the coordinator inside Heartbeat/Results frames (protocol
        # v4) and merged into the fleet-wide view its status port serves.
        # The legacy int attributes (`worker.relay_fetches`, ...) remain
        # as read-only properties over these counters.
        self.metrics = MetricsRegistry(attach_to=REGISTRY)
        self._counters = {
            "plans_served": self.metrics.counter(
                "repro_worker_plans_served_total", "Plans this worker served"),
            "cells_evaluated": self.metrics.counter(
                "repro_worker_cells_evaluated_total",
                "Cells this worker evaluated"),
            "relay_fetches": self.metrics.counter(
                "repro_worker_relay_fetches_total",
                "Artifacts relayed through the coordinator socket"),
            # Relay blobs rejected for a digest mismatch (each is retried).
            "blob_integrity_errors": self.metrics.counter(
                "repro_worker_blob_integrity_errors_total",
                "Relay blobs rejected for a digest mismatch"),
            # Successful re-connect+handshake cycles after a dropped socket.
            "reconnects": self.metrics.counter(
                "repro_worker_reconnects_total",
                "Successful reconnect+handshake cycles"),
        }
        self._send_lock = threading.Lock()
        #: Per-connection frame authenticator (rebuilt on every fresh
        #: connect so reconnects negotiate a new session key).
        self._auth: protocol.FrameAuth | None = None
        self._memo = PlanStateMemo()

    # Compatibility views over the registry counters (tests and callers
    # read these as plain ints; writes go through the registry so every
    # increment is atomic and wire-shippable).
    @property
    def plans_served(self) -> int:
        """Plans this worker served (registry-backed view)."""
        return int(self._counters["plans_served"].value)

    @property
    def cells_evaluated(self) -> int:
        """Cells this worker evaluated (registry-backed view)."""
        return int(self._counters["cells_evaluated"].value)

    @property
    def relay_fetches(self) -> int:
        """Artifacts relayed through the coordinator socket."""
        return int(self._counters["relay_fetches"].value)

    @property
    def blob_integrity_errors(self) -> int:
        """Relay blobs rejected for a digest mismatch."""
        return int(self._counters["blob_integrity_errors"].value)

    @property
    def reconnects(self) -> int:
        """Successful reconnect+handshake cycles."""
        return int(self._counters["reconnects"].value)

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def run(self) -> int:
        """Serve the coordinator until Goodbye (0) or a failed start (1).

        A connection lost mid-service (coordinator restart, network blip,
        corrupted frame) is retried with a fresh connect + handshake up
        to ``reconnect_attempts`` times; the per-plan memo is preserved,
        so a reconnected worker resumes without re-fetching artifacts.
        When the coordinator stays gone the worker exits 0 — its leased
        cells are requeued on the coordinator's side if it lives.
        """
        attempts_left = self.reconnect_attempts
        connected_before = False
        while True:
            try:
                timeout = (self.reconnect_timeout if connected_before
                           else self.connect_timeout)
                sock = self._connect(timeout)
            except OSError as exc:
                if connected_before:
                    logger.info("worker %s: coordinator did not come back "
                                "within %.1fs: %s", self.worker_id,
                                self.reconnect_timeout, exc)
                    return 0
                print(f"fleet worker {self.worker_id}: cannot reach coordinator "
                      f"at {self.address[0]}:{self.address[1]}: {exc}",
                      file=sys.stderr)
                return 1
            stop_heartbeat = threading.Event()
            self._auth = (protocol.FrameAuth(self.auth_key, role="worker")
                          if self.auth_key is not None else None)
            try:
                self._handshake(sock)
                if connected_before:
                    self._counters["reconnects"].inc()
                    attempts_left = self.reconnect_attempts
                connected_before = True
                heartbeat = threading.Thread(
                    target=self._heartbeat_loop, args=(sock, stop_heartbeat),
                    name="fleet-heartbeat", daemon=True)
                heartbeat.start()
                while True:
                    reply = self._request(sock, GetPlan(self.worker_id))
                    if isinstance(reply, Goodbye):
                        return 0
                    if isinstance(reply, NoPlan):
                        time.sleep(reply.delay)
                        continue
                    if isinstance(reply, PlanAssignment):
                        try:
                            self._serve_plan(sock, reply)
                        except _StalePlan:
                            continue
            except HandshakeRejected as exc:
                print(f"fleet worker {self.worker_id}: rejected: {exc}",
                      file=sys.stderr)
                return 2
            except (ConnectionClosed, ConnectionError, OSError,
                    protocol.ProtocolError) as exc:
                if attempts_left <= 0:
                    return 0
                attempts_left -= 1
                logger.warning(
                    "worker %s: coordinator connection lost (%s: %s); "
                    "reconnecting (%d attempts left)", self.worker_id,
                    type(exc).__name__, exc, attempts_left)
            finally:
                stop_heartbeat.set()
                try:
                    sock.close()
                except OSError:
                    pass

    def _connect(self, timeout: float) -> socket.socket:
        # Effectively attempt-unbounded: the wall-clock budget governs.
        policy = RetryPolicy(max_attempts=100_000, base_delay=0.1,
                             multiplier=1.0, max_delay=0.1, jitter=0.0,
                             max_elapsed=timeout)
        return policy.call(
            lambda: socket.create_connection(self.address, timeout=None))

    def _handshake(self, sock: socket.socket) -> None:
        nonce = proof = ""
        if self.auth_key is not None:
            nonce = protocol.auth_nonce()
            proof = protocol.hello_proof(self.auth_key, nonce, self.worker_id)
        reply = self._request(sock, Hello(
            protocol_version=PROTOCOL_VERSION,
            store_format_version=_FORMAT_VERSION,
            worker_id=self.worker_id, pid=os.getpid(),
            simulator_versions=_simulator_versions(),
            auth_nonce=nonce, auth_proof=proof))
        if isinstance(reply, Reject):
            raise HandshakeRejected(reply.reason)
        if not isinstance(reply, protocol.Welcome):
            raise protocol.ProtocolError(
                f"expected Welcome or Reject, got {type(reply).__name__}")
        if self.auth_key is not None:
            # Verify the coordinator's proof over our challenge before
            # trusting anything it says: a keyless (or wrong-keyed)
            # coordinator cannot compute it.
            expected = protocol.welcome_proof(
                self.auth_key, nonce, reply.auth_nonce)
            if not reply.auth_proof or not hmac.compare_digest(
                    reply.auth_proof, expected):
                raise HandshakeRejected(
                    "coordinator did not prove knowledge of the shared "
                    "key (is it running with the same --auth-key-file?)")
            self._auth.activate_session(nonce, reply.auth_nonce)

    def _heartbeat_loop(self, sock: socket.socket, stop: threading.Event) -> None:
        while not stop.wait(self.heartbeat_interval):
            try:
                # Each beat carries a fresh counter snapshot (v4), so the
                # coordinator's fleet view stays live even while a long
                # batch computes.
                beat = Heartbeat(self.worker_id, metrics=self.metrics.snapshot())
                protocol.send_message(sock, beat, self._send_lock, self._auth)
            except OSError:
                return

    def _request(self, sock: socket.socket, message):
        """Send one request and read its single reply.

        The coordinator only ever writes replies (heartbeats go the other
        way and are reply-less), so request/reply pairing is positional.
        """
        protocol.send_message(sock, message, self._send_lock, self._auth)
        return protocol.recv_message(sock, self._auth)

    # ------------------------------------------------------------------ #
    # Plan serving
    # ------------------------------------------------------------------ #
    def _serve_plan(self, sock: socket.socket, assignment: PlanAssignment) -> None:
        plan_id = assignment.plan_id
        dataset, factories = self._memo.get(
            plan_id, lambda: self._resolve_state(sock, assignment))
        self._counters["plans_served"].inc()
        while True:
            reply = self._request(sock, GetBatch(plan_id, self.worker_id))
            if isinstance(reply, PlanDone):
                return
            if isinstance(reply, Idle):
                time.sleep(reply.delay)
                continue
            if not isinstance(reply, Batch):
                raise protocol.ProtocolError(
                    f"expected a batch, got {type(reply).__name__}")
            # Traced frames carry the coordinator's plan-span context; the
            # batch/cell spans built under it ship back with the results.
            results, spans = evaluate_batch(
                reply.cells, factories, dataset, trace=reply.trace,
                attrs={"executor": "remote", "worker": self.worker_id},
                cell_attrs={"worker": self.worker_id},
                cell_delay=self.cell_delay)
            self._counters["cells_evaluated"].inc(len(results))
            self._request(sock, Results(
                plan_id, self.worker_id, tuple(results), spans=tuple(spans),
                metrics=self.metrics.snapshot()))

    def _resolve_state(self, sock: socket.socket, assignment: PlanAssignment):
        """Dataset + series factories for the plan (a memo miss)."""
        plan = assignment.plan
        spec = plan.dataset
        # store_ok is False when the coordinator runs an explicit dataset
        # override: its content has no registered fingerprint, so the
        # local store must be bypassed in both directions.
        store = self.store if assignment.store_ok else None
        if store is not None and store.has_dataset(spec):
            dataset = store.get(spec)
        else:
            data = self._relay(sock, assignment.plan_id, None)
            if store is not None:
                store.put_dataset_bytes(spec, data)
                dataset = store.get(spec)
            else:
                dataset = DatasetStore.decode_dataset_bytes(data)
        caches = {}
        for key in plan.cache_keys():
            model = build_analytical(key)
            if store is not None and store.has_cache(key, spec):
                caches[key] = store.load_analytical_cache(
                    key, spec, model, dataset.feature_names)
                continue
            data = self._relay(sock, assignment.plan_id, key)
            if store is not None:
                store.put_cache_bytes(key, spec, data)
                caches[key] = store.load_analytical_cache(
                    key, spec, model, dataset.feature_names)
            else:
                caches[key] = AnalyticalPredictionCache.load(
                    io.BytesIO(data), model, dataset.feature_names)
        return dataset, _series_factories(plan, dataset, caches)

    def _relay(self, sock: socket.socket, plan_id: str,
               model_key: str | None) -> bytes:
        """One artifact's bytes over the coordinator relay, digest-verified.

        ``model_key=None`` fetches the dataset.  A blob whose content
        does not match its ``sha256`` is counted
        (``blob_integrity_errors``) and refetched; once the retry budget
        is spent the :class:`IntegrityError` propagates.
        """
        self._counters["relay_fetches"].inc()

        def fetch() -> bytes:
            reply = self._request(sock, Fetch(plan_id, model_key))
            if isinstance(reply, PlanDone):
                raise _StalePlan(reply.plan_id)
            if not isinstance(reply, Blob) or reply.model_key != model_key:
                raise protocol.ProtocolError(
                    f"expected the Blob for {model_key!r}, got {reply!r}")
            actual = sha256_hex(reply.data)
            if actual != reply.sha256:
                self._counters["blob_integrity_errors"].inc()
                raise IntegrityError(f"relay blob {model_key!r}",
                                     reply.sha256, actual)
            return reply.data

        def on_retry(attempt: int, exc: BaseException, delay: float) -> None:
            logger.warning(
                "worker %s: relay blob failed verification (attempt %d: %s); "
                "refetching in %.2fs", self.worker_id, attempt, exc, delay)

        # _StalePlan is not an IntegrityError, so it propagates on the
        # first occurrence — a vanished plan must never be retried.
        return self.retry.call(fetch, retry_on=(IntegrityError,),
                               on_retry=on_retry)


def main(argv: list[str] | None = None) -> int:
    """Run one fleet worker from the command line; returns its exit status."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.distributed.worker",
        description="Fleet worker: evaluate experiment cells for a coordinator",
        parents=[
            add_store_args(
                dir_help="persistent dataset/cache store directory; missing "
                         "artifacts are relayed from the coordinator (a "
                         "corrupt stored dataset is regenerated locally)",
                url_help="store locator instead of a directory: file://DIR, "
                         "memory:// or http://HOST:PORT/ (an S3-style object "
                         "store, e.g. python -m repro.datasets.object_server)"),
            add_auth_args(), add_logging_parent(),
        ],
    )
    parser.add_argument("--connect", required=True, metavar="HOST:PORT",
                        help="coordinator address")
    parser.add_argument("--worker-id", default=None,
                        help="stable identity (default: host-pid-random)")
    parser.add_argument("--connect-timeout", type=float, default=20.0, metavar="S",
                        help="seconds to retry the initial connection (default 20)")
    parser.add_argument("--heartbeat-interval", type=float, default=1.0, metavar="S",
                        help="seconds between liveness heartbeats (default 1)")
    parser.add_argument("--cell-delay", type=float, default=None, metavar="S",
                        help="artificial per-cell sleep (fault-injection/testing; "
                             "default $REPRO_FLEET_CELL_DELAY or 0)")
    parser.add_argument("--max-retries", type=int, default=None, metavar="N",
                        help="retry attempts for fallible fetches: store transport "
                             "and relay-blob digest verification (default "
                             f"{WORKER_RETRY.max_attempts}; minimum 1)")
    parser.add_argument("--reconnect-attempts", type=int, default=3, metavar="N",
                        help="fresh connect+handshake attempts after the "
                             "coordinator connection drops (default 3; 0 = exit "
                             "on first drop)")
    args = parser.parse_args(argv)
    configure_logging(fmt=args.log_format, level=args.log_level)
    auth_key = load_auth_key(args.auth_key_file, parser=parser)
    if args.max_retries is not None and args.max_retries < 1:
        parser.error(f"--max-retries must be >= 1, got {args.max_retries}")
    if args.reconnect_attempts < 0:
        parser.error(
            f"--reconnect-attempts must be >= 0, got {args.reconnect_attempts}")
    retry = None
    if args.max_retries is not None:
        retry = RetryPolicy(max_attempts=args.max_retries,
                            base_delay=WORKER_RETRY.base_delay,
                            max_delay=WORKER_RETRY.max_delay)
    store = args.store_dir
    if args.store_url is not None:
        # Resolved through the scheme registry so a malformed URL is a
        # usage error, not a silently-created local directory.
        try:
            store = resolve_backend(args.store_url, retry=retry, auth=auth_key)
        except ValueError as exc:
            parser.error(str(exc))
    worker = FleetWorker(
        parse_address(args.connect), store=store,
        worker_id=args.worker_id, connect_timeout=args.connect_timeout,
        heartbeat_interval=args.heartbeat_interval, cell_delay=args.cell_delay,
        retry=retry, reconnect_attempts=args.reconnect_attempts,
        auth_key=auth_key)
    return worker.run()


if __name__ == "__main__":
    sys.exit(main())

"""Pluggable byte-storage backends behind :class:`~repro.datasets.store.DatasetStore`.

The store's artifacts are content-addressed ``.npz`` byte blobs under
string keys (``datasets/<name>-<fingerprint>.npz``,
``caches/<model_key>-<fingerprint>.npz``).  Everything fingerprint- and
format-related lives in :mod:`repro.datasets.store`; a backend only has
to move bytes:

* :class:`LocalBackend` — one directory per store, atomic
  tmp-write + rename exactly like the pre-backend store (a half-written
  temp file is cleaned up on error instead of leaking);
* :class:`MemoryBackend` — a plain dict; tests and store-less scratch
  runs.  ``memory://<name>`` URLs resolve to a process-global named
  instance so several components of one process can share it;
* :class:`ObjectStoreBackend` — a minimal S3-style HTTP object store
  speaking GET/PUT/LIST/DELETE (the bundled
  :mod:`repro.datasets.object_server` serves this API from the stdlib,
  so fleets can share artifacts without an external service).  Transient
  transport failures (5xx, connection refused/reset, mid-body
  truncation, timeouts) are retried through a
  :class:`~repro.utils.retry.RetryPolicy`.

Integrity layer
---------------
Every write records a SHA-256 *checksum sidecar* (``<key>.sha256``,
the hex digest) next to the blob, and every read verifies the blob
against it — in the :class:`StoreBackend` base class, so the guarantee
is uniform across backends and survives any transport: a bit-flipped
blob raises :class:`IntegrityError` instead of deserializing garbage.
Subclasses implement the raw ``_read``/``_write``/``_delete`` byte
moves; the base class owns checksum bookkeeping (sidecars are written
after their blob, deleted with it, and never checksummed themselves).
A blob without a sidecar (written by a pre-checksum version) is served
unverified for backward compatibility.

``resolve_backend`` maps a locator URL (``file://``, ``memory://``,
``http://``/``https://``) to a backend instance — the registry behind
the ``--store-url`` CLI flag and the store locator that process-pool
and locally spawned fleet workers open the parent's store with.
"""

from __future__ import annotations

import abc
import hashlib
import http.client
import json
import logging
import os
import threading
import urllib.error
import urllib.parse
import urllib.request
from pathlib import Path, PurePosixPath

from repro.obs.http import sign_request
from repro.obs.metrics import REGISTRY, MetricsRegistry
from repro.utils.retry import RetryPolicy

__all__ = [
    "StoreBackend",
    "LocalBackend",
    "MemoryBackend",
    "ObjectStoreBackend",
    "IntegrityError",
    "CHECKSUM_SUFFIX",
    "checksum_key",
    "is_checksum_key",
    "sha256_hex",
    "resolve_backend",
    "backend_schemes",
]

logger = logging.getLogger(__name__)

#: Suffix of the checksum sidecar stored next to every blob.
CHECKSUM_SUFFIX = ".sha256"


def checksum_key(key: str) -> str:
    """The sidecar key holding the SHA-256 hex digest of *key*'s blob."""
    return key + CHECKSUM_SUFFIX


def is_checksum_key(key: str) -> bool:
    """Whether *key* names a checksum sidecar rather than a blob."""
    return key.endswith(CHECKSUM_SUFFIX)


def sha256_hex(data: bytes) -> str:
    """Hex SHA-256 of *data* — the store's checksum format."""
    return hashlib.sha256(data).hexdigest()


class IntegrityError(RuntimeError):
    """A stored blob does not match its recorded SHA-256 checksum.

    Raised by :meth:`StoreBackend.read` before the corrupt bytes reach
    any deserializer.  Consumers reject-and-refetch: the
    :class:`~repro.datasets.store.DatasetStore` deletes the blob and
    regenerates, a fleet worker refetches a relay blob.
    """

    def __init__(self, key: str, expected: str, actual: str) -> None:
        super().__init__(
            f"checksum mismatch for {key!r}: stored sha256 {expected[:16]}…, "
            f"blob hashes to {actual[:16]}…")
        self.key = key
        self.expected = expected
        self.actual = actual


def _check_key(key: str) -> str:
    """Validate a store key: relative, slash-separated, no traversal.

    Keys cross process (and with the object store, host) boundaries, so
    they are validated at the backend seam rather than trusting callers:
    a key must never be able to escape the backend's namespace.
    """
    if not key or key.startswith(("/", "\\")) or "\\" in key:
        raise ValueError(f"invalid store key {key!r}")
    parts = PurePosixPath(key).parts
    if not parts or any(part in (".", "..") for part in parts):
        raise ValueError(f"invalid store key {key!r}")
    return key


class StoreBackend(abc.ABC):
    """Byte-blob storage: the only surface :class:`DatasetStore` needs.

    Keys are relative slash-separated paths (``datasets/foo.npz``).
    ``read``/``delete`` raise :class:`KeyError` for missing keys so the
    store can distinguish "absent" from transport failures uniformly
    across backends.  The public ``read``/``write``/``delete`` are
    template methods owning the checksum-sidecar discipline; subclasses
    implement the raw ``_read``/``_write``/``_delete`` byte moves.
    """

    #: URL scheme the backend registers under (``file``, ``memory``, ``http``).
    scheme: str = ""

    #: Verify blobs against their checksum sidecar on read.  Off only for
    #: backends that deliberately serve raw bytes (the object *server*
    #: trusts its local disk; its HTTP *clients* verify end to end).
    verify_reads: bool = True

    #: Record a checksum sidecar on every write.  Off only where another
    #: party owns the checksums: the object *server* stores exactly what
    #: clients PUT (clients write the sidecar as its own key; the server
    #: recomputing it would replace the end-to-end digest with a local
    #: one and mask in-flight corruption).
    record_checksums: bool = True

    @property
    @abc.abstractmethod
    def locator(self) -> str | None:
        """URL another process can use to open this same store.

        ``None`` when the backend is not shareable (an anonymous
        in-memory store); only non-``None`` locators are handed to
        worker processes.
        """

    @abc.abstractmethod
    def _read(self, key: str) -> bytes:
        """Raw bytes of *key*; :class:`KeyError` when absent."""

    @abc.abstractmethod
    def _write(self, key: str, data: bytes) -> None:
        """Store *data* under *key* atomically (readers see old or new, never half)."""

    @abc.abstractmethod
    def _delete(self, key: str) -> None:
        """Remove *key*; :class:`KeyError` when absent."""

    @abc.abstractmethod
    def exists(self, key: str) -> bool:
        """Whether *key* currently holds a blob."""

    @abc.abstractmethod
    def list(self, prefix: str = "") -> list[str]:
        """Sorted keys starting with *prefix* (``""`` lists everything).

        Checksum sidecars are real keys and are listed; callers that
        iterate artifacts filter with :func:`is_checksum_key`.
        """

    def read(self, key: str) -> bytes:
        """The stored bytes of *key*, verified against the checksum sidecar.

        :class:`KeyError` when absent, :class:`IntegrityError` when the
        blob does not hash to the recorded digest.  A blob without a
        sidecar (pre-checksum store) is returned unverified.
        """
        data = self._read(key)
        if not self.verify_reads or is_checksum_key(key):
            return data
        try:
            expected = self._read(checksum_key(key)).decode("ascii").strip()
        except KeyError:
            return data  # legacy blob predating the integrity layer
        actual = sha256_hex(data)
        if actual != expected:
            raise IntegrityError(key, expected, actual)
        return data

    def write(self, key: str, data: bytes) -> None:
        """Store *data* under *key* and record its SHA-256 sidecar.

        The blob lands first, the sidecar second: artifacts are
        content-addressed (one key always holds the same bytes), so the
        only observable in-between state is "blob without sidecar" —
        served unverified, never a false mismatch.
        """
        data = bytes(data)
        self._write(key, data)
        if self.record_checksums and not is_checksum_key(key):
            self._write(checksum_key(key), sha256_hex(data).encode("ascii"))

    def delete(self, key: str) -> None:
        """Remove *key* and its checksum sidecar; :class:`KeyError` when absent."""
        self._delete(key)
        if not is_checksum_key(key):
            try:
                self._delete(checksum_key(key))
            except KeyError:
                pass  # legacy blob, or a concurrent delete got there first


class LocalBackend(StoreBackend):
    """Filesystem-backed store rooted at one directory.

    Preserves the original :class:`DatasetStore` write discipline: bytes
    land in a per-process ``.tmp.npz`` sibling first and are atomically
    renamed into place, so concurrent writers of the same entry cannot
    clobber each other and readers never see a torn file.  A failed
    write (disk full, permissions, a crash between write and rename)
    unlinks its temp file instead of leaking it; leftovers from a hard
    kill are collected by :meth:`DatasetStore.prune`.
    """

    scheme = "file"

    def __init__(self, root: str | os.PathLike) -> None:
        self.root = Path(root)

    @property
    def locator(self) -> str:
        return self.root.resolve().as_uri()

    def path(self, key: str) -> Path:
        """Absolute file the blob of *key* is (or would be) stored at."""
        return self.root / _check_key(key)

    def _tmp_path(self, path: Path) -> Path:
        # The pid suffix keeps concurrent writers of the same entry from
        # clobbering each other's half-written temp file; np.savez-style
        # tooling insists on a .npz suffix.
        return Path(f"{path}.{os.getpid()}.tmp.npz")

    def _read(self, key: str) -> bytes:
        try:
            return self.path(key).read_bytes()
        except FileNotFoundError:
            raise KeyError(key) from None

    def _write(self, key: str, data: bytes) -> None:
        path = self.path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self._tmp_path(path)
        try:
            tmp.write_bytes(data)
            tmp.replace(path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise

    def exists(self, key: str) -> bool:
        return self.path(key).is_file()

    def list(self, prefix: str = "") -> list[str]:
        # Walk only the prefix's directory component, not the whole root:
        # existence probes and namespace listings stay O(entries under
        # the prefix) instead of O(total artifacts).
        if prefix:
            _check_key(prefix.rstrip("/") or prefix)
        directory, _, _ = prefix.rpartition("/")
        base = self.root / directory if directory else self.root
        if not base.is_dir():
            return []
        keys = [
            path.relative_to(self.root).as_posix()
            for path in base.rglob("*")
            if path.is_file()
        ]
        return sorted(key for key in keys if key.startswith(prefix))

    def _delete(self, key: str) -> None:
        try:
            self.path(key).unlink()
        except FileNotFoundError:
            raise KeyError(key) from None


#: Process-global ``memory://<name>`` stores, shared by every resolver call
#: with the same name (anonymous ``memory://`` stores are private).
_NAMED_MEMORY_STORES: dict[str, MemoryBackend] = {}
_NAMED_MEMORY_LOCK = threading.Lock()


class MemoryBackend(StoreBackend):
    """Dict-backed store: tests, demos and store-less scratch runs.

    A *named* instance (``MemoryBackend.named("x")`` / ``memory://x``)
    is process-global, so several components of one process can reopen
    the same store by URL.  No memory store ever advertises a locator:
    the :attr:`~StoreBackend.locator` contract is "another *process* can
    open this", and a ``memory://`` URL resolved in a subprocess is a
    fresh empty dict — advertising it would make process-pool workers
    silently regenerate datasets instead of receiving the parent's copy.
    """

    scheme = "memory"

    def __init__(self, name: str | None = None) -> None:
        self.name = name
        self._blobs: dict[str, bytes] = {}
        self._lock = threading.Lock()

    @classmethod
    def named(cls, name: str) -> MemoryBackend:
        with _NAMED_MEMORY_LOCK:
            backend = _NAMED_MEMORY_STORES.get(name)
            if backend is None:
                backend = _NAMED_MEMORY_STORES[name] = cls(name)
            return backend

    @property
    def locator(self) -> None:
        return None

    def _read(self, key: str) -> bytes:
        with self._lock:
            return self._blobs[_check_key(key)]

    def _write(self, key: str, data: bytes) -> None:
        with self._lock:
            self._blobs[_check_key(key)] = bytes(data)

    def exists(self, key: str) -> bool:
        with self._lock:
            return _check_key(key) in self._blobs

    def list(self, prefix: str = "") -> list[str]:
        with self._lock:
            return sorted(key for key in self._blobs if key.startswith(prefix))

    def _delete(self, key: str) -> None:
        with self._lock:
            del self._blobs[_check_key(key)]


#: Default transport policy of :class:`ObjectStoreBackend`: three
#: attempts, 100 ms first backoff, jittered, 30 s per-attempt timeout.
OBJECT_STORE_RETRY = RetryPolicy(max_attempts=3, base_delay=0.1, max_delay=2.0,
                                 attempt_timeout=30.0)

#: Transient transport failures worth retrying: every OSError
#: (connection refused/reset, DNS, socket timeouts, and urllib's URLError
#: wrapper) plus http.client protocol breakage (mid-body truncation is
#: IncompleteRead, a dropped keep-alive is RemoteDisconnected).
_RETRYABLE = (OSError, http.client.HTTPException)


def _giveup(exc: BaseException) -> bool:
    """Client errors (4xx) are permanent; only 5xx HTTP errors retry.

    In particular 401/403 — a missing, wrong or rejected credential —
    must never retry: re-sending the same signature cannot succeed, and
    hammering an auth-rejecting server only floods its
    ``repro_auth_failures_total`` counter.
    """
    return isinstance(exc, urllib.error.HTTPError) and exc.code < 500


class ObjectStoreBackend(StoreBackend):
    """Client of a minimal S3-style HTTP object store.

    The API (served by the bundled
    :mod:`repro.datasets.object_server`, or by anything speaking plain
    HTTP object semantics):

    * ``GET /<key>`` — blob bytes, 404 when absent;
    * ``HEAD /<key>`` — existence probe (200/404, no body);
    * ``PUT /<key>`` — store the request body under the key;
    * ``DELETE /<key>`` — remove the key, 404 when absent;
    * ``GET /?prefix=<p>`` — JSON array of keys under the prefix.

    Every request runs under *retry* (default
    :data:`OBJECT_STORE_RETRY`): HTTP 5xx, connection refused/reset,
    mid-body truncation and per-attempt timeouts back off and retry,
    other 4xx fail immediately — 401/403 auth rejections are permanent
    by construction.  PUT requests carry an ``X-Repro-SHA256`` header
    so the server can reject a body corrupted in flight before storing
    it.  With *auth* key bytes, every request is signed with an
    ``Authorization: Repro-HMAC`` header covering the method, the
    request target and the body digest (see
    :func:`repro.obs.http.sign_request`).

    ``reads``/``writes`` count successful blob transfers (the
    hit-counter instrumentation the fleet tests use to prove workers
    bootstrap from the object store rather than the coordinator);
    ``retries`` counts backed-off attempts across all requests.
    """

    scheme = "http"

    def __init__(self, base_url: str, *, timeout: float | None = None,
                 retry: RetryPolicy | None = None,
                 auth: bytes | None = None) -> None:
        if not base_url.startswith(("http://", "https://")):
            raise ValueError(f"object store URL must be http(s), got {base_url!r}")
        self.base_url = base_url.rstrip("/")
        self.auth = auth
        self.retry = retry or OBJECT_STORE_RETRY
        self.timeout = timeout if timeout is not None else (
            self.retry.attempt_timeout or 30.0)
        # Transfer counters on the shared telemetry plane; the public
        # ``reads``/``writes``/``retries`` attributes stay as properties.
        self.metrics = MetricsRegistry(attach_to=REGISTRY)
        self._reads = self.metrics.counter(
            "repro_object_client_reads_total", "Blob GETs completed")
        self._writes = self.metrics.counter(
            "repro_object_client_writes_total", "Blob PUTs completed")
        self._retries = self.metrics.counter(
            "repro_object_client_retries_total",
            "Backed-off HTTP attempts across all requests")

    @property
    def locator(self) -> str:
        return self.base_url + "/"

    @property
    def reads(self) -> int:
        """Successful blob GETs (compatibility view of the counter)."""
        return int(self._reads.value)

    @property
    def writes(self) -> int:
        """Successful blob PUTs (compatibility view of the counter)."""
        return int(self._writes.value)

    @property
    def retries(self) -> int:
        """Backed-off attempts (compatibility view of the counter)."""
        return int(self._retries.value)

    def _url(self, key: str) -> str:
        return f"{self.base_url}/{urllib.parse.quote(_check_key(key))}"

    def _request(self, method: str, url: str, data: bytes | None = None) -> bytes:
        def attempt() -> bytes:
            request = urllib.request.Request(url, data=data, method=method)
            if data is not None:
                request.add_header("Content-Type", "application/octet-stream")
                request.add_header("X-Repro-SHA256", sha256_hex(data))
            if self.auth is not None:
                # Sign the exact request target (percent-encoded path +
                # query) the request line will carry, so the server's
                # verification canonicalizes to the same bytes.
                parsed = urllib.parse.urlsplit(url)
                target = (parsed.path or "/") + \
                    (f"?{parsed.query}" if parsed.query else "")
                request.add_header("Authorization", sign_request(
                    self.auth, method, target, data or b""))
            with urllib.request.urlopen(request, timeout=self.timeout) as response:
                return response.read()

        def on_retry(attempt_no: int, exc: BaseException, delay: float) -> None:
            self._retries.inc()
            logger.warning(
                "object store %s %s failed (attempt %d/%d): %s; retrying in %.2fs",
                method, url, attempt_no, self.retry.max_attempts, exc, delay)

        return self.retry.call(attempt, retry_on=_RETRYABLE, giveup=_giveup,
                               on_retry=on_retry)

    def _read(self, key: str) -> bytes:
        try:
            data = self._request("GET", self._url(key))
        except urllib.error.HTTPError as exc:
            if exc.code == 404:
                raise KeyError(key) from None
            raise
        self._reads.inc()
        return data

    def _write(self, key: str, data: bytes) -> None:
        self._request("PUT", self._url(key), data=bytes(data))
        self._writes.inc()

    def exists(self, key: str) -> bool:
        # HEAD: one round trip, no body, no server-side listing walk.
        try:
            self._request("HEAD", self._url(key))
        except urllib.error.HTTPError as exc:
            if exc.code == 404:
                return False
            raise
        return True

    def list(self, prefix: str = "") -> list[str]:
        query = urllib.parse.urlencode({"prefix": prefix})
        data = self._request("GET", f"{self.base_url}/?{query}")
        keys = json.loads(data.decode("utf-8"))
        if not isinstance(keys, list):
            raise ValueError(f"object store list endpoint returned {type(keys).__name__}")
        return sorted(str(key) for key in keys)

    def _delete(self, key: str) -> None:
        try:
            self._request("DELETE", self._url(key))
        except urllib.error.HTTPError as exc:
            if exc.code == 404:
                raise KeyError(key) from None
            raise


def _file_backend(url: str, retry: RetryPolicy | None = None,
                  auth: bytes | None = None) -> LocalBackend:
    parsed = urllib.parse.urlsplit(url)
    if parsed.netloc not in ("", "localhost"):
        raise ValueError(
            f"file:// store URLs must be local (file:///path), got {url!r}")
    path = urllib.parse.unquote(parsed.path)
    if not path:
        raise ValueError(f"file:// store URL has no path: {url!r}")
    return LocalBackend(path)


def _memory_backend(url: str, retry: RetryPolicy | None = None,
                    auth: bytes | None = None) -> MemoryBackend:
    name = url[len("memory://"):].strip("/")
    return MemoryBackend.named(name) if name else MemoryBackend()


def _object_backend(url: str, retry: RetryPolicy | None = None,
                    auth: bytes | None = None) -> ObjectStoreBackend:
    return ObjectStoreBackend(url, retry=retry, auth=auth)


_SCHEMES = {
    "file": _file_backend,
    "memory": _memory_backend,
    "http": _object_backend,
    "https": _object_backend,
}


def backend_schemes() -> tuple[str, ...]:
    """URL schemes ``resolve_backend`` understands."""
    return tuple(sorted(_SCHEMES))


def resolve_backend(url: str, *, retry: RetryPolicy | None = None,
                    auth: bytes | None = None) -> StoreBackend:
    """Instantiate the backend a ``--store-url`` locator names.

    ``file:///dir`` opens a :class:`LocalBackend`, ``memory://`` (or
    ``memory://name`` for a process-shared instance) a
    :class:`MemoryBackend`, ``http(s)://host:port/`` an
    :class:`ObjectStoreBackend`.  *retry* overrides the transport retry
    policy and *auth* supplies the request-signing key, on backends
    that have one (the object store client; local/memory stores need
    neither).
    """
    scheme, sep, _ = url.partition("://")
    if not sep:
        raise ValueError(
            f"store URL {url!r} has no scheme; expected one of "
            f"{', '.join(s + '://' for s in backend_schemes())}")
    try:
        factory = _SCHEMES[scheme]
    except KeyError:
        raise ValueError(
            f"unknown store URL scheme {scheme!r} in {url!r}; known schemes: "
            f"{', '.join(backend_schemes())}") from None
    return factory(url, retry, auth)

"""Programmable fault injection for the store and the fleet wire protocol.

The robustness claims of the store/fleet stack (checksums catch
corruption, retries absorb error bursts, the coordinator relay keeps
workers going while the shared store is corrupt) are only claims until
a test can *cause* each failure on demand.  This module provides the two injection points:

* :class:`FaultyBackend` wraps any
  :class:`~repro.datasets.backends.StoreBackend` and injects faults into
  the **raw** byte ops, *underneath* the inherited checksum layer — an
  injected bit-flip is therefore exactly what on-disk corruption looks
  like, and the template ``read()`` is expected to catch it.  Rules are
  programmable per operation, per key substring, and per firing count
  (``times``), so a test can say "the first two reads of the dataset
  blob fail with a connection reset, then the store recovers".

* :class:`FaultySocket` wraps a connected socket and corrupts, delays,
  or drops whole protocol *frames* — it parses the frame header so
  injected corruption hits payload bytes (``corrupt_frames``) or the
  trailing HMAC tag of a signed frame (``corrupt_tags``) only, never
  the length prefix (a corrupted length would desynchronize the stream
  instead of exercising the CRC or tag check).

Every injected fault is appended to a ``log`` (and formatted by
``log_text()``), which the CI chaos job uploads as an artifact: a green
chaos run documents exactly which failures it survived.

This module is intentionally dependency-free (stdlib only) and lives in
the installed package, not in ``tests/``, so the CI chaos job and
downstream users can drive it without the test tree on ``sys.path``.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

from repro.datasets.backends import StoreBackend, is_checksum_key
from repro.distributed import protocol

__all__ = ["FaultyBackend", "FaultySocket", "flip_bit"]


def flip_bit(data: bytes, *, bit: int = 0) -> bytes:
    """*data* with one bit flipped (the canonical minimal corruption)."""
    if not data:
        return data
    index, offset = divmod(bit, 8)
    index %= len(data)
    corrupted = bytearray(data)
    corrupted[index] ^= 1 << offset
    return bytes(corrupted)


@dataclass
class _Rule:
    """One armed fault: what to do, where it applies, how often it fires."""

    kind: str                    # "error" | "corrupt" | "delay"
    op: str                      # backend op name, or "*" for any
    key: str                     # key substring filter ("" matches all)
    times: int | None            # remaining firings; None = unlimited
    exc: Exception | None = None
    delay: float = 0.0
    skip_checksums: bool = True  # don't fire on ``.sha256`` sidecar keys

    def matches(self, op: str, key: str) -> bool:
        """Whether this rule fires for backend operation *op* on *key*."""
        if self.times is not None and self.times <= 0:
            return False
        if self.op != "*" and self.op != op:
            return False
        if self.key and self.key not in key:
            return False
        if self.skip_checksums and is_checksum_key(key):
            return False
        return True


class FaultyBackend(StoreBackend):
    """A :class:`StoreBackend` that injects programmed faults below the
    checksum layer of *inner*.

    The wrapper delegates to the inner backend's **raw** ``_read`` /
    ``_write`` / ``_delete``, so exactly one checksum layer runs — this
    wrapper's inherited one.  Injected corruption on a ``read`` is thus
    indistinguishable from on-disk bit rot and must be caught by
    verification; corruption on a ``write`` lands corrupt bytes under a
    valid-looking key (the sidecar is computed from the uncorrupted
    data), modelling a torn write.

    Arm faults with :meth:`inject_error`, :meth:`inject_corruption` and
    :meth:`inject_delay`; every firing is recorded in :attr:`log`.
    """

    def __init__(self, inner: StoreBackend) -> None:
        self.inner = inner
        self.scheme = inner.scheme
        self.rules: list[_Rule] = []
        self.log: list[dict] = []
        self._lock = threading.Lock()
        self._sleep = time.sleep

    # ------------------------------------------------------------------ #
    # Arming
    # ------------------------------------------------------------------ #
    def inject_error(self, exc: Exception, *, op: str = "*", key: str = "",
                     times: int | None = 1) -> FaultyBackend:
        """Raise *exc* on the next *times* matching operations."""
        self.rules.append(_Rule("error", op, key, times, exc=exc))
        return self

    def inject_corruption(self, *, op: str = "read", key: str = "",
                          times: int | None = 1,
                          skip_checksums: bool = True) -> FaultyBackend:
        """Bit-flip the payload of the next *times* matching reads/writes.

        Sidecar keys are skipped by default: corrupting the 64-byte digest
        itself also trips verification, but the interesting failure mode
        is a corrupt *blob* under an intact digest.
        """
        self.rules.append(_Rule("corrupt", op, key, times,
                                skip_checksums=skip_checksums))
        return self

    def inject_delay(self, seconds: float, *, op: str = "*", key: str = "",
                     times: int | None = 1) -> FaultyBackend:
        """Sleep *seconds* before the next *times* matching operations."""
        self.rules.append(_Rule("delay", op, key, times, delay=seconds))
        return self

    def log_text(self) -> str:
        """The fault log, one line per injected fault (CI artifact format)."""
        return "\n".join(
            f"[{entry['n']:03d}] {entry['kind']:7s} op={entry['op']} "
            f"key={entry['key']}" for entry in self.log)

    # ------------------------------------------------------------------ #
    # Injection core
    # ------------------------------------------------------------------ #
    def _apply(self, op: str, key: str, data: bytes | None = None) -> bytes | None:
        """Fire every armed rule matching (*op*, *key*); maybe mutate *data*."""
        with self._lock:
            fired = []
            for rule in self.rules:
                if not rule.matches(op, key):
                    continue
                if rule.times is not None:
                    rule.times -= 1
                self.log.append(
                    {"n": len(self.log) + 1, "kind": rule.kind,
                     "op": op, "key": key})
                fired.append(rule)
        for rule in fired:
            if rule.kind == "delay":
                self._sleep(rule.delay)
            elif rule.kind == "error":
                raise rule.exc
            elif rule.kind == "corrupt" and data is not None:
                data = flip_bit(data)
        return data

    # ------------------------------------------------------------------ #
    # StoreBackend raw surface (delegating to the inner raw surface)
    # ------------------------------------------------------------------ #
    @property
    def locator(self) -> str | None:
        """The wrapped backend's shareable URL (other processes see no faults)."""
        return self.inner.locator

    def _read(self, key: str) -> bytes:
        data = self.inner._read(key)
        return self._apply("read", key, data)

    def _write(self, key: str, data: bytes) -> None:
        data = self._apply("write", key, data)
        self.inner._write(key, data)

    def _delete(self, key: str) -> None:
        self._apply("delete", key)
        self.inner._delete(key)

    def exists(self, key: str) -> bool:
        """Existence check on the inner backend (fault rules may fire first)."""
        self._apply("exists", key)
        return self.inner.exists(key)

    def list(self, prefix: str = "") -> list[str]:
        """Key listing from the inner backend (fault rules may fire first)."""
        self._apply("list", prefix)
        return self.inner.list(prefix)


@dataclass
class FaultySocket:
    """A socket proxy that corrupts, delays, or drops protocol frames.

    Frame-aware: :func:`~repro.distributed.protocol.send_message` writes
    each frame with a single ``sendall``, so the proxy counts frames on
    the send side and — when a frame index is armed via
    ``corrupt_frames`` — flips the first *payload* byte while leaving
    the 13-byte header (and, on a signed frame, the trailing HMAC tag)
    intact.  The length still describes the stream (no
    desynchronization, no hang); the CRC — and on an authenticated
    connection the tag, which covers the payload and is checked *first*
    — no longer matches, which is precisely the condition
    :func:`recv_message` must detect.

    ``corrupt_tags`` instead flips a bit in the trailing
    :data:`~repro.distributed.protocol.TAG_BYTES` of a signed frame,
    leaving the payload (and therefore its CRC) intact: a receiver that
    rejects such a frame provably did so on the tag check, not the CRC.
    Arming a tag corruption for an unsigned frame is a no-op (logged as
    ``tag-skip``) — there is no tag to corrupt.

    ``drop_after`` closes the underlying socket after that many frames
    have been sent, modelling a connection cut mid-conversation.
    """

    sock: object
    corrupt_frames: set[int] = field(default_factory=set)  # 1-based indices
    corrupt_tags: set[int] = field(default_factory=set)    # 1-based indices
    drop_after: int | None = None
    send_delay: float = 0.0
    frames_sent: int = 0
    log: list = field(default_factory=list)

    def sendall(self, frame: bytes) -> None:
        """Forward *frame*, corrupting/delaying/dropping per the armed rules."""
        self.frames_sent += 1
        if self.drop_after is not None and self.frames_sent > self.drop_after:
            self.log.append({"frame": self.frames_sent, "kind": "drop"})
            self.close()
            raise ConnectionResetError("connection dropped by fault injection")
        if self.send_delay:
            time.sleep(self.send_delay)
        header = protocol._HEADER.size
        signed = (len(frame) >= header
                  and frame[header - 1] & protocol.FLAG_SIGNED)
        body_end = len(frame) - protocol.TAG_BYTES if signed else len(frame)
        if self.frames_sent in self.corrupt_frames and body_end > header:
            self.log.append({"frame": self.frames_sent, "kind": "corrupt"})
            frame = (frame[:header] + flip_bit(frame[header:body_end])
                     + frame[body_end:])
        if self.frames_sent in self.corrupt_tags:
            if signed:
                self.log.append({"frame": self.frames_sent, "kind": "tag"})
                frame = frame[:body_end] + flip_bit(frame[body_end:])
            else:
                self.log.append({"frame": self.frames_sent, "kind": "tag-skip"})
        self.sock.sendall(frame)

    def recv(self, n: int) -> bytes:
        """Plain pass-through read (faults are injected on the send side)."""
        return self.sock.recv(n)

    def close(self) -> None:
        """Close the underlying socket, swallowing double-close errors."""
        try:
            self.sock.close()
        except OSError:
            pass

    def __getattr__(self, name):
        return getattr(self.sock, name)

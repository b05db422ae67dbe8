"""Open-loop HTTP load over a fixed number of persistent connections.

Requests follow a precomputed schedule of due times, whatever the
server does: a slow reply delays the requests queued behind it but not
the schedule.  Every latency is therefore timed from the request's
*due* time, so a stall shows up in all the requests it held back.

Each connection is one thread holding one keep-alive
``http.client.HTTPConnection`` (the way pooled clients talk to a
server).  A free connection takes the next request in due order.  The
generator's own lateness — how long after both its due time and the
moment its connection became free a request was actually sent — is
recorded separately, so a slow client is visible and never mistaken
for a slow server.
"""

from __future__ import annotations

import http.client
import json
import random
import threading
import time
from dataclasses import dataclass, field

OK, FAILED, TIMEOUT = "ok", "failed", "timeout"


@dataclass
class Request:
    due: float
    path: str
    body: bytes
    meta: dict = field(default_factory=dict)


@dataclass
class Outcome:
    request: Request
    status: str = FAILED
    due_abs: float = 0.0
    sent: float = 0.0
    done: float = 0.0
    late: float = 0.0
    error: str = ""

    @property
    def latency_ms(self) -> float:
        """Milliseconds from the due time to the complete reply."""
        return (self.done - self.due_abs) * 1000.0

    @property
    def service_ms(self) -> float:
        """Milliseconds from the send to the complete reply."""
        return (self.done - self.sent) * 1000.0


def poisson_schedule(rng: random.Random, rate: float, n: int):
    """*n* Poisson-process arrival offsets whose mean rate is exactly *rate*.

    Exponential gaps are drawn and then scaled so the *n* arrivals span
    ``n / rate`` seconds: the offered rate does not vary with the seed,
    only the arrival pattern does.
    """
    gaps = [rng.expovariate(rate) for _ in range(n)]
    scale = (n / rate) / sum(gaps)
    out, t = [], 0.0
    for gap in gaps:
        t += gap * scale
        out.append(t)
    return out


def run_open_loop(host: str, port: int, requests: list[Request], *,
                  connections: int = 2, timeout: float = 5.0,
                  check=None) -> list[Outcome]:
    """Send *requests* on their schedule; return outcomes in request order.

    ``check(request, reply)`` returns False when a 200 reply carries a
    wrong answer, which counts the request as failed.
    """
    outcomes = [Outcome(request=r) for r in requests]
    order = sorted(range(len(requests)), key=lambda i: requests[i].due)
    lock = threading.Lock()
    cursor = iter(order)
    t0 = time.perf_counter() + 0.05  # every thread is running before the first due time

    def take():
        with lock:
            return next(cursor, None)

    def worker() -> None:
        conn = http.client.HTTPConnection(host, port, timeout=timeout)
        try:
            while True:
                free_at = time.perf_counter()
                i = take()
                if i is None:
                    return
                req, out = requests[i], outcomes[i]
                out.due_abs = t0 + req.due
                wait = out.due_abs - time.perf_counter()
                if wait > 0:
                    time.sleep(wait)
                out.sent = time.perf_counter()
                out.late = out.sent - max(out.due_abs, free_at)
                try:
                    conn.request("POST", req.path, body=req.body,
                                 headers={"Content-Type": "application/json"})
                    resp = conn.getresponse()
                    data = resp.read()
                    out.done = time.perf_counter()
                    if resp.status != 200:
                        out.error = f"HTTP {resp.status}"
                        continue
                    if check is not None and not check(req, json.loads(data)):
                        out.error = "wrong answer"
                        continue
                    out.status = OK
                except TimeoutError as exc:
                    out.done = time.perf_counter()
                    out.status, out.error = TIMEOUT, str(exc)
                    conn.close()
                    conn = http.client.HTTPConnection(host, port, timeout=timeout)
                except (OSError, http.client.HTTPException, ValueError) as exc:
                    out.done = time.perf_counter()
                    out.error = f"{type(exc).__name__}: {exc}"
                    conn.close()
                    conn = http.client.HTTPConnection(host, port, timeout=timeout)
        finally:
            conn.close()

    threads = [threading.Thread(target=worker, name=f"conn-{k}")
               for k in range(connections)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return outcomes

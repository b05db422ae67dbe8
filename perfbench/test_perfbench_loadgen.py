"""Open-loop timing from the due time, against a deliberately stalled server."""

import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import loadgen
import pytest

STALL_S = 0.3
STALLED_INDEX = 2
INTERVAL_S = 0.05


class _StallingHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    def log_message(self, *args):
        pass

    def do_POST(self):
        body = self.rfile.read(int(self.headers["Content-Length"]))
        if body == str(STALLED_INDEX).encode():
            time.sleep(STALL_S)
        payload = b'{"echo": ' + body + b"}"
        # Headers and body in one write: the fake must not add stalls of its own.
        self.wfile.write(b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
                         b"Content-Length: " + str(len(payload)).encode()
                         + b"\r\n\r\n" + payload)


@pytest.fixture()
def server():
    srv = ThreadingHTTPServer(("127.0.0.1", 0), _StallingHandler)
    srv.daemon_threads = True
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    yield srv.server_address
    srv.shutdown()
    srv.server_close()
    thread.join(timeout=10)
    assert not thread.is_alive()


def _requests(n):
    return [loadgen.Request(due=i * INTERVAL_S, path="/x", body=str(i).encode())
            for i in range(n)]


def test_a_stall_shows_in_the_requests_queued_behind_it(server):
    host, port = server
    outcomes = loadgen.run_open_loop(
        host, port, _requests(8), connections=1,
        check=lambda req, reply: reply["echo"] == int(req.body))
    assert all(o.status == loadgen.OK for o in outcomes)
    stalled = outcomes[STALLED_INDEX]
    assert stalled.latency_ms >= STALL_S * 1000
    # The next requests were due while the only connection was stalled:
    # timed from their due time they carry the rest of the stall, even
    # though the server answered each of them at once.
    for k in (1, 2, 3):
        after = outcomes[STALLED_INDEX + k]
        held = STALL_S - k * INTERVAL_S
        assert after.latency_ms >= held * 1000 - 5
        assert after.service_ms < after.latency_ms / 2
    # The schedule did not slip: the generator itself was never late.
    assert max(o.late for o in outcomes) < 0.05


def test_a_second_connection_absorbs_the_stall(server):
    host, port = server
    outcomes = loadgen.run_open_loop(host, port, _requests(8), connections=2)
    assert outcomes[STALLED_INDEX].latency_ms >= STALL_S * 1000
    assert outcomes[STALLED_INDEX + 1].latency_ms < STALL_S * 1000 / 2


def test_wrong_answers_and_refused_connections_count_as_failed(server):
    host, port = server
    wrong = loadgen.run_open_loop(host, port, _requests(2), connections=1,
                                  check=lambda req, reply: False)
    assert [o.status for o in wrong] == [loadgen.FAILED] * 2
    probe = ThreadingHTTPServer(("127.0.0.1", 0), _StallingHandler)
    closed_port = probe.server_address[1]
    probe.server_close()
    refused = loadgen.run_open_loop(host, closed_port, _requests(2), connections=1)
    assert [o.status for o in refused] == [loadgen.FAILED] * 2


def test_poisson_schedule_is_seeded():
    import random

    a = loadgen.poisson_schedule(random.Random(3), 20.0, 50)
    b = loadgen.poisson_schedule(random.Random(3), 20.0, 50)
    assert a == b and a == sorted(a)
    assert a[-1] == pytest.approx(50 / 20.0)

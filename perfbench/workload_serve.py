"""The ``serve`` workload: one closed-loop client against ``repro serve``.

The server runs as a subprocess with its defaults (warm process pool
with a shared-memory context) and a fresh ``--cache`` file.  Three
requests in four are ``/v1/timeline`` calls over the 27-design
``dns,web,app`` space with a fresh seeded time grid, so each one misses
every memo and pays for pool-dispatched solves plus sqlite writes; the
fourth is a ``/v1/sweep`` over a seeded ordered pair of roles that
set-up already computed, so it is answered from memory.  One request
per connection, never retried; a non-200 reply is a failed op.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import re
import selectors
import signal
import subprocess
import sys
import time
from itertools import permutations

import harness
import layers
from harness import OpFailure, Tally, now

ROLES3 = ("dns", "web", "app")
MAX_REPLICAS = 3
POINTS = 24
HORIZON = 720.0
#: The cheap requests' spaces: every ordered pair of roles, 9 designs each,
#: so every cycle delivers the same number of designs.
ROLE_PAIRS = [list(pair) for pair in permutations(ROLES3, 2)]
DRAIN_GRACE_S = 10.0
START_TIMEOUT_S = 60.0
REQUEST_TIMEOUT_S = 60.0
TAIL_BEYOND = 10
#: Requests per cycle of the mix: three timelines, then one sweep.
CYCLE = 4


class Server:
    """One ``repro serve --port 0`` subprocess and a client for it."""

    def __init__(self, workdir, tag: str, stats_path=None) -> None:
        command = [
            "serve", "--port", "0", "--cache", str(workdir / f"{tag}.sqlite"),
            "--drain-grace", str(DRAIN_GRACE_S),
        ]
        if stats_path is None:
            argv = [sys.executable, "-m", "repro", *command]
        else:
            argv = [sys.executable, str(harness.BENCH_DIR / "child.py"),
                    "traced", str(stats_path), "--", *command]
        self.err = open(workdir / f"{tag}.err", "wb")
        self.proc = subprocess.Popen(
            argv, cwd=harness.ROOT, env=harness.child_env(),
            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=self.err,
        )
        try:
            self.port = self._read_port()
        except BaseException:
            self.kill()
            raise

    def _read_port(self) -> int:
        with selectors.DefaultSelector() as sel:
            sel.register(self.proc.stdout, selectors.EVENT_READ)
            if not sel.select(START_TIMEOUT_S):
                raise OpFailure("repro serve did not announce its port")
        line = self.proc.stdout.readline().decode(errors="replace")
        found = re.search(r"http://[^:]+:(\d+)", line)
        if not found:
            raise OpFailure(f"unexpected serve banner {line!r}")
        return int(found.group(1))

    def request(self, method: str, path: str, payload=None):
        """``(status, body bytes, seconds)``, timed from the send."""
        body = None if payload is None else json.dumps(payload).encode()
        connection = http.client.HTTPConnection(
            "127.0.0.1", self.port, timeout=REQUEST_TIMEOUT_S
        )
        try:
            started = now()
            connection.request(
                method, path, body=body,
                headers={"Content-Type": "application/json", "Connection": "close"},
            )
            response = connection.getresponse()
            data = response.read()
            return response.status, data, now() - started
        finally:
            connection.close()

    def metrics(self) -> dict:
        status, data, _ = self.request("GET", "/v1/metrics")
        if status != 200:
            raise OpFailure(f"GET /v1/metrics answered {status}")
        return json.loads(data)

    def stop(self) -> int | None:
        """SIGTERM, then wait out the drain grace; the exit code or None."""
        try:
            self.proc.send_signal(signal.SIGTERM)
            return self.proc.wait(timeout=DRAIN_GRACE_S + 5.0)
        except subprocess.TimeoutExpired:
            self.kill()
            return None
        finally:
            self.proc.stdout.close()
            self.err.close()

    def mark(self, stats_path, timeout: float = 10.0) -> dict:
        """The traced server's layer totals so far (SIGUSR1, see child.py)."""
        target = str(stats_path) + ".mark"
        self.proc.send_signal(signal.SIGUSR1)
        deadline = now() + timeout
        while not os.path.exists(target):
            if now() > deadline:
                raise OpFailure("traced server wrote no layer mark")
            time.sleep(0.01)
        with open(target) as fh:
            return json.load(fh)

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.err.close()


class Client:
    """The seeded closed-loop request sequence and its output checks."""

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        self.sent = 0
        #: First reply per role pair; every repeat must match it byte for byte.
        self.reference: dict[str, bytes] = {}

    def timeline_request(self):
        times = [0.0] + sorted(
            round(self.rng.uniform(1.0, HORIZON), 3) for _ in range(POINTS - 1)
        )
        payload = {
            "space": {"roles": list(ROLES3), "max_replicas": MAX_REPLICAS},
            "options": {"times": times},
        }
        return "/v1/timeline", payload, times

    @staticmethod
    def sweep_request(roles):
        return "/v1/sweep", {"space": {"roles": roles, "max_replicas": MAX_REPLICAS}}, None

    def next_request(self):
        self.sent += 1
        if self.sent % CYCLE == 0:
            return self.sweep_request(self.rng.choice(ROLE_PAIRS))
        return self.timeline_request()

    def send(self, server: Server, request, tally: Tally, record: list) -> None:
        path, payload, times = request
        started = now()
        try:
            status, data, seconds = server.request("POST", path, payload)
        except (OSError, http.client.HTTPException) as exc:
            tally.fail(f"{path}: {type(exc).__name__}: {exc}", now() - started)
            return
        try:
            designs = self.check(path, payload, times, status, data)
        except (OpFailure, ValueError, KeyError) as exc:
            tally.fail(f"{path}: {exc}", seconds)
            return
        tally.record(seconds, designs)
        record.append((path, seconds))

    def check(self, path, payload, times, status, data) -> int:
        if status != 200:
            raise OpFailure(f"status {status}: {data[:200]!r}")
        if path == "/v1/sweep":
            key = ",".join(payload["space"]["roles"])
            reference = self.reference.setdefault(key, data)
            if data != reference:
                raise OpFailure(f"repeated sweep {key} reply differs")
            body = json.loads(data)
            harness.check_sweep_payload(
                body, MAX_REPLICAS ** len(payload["space"]["roles"])
            )
            return body["design_count"]
        body = json.loads(data)
        harness.check_timeline_payload(body, MAX_REPLICAS ** len(ROLES3), POINTS)
        if body["times"] != times:
            raise OpFailure("timeline reply has another time grid")
        return body["design_count"]

    def warm_up(self, server: Server, tally: Tally) -> None:
        """Start the pool, build the shared context, compute every sweep."""
        scratch: list = []
        self.send(server, self.timeline_request(), tally, scratch)
        for roles in ROLE_PAIRS:
            self.send(server, self.sweep_request(roles), tally, scratch)
        self.send(server, self.timeline_request(), tally, scratch)


def start_server(workdir, tag, client: Client, tally: Tally, stats_path=None):
    """A warmed server plus its set-up seconds (spawn to first timed op)."""
    started = now()
    server = Server(workdir, tag, stats_path)
    try:
        warm = Tally()
        client.warm_up(server, warm)
    except BaseException:
        server.kill()
        raise
    tally.merge(warm)
    return server, now() - started


def stop_server(server: Server, tally: Tally) -> None:
    """Graceful SIGTERM stop; anything but exit 0 in the grace is a failed op."""
    code = server.stop()
    if code == 0:
        tally.attempted += 1
    else:
        tally.fail(f"server exit {code} after SIGTERM")


def window(server: Server, client: Client, seconds: float, tally: Tally) -> list:
    """``(path, seconds)`` of each request, ending on a whole cycle."""
    record: list = []
    started = now()
    while now() - started < seconds or client.sent % CYCLE:
        client.send(server, client.next_request(), tally, record)
    return record


def run(seed: int, seconds: float, trace: bool, workdir) -> tuple[Tally, dict]:
    tally = Tally()
    client = Client(seed)
    if trace:
        return tally, traced_run(seed, seconds, workdir, tally)
    setups = []
    for repeat in range(harness.SETUP_REPEATS):
        server, setup_s = start_server(workdir, f"serve-{repeat}", client, tally)
        setups.append(setup_s)
        if repeat < harness.SETUP_REPEATS - 1:
            stop_server(server, tally)
    measured = Tally(CYCLE)
    try:
        window(server, client, seconds, measured)
        rss = harness.tree_peak_rss_mb(server.proc.pid)
    finally:
        stop_server(server, tally)
    metrics = harness.end_to_end(measured, harness.median(setups), rss)
    tally.merge(measured)
    return tally, metrics


def traced_run(seed: int, seconds: float, workdir, tally: Tally) -> dict:
    import startup

    client = Client(seed)
    server, _ = start_server(workdir, "plain", client, tally)
    untraced = Tally(CYCLE)
    try:
        window(server, client, seconds, untraced)
    finally:
        stop_server(server, tally)
    tally.merge(untraced)

    stats_path = workdir / "serve-layers.json"
    client = Client(seed + 1)
    server, _ = start_server(workdir, "traced", client, tally, stats_path)
    traced = Tally(CYCLE)
    try:
        before = server.metrics()
        mark = server.mark(stats_path)
        record = window(server, client, seconds, traced)
        after = server.metrics()
    finally:
        stop_server(server, tally)
    tally.merge(traced)
    try:
        with open(stats_path) as fh:
            final = json.load(fh)
    except OSError:  # the server did not exit cleanly (already a failed op)
        final = mark

    # The server's totals include set-up; only the window counts.
    metrics = layers.layer_metrics(
        layers.merge_snapshots([final, mark], [1, -1]),
        layers.registry_delta(
            layers.registry_totals(before["registry"]),
            layers.registry_totals(after["registry"]),
        ),
        sum(traced.latencies),
    )
    metrics.update(service_metrics(before, after, record))
    metrics.update(startup.import_metrics("serve"))
    metrics["trace.overhead_ratio"] = layers.rate_ratio(traced, untraced)
    return metrics


def service_metrics(before: dict, after: dict, record: list) -> dict:
    """Service-layer numbers from ``/v1/metrics`` deltas and client timings."""

    def counter(name):
        return after["counters"].get(name, 0) - before["counters"].get(name, 0)

    def handled(field):
        return sum(
            after["latency"].get(path, {}).get(field, 0)
            - before["latency"].get(path, {}).get(field, 0)
            for path in ("/sweep", "/timeline")
        )

    registry = layers.registry_delta(
        layers.registry_totals(before["registry"]),
        layers.registry_totals(after["registry"]),
    )
    latencies = sorted(seconds for _, seconds in record)
    n = len(latencies)
    handler_total = handled("total_s")
    cheap = [seconds for path, seconds in record if path == "/v1/sweep"]
    return {
        "service.handler_s": handler_total / max(handled("count"), 1),
        "service.overhead_s": (sum(latencies) - handler_total) / max(n, 1),
        "service.lane_wait_s": (
            registry.get("lane_wait_sum", 0.0)
            / max(registry.get("lane_wait_count", 0.0), 1)
        ),
        "service.computed": counter("computed"),
        "service.response_cache_hits": counter("response_cache_hits"),
        "service.dedup_hits": counter("dedup_hits"),
        "service.cheap_p50_s": harness.median(cheap),
        "service.request_tail_s": (
            latencies[max(n - TAIL_BEYOND - 1, 0)] if latencies else 0.0
        ),
        "service.request_tail_n": n,
    }

"""``serve``: one served query, socket to socket.

Set-up writes 32 generated sessions of varied size as trace-bin files
(the same for every seed; the seed drives the request stream) and
starts ``python -m repro serve --batch <dir> --listen 127.0.0.1:0``
with its default configuration.  Client and server are pinned to one
CPU, and a fresh server takes over the load every ``ROTATE_S`` seconds
of the run.  The load is one client on one TCP connection at a time
(a blocking socket and ``readline``) running a closed loop
with 16 request lines in flight.  90% of requests come from a hot set of
32 sessions x 5 backends x 2 windows (320 keys, inside the default
512-entry LRU with headroom); the other 10% use one-off windows that
always miss.  Protocol decode/encode, the transport, the executor hop
and the service lock, and LRU hits do most of the work; the analyzer
sees only the misses and the simulator nothing.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from tracing import Tracer

SESSIONS = 32
WINDOWS = 2
IN_FLIGHT = 16
#: Each block of this many requests holds ONE_OFFS one-off misses at
#: seeded positions, so every seed has exactly a 10% miss share.
BLOCK, ONE_OFFS = 20, 2
#: Requests whose hot/one-off split the determinism guard re-derives.
GUARD_REQUESTS = 4096
#: One response in this many is kept and compared byte for byte with
#: the in-process service after the run (at most MAX_SAMPLES).
SAMPLE_EVERY, MAX_SAMPLES = 64, 400
#: Lines per traced slice whose protocol decode/encode is timed.
PROTOCOL_LINES = 64
#: Generated session sizes (log-uniform): misses stay cheap enough that
#: the transport, not the analyzer, dominates.
MIN_OPS, MAX_OPS = 40, 400
#: Seconds of load each server process takes before a fresh one takes
#: over.  Server processes started alike still differ in speed by about
#: +-4% for their whole life (probes on a 2-vCPU VM); the ten or so that
#: take turns in a 30-second run average most of that out.  A start and
#: warm-up take about 0.7 s, untimed but inside the run's seconds.
ROTATE_S = 2.5
START_TIMEOUT_S = 120.0
STOP_TIMEOUT_S = 30.0


class ServerProcess:
    """``python -m repro serve --listen`` as a child process."""

    def __init__(self, root: Path, batch: Path) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(root / "src")
        self.lines: List[str] = []
        self._ready = threading.Event()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--batch", str(batch),
             "--listen", "127.0.0.1:0"],
            cwd=str(root),
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
        )
        self._reader = threading.Thread(target=self._read_stderr, daemon=True)
        self._reader.start()

    def _read_stderr(self) -> None:
        assert self.proc.stderr is not None
        for raw in self.proc.stderr:
            line = raw.decode("utf-8", "replace").rstrip("\n")
            self.lines.append(line)
            if line.startswith("listening on "):
                self._ready.set()
        self._ready.set()  # EOF: the server died before (or after) listening

    def address(self) -> Tuple[str, int]:
        """Block until the server's own ``listening on HOST:PORT`` line."""
        self._ready.wait(START_TIMEOUT_S)
        for line in self.lines:
            if line.startswith("listening on "):
                host, _, port = line[len("listening on "):].rpartition(":")
                return host, int(port)
        self.stop()
        raise RuntimeError("server did not start: " + " | ".join(self.lines[-5:]))

    def stop(self) -> Optional[Dict[str, int]]:
        """SIGINT (graceful: in-flight responses flush), then the final NetStats."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._reader.join(STOP_TIMEOUT_S)
        for line in self.lines:
            if line.startswith("net stats: "):
                return json.loads(line[len("net stats: "):])
        return None


class ServeWorkload:
    """The client side; ``inject`` is accepted for the common interface
    but ignored, since every call serve makes runs in the server."""

    name = "serve"
    warmup_s = 2
    setups = 3
    #: Metrics are medians over windows of at least this many requests,
    #: so each window has 10 beyond its p90; a slice holds about 200.
    window_ops = 100

    def __init__(self, seed: int, tracer: Tracer, inject: bool, work: Path, root: Path) -> None:
        from repro.reports.request import BACKENDS

        self.seed = seed
        self.tracer = tracer
        self.work = work
        self.root = root
        self.backends = BACKENDS
        self.builds = 0
        self.server: Optional[ServerProcess] = None
        self.sock: Optional[socket.socket] = None
        self.requests = self._counted(self._stream(random.Random(f"serve-stream:{seed}")))
        self.sampler = random.Random(f"serve-sample:{seed}")
        self.next_id = 1
        self.sent = 0  # every request line sent to the current server
        self.serving_since = 0.0  # when the current server took the load
        self.failed = 0
        self.problems: List[str] = []
        self.split = [0, 0]  # hot, one-off among the first GUARD_REQUESTS
        self.samples: List[Tuple[Dict[str, object], bytes]] = []
        self.answered = 0
        self.cached = 0
        self.net_stats: Dict[str, int] = {}  # summed over every server stopped
        self.traced: List[Tuple[bytes, bytes, float, float]] = []  # this slice's
        self.hot: List[Dict[str, object]] = []
        self.captured_at: Dict[str, float] = {}

    # -- set-up ------------------------------------------------------------------
    def build(self):
        """Write the sessions, start the server, warm the hot set."""
        pin_to_one_cpu()
        from repro.check.generator import generate_scenario
        from repro.check.runner import ScenarioExecutor
        from repro.offline import capture_trace

        self.builds += 1
        batch = self.work / f"serve-sessions-{self.builds}"
        shutil.rmtree(batch, ignore_errors=True)
        batch.mkdir(parents=True)
        self.batch = batch
        rng = random.Random("serve-sessions")
        for j in range(SESSIONS):
            size = int(round(MIN_OPS * (MAX_OPS / MIN_OPS) ** ((j + rng.random()) / SESSIONS)))
            executor = ScenarioExecutor(generate_scenario(rng.randrange(1 << 30), ops=size))
            executor.run()
            trace = capture_trace(executor.system, executor.ea)
            name = f"s{j:02d}"
            trace.save(batch / f"{name}.bin")
            self.captured_at[name] = trace.captured_at
            yield
        self.hot = [
            {"session": name, "backend": backend, "start": round(w * 0.5 * at, 3)}
            for name, at in sorted(self.captured_at.items())
            for backend in self.backends
            for w in range(WINDOWS)
        ]
        self._start_server()

    def _start_server(self) -> None:
        """A fresh server on the written sessions, connected, its hot set warm."""
        self.server = ServerProcess(self.root, self.batch)
        address = self.server.address()
        self.sock = socket.create_connection(address)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.rfile = self.sock.makefile("rb")
        self.sent = 0
        warm = list(self.hot) + [
            self._one_off(name, backend, 0.5)
            for name in sorted(self.captured_at)[:IN_FLIGHT]
            for backend in self.backends
        ]
        self._pipeline(iter(warm), timed=False)
        self.serving_since = time.perf_counter()

    def _stop_server(self) -> None:
        """Stop the current server and check its final NetStats.

        Every request line sent to it must be answered, and its counters
        must add up (received = answered + errors + shed).
        """
        if self.sock is not None:
            self.rfile.close()
            self.sock.close()
            self.sock = None
        if self.server is None:
            return
        stats = self.server.stop()
        self.server = None
        if stats is None:
            self.failed += 1
            self.problems.append("server printed no final net stats")
            return
        if stats["received"] != stats["answered"] + stats["errors"] + stats["shed"]:
            self.problems.append(f"net stats do not add up: {stats}")
            self.failed += 1
        if stats["answered"] != self.sent:
            self.problems.append(f"sent {self.sent} requests, server answered {stats['answered']}")
            self.failed += 1
        for key in ("received", "answered", "shed", "errors"):
            self.net_stats[key] = self.net_stats.get(key, 0) + stats[key]

    def close(self) -> None:
        self._stop_server()

    # -- the request stream ------------------------------------------------------
    def _one_off(self, name: str, backend: str, u: float) -> Dict[str, object]:
        """A window on ``name`` that no other request uses: always a miss."""
        start = round(u * 0.25 * self.captured_at[name], 6) + self.next_id * 1e-9
        return {"session": name, "backend": backend, "start": start}

    def _stream(self, rng: random.Random):
        """The timed request stream: endless, seeded, exactly 10% one-offs.

        Hot keys and one-off (session, backend) targets are each dealt
        from a shuffled deck, so every seed has the same mix of costs
        in a different order.  Yields ``(query, is_one_off)``.
        """
        hot: List[Dict[str, object]] = []
        targets: List[Tuple[str, str]] = []
        while True:
            one_offs = set(rng.sample(range(BLOCK), ONE_OFFS))
            for position in range(BLOCK):
                if position in one_offs:
                    if not targets:
                        targets = [(n, b) for n in sorted(self.captured_at) for b in self.backends]
                        rng.shuffle(targets)
                    yield self._one_off(*targets.pop(), rng.random()), 1
                else:
                    if not hot:
                        hot = list(self.hot)
                        rng.shuffle(hot)
                    yield hot.pop(), 0

    # -- the closed loop -----------------------------------------------------------
    def _pipeline(self, queries, timed: bool, budget_s: float = 0.0):
        """Keep IN_FLIGHT requests outstanding until ``queries`` or the budget ends.

        Returns per-request latencies (ms) and the loop's wall time (s).
        """
        sock, rfile = self.sock, self.rfile
        inflight: Dict[int, Tuple[float, bytes, Dict[str, object]]] = {}
        latencies: List[float] = []
        tracing = self.tracer.enabled
        started = time.perf_counter()
        open_ = True

        def send() -> bool:
            try:
                query = next(queries)
            except StopIteration:
                return False
            qid = self.next_id
            self.next_id += 1
            line = (
                '{"id": %d, "session": "%s", "backend": "%s", "start": %r}\n'
                % (qid, query["session"], query["backend"], query["start"])
            ).encode()
            inflight[qid] = (time.perf_counter(), line, query)
            sock.sendall(line)
            self.sent += 1
            return True

        for _ in range(IN_FLIGHT):
            if not send():
                open_ = False
                break
        while inflight:
            line = rfile.readline()
            now = time.perf_counter()
            if not line:
                raise RuntimeError("server closed the connection")
            head = _head(line)
            entry = inflight.pop(head.get("id"), None)
            if entry is None:
                self.failed += 1
                self.problems.append(f"unexpected or repeated response id {head.get('id')!r}")
                continue
            sent_at, request_line, query = entry
            latencies.append((now - sent_at) * 1e3)
            ok = head.get("status") == "ok"
            if not ok:
                self.failed += 1
                self.problems.append(f"request {head.get('id')}: {head.get('status')} {head.get('error')}")
            if timed:
                if ok:
                    self.answered += 1
                    self.cached += bool(head.get("cached"))
                if ok and len(self.samples) < MAX_SAMPLES and self.sampler.randrange(SAMPLE_EVERY) == 0:
                    self.samples.append((query, line))
                if tracing:
                    self.traced.append((request_line, line, sent_at, now))
            if open_ and (not timed or now - started < budget_s):
                open_ = send()
            elif timed:
                open_ = False
        return latencies, time.perf_counter() - started

    def run_slice(self, budget_s: float, tracing: bool):
        latencies, busy = self._pipeline(self.requests, timed=True, budget_s=budget_s)
        if tracing:
            self._trace_slice()
        return latencies, busy

    def _counted(self, stream):
        """Pass queries through, tallying the split of the guarded prefix."""
        for query, one_off in stream:
            if sum(self.split) < GUARD_REQUESTS:
                self.split[one_off] += 1
            yield query

    def _trace_slice(self) -> None:
        """Spans for the slice's requests, then the protocol layer's own cost."""
        from repro.serve import QueryResponse, decode_request_line

        tracer = self.tracer
        for request_line, line, sent_at, received_at in self.traced:
            head = _head(line)
            service_s = float(head.get("latency_us", 0.0)) / 1e6
            tracer.add(
                "net.rtt", sent_at, received_at, tid=int(head["id"]) % IN_FLIGHT + 1,
                cached=bool(head.get("cached")), service_us=service_s * 1e6,
            )
        for request_line, line, *_ in self.traced[:PROTOCOL_LINES]:
            with tracer.span("protocol.decode_us"):
                decode_request_line(request_line.decode("utf-8").strip())
            data = json.loads(line)
            with tracer.span("protocol.encode_us"):
                json.dumps(QueryResponse.from_dict(data).to_dict())
        self.traced.clear()

    def after_slice(self) -> bool:
        """Hand the load to a fresh server every ROTATE_S seconds."""
        if time.perf_counter() - self.serving_since < ROTATE_S:
            return False
        self._stop_server()
        self._start_server()
        return True

    # -- wrap-up -------------------------------------------------------------------
    def finish(self) -> None:
        """Stop the server, then check sampled payloads against the in-process path."""
        self._stop_server()
        from repro.serve import ProfilingService, QueryRequest

        service = ProfilingService()
        service.ingest(self.batch)
        for query, line in self.samples:
            expected = service.submit(QueryRequest.from_dict(dict(query, id=0)))
            wire = json.dumps(json.loads(line)["report"])
            if not expected.ok or json.dumps(expected.report) != wire:
                self.failed += 1
                self.problems.append(f"served payload differs from in-process for {query}")

    def guard(self) -> List[str]:
        """The stream's hot/one-off split must re-derive exactly from the seed."""
        again = [0, 0]
        stream = self._stream(random.Random(f"serve-stream:{self.seed}"))
        for _ in range(sum(self.split)):
            again[next(stream)[1]] += 1
        if again != self.split:
            return [f"serve hot/one-off split {self.split} then {again}"]
        return []

    def counts(self) -> Dict[str, float]:
        stats = self.net_stats
        return {
            "serve.hot_requests": float(self.split[0]),
            "serve.oneoff_requests": float(self.split[1]),
            "serve.answered": float(self.answered),
            "serve.cache_hit_ratio": self.cached / max(1, self.answered),
            "serve.checked": float(len(self.samples)),
            "net.received": float(stats.get("received", 0)),
            "net.answered": float(stats.get("answered", 0)),
            "net.shed": float(stats.get("shed", 0)),
            "net.errors": float(stats.get("errors", 0)),
        }

    def layers(self) -> Dict[str, float]:
        rtt, overhead = [], []
        service = {True: [], False: []}
        for record in self.tracer.spans:
            if record.name != "net.rtt":
                continue
            # The server's own timing, scaled by the same slice factor.
            factor = record.norm_s / record.raw_s if record.raw_s > 0 else 1.0
            service_us = float(record.args["service_us"]) * factor
            rtt.append(record.norm_s * 1e6)
            overhead.append(record.norm_s * 1e6 - service_us)
            service[bool(record.args["cached"])].append(service_us)
        return {
            "net.rtt_us": _mean(rtt),
            "net.overhead_us": _mean(overhead),
            "serve.service_us.hit": _mean(service[True]),
            "serve.service_us.miss": _mean(service[False]),
            "protocol.decode_us": self.tracer.mean_ms("protocol.decode_us") * 1e3,
            "protocol.encode_us": self.tracer.mean_ms("protocol.encode_us") * 1e3,
        }


def pin_to_one_cpu() -> None:
    """Pin this process, and the server it will start, to one CPU.

    Client and server then take turns on that CPU instead of waking each
    other across CPUs, whose cost depends on what else the host runs;
    the yardstick, run here, reads the speed of the CPU both use.  The
    last allowed CPU is chosen because CPU 0 usually takes the most
    device interrupts.
    """
    try:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    except (AttributeError, OSError) as exc:
        print(f"perfbench: serve runs unpinned ({exc})", file=sys.stderr)


def _head(line: bytes) -> Dict[str, object]:
    """A response's fields before its (possibly large) report payload."""
    cut = line.find(b', "report": ')
    if line.startswith(b'{"id": ') and cut > 0:
        return json.loads(line[:cut] + b"}")
    return json.loads(line)


def _mean(values: List[float]) -> float:
    return sum(values) / len(values) if values else 0.0

"""The ``serve_open_loop`` workload: a single-threaded load generator.

A spawned child process runs a :class:`repro.serve.Gateway` over a
:class:`repro.serve.PolicyServer` (benchmark code: :func:`child_main`).
The benchmark process opens ``SESSIONS`` sessions of ``USERS`` users over
``CONNECTIONS`` sockets (session ``s`` on connection ``s % CONNECTIONS``)
and drives them from one thread with the ``repro.serve.protocol`` frame
codec, pipelining requests on each connection with at most one request
in flight per session:

- phase A, open loop: Poisson arrivals at ``RATE`` requests/s, arrival
  ``k`` for session ``k % SESSIONS``; each request is timed from when it
  was due, so a stall also delays every request queued behind it;
- phase B, closed loop: every session always has a request in flight;
  completed requests per second is the capacity.

The inter-arrival times come from ``numpy.random.default_rng([seed, 11])``
and session ``s``'s observations from ``default_rng([seed, 7, s])``, so two
commits receive the identical request sequence. Afterwards every
session's served actions must match, bit for bit, a solo in-process
replay of the session against the same policy.
"""

from __future__ import annotations

import multiprocessing as mp
import resource
import selectors
import socket
import statistics
import time
from collections import deque
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from .stats import (
    covered,
    failed_ratio,
    is_failure,
    open_loop_timings,
    percentile,
    with_failures,
)
from .training import Outcome

SESSIONS = 64
USERS = 3
CONNECTIONS = 2
STATE_DIM = 4   # slate scenario observation width
ACTION_DIM = 5  # slate scenario slate size
RATE = 300.0
PHASE_A_SHARE = 0.6
#: Floors on the phase lengths, so p99 always has >= 10 samples beyond it.
MIN_PHASE_A_S = 4.0
MIN_PHASE_B_S = 2.0
SETUP_REPEATS = 5
#: Phase A is invalid (not slow) when the generator itself runs later
#: than this at its 99th percentile.
LATENESS_BOUND_MS = 10.0
#: A request with no reply this long after its phase ends counts as failed.
GRACE_S = 5.0
TRACER_CAPACITY = 400_000


def make_policy(seed: int):
    from repro.core import build_sim2rec_policy, scenario_small_config

    return build_sim2rec_policy(STATE_DIM, ACTION_DIM, scenario_small_config(seed=seed))


def session_seed(seed: int, session: int) -> int:
    return seed * 1000 + session


# ----------------------------------------------------------------------
# the child: gateway + policy server
# ----------------------------------------------------------------------
def child_main(conn, seed: int, traced: bool) -> None:
    """Serve until told to stop; send back metrics, spans and peak RSS."""
    from repro.obs import Tracer
    from repro.serve import Gateway, GatewayConfig, PolicyServer, ServeConfig
    import repro.serve.protocol as protocol

    tracer = Tracer(capacity=TRACER_CAPACITY) if traced else None
    if traced:
        # Protocol calls inside the gateway's connection threads, keyed
        # by the trace id the message carries.
        unpack, pack = protocol.unpack_frame, protocol.pack_frame

        def traced_unpack(body):
            start = time.monotonic()
            message = unpack(body)
            if isinstance(message, dict) and message.get("trace"):
                tracer.record("gateway.decode", message["trace"], start, time.monotonic() - start)
            return message

        def traced_pack(message):
            start = time.monotonic()
            frame = pack(message)
            if isinstance(message, dict) and message.get("trace"):
                tracer.record("gateway.encode", message["trace"], start, time.monotonic() - start)
            return frame

        protocol.unpack_frame, protocol.pack_frame = traced_unpack, traced_pack
    server = PolicyServer(make_policy(seed), ServeConfig(), tracer=tracer)
    gateway = Gateway(server, GatewayConfig(max_pending=SESSIONS))
    gateway.start()
    conn.send(("ready", gateway.address))
    conn.recv()  # stop
    snapshot = gateway.metrics.snapshot()
    spans = []
    if traced:
        spans = [(s.name, s.trace_id, s.start_s, s.duration_s) for s in gateway.tracer.spans()]
    gateway.close()
    conn.send(("done", snapshot, spans, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss))
    conn.close()


class Child:
    """A running gateway child and the generator's sockets to it."""

    def __init__(self, seed: int, traced: bool):
        context = mp.get_context("spawn")
        self.conn, child_conn = context.Pipe()
        self.process = context.Process(target=child_main, args=(child_conn, seed, traced))
        self.process.start()
        child_conn.close()
        self.socks: List[socket.socket] = []
        self.session_ids: List[str] = []
        self.result: Optional[Tuple[Dict, List, float]] = None
        try:
            if not self.conn.poll(60.0):
                raise RuntimeError("gateway child did not start")
            _, self.address = self.conn.recv()
            for _ in range(CONNECTIONS):
                self.socks.append(socket.create_connection(self.address))
            self.open_sessions(seed)
        except BaseException:
            self.stop()
            raise

    def open_sessions(self, seed: int) -> None:
        from repro.serve.protocol import FrameReader, pack_frame

        for sock in self.socks:
            sock.settimeout(30.0)
        for s in range(SESSIONS):
            message = {"op": "open", "num_users": USERS, "seed": session_seed(seed, s)}
            self.socks[s % CONNECTIONS].sendall(pack_frame(message))
        replies: List[deque] = []
        for index, sock in enumerate(self.socks):
            reader, got = FrameReader(), deque()
            want = len(range(index, SESSIONS, CONNECTIONS))
            while len(got) < want:
                chunk = sock.recv(65536)
                if not chunk:
                    raise RuntimeError("gateway closed a connection while opening sessions")
                got.extend(reader.feed(chunk))
            replies.append(got)
        for s in range(SESSIONS):
            reply = replies[s % CONNECTIONS].popleft()
            if not reply.get("ok"):
                raise RuntimeError(f"session open refused: {reply}")
            self.session_ids.append(reply["session"])

    def stop(self) -> Tuple[Dict, List, float]:
        """Close the sockets, stop the child, wait for it; return its results."""
        if self.result is not None:
            return self.result
        self.result = ({}, [], 0.0)
        for sock in self.socks:
            sock.close()
        try:
            self.conn.send("stop")
            if self.conn.poll(60.0):
                _, snapshot, spans, rss_kb = self.conn.recv()
                self.result = (snapshot, spans, rss_kb / 1024.0)
        except (OSError, EOFError):
            pass
        self.process.join(30.0)
        if self.process.is_alive():
            self.process.terminate()
            self.process.join()
        self.conn.close()
        return self.result


# ----------------------------------------------------------------------
# the generator
# ----------------------------------------------------------------------
class Request:
    """One act request's client-side timestamps (``time.monotonic``) and reply."""

    __slots__ = ("session", "phase", "due", "enc_start", "enc_end", "written",
                 "read", "decoded", "reply")

    def __init__(self, session: int, phase: str, due: float):
        self.session, self.phase, self.due = session, phase, due
        self.enc_start = self.enc_end = self.written = self.read = self.decoded = None
        self.reply: Optional[Dict[str, Any]] = None


class Generator:
    """One thread, ``CONNECTIONS`` non-blocking sockets, pipelined frames."""

    def __init__(self, child: Child, seed: int):
        from repro.serve.protocol import FrameReader, pack_frame

        self.pack = pack_frame
        self.ids = child.session_ids
        self.socks = child.socks
        self.readers = [FrameReader() for _ in self.socks]
        self.out = [bytearray() for _ in self.socks]
        self.unsent: List[deque] = [deque() for _ in self.socks]  # (end offset, request)
        self.sent_bytes = [0] * len(self.socks)
        self.selector = selectors.DefaultSelector()
        for index, sock in enumerate(self.socks):
            sock.setblocking(False)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self.selector.register(sock, selectors.EVENT_READ, index)
        self.obs_rngs = [np.random.default_rng([seed, 7, s]) for s in range(SESSIONS)]
        self.obs: List[List[np.ndarray]] = [[] for _ in range(SESSIONS)]
        self.actions: List[List[np.ndarray]] = [[] for _ in range(SESSIONS)]
        self.busy = [False] * SESSIONS
        self.backlog: List[deque] = [deque() for _ in range(SESSIONS)]
        self.requests: Dict[str, Request] = {}
        self.in_flight = 0
        self.transport_error: Optional[str] = None
        self.on_reply = None

    def send(self, session: int, due: float, phase: str) -> None:
        step = len(self.obs[session])
        obs = self.obs_rngs[session].random((USERS, STATE_DIM))
        self.obs[session].append(obs)
        request = Request(session, phase, due)
        trace = f"{session}-{step}"
        self.requests[trace] = request
        self.busy[session] = True
        self.in_flight += 1
        request.enc_start = time.monotonic()
        frame = self.pack({"op": "act", "session": self.ids[session], "obs": obs, "trace": trace})
        request.enc_end = time.monotonic()
        index = session % CONNECTIONS
        self.out[index].extend(frame)
        self.unsent[index].append((self.sent_bytes[index] + len(self.out[index]), request))
        self.flush(index)

    def flush(self, index: int) -> None:
        buffer = self.out[index]
        if buffer:
            try:
                sent = self.socks[index].send(buffer)
            except BlockingIOError:
                sent = 0
            except OSError as error:
                self.transport_error = repr(error)
                return
            del buffer[:sent]
            self.sent_bytes[index] += sent
            now = time.monotonic()
            queue = self.unsent[index]
            while queue and queue[0][0] <= self.sent_bytes[index]:
                queue.popleft()[1].written = now
        events = selectors.EVENT_READ | (selectors.EVENT_WRITE if buffer else 0)
        self.selector.modify(self.socks[index], events, index)

    def poll(self, timeout: float) -> None:
        for key, mask in self.selector.select(max(timeout, 0.0)):
            index = key.data
            if mask & selectors.EVENT_WRITE:
                self.flush(index)
            if mask & selectors.EVENT_READ:
                try:
                    chunk = self.socks[index].recv(1 << 16)
                except BlockingIOError:
                    continue
                except OSError as error:
                    chunk, self.transport_error = b"", repr(error)
                if not chunk:
                    self.transport_error = self.transport_error or "gateway closed a connection"
                    return
                read = time.monotonic()
                messages = self.readers[index].feed(chunk)
                decoded = time.monotonic()
                for message in messages:
                    self.receive(message, read, decoded)

    def receive(self, message: Dict[str, Any], read: float, decoded: float) -> None:
        request = self.requests.get(message.get("trace"))
        if request is None or request.reply is not None:
            self.transport_error = f"reply matches no request: {message.get('trace')!r}"
            return
        request.read, request.decoded, request.reply = read, decoded, message
        self.in_flight -= 1
        session = request.session
        self.busy[session] = False
        if message.get("ok"):
            self.actions[session].append(message["actions"])
        if self.on_reply is not None:
            self.on_reply(session, decoded)
        elif self.backlog[session]:
            self.send(session, self.backlog[session].popleft(), request.phase)

    def phase_a(self, seed: int, duration: float) -> Dict[str, Any]:
        """Open loop: send each Poisson arrival when due (or when its session frees)."""
        rng = np.random.default_rng([seed, 11])
        offsets, now = [], 0.0
        while True:
            now += rng.exponential(1.0 / RATE)
            if now >= duration:
                break
            offsets.append(now)
        lateness: List[float] = []
        start = time.monotonic()
        next_index = 0
        deadline = start + duration + GRACE_S
        while (next_index < len(offsets) or self.in_flight) and not self.transport_error:
            now = time.monotonic()
            if now > deadline:
                break
            while next_index < len(offsets) and start + offsets[next_index] <= now:
                due = start + offsets[next_index]
                session = next_index % SESSIONS
                lateness.append(now - due)
                if self.busy[session]:
                    self.backlog[session].append(due)
                else:
                    self.send(session, due, "A")
                next_index += 1
            wait = start + offsets[next_index] - time.monotonic() if next_index < len(offsets) else 0.05
            self.poll(wait)
        return {"start": start, "duration": duration, "offered": len(offsets),
                "lateness": lateness}

    def phase_b(self, duration: float) -> Dict[str, Any]:
        """Closed loop: every session re-sends as soon as its reply lands."""
        start = time.monotonic()
        stop_at = start + duration
        completed, last = [0], [start]

        def on_reply(session: int, when: float) -> None:
            if when <= stop_at:
                completed[0] += 1
                last[0] = when
                self.send(session, when, "B")

        self.on_reply = on_reply
        for session in range(SESSIONS):
            self.send(session, start, "B")
        deadline = stop_at + GRACE_S
        while self.in_flight and not self.transport_error and time.monotonic() < deadline:
            self.poll(0.05)
        self.on_reply = None
        return {"completed": completed[0], "duration": last[0] - start}


def drive(child: Child, seed: int, seconds: float) -> Tuple[Generator, Dict, Dict]:
    generator = Generator(child, seed)
    phase_a = generator.phase_a(seed, max(seconds * PHASE_A_SHARE, MIN_PHASE_A_S))
    phase_b = generator.phase_b(max(seconds * (1.0 - PHASE_A_SHARE), MIN_PHASE_B_S))
    return generator, phase_a, phase_b


def replay(seed: int, generators: List[Generator]) -> Optional[str]:
    """Compare every served action stream with a solo in-process replay."""
    policy = make_policy(seed)
    for s in range(SESSIONS):
        steps = max(len(g.obs[s]) for g in generators)
        obs_stream = next(g.obs[s] for g in generators if len(g.obs[s]) == steps)
        rng = np.random.default_rng(session_seed(seed, s))
        policy.start_rollout(USERS)
        prev = np.zeros((USERS, ACTION_DIM))
        expected = []
        for obs in obs_stream:
            actions, _, _ = policy.act(obs, prev, rng)
            prev = actions
            expected.append(actions.tobytes())
        for g in generators:
            served = [a.tobytes() for a in g.actions[s]]
            if served != expected[: len(served)] or len(served) != len(g.obs[s]):
                return f"session {s}: served actions differ from the solo replay"
    return None


def latency_figures(generator: Generator, phase_a: Dict, phase_b: Dict) -> Dict[str, Any]:
    requests = [r for r in generator.requests.values() if r.phase == "A"]
    # An arrival never sent (the phase was cut short) counts as failed too.
    outcomes = [r.reply for r in requests] + [None] * (phase_a["offered"] - len(requests))
    answered = [r for r in requests if not is_failure(r.reply)]
    failed = len(outcomes) - len(answered)
    timings = [open_loop_timings(r.due, r.written, r.decoded) for r in answered]
    latencies_ms = with_failures([t[0] * 1000.0 for t in timings], failed)
    replied = [r.decoded for r in answered]
    span = (max(replied) - phase_a["start"]) if replied else phase_a["duration"]
    return {
        "latency_ms_p50": percentile(latencies_ms, 50.0),
        "latency_ms_tail": percentile(latencies_ms, 99.0),
        "capacity_rps": phase_b["completed"] / phase_b["duration"],
        "requests_a": len(latencies_ms),
        "failed_a": failed,
        "failed_ratio_a": failed_ratio(outcomes),
        "gen.queue_ms_p99": percentile([t[1] * 1000.0 for t in timings], 99.0),
        "gen.lateness_ms_p99": percentile(
            [x * 1000.0 for x in phase_a["lateness"]], 99.0, min_beyond=1
        ),
        "gen.offered_rps": phase_a["offered"] / phase_a["duration"],
        "gen.achieved_rps": len(answered) / span,
    }


def trace_figures(generator: Generator, spans: List, snapshot: Dict) -> Dict[str, float]:
    """Per-layer figures of the traced pass (phase A requests)."""
    by_trace: Dict[str, Dict[str, Tuple[float, float]]] = {}
    for name, trace, start, duration in spans:
        by_trace.setdefault(trace, {})[name] = (start, start + duration)
    encode, decode, wire, gw_decode, gw_encode = [], [], [], [], []
    gateway_ms, queue_ms, compute_ms = [], [], []
    total = gap = 0.0
    for trace, r in generator.requests.items():
        if r.phase != "A" or is_failure(r.reply) or trace not in by_trace:
            continue
        server = by_trace[trace]
        parts = [(r.due, r.enc_start), (r.enc_start, r.enc_end), (r.enc_end, r.written),
                 (r.read, r.decoded)] + [server[k] for k in
                                         ("gateway.decode", "gateway.act", "gateway.encode")
                                         if k in server]
        total += r.decoded - r.due
        gap += (r.decoded - r.due) - covered((r.due, r.decoded), parts)
        in_gateway = covered((r.written, r.read), [server[k] for k in server
                                                   if k.startswith("gateway.")])
        wire.append((r.read - r.written - in_gateway) * 1000.0)
        encode.append((r.enc_end - r.enc_start) * 1e6)
        decode.append((r.decoded - r.read) * 1e6)
        for name, out, scale in (("gateway.act", gateway_ms, 1e3),
                                 ("serve.queue_wait", queue_ms, 1e3),
                                 ("serve.compute", compute_ms, 1e3),
                                 ("gateway.decode", gw_decode, 1e6),
                                 ("gateway.encode", gw_encode, 1e6)):
            if name in server:
                out.append((server[name][1] - server[name][0]) * scale)

    def registry_sum(name: str, field: str = "value") -> float:
        family = snapshot.get(name) or {"series": []}
        return float(sum(series[field] for series in family["series"]))

    def pct(values: List[float], q: float) -> float:
        return percentile(values, q, min_beyond=1) if values else 0.0

    batches = registry_sum("serve_batches_total")
    return {
        "client.encode_us": pct(encode, 50.0),
        "client.decode_us": pct(decode, 50.0),
        "gateway.decode_us": pct(gw_decode, 50.0),
        "gateway.encode_us": pct(gw_encode, 50.0),
        "gateway.request_ms_p50": pct(gateway_ms, 50.0),
        "gateway.request_ms_p99": pct(gateway_ms, 99.0),
        "server.queue_wait_ms_p50": pct(queue_ms, 50.0),
        "server.queue_wait_ms_p99": pct(queue_ms, 99.0),
        "server.compute_ms_p50": pct(compute_ms, 50.0),
        "server.compute_ms_p99": pct(compute_ms, 99.0),
        "server.batch_rows_mean": registry_sum("serve_batch_rows", "sum") / max(batches, 1.0),
        "server.batches": batches,
        "wire_ms_p50": pct(wire, 50.0),
        "wire_ms_p99": pct(wire, 99.0),
        "gateway.failures": registry_sum("gateway_failures_total"),
        "unattributed_frac": gap / total if total > 0 else 0.0,
    }


def run_pass(seed: int, seconds: float, traced: bool):
    """Spawn a child with its sessions, drive both phases, stop the child."""
    child = Child(seed, traced)
    try:
        generator, phase_a, phase_b = drive(child, seed, seconds)
    finally:
        snapshot, spans, rss_mb = child.stop()
    return generator, phase_a, phase_b, snapshot, spans, rss_mb


def tally(generator: Generator, phase_a: Dict, phase_b: Dict) -> Tuple[Dict, int, int]:
    """Latency figures, requests attempted and requests failed over both phases."""
    figures = latency_figures(generator, phase_a, phase_b)
    closed = [r for r in generator.requests.values() if r.phase == "B"]
    attempted = phase_a["offered"] + len(closed)
    failed = figures["failed_a"] + sum(is_failure(r.reply) for r in closed)
    failed += generator.transport_error is not None
    return figures, attempted, failed


def serve_open_loop(seed: int, seconds: float, trace: bool) -> Outcome:
    setup_times = []
    for repeat in range(SETUP_REPEATS):
        start = time.perf_counter()
        child = Child(seed, False)
        setup_times.append(time.perf_counter() - start)
        if repeat < SETUP_REPEATS - 1:
            child.stop()
    pass_seconds = seconds / 2 if trace else seconds
    try:
        generator, phase_a, phase_b = drive(child, seed, pass_seconds)
    finally:
        _, _, rss_mb = child.stop()
    figures, attempted, failed = tally(generator, phase_a, phase_b)
    outcome = Outcome(True, attempted, failed, report={
        "sessions": SESSIONS, "users_per_session": USERS, "connections": CONNECTIONS,
        "session_connection": f"session s -> connection s % {CONNECTIONS}",
        "poisson_seed": [seed, 11], "rate_rps": RATE,
        "phase_a_s": phase_a["duration"],
        "phase_b_s": phase_b["duration"],
        "requests_a": figures["requests_a"],
        "failed_ratio_a": figures["failed_ratio_a"],
        "offered_rps": figures["gen.offered_rps"],
        "achieved_rps": figures["gen.achieved_rps"],
        "lateness_ms_p99": figures["gen.lateness_ms_p99"],
        "transport_error": generator.transport_error,
    })
    generators, passes = [generator], [figures]
    if trace and not failed:
        traced, traced_a, traced_b, snapshot, spans, _ = run_pass(seed, pass_seconds, True)
        traced_figures, traced_attempted, traced_failed = tally(traced, traced_a, traced_b)
        outcome.attempted += traced_attempted
        outcome.failed += traced_failed
        generators.append(traced)
        passes.append(traced_figures)
    if outcome.failed:
        return outcome
    for lateness in (p["gen.lateness_ms_p99"] for p in passes):
        if lateness > LATENESS_BOUND_MS:
            outcome.correct = False
            outcome.error = (f"phase A invalid: generator lateness p99 {lateness:.2f} ms "
                             f"> {LATENESS_BOUND_MS} ms")
            return outcome
    mismatch = replay(seed, generators)
    if mismatch:
        return Outcome(False, error=mismatch)
    if not trace:
        outcome.values = {
            "setup_s": statistics.median(setup_times),
            "latency_ms_p50": figures["latency_ms_p50"],
            "latency_ms_tail": figures["latency_ms_tail"],
            "user_steps_per_s": figures["capacity_rps"] * USERS,
            "peak_rss_mb": rss_mb,
        }
        return outcome
    values = trace_figures(traced, spans, snapshot)
    for name in ("gen.queue_ms_p99", "gen.lateness_ms_p99", "gen.offered_rps", "gen.achieved_rps"):
        values[name] = traced_figures[name]
    values["trace.overhead_frac"] = (
        traced_figures["latency_ms_p50"] / figures["latency_ms_p50"] - 1.0
    )
    outcome.values = values
    outcome.spans = [list(span) for span in spans]
    return outcome

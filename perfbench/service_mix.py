"""The ``service-mix`` workload: a closed loop against a ``repro-serve`` process.

One episode = two lives of one server over one fresh store directory:

* life 1 boots the server, then runs ``ROUNDS`` rounds.  A round sends the
  hot set (estimate/plan requests on fixed keys: memory hits once computed)
  and ten fresh requests (estimate, simulate, run, study and a
  ``tune`` with a measuring budget) that the worker computes and the store
  keeps;
* life 2 restarts the server on the same store and runs ``ROUNDS`` rounds of
  the hot set plus a replay of life 1's fresh requests of the same round,
  answered from the store, and a second replay of four of them (simulate,
  run, study, tune), answered from memory.

The shares are chosen so that the median request is a hot memory hit well
inside that group (~62 % of requests) and the 90th percentile falls inside
the computed group (~16 %), not on the edge between two tiers.

Two clients drive the server, one connection each, each request waiting for
the previous reply.  They are two coroutines on one thread, so no client
ever waits for the other to hand back the interpreter lock.  Every key belongs to exactly one of them,
so no two requests with the same key are ever in flight together: dedup
cannot move work between runs and the per-tier counts of an episode repeat
exactly.  Replies are kept and checked after each life, outside the timed
rounds.
"""

from __future__ import annotations

import asyncio
import base64
import json
import os
import random
import re
import select
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from statistics import median
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

import oracle
from tracing import OFF, Tracer

ROUNDS = 40
CLIENTS = 2
TIERS = ("computed", "memory", "store")
KINDS = ("plan", "estimate", "simulate", "run", "study", "tune")

HOT = [
    {"kind": kind, "stencil": stencil, "method": method, "isa": isa, "m": m}
    for kind, stencil, method, isa, m in (
        ("estimate", "2d9p", "folded", "avx2", 2),
        ("plan", "gb", "folded", "avx512", 2),
        ("estimate", "2d9p", "folded", "avx512", 4),
        ("plan", "2d9p", "folded", "avx2", 4),
        ("estimate", "1d-heat", "folded", "avx2", 2),
        ("plan", "1d-heat", "folded", "avx512", 2),
        ("estimate", "1d-heat", "transpose", "avx512", 1),
        ("plan", "3d-heat", "transpose", "avx2", 1),
        ("estimate", "gb", "folded", "avx2", 2),
        ("estimate", "3d-heat", "folded", "avx512", 2),
        ("estimate", "1d5p", "folded", "avx512", 4),
        ("estimate", "2d-heat", "folded", "avx2", 3),
        ("plan", "1d5p", "folded", "avx512", 2),
        ("estimate", "3d27p", "folded", "avx2", 2),
        ("estimate", "2d-heat", "transpose", "avx512", 1),
        ("plan", "3d27p", "folded", "avx512", 2),
        ("estimate", "1d5p", "transpose", "avx2", 1),
        ("estimate", "gb", "folded", "avx512", 4),
        ("estimate", "3d-heat", "folded", "avx2", 3),
        ("estimate", "2d9p", "transpose", "avx2", 1),
    )
]
#: Fresh requests (by index in :func:`fresh_requests`) that life 2 sends a
#: second time, to be answered from memory: one simulate, run, study, tune.
MEMORY_REPLAYS = (2, 4, 6, 7)


def fresh_requests(seed: int, r: int) -> List[Dict[str, Any]]:
    """Round ``r``'s ten requests with keys no other request of the life has."""
    grid_seed = (seed % 100_000) * 1000 + r * 16
    steps = 1001 + r
    return [
        {"kind": "estimate", "stencil": "2d9p", "method": "folded", "isa": "avx2", "m": 2,
         "time_steps": steps},
        {"kind": "estimate", "stencil": "3d-heat", "method": "folded", "isa": "avx512", "m": 2,
         "time_steps": steps},
        {"kind": "simulate", "stencil": "2d9p", "method": "folded", "isa": "avx2", "m": 2,
         "shape": [64, 64], "steps": 4, "seed": grid_seed + 1, "optimize": True},
        {"kind": "simulate", "stencil": "1d-heat", "method": "folded", "isa": "avx512", "m": 2,
         "shape": [4096], "steps": 4, "seed": grid_seed + 2, "optimize": True},
        {"kind": "run", "stencil": "3d-heat", "method": "folded", "isa": "avx2", "m": 2,
         "shape": [16, 16, 16], "steps": 4, "seed": grid_seed + 3},
        {"kind": "run", "stencil": "gb", "method": "transpose", "isa": "avx2", "m": 1,
         "shape": [64, 64], "steps": 4, "seed": grid_seed + 4},
        {"kind": "study", "stencil": "2d9p", "time_steps": steps,
         "axes": {"method": ["folded", "transpose"], "isa": ["avx2", "avx512"], "m": [1, 2, 4]}},
        {"kind": "tune", "stencil": "1d-heat", "isas": ["avx2"], "budget": 1, "repeats": 1,
         "seed": grid_seed + 5},
        {"kind": "estimate", "stencil": "gb", "method": "folded", "isa": "avx512", "m": 2,
         "time_steps": steps},
        {"kind": "run", "stencil": "2d9p", "method": "folded", "isa": "avx512", "m": 4,
         "shape": [64, 64], "steps": 4, "seed": grid_seed + 6},
    ]


# --------------------------------------------------------------------------- #
# server process
# --------------------------------------------------------------------------- #
class Server:
    """One ``repro-serve`` life: boot, address, peak RSS, stop."""

    def __init__(self, root: Path, store: Path, log: Path):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(root / "src") + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        env["TMPDIR"] = str(store.parent)
        cmd = [
            sys.executable, "-c",
            "import sys; from repro.service.server import main; sys.exit(main(sys.argv[1:]))",
            "--port", "0", "--workers", "1", "--store", str(store),
        ]
        self._log = open(log, "ab")
        t0 = time.monotonic()
        self.proc = subprocess.Popen(
            cmd, cwd=root, env=env, stdout=subprocess.PIPE, stderr=self._log,
            start_new_session=True,
        )
        try:
            self.port = self._read_port(deadline=t0 + 120)
            while True:
                try:
                    status, _, _ = request(self.port, "GET", "/v1/healthz")
                    if status == 200:
                        break
                except OSError:
                    pass
                if time.monotonic() > t0 + 120:
                    raise RuntimeError("server did not become healthy")
                time.sleep(0.005)
        except BaseException:
            self.stop()
            raise
        self.boot_s = time.monotonic() - t0

    def _read_port(self, deadline: float) -> int:
        buf = b""
        fd = self.proc.stdout.fileno()
        while b"\n" not in buf:
            left = deadline - time.monotonic()
            if left <= 0 or self.proc.poll() is not None:
                raise RuntimeError(f"server failed to start: {buf!r}")
            ready, _, _ = select.select([fd], [], [], left)
            if ready:
                chunk = os.read(fd, 4096)
                if not chunk:
                    raise RuntimeError(f"server exited before listening: {buf!r}")
                buf += chunk
        match = re.search(rb"http://[^:\s]+:(\d+)", buf)
        if match is None:
            raise RuntimeError(f"no listen address in {buf!r}")
        return int(match.group(1))

    def peak_rss_mb(self) -> float:
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self) -> None:
        pgid = self.proc.pid
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=60)
        self.proc.stdout.close()
        self._log.close()
        # The pool worker is a grandchild in the server's session: end it too.
        start = time.monotonic()
        sig = signal.SIGTERM
        while time.monotonic() < start + 60:
            try:
                os.killpg(pgid, sig)
            except ProcessLookupError:
                return
            if time.monotonic() > start + 30:
                sig = signal.SIGKILL
            time.sleep(0.02)
        raise RuntimeError(f"processes of server session {pgid} outlived SIGKILL")


async def exchange(port: int, method: str, path: str, body: bytes = b"", tracer=OFF):
    """One HTTP exchange on a fresh connection; returns (status, body, seconds).

    The reply is read by its ``Content-Length``, not to end of stream: a
    pool worker forked while a connection is open keeps a copy of its socket,
    so the server closing its end does not always end the stream.
    """
    t0 = time.perf_counter()
    with tracer.span("service.client.connect"):
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        with tracer.span("service.client.send"):
            writer.write(
                f"{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n"
                "Connection: close\r\n\r\n".encode() + body
            )
            await writer.drain()
        with tracer.span("service.client.wait"):
            status_line = await reader.readline()
        with tracer.span("service.client.read"):
            length = None
            while True:
                line = await reader.readline()
                if line in (b"\r\n", b"\n", b""):
                    break
                name, _, value = line.partition(b":")
                if name.strip().lower() == b"content-length":
                    length = int(value)
            if not status_line or length is None:
                raise ConnectionError(f"malformed reply: {status_line!r}")
            raw = await reader.readexactly(length)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except OSError:
            pass
    return int(status_line.split()[1]), raw, time.perf_counter() - t0


def request(port: int, method: str, path: str):
    """A single exchange outside the measured rounds (health, stats)."""
    return asyncio.run(exchange(port, method, path))


# --------------------------------------------------------------------------- #
# one life
# --------------------------------------------------------------------------- #
def _split(items: List[Tuple[int, Dict[str, Any]]], rng: random.Random) -> List[List[Dict[str, Any]]]:
    """Per-connection request lists: a key's requests all go to one client."""
    lanes: List[List[Dict[str, Any]]] = [[] for _ in range(CLIENTS)]
    for owner, payload in items:
        lanes[owner % CLIENTS].append(payload)
    for lane in lanes:
        rng.shuffle(lane)
    return lanes


async def _drive(port: int, lane: List[Dict[str, Any]], tracer) -> List[tuple]:
    out = []
    for payload in lane:
        body = json.dumps(payload).encode()
        t0 = time.perf_counter()
        try:
            with tracer.span("service.request"):
                status, raw, seconds = await exchange(port, "POST", "/v1/requests", body, tracer)
        except (OSError, EOFError, ValueError) as exc:
            status, raw, seconds = 0, repr(exc).encode(), time.perf_counter() - t0
        out.append((payload, status, raw, seconds))
    return out


async def _rounds(port: int, rounds, tracers) -> Tuple[List[tuple], List[float]]:
    replies: List[tuple] = []
    times: List[float] = []
    for lanes in rounds:
        t0 = time.perf_counter()
        results = await asyncio.gather(
            *(_drive(port, lane, tracers[i]) for i, lane in enumerate(lanes))
        )
        times.append(time.perf_counter() - t0)
        for r in results:
            replies.extend(r)
    return replies, times


def run_life(port: int, rounds: List[List[List[Dict[str, Any]]]], tracers) -> Tuple[List[tuple], List[float]]:
    """Run whole rounds; each round ends when both clients are done."""
    return asyncio.run(_rounds(port, rounds, tracers))


# --------------------------------------------------------------------------- #
# checks
# --------------------------------------------------------------------------- #
def _array(encoded: Dict[str, Any]) -> np.ndarray:
    raw = base64.b64decode(encoded["b64"])
    return np.frombuffer(raw, dtype=np.dtype(encoded["dtype"])).reshape(encoded["shape"])


def check_result(payload: Dict[str, Any], result: Dict[str, Any]) -> Optional[str]:
    """None if ``result`` is right for ``payload``, else why not."""
    kind = payload["kind"]
    if kind in ("simulate", "run"):
        x = oracle.initial_grid(payload["shape"], payload["seed"])
        values = _array(result["values"])
        if not oracle.matches(values, oracle.run(payload["stencil"], x, payload["steps"])):
            return "grid differs from the oracle"
        if not oracle.conserves_sum(x, values):
            return "grid sum not conserved"
        if kind == "simulate" and not result["instructions"]["total"] > 0:
            return "no instructions counted"
    elif kind == "estimate":
        if not (np.isfinite(result["gflops"]) and result["gflops"] > 0 and result["cycles_per_point"] > 0):
            return "non-positive estimate"
    elif kind == "plan":
        if (result["stencil"], result["isa"], result["unroll"]) != (
            payload["stencil"], payload["isa"], payload["m"]
        ):
            return "plan describes another configuration"
    elif kind == "study":
        if result["cells"] != 12 or len(result["rows"]) != 12:
            return "study lost cells"
        if not all(row["gflops"] > 0 for row in result["rows"]):
            return "non-positive study row"
    elif kind == "tune":
        measured = {row["config_hash"] for row in result["ledger"] if row["measured_seconds"] is not None}
        if not measured:
            return "tune measured no candidate"
        if result["winner"]["config_hash"] not in measured:
            return "tune winner was not measured"
    return None


class Episode:
    """Counters and samples of one or more episodes."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.latencies_ms: List[float] = []
        self.measured_s = 0.0
        self.boot_s: List[float] = []
        self.rss_mb: List[float] = []
        self.tier_ms: Dict[str, List[float]] = {}
        self.bytes: Dict[str, List[int]] = {}
        self.transport_ms: List[float] = []
        self.counts: List[Dict[str, int]] = []

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)


def _audit(replies: List[tuple], canon: Dict[str, str], ep: Episode, counts: Dict[str, int]) -> None:
    """Check every reply of a life; canonical results are keyed by content key."""
    for payload, status, raw, seconds in replies:
        ep.attempted += 1
        kind = payload["kind"]
        ep.bytes.setdefault(kind, []).append(len(raw))
        if status != 200:
            ep.fail(f"{kind}: HTTP {status} {raw[:200]!r}")
            continue
        envelope = json.loads(raw)
        tier = envelope["served_from"]
        ep.latencies_ms.append(seconds * 1e3)
        ep.tier_ms.setdefault(f"{kind}.{tier}", []).append(seconds * 1e3)
        ep.transport_ms.append(seconds * 1e3 - envelope["elapsed_ms"])
        text = json.dumps(envelope["result"], sort_keys=True)
        first = canon.setdefault(envelope["key"], text)
        if first != text:
            ep.fail(f"{kind}: {tier} reply differs from the first reply of its key")
            continue
        why = check_result(payload, envelope["result"])
        if why is not None:
            ep.fail(f"{kind} ({tier}): {why}")
        if kind == "tune" and tier == "computed":
            counts["tune_measured"] = counts.get("tune_measured", 0) + sum(
                row["measured_seconds"] is not None for row in envelope["result"]["ledger"]
            )


def run_episode(root: Path, tmp: Path, seed: int, index: int, ep: Episode, tracers) -> None:
    store = Path(tempfile.mkdtemp(prefix="store-", dir=tmp))
    rng = random.Random(seed * 31 + index)
    fresh = [fresh_requests(seed, r) for r in range(ROUNDS)]
    hot = list(enumerate(HOT))
    life1, life2 = [], []
    for r in range(ROUNDS):
        items = hot + [(i, p) for i, p in enumerate(fresh[r])]
        life1.append(_split(items, rng))
        lanes = _split(hot, rng)
        for i, p in enumerate(fresh[r]):  # store replies first, then memory ones
            lanes[i % CLIENTS].append(p)
        for i in MEMORY_REPLAYS:
            lanes[i % CLIENTS].append(fresh[r][i])
        life2.append(lanes)
    canon: Dict[str, str] = {}
    counts: Dict[str, int] = {}
    for rounds in (life1, life2):
        server = Server(root, store, tmp / "server.log")
        try:
            ep.boot_s.append(server.boot_s)
            replies, times = run_life(server.port, rounds, tracers)
            status, raw, _ = request(server.port, "GET", "/v1/stats")
            totals = json.loads(raw)["service"]["totals"]
            ep.rss_mb.append(server.peak_rss_mb())
        finally:
            server.stop()
        ep.measured_s += sum(times)
        for name in ("memory_hits", "store_hits", "computed", "deduplicated", "shed"):
            counts[name] = counts.get(name, 0) + int(totals[name])
        _audit(replies, canon, ep, counts)
    ep.counts.append(counts)


def run_service(root: Path, tmp: Path, seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    ep = Episode()
    tracers = [Tracer(f"service-{seed}-client{i}") if trace else OFF for i in range(CLIENTS)]
    index = 0
    while index == 0 or ep.measured_s < seconds:
        run_episode(root, tmp, seed, index, ep, tracers)
        index += 1
    first = ep.counts[0]
    counts_repeat = all(c == first for c in ep.counts)
    layers: Dict[str, float] = {"service.boot_s": median(ep.boot_s)}
    exact: Dict[str, float] = {f"service.{k}": float(v) for k, v in first.items() if k != "tune_measured"}
    exact["service.tune.measured_candidates"] = float(first.get("tune_measured", 0))
    if trace:
        for kind in KINDS:
            for tier in TIERS:
                samples = ep.tier_ms.get(f"{kind}.{tier}")
                if samples:
                    layers[f"service.{kind}.{tier}.p50_ms"] = median(samples)
            layers[f"service.response_bytes.{kind}"] = median(ep.bytes[kind])
        layers["service.transport.p50_ms"] = median(ep.transport_ms)
        merged: Dict[str, List[float]] = {}
        for tracer in tracers:
            for name, samples in tracer.self_times().items():
                merged.setdefault(name, []).extend(samples)
        for name, samples in merged.items():
            layers[f"{name}_ms"] = median(samples) * 1e3
    return {
        "setup_samples": ep.boot_s,
        "rss_samples": ep.rss_mb,
        "measured_s": ep.measured_s,
        "ops": float(ep.attempted - ep.failed),
        "latencies_ms": ep.latencies_ms,
        "attempted": ep.attempted,
        "failed": ep.failed,
        "errors": ep.errors,
        "counts_repeat": counts_repeat,
        "episodes": index,
        "layers": layers,
        "exact": exact,
        "tracers": tracers,
    }

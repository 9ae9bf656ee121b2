"""Benchmark entry point.

    python3 perfbench/run.py --workload exec-steady --seed 1 --seconds 20 --trace 0

Runs one workload (``exec-steady``, ``compile-cold`` or ``service-mix``) in
fresh processes, checks every output against ``oracle.py``, and prints as its
last line one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
With ``--trace 0`` the metrics are the end-to-end ones (END_TO_END); with
``--trace 1`` the run measures all three workloads once untraced and once
under spans, each for an eighth of ``--seconds`` or one whole round, and
prints the per-layer metrics (PER_LAYER), including the tracing overhead of
each workload.  The line before it carries the
environment fingerprint.  Traces go to ``.perfbench-out/traces``; scratch
files live in a fresh directory under ``.perfbench-out/tmp`` that is removed
at exit.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from statistics import median
from typing import Any, Dict, List, Tuple

import numpy as np

import envinfo
import oracle
import service_mix

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / ".perfbench-out"
WORKLOADS = ("exec-steady", "compile-cold", "service-mix")
PASSES = ("cse", "coalesce", "fuse-fma", "dce", "hoist", "reschedule")
EXEC_LABELS = ("transpose", "folded-m2", "folded-m4")

#: (name, unit, better) of every end-to-end metric.
END_TO_END = (
    ("throughput_per_s", "1/s", "higher"),
    ("latency_ms_p50", "ms", "lower"),
    ("latency_ms_p90", "ms", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
)


def _per_layer() -> Tuple[Tuple[str, str, str], ...]:
    rows = [("setup.import_s", "s", "lower"), ("service.boot_s", "s", "lower")]
    for entry in ("run", "simulate"):
        rows += [(f"exec.{entry}.{lab}.ns_per_pt_step", "ns", "lower") for lab in EXEC_LABELS]
    rows += [
        ("exec.replay.ns_per_pt_step", "ns", "lower"),
        ("exec.kernel.ns_per_pt_step", "ns", "lower"),
        ("exec.layout_ms", "ms", "lower"),
        ("exec.fold_speedup.run", "x", "higher"),
        ("exec.fold_speedup.simulate", "x", "higher"),
        ("exec.gflops", "GFLOP/s", "higher"),
        ("exec.bytes_per_pt_step_computed", "B", "lower"),
        ("exec.insns_per_pt_step", "count", "lower"),
        ("baseline.numpy_slice.ns_per_pt_step", "ns", "lower"),
        ("baseline.naive_c.ns_per_pt_step", "ns", "lower"),
        ("baseline.copy_gbps", "GB/s", "higher"),
        ("exec.simulate.vs_naive_c", "x", "lower"),
        ("exec.simulate.vs_numpy_slice", "x", "lower"),
        ("compile.plan_ms", "ms", "lower"),
        ("compile.schedule_ms", "ms", "lower"),
        ("compile.lower_ms", "ms", "lower"),
    ]
    rows += [(f"compile.pass.{p}_ms", "ms", "lower") for p in PASSES]
    rows += [
        ("compile.codegen_ms", "ms", "lower"),
        ("compile.first_run_ms", "ms", "lower"),
        ("compile.estimate_ms", "ms", "lower"),
        ("compile.ir_ops_lowered", "count", "lower"),
    ]
    rows += [(f"compile.pass.{p}_ops_removed", "count", "higher") for p in PASSES]
    for kind in service_mix.KINDS:
        rows += [(f"service.{kind}.{tier}.p50_ms", "ms", "lower") for tier in service_mix.TIERS]
    rows += [
        ("service.memory_hits", "count", "higher"),
        ("service.store_hits", "count", "higher"),
        ("service.computed", "count", "lower"),
        ("service.deduplicated", "count", "lower"),
        ("service.shed", "count", "lower"),
    ]
    rows += [(f"service.response_bytes.{kind}", "B", "lower") for kind in service_mix.KINDS]
    rows += [
        ("service.tune.measured_candidates", "count", "higher"),
        ("service.transport.p50_ms", "ms", "lower"),
    ]
    rows += [(f"service.client.{s}_ms", "ms", "lower") for s in ("connect", "send", "wait", "read")]
    rows += [(f"trace.overhead.{w}_pct", "%", "lower") for w in WORKLOADS]
    return tuple(rows)


PER_LAYER = _per_layer()
#: Per-layer metrics that are exact counts: they must repeat exactly.
EXACT = tuple(
    name
    for name, unit, _ in PER_LAYER
    if unit == "count" or name == "exec.bytes_per_pt_step_computed"
)


class Tally:
    """What one workload measured, merged over its processes."""

    def __init__(self) -> None:
        self.correct = True
        self.attempted = 0
        self.failed = 0
        self.measured_s = 0.0
        self.ops = 0.0
        self.latencies_ms: List[float] = []
        self.setup: List[float] = []
        self.rss: List[float] = []
        self.imports: List[float] = []
        self.layers: Dict[str, float] = {}
        self.exact: Dict[str, float] = {}

    def add(self, part: Dict[str, Any]) -> None:
        self.correct &= bool(part.get("correct", True))
        self.attempted += int(part["attempted"])
        self.failed += int(part["failed"])
        self.measured_s += part["measured_s"]
        self.ops += part["ops"]
        self.latencies_ms += part["latencies_ms"]
        self.layers.update(part["layers"])
        self.exact.update(part["exact"])
        for message in part["errors"]:
            print(f"perfbench: {message}", file=sys.stderr)

    def end_to_end(self) -> Dict[str, float]:
        lat = np.asarray(self.latencies_ms)
        return {
            "throughput_per_s": self.ops / self.measured_s,
            "latency_ms_p50": float(np.percentile(lat, 50)),
            "latency_ms_p90": float(np.percentile(lat, 90)),
            "setup_s": median(self.setup),
            "peak_rss_mb": median(self.rss),
        }


def spawn_worker(mode: str, seed: int, index: int, budget: float, trace: bool, tmp: Path) -> Dict[str, Any]:
    """One fresh worker process; returns its JSON report."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["TMPDIR"] = str(tmp)
    trace_out = OUT / "traces" / f"{mode}-seed{seed}-{index}.json"
    cmd = [
        sys.executable, str(Path(__file__).with_name("worker.py")),
        "--mode", mode, "--seed", str(seed), "--index", str(index),
        "--budget", repr(budget), "--trace", "1" if trace else "0",
        "--tmp", str(tmp), "--trace-out", str(trace_out),
    ]
    spawned = time.monotonic()
    proc = subprocess.Popen(
        cmd + ["--spawned", repr(spawned)], cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True
    )
    try:
        stdout, _ = proc.communicate(timeout=170)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"worker {mode} exited with {proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def run_workers(tally: Tally, mode: str, seed: int, seconds: float, trace: bool, tmp: Path,
                processes: int) -> None:
    """Fresh worker processes until ``seconds`` of operations have been timed.

    ``exec`` workers each take an equal share of the budget; ``compile``
    workers each make the whole configuration set ready once.
    """
    index = 0
    while index < processes or tally.measured_s < seconds:
        part = spawn_worker(mode, seed, index, seconds / processes, trace, tmp)
        tally.add(part)
        tally.setup.append(part["setup_s"])
        tally.rss.append(part["peak_rss_mb"])
        tally.imports.append(part["import_s"])
        index += 1
        if mode == "exec" and index >= processes:
            break


def run_workload(workload: str, seed: int, seconds: float, trace: bool, tmp: Path) -> Tally:
    tally = Tally()
    if workload == "exec-steady":
        run_workers(tally, "exec", seed, seconds, trace, tmp, processes=1 if trace else 3)
    elif workload == "compile-cold":
        run_workers(tally, "compile", seed, seconds, trace, tmp, processes=1)
        if trace:
            tally.add(spawn_worker("compile-probe", seed, 0, 0.0, True, tmp))
    else:
        part = service_mix.run_service(ROOT, tmp, seed, seconds, trace)
        for i, tracer in enumerate(part.pop("tracers")):
            if tracer.enabled:
                tracer.write_chrome_trace(str(OUT / "traces" / f"service-seed{seed}-client{i}.json"))
        if not part["counts_repeat"]:
            print("perfbench: service tier counts differ between episodes", file=sys.stderr)
        tally.add(part)
        tally.setup += part["setup_samples"]
        tally.rss += part["rss_samples"]
    return tally


def traced_report(seed: int, seconds: float, tmp: Path) -> Tuple[Tally, Dict[str, float]]:
    """Every workload once untraced and once traced; per-layer metrics."""
    total = Tally()
    metrics: Dict[str, float] = {}
    imports: List[float] = []
    share = max(seconds / 8.0, 1.0)
    for workload in WORKLOADS:
        plain = run_workload(workload, seed, share, False, tmp)
        traced = run_workload(workload, seed, share, True, tmp)
        for part in (plain, traced):
            total.correct &= part.correct
            total.attempted += part.attempted
            total.failed += part.failed
            imports += part.imports
        metrics.update(traced.layers)
        metrics.update(traced.exact)
        slowdown = (plain.ops / plain.measured_s) / (traced.ops / traced.measured_s)
        metrics[f"trace.overhead.{workload}_pct"] = (slowdown - 1.0) * 100.0
    metrics["setup.import_s"] = median(imports)
    return total, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    correct = oracle.self_test()
    if not correct:
        print("perfbench: the oracle fails its own closed-form self-test", file=sys.stderr)
    print(json.dumps({"env": envinfo.fingerprint()}), flush=True)
    (OUT / "tmp").mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT / "tmp"))
    try:
        if args.trace:
            tally, values = traced_report(args.seed, args.seconds, tmp)
            rows = PER_LAYER
        else:
            tally = run_workload(args.workload, args.seed, args.seconds, False, tmp)
            values = tally.end_to_end()
            rows = END_TO_END
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    metrics = {}
    for name, unit, _ in rows:
        value = values.get(name)
        if value is None or not math.isfinite(value):
            print(f"perfbench: metric {name} was not measured", file=sys.stderr)
            continue
        metrics[name] = {"value": value, "unit": unit}
    result = {
        "correct": bool(correct and tally.correct),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

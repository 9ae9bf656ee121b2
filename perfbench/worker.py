"""One fresh process of the ``exec-steady`` or ``compile-cold`` workload.

Started by ``run.py``; prints one JSON object (its measurements) as the last
line of standard output.  Modes:

``exec``
    Compile the execution mix, warm it up, then run whole rounds of it until
    ``--budget`` seconds of calls have been timed.
``compile``
    Make every configuration of the compile mix ready once, from a fresh
    interpreter (one round per process, so nothing is served from a cache a
    previous configuration of the same kind filled).
``compile-probe``
    The same configurations, taken apart layer by layer (schedule, lowering,
    each pass, code generation) under spans; traced runs only.

Every output is checked outside the timed region against :mod:`oracle`.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import resource
import sys
import time
from pathlib import Path
from statistics import median
from typing import Dict, List, Tuple

import numpy as np

import oracle
from tracing import OFF, Tracer

STEPS = 4
EXEC_STENCILS = ("1d-heat", "1d5p", "2d9p", "gb", "3d-heat")
COMPILE_STENCILS = ("1d-heat", "1d5p", "2d-heat", "2d9p", "gb", "3d-heat", "3d27p")
ISAS = (("avx2", 4), ("avx512", 8))
EXEC_METHODS = (("transpose", 1), ("folded", 2), ("folded", 4))
COMPILE_METHODS = (("transpose", 1), ("folded", 2), ("folded", 3), ("folded", 4))
#: Grid shapes by dimensionality and cache class.  L2: 128 KiB grids, so the
#: grid, its output and the executors' temporaries fit the 2 MiB L2.  L3:
#: 2 MiB grids, so grid plus output alone exceed the L2 while staying far
#: inside the 300 MiB L3 (no workload here reaches DRAM).
SIZES = {
    1: {"L2": (16384,), "L3": (262144,)},
    2: {"L2": (128, 128), "L3": (512, 512)},
    3: {"L2": (16, 32, 32), "L3": (64, 64, 64)},
}
RADIUS = {"1d5p": 2}


def legal(stencil: str, m: int, vl: int) -> bool:
    """The register-level schedules support a folded radius r*m <= vl."""
    return RADIUS.get(stencil, 1) * m <= vl


def label(method: str, m: int) -> str:
    return "transpose" if method == "transpose" else f"folded-m{m}"


def tiny_shape(dims: int, vl: int) -> Tuple[int, ...]:
    return {1: (2 * vl * vl,), 2: (2 * vl, 2 * vl), 3: (4, 2 * vl, 2 * vl)}[dims]


class Result:
    """Counters and samples one process reports back."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.errors: List[str] = []
        self.latencies_ms: List[float] = []
        self.ops = 0.0
        self.measured_s = 0.0
        self.setup_s = math.nan
        self.layers: Dict[str, float] = {}
        self.exact: Dict[str, float] = {}

    def fail(self, ops: int, message: str) -> None:
        self.failed += ops
        if len(self.errors) < 5:
            self.errors.append(message)


def grid_of(repro, values: np.ndarray):
    return repro.Grid(values=values, boundary=repro.BoundaryCondition.PERIODIC)


def check_weights(repro, stencils, res: Result) -> None:
    """The oracle's weight table must describe the program's stencils."""
    for name in stencils:
        kernel = np.asarray(repro.get_benchmark(name).spec.kernel)
        if kernel.shape != oracle.weights(name).shape or not np.allclose(
            kernel, oracle.weights(name), rtol=0.0, atol=1e-15
        ):
            res.correct = False
            res.errors.append(f"oracle weights differ from the {name} spec")


# --------------------------------------------------------------------------- #
# exec-steady
# --------------------------------------------------------------------------- #
def exec_calls(repro, seed: int):
    """The execution mix as (stencil, isa, label, entry, cache class, plan) calls."""
    calls = []
    inputs = {}
    for si, stencil in enumerate(EXEC_STENCILS):
        dims = oracle.weights(stencil).ndim
        for ci, (cache_class, shape) in enumerate(SIZES[dims].items()):
            inputs[(stencil, cache_class)] = oracle.initial_grid(shape, seed * 100 + si * 2 + ci)
    plans = {}
    for stencil in EXEC_STENCILS:
        for isa, vl in ISAS:
            for method, m in EXEC_METHODS:
                if not legal(stencil, m, vl):
                    continue
                plan = repro.plan(stencil).method(method).isa(isa).unroll(m).compile()
                plans[(stencil, isa, method, m)] = plan
                for cache_class in ("L2", "L3"):
                    for entry in ("run", "simulate"):
                        calls.append((stencil, isa, label(method, m), entry, cache_class, plan))
    return calls, inputs, plans


def warm_up(repro, plans, seed: int) -> None:
    """Build every plan's compiled sweep on a tiny grid (shape independent)."""
    for (stencil, isa, method, m), plan in plans.items():
        vl = dict(ISAS)[isa]
        x = oracle.initial_grid(tiny_shape(oracle.weights(stencil).ndim, vl), seed)
        plan.simulate(grid_of(repro, x), STEPS, optimize=True)
        plan.run(grid_of(repro, x), STEPS)


def invoke(plan, entry: str, grid):
    if entry == "run":
        return plan.run(grid, STEPS), None
    values, counts = plan.simulate(grid, STEPS, optimize=True)
    return values, counts


def run_exec(repro, args, res: Result, tracer) -> None:
    check_weights(repro, EXEC_STENCILS, res)
    calls, inputs, plans = exec_calls(repro, args.seed)
    grids = {key: grid_of(repro, x) for key, x in inputs.items()}
    warm_up(repro, plans, args.seed)
    random.Random(args.seed * 7919 + args.index).shuffle(calls)
    expected: Dict[Tuple[str, str], np.ndarray] = {}
    per_call: Dict[tuple, List[float]] = {}
    insns = 0.0
    sim_points = 0
    res.setup_s = time.monotonic() - args.spawned
    rounds = 0
    while rounds == 0 or res.measured_s < args.budget:
        for stencil, isa, lab, entry, cache_class, plan in calls:
            x = inputs[(stencil, cache_class)]
            points = x.size * STEPS
            res.attempted += points
            key = (stencil, isa, lab, entry, cache_class)
            try:
                t0 = time.perf_counter()
                with tracer.span(f"exec.{entry}.{lab}"):
                    values, counts = invoke(plan, entry, grids[(stencil, cache_class)])
                dt = time.perf_counter() - t0
            except Exception as exc:  # noqa: BLE001 - a failed call is counted, not fatal
                res.fail(points, f"{key}: {exc!r}")
                continue
            res.measured_s += dt
            res.ops += points
            res.latencies_ms.append(dt * 1e3 / points)
            per_call.setdefault(key, []).append(dt / points)
            want = expected.get((stencil, cache_class))
            if want is None:
                want = expected[(stencil, cache_class)] = oracle.run(stencil, x, STEPS)
            if not (oracle.matches(values, want) and oracle.conserves_sum(x, values)):
                res.fail(points, f"{key}: output differs from the oracle")
            if counts is not None and rounds == 0:
                insns += counts.total
                sim_points += points
        rounds += 1
    res.exact["exec.insns_per_pt_step"] = insns / sim_points if sim_points else math.nan
    check_closed_form(repro, res)
    if tracer.enabled:
        exec_layers(repro, res, tracer, per_call, inputs, expected, plans, args)


def check_closed_form(repro, res: Result) -> None:
    """Program output on a delta against binomial(2k, j) / 4^k."""
    n, k = 4096, 8
    want = oracle.heat_delta_closed_form(n, k)
    for method, m in (("transpose", 1), ("folded", 2), ("folded", 4)):
        plan = repro.plan("1d-heat").method(method).unroll(m).compile()
        for entry in ("run", "simulate"):
            res.attempted += n * k
            try:
                grid = grid_of(repro, oracle.delta(n))
                if entry == "run":
                    values = plan.run(grid, k)
                else:
                    values, _ = plan.simulate(grid, k, optimize=True)
            except Exception as exc:  # noqa: BLE001
                res.fail(n * k, f"closed form {method} m={m} {entry}: {exc!r}")
                continue
            if not oracle.matches(values, want):
                res.fail(n * k, f"closed form {method} m={m} {entry}: wrong values")


def _geomean(values: List[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values)) if values else math.nan


def exec_layers(repro, res, tracer, per_call, inputs, expected, plans, args) -> None:
    """Per-layer numbers of the traced execution run, plus baselines."""
    from repro.backend import compile_kernel
    from repro.layout import from_transpose_layout, to_transpose_layout

    import baselines

    layers = res.layers
    points = {key: inputs[(key[0], key[4])].size * STEPS for key in per_call}
    for entry in ("run", "simulate"):
        for method, m in EXEC_METHODS:
            lab = label(method, m)
            spans = tracer.durations(f"exec.{entry}.{lab}")
            pts = sum(
                points[key] * len(v) for key, v in per_call.items() if key[3] == entry and key[2] == lab
            )
            layers[f"exec.{entry}.{lab}.ns_per_pt_step"] = sum(spans) / pts * 1e9
    per_point = {key: median(v) for key, v in per_call.items()}
    for entry in ("run", "simulate"):
        ratios = []
        for key, t in per_point.items():
            stencil, isa, lab, e, cache_class = key
            if e == entry and lab != "transpose":
                base = per_point.get((stencil, isa, "transpose", entry, cache_class))
                ratios.append(base / t)
        layers[f"exec.fold_speedup.{entry}"] = _geomean(ratios)
    flops = sum(
        oracle.flops_per_point(key[0]) * points[key] * len(v) for key, v in per_call.items()
    )
    seconds = sum(sum(v) * points[key] for key, v in per_call.items())
    layers["exec.gflops"] = flops / seconds / 1e9
    # Compulsory traffic: each m-step sweep reads and writes every point once.
    m_of = {label(method, m): m for method, m in EXEC_METHODS}
    traffic = sum(16.0 / m_of[key[2]] * points[key] for key in per_call)
    res.exact["exec.bytes_per_pt_step_computed"] = traffic / sum(points.values())

    # Engine layers called directly: IR replay, generated kernel, 1-D layout.
    replay_s = kernel_s = 0.0
    engine_pts = 0
    layout_ms: List[float] = []
    for (stencil, isa, method, m), plan in plans.items():
        schedule = repro.FoldingSchedule(plan.spec, m)
        sweep = repro.compile_sweep(schedule, plan.isa_spec, optimize=True)
        kernel = compile_kernel(schedule, plan.isa_spec, optimize=True)
        vl = plan.isa_spec.vector_lanes
        for cache_class in ("L2", "L3"):
            x = inputs[(stencil, cache_class)]
            for engine, name in ((sweep, "exec.replay"), (kernel, "exec.kernel")):
                if x.ndim == 1:
                    with tracer.span("exec.layout"):
                        t0 = time.perf_counter()
                        data = to_transpose_layout(x, vl)
                        layout = time.perf_counter() - t0
                else:
                    data, layout = x, 0.0
                with tracer.span(name):
                    t0 = time.perf_counter()
                    for _ in range(STEPS // m):
                        data = engine.replay(data)
                    dt = time.perf_counter() - t0
                if x.ndim == 1:
                    with tracer.span("exec.layout"):
                        t0 = time.perf_counter()
                        data = from_transpose_layout(data, vl)
                        layout += time.perf_counter() - t0
                    layout_ms.append(layout * 1e3)
                pts = x.size * STEPS
                res.attempted += pts
                if not oracle.matches(data, expected[(stencil, cache_class)]):
                    res.fail(pts, f"{name} {stencil} {isa} m={m}: output differs from the oracle")
                if name == "exec.replay":
                    replay_s += dt
                    engine_pts += pts
                else:
                    kernel_s += dt
    layers["exec.replay.ns_per_pt_step"] = replay_s / engine_pts * 1e9
    layers["exec.kernel.ns_per_pt_step"] = kernel_s / engine_pts * 1e9
    layers["exec.layout_ms"] = sum(layout_ms) / len(layout_ms)

    # Same-run baselines over the same stencils and grids.
    build = Path(args.tmp)
    lib = baselines.NaiveC(build)
    np_base: Dict[Tuple[str, str], float] = {}
    c_base: Dict[Tuple[str, str], float] = {}
    for (stencil, cache_class), x in inputs.items():
        pts = x.size * STEPS
        np_base[(stencil, cache_class)] = baselines.numpy_slice_seconds(stencil, x, STEPS, 3) / pts
        if lib.available:
            seconds, out = baselines.naive_c_seconds(lib, stencil, x, STEPS, 5)
            c_base[(stencil, cache_class)] = seconds / pts
            if not oracle.matches(out, expected[(stencil, cache_class)]):
                res.correct = False
                res.errors.append(f"naive C baseline wrong on {stencil} {cache_class}")
    total_pts = sum(x.size * STEPS for x in inputs.values())
    layers["baseline.numpy_slice.ns_per_pt_step"] = (
        sum(np_base[k] * inputs[k].size * STEPS for k in inputs) / total_pts * 1e9
    )
    sims = {key: t for key, t in per_point.items() if key[3] == "simulate"}
    layers["exec.simulate.vs_numpy_slice"] = _geomean(
        [t / np_base[(key[0], key[4])] for key, t in sims.items()]
    )
    if lib.available:
        layers["baseline.naive_c.ns_per_pt_step"] = (
            sum(c_base[k] * inputs[k].size * STEPS for k in inputs) / total_pts * 1e9
        )
        layers["exec.simulate.vs_naive_c"] = _geomean(
            [t / c_base[(key[0], key[4])] for key, t in sims.items()]
        )
    else:
        res.errors.append(f"baseline.naive_c skipped: {lib.reason}")
    layers["baseline.copy_gbps"] = baselines.copy_gbps()


# --------------------------------------------------------------------------- #
# compile-cold
# --------------------------------------------------------------------------- #
def compile_configs(seed: int):
    configs = []
    for stencil in COMPILE_STENCILS:
        for isa, vl in ISAS:
            for method, m in COMPILE_METHODS:
                if legal(stencil, m, vl):
                    for optimize in (False, True):
                        configs.append((stencil, isa, method, m, optimize))
    random.Random(seed).shuffle(configs)
    return configs


def warm_up_compile(repro, seed: int) -> None:
    """Exercise every code path once on stencils outside the measured set.

    Random sum-to-one kernels, one per dimensionality: lazy imports and
    first-call costs land in set-up, while no measured configuration finds
    its own schedule already cached.
    """
    rng = np.random.default_rng(seed)
    for dims in (1, 2, 3):
        kernel = rng.uniform(0.2, 1.0, size=(3,) * dims)
        spec = repro.StencilSpec(name=f"warm-{dims}d", kernel=kernel / kernel.sum())
        for isa, vl in ISAS:
            for method, m in (("transpose", 1), ("folded", 2)):
                plan = repro.plan(spec).method(method).isa(isa).unroll(m).compile()
                x = oracle.initial_grid(tiny_shape(dims, vl), seed)
                for optimize in (False, True):
                    plan.simulate(grid_of(repro, x), m, optimize=optimize)
                plan.estimate(SIZES[dims]["L3"], 1000)


def run_compile(repro, args, res: Result, tracer) -> None:
    check_weights(repro, COMPILE_STENCILS, res)
    configs = compile_configs(args.seed)
    warm_up_compile(repro, args.seed + 1)
    inputs = {
        c: oracle.initial_grid(tiny_shape(oracle.weights(c[0]).ndim, dict(ISAS)[c[1]]), args.seed * 1000 + i)
        for i, c in enumerate(configs)
    }
    outputs = {}
    res.setup_s = time.monotonic() - args.spawned
    for config in configs:
        stencil, isa, method, m, optimize = config
        res.attempted += 1
        x = inputs[config]
        try:
            t0 = time.perf_counter()
            with tracer.span("compile.config"):
                with tracer.span("compile.plan"):
                    plan = repro.plan(stencil).method(method).isa(isa).unroll(m).compile()
                with tracer.span("compile.first_run"):
                    values, counts = plan.simulate(grid_of(repro, x), m, optimize=optimize)
                with tracer.span("compile.estimate"):
                    estimate = plan.estimate(repro.get_benchmark(stencil).problem_size, 1000)
            dt = time.perf_counter() - t0
        except Exception as exc:  # noqa: BLE001
            res.fail(1, f"{config}: {exc!r}")
            continue
        res.measured_s += dt
        res.ops += 1
        res.latencies_ms.append(dt * 1e3)
        outputs[config] = counts.total
        good = (
            oracle.matches(values, oracle.run(stencil, x, m))
            and oracle.conserves_sum(x, values)
            and math.isfinite(estimate.gflops)
            and estimate.gflops > 0
            and estimate.cycles_per_point > 0
            and counts.total > 0
        )
        if not good:
            res.fail(1, f"{config}: output or estimate fails the oracle")
    # Optimized programs never execute more instructions than unoptimized ones.
    for (stencil, isa, method, m, optimize), total in outputs.items():
        if optimize:
            raw = outputs.get((stencil, isa, method, m, False))
            if raw is not None and total > raw:
                res.fail(1, f"{stencil} {isa} m={m}: optimized count {total} > {raw}")
    res.exact["compile.configs"] = len(configs)
    res.exact["compile.insns_total"] = float(sum(outputs.values()))


def run_compile_probe(repro, args, res: Result, tracer) -> None:
    """Each configuration's compile path, one layer per span."""
    from repro.backend import KernelProgram, generate_kernel_source, kernel_content_key
    from repro.simd.isa import isa_for

    configs = compile_configs(args.seed)
    warm_up_compile(repro, args.seed + 1)
    lowered = 0.0
    removed = {name: 0.0 for name in repro.DEFAULT_PASSES}
    res.setup_s = time.monotonic() - args.spawned
    for stencil, isa, method, m, optimize in configs:
        spec = repro.get_benchmark(stencil).spec
        with tracer.span("compile.schedule"):
            schedule = repro.FoldingSchedule(spec, m)
        with tracer.span("compile.lower"):
            ir = repro.lower_schedule(schedule, isa_for(isa))
        lowered += ir.static_counts().total
        if optimize:
            for name in repro.DEFAULT_PASSES:
                with tracer.span(f"compile.pass.{name}"):
                    ir, reports = repro.PassManager([name]).run(ir)
                removed[name] += reports[0].removed
        with tracer.span("compile.codegen"):
            source, namespace = generate_kernel_source(ir)
            KernelProgram(ir, source, namespace, kernel_content_key(ir))
    res.exact["compile.ir_ops_lowered"] = lowered
    for name, value in removed.items():
        res.exact[f"compile.pass.{name}_ops_removed"] = value


# --------------------------------------------------------------------------- #
def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--mode", choices=("exec", "compile", "compile-probe"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--index", type=int, default=0)
    parser.add_argument("--budget", type=float, default=5.0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--spawned", type=float, required=True, help="time.monotonic() at spawn")
    parser.add_argument("--tmp", required=True)
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args()

    t0 = time.perf_counter()
    import repro

    import_s = time.perf_counter() - t0
    res = Result()
    tracer = Tracer(f"{args.mode}-{args.seed}-{args.index}") if args.trace else OFF
    {"exec": run_exec, "compile": run_compile, "compile-probe": run_compile_probe}[args.mode](
        repro, args, res, tracer
    )
    if tracer.enabled:
        for name, samples in tracer.self_times().items():
            res.layers.setdefault(f"{name}_ms", sum(samples) / len(samples) * 1e3)
        if args.trace_out:
            tracer.write_chrome_trace(args.trace_out)
    out = {
        "mode": args.mode,
        "setup_s": res.setup_s,
        "import_s": import_s,
        "measured_s": res.measured_s,
        "ops": res.ops,
        "latencies_ms": res.latencies_ms,
        "attempted": res.attempted,
        "failed": res.failed,
        "correct": res.correct,
        "errors": res.errors,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "layers": res.layers,
        "exact": res.exact,
    }
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

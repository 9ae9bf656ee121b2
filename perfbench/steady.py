"""Steadiness check of the benchmark itself.

    python3 perfbench/steady.py --runs 5 [--workloads exec-steady ...] [--sets 2] [--traced 2]

Runs each workload ``--runs`` times (seeds ``--seed0``, ``--seed0 + 1``, ...)
and prints, for every end-to-end metric, the median and the spread
(inter-quartile range over the median, quartiles as
``statistics.quantiles(values, n=4)`` gives them).  A metric whose spread
exceeds its bound in ``BENCHMARK.json`` is flagged; ``setup_s`` is reported
but not flagged, as its bound guards the median only.  With ``--sets 2``
the whole series runs twice and the second median must not be worse than
the first by more than the bound.  ``--traced N`` adds N traced runs and
checks that every exact count (tier counts, instruction counts, IR op
counts) repeats exactly.  Exit code 1 if anything is flagged.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles
from typing import Dict, List

import run as bench

ROOT = Path(__file__).resolve().parents[1]


def one_run(workload: str, seed: int, seconds: int, trace: int) -> Dict:
    cmd = [
        sys.executable, str(Path(__file__).with_name("run.py")),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def spread(values: List[float]) -> float:
    q1, q2, q3 = quantiles(values, n=4)
    return (q3 - q1) / median(values)


def worse_by(first: float, second: float, better: str) -> float:
    """Share by which ``second`` is worse than ``first`` (negative: better)."""
    change = (second - first) / first
    return -change if better == "higher" else change


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, choices=(1, 2), default=1)
    parser.add_argument("--traced", type=int, default=0)
    parser.add_argument("--seed0", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    args = parser.parse_args(argv)
    bounds = {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}

    flagged: List[str] = []
    summary: Dict[str, Dict] = {}
    for workload in args.workloads:
        medians: List[Dict[str, float]] = []
        shares = set()
        for s in range(args.sets):
            values: Dict[str, List[float]] = {name: [] for name in bounds}
            for i in range(args.runs):
                result = one_run(workload, args.seed0 + s * args.runs + i, args.seconds, 0)
                shares.add((result["failed"], result["attempted"]) if result["failed"] else 0)
                if not result["correct"]:
                    flagged.append(f"{workload}: run reported correct=false")
                for name in bounds:
                    values[name].append(result["metrics"][name]["value"])
            set_medians = {}
            print(f"{workload} set {s + 1} ({args.runs} runs, {args.seconds}s each)", flush=True)
            for name, (bound, _) in bounds.items():
                med, sp = median(values[name]), spread(values[name])
                set_medians[name] = med
                mark = ""
                if sp > bound and name != "setup_s":
                    mark = "  SPREAD > BOUND"
                    flagged.append(f"{workload} {name}: spread {sp:.3f} > bound {bound}")
                print(f"  {name:18s} median {med:14.6g}  spread {sp:6.3f}  bound {bound}{mark}")
                print("    " + " ".join(f"{v:.4g}" for v in values[name]), flush=True)
                summary.setdefault(workload, {})[f"set{s + 1}.{name}"] = {"median": med, "spread": sp}
            medians.append(set_medians)
        if len(shares) > 1:
            flagged.append(f"{workload}: the failed share differs between runs: {sorted(map(str, shares))}")
        if args.sets == 2:
            for name, (bound, better) in bounds.items():
                delta = worse_by(medians[0][name], medians[1][name], better)
                if delta > bound:
                    flagged.append(f"{workload} {name}: second median worse by {delta:.3f} > {bound}")
                print(f"  {name:18s} second set worse by {delta:+.3f}")

    if args.traced:
        exact: Dict[str, set] = {name: set() for name in bench.EXACT}
        for i in range(args.traced):
            result = one_run(args.workloads[0], args.seed0 + 1000 + i, args.seconds, 1)
            for name in bench.EXACT:
                exact[name].add(result["metrics"].get(name, {}).get("value"))
        for name, seen in exact.items():
            status = "repeats" if len(seen) == 1 and None not in seen else f"DIFFERS {sorted(map(str, seen))}"
            if status != "repeats":
                flagged.append(f"exact count {name} {status}")
            print(f"  exact {name:42s} {status}")

    print(json.dumps({"flagged": flagged, "summary": summary}))
    return 1 if flagged else 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 benchmarks/collect.py --seeds 1-10 [--workload NAME ...] [--trace 1]
                                  [--out benchmarks/BENCH_<label>.json]

Each run is `benchmarks/run.py` with the run length from BENCHMARK.json.
For every workload and metric the summary gives the values, their median,
quartiles (statistics.quantiles, n=4) and the quartile spread as a share of
the median, next to the metric's bound; the machine description of the
first run is recorded with them.  Exits non-zero if any run failed its
output check, or if any spread exceeds its metric's bound.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}, no result\n{proc.stderr}")
    machine = {}
    for line in lines:
        if line.startswith("# machine "):
            machine = json.loads(line[len("# machine "):])
    return json.loads(lines[-1]), machine


def summarise(values: list[float], bound) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median if median else 0.0
    return {"median": median, "q1": q1, "q3": q3, "spread": spread,
            "bound": bound, "values": values}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    metric_specs = spec["per_layer"] if args.trace else spec["end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in metric_specs}
    summary = {"run_seconds": spec["run_seconds"], "seeds": args.seeds,
               "trace": args.trace, "workloads": {}}
    ok = True
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        runs = []
        for seed in args.seeds:
            result, machine = run_once(workload, seed, spec["run_seconds"], args.trace)
            summary.setdefault("machine", machine)
            runs.append(result)
            ok &= result["correct"]
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()
                             if k in bounds and bounds[k] is not None),
                  file=sys.stderr, flush=True)
        metrics = {}
        for name in bounds:
            stats = summarise([r["metrics"][name]["value"] for r in runs], bounds[name])
            stats["unit"] = runs[0]["metrics"][name]["unit"]
            metrics[name] = stats
            if bounds[name] is not None:
                flag = "" if stats["spread"] <= bounds[name] else "  OVER BOUND"
                ok &= not flag
                print(f"{workload} {name}: median {stats['median']:.6g} {stats['unit']}, "
                      f"spread {stats['spread']:.4f} (bound {bounds[name]}){flag}")
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        print(f"{workload} failed_frac: {failed / attempted:.6g} ratio ({failed} of {attempted} fits)")
        summary["workloads"][workload] = {
            "attempted": attempted,
            "failed": failed,
            "correct": all(r["correct"] for r in runs),
            "metrics": metrics,
        }
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

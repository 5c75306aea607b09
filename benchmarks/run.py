"""emirt benchmark: one workload, measured end to end or per layer.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The program is imported from ./src.  With
--trace 0 the last stdout line is a JSON object with the end-to-end metrics
(setup_s, wall_s, peak_rss_mb); with --trace 1 it carries the per-layer
metrics of a traced run.  Lines before it describe the machine, the input
and every metric by name and unit, failed_frac included.  The workloads and
metrics are documented in benchmarks/README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"

# Pool workers x BLAS threads must not exceed the two cores: one BLAS thread.
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
# A run may take --seconds plus this: the set-up interpreters, the CSV, the
# ops every run makes whatever --seconds is (one per input, or the traced
# pairs) and the op still running when --seconds end.
DEADLINE_MARGIN_S = 140.0


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "IRT_THREADS"}
    env.update(PINNED_ENV)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _cache_size(level: int) -> str:
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            if int((index / "level").read_text()) == level and (
                (index / "type").read_text().strip() != "Instruction"
            ):
                return (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
    return "unknown"


def machine_info() -> dict:
    import numpy as np

    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "l2_per_core": _cache_size(2),
        "l3": _cache_size(3),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": PINNED_ENV["OPENBLAS_NUM_THREADS"],
    }


def run_measurement(args, csv_path: Path, work_dir: Path, env: dict, deadline: float) -> dict:
    result_path = work_dir / "result.json"
    command = [
        sys.executable, str(BENCH_DIR / "measure.py"),
        "--workload", args.workload, "--size", args.size, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--csv", str(csv_path), "--work-dir", str(work_dir), "--result", str(result_path),
    ]
    # A session of its own, so a timeout can stop the pool workers too.
    proc = subprocess.Popen(command, env=env, cwd=ROOT, stdout=subprocess.DEVNULL,
                            start_new_session=True)
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise RuntimeError("measurement exceeded the time limit")
    if code != 0:
        raise RuntimeError(f"measurement process exited with code {code}")
    return json.loads(result_path.read_text(encoding="utf-8"))


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv=None) -> int:
    started = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=["full", "tiny"], default="full",
                        help="tiny runs the same workload at smoke-test size")
    args = parser.parse_args(argv)
    deadline = started + args.seconds + DEADLINE_MARGIN_S

    if not (SRC / "emirt" / "__init__.py").is_file():
        print(f"error: no emirt package under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    os.environ.update(PINNED_ENV)  # before numpy is imported here
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    if not workloads.REFERENCE_PATH.is_file():
        print(f"error: missing {workloads.REFERENCE_PATH}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]

    work_dir = WORK_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    work_dir.mkdir(parents=True)
    try:
        env = child_env()
        print("# machine " + json.dumps(machine_info()))
        csv_path = work_dir / "responses.csv"
        if workload.kind == "fit":
            info = workloads.write_response_csv(csv_path, workload.persons[args.size], args.seed)
            print("# input " + json.dumps(info))
        result = run_measurement(args, csv_path, work_dir, env, deadline)
    except (RuntimeError, OSError, subprocess.CalledProcessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass

    attempted, failed = result["attempted"], result["failed"]
    correct = failed == 0 and not result["problems"]
    for problem in result["problems"]:
        print(f"# FAILED {problem}")
    if args.trace:
        metrics = result["layers"]
        ratios = result["pair_ratios"]
        print(f"# {args.workload}: {result['trace_ops']} ops traced, each also run untraced; "
              f"traced/untraced wall ratios {min(ratios):.4f} to {max(ratios):.4f}"
              + ("" if min(ratios) > 1 or max(ratios) < 1 else
                 ", so trace.overhead_frac is below what host drift resolves"))
    else:
        metrics = {
            "setup_s": {"value": result["setup_s"], "unit": "s"},
            "wall_s": {"value": result["wall_s"], "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
        print(f"# {args.workload}: {result['ops']} ops, {result['fits_raised']} fits raised "
              "as the reference expects, op walls "
              + " ".join(f"{w:.4f}" for w in result["walls"]))
    shown = dict(metrics)
    shown["failed_frac"] = {"value": failed / attempted if attempted else 0.0, "unit": "ratio"}
    status = "" if correct else "  (INVALID: output check failed)"
    for name, metric in shown.items():
        print(f"# {args.workload} {name} = {_fmt(metric['value'])} {metric['unit']}{status}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

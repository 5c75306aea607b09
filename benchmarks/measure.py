"""Measuring process: runs one workload's ops through emirt.cli.main.

Started by run.py in a fresh interpreter whose environment already pins the
BLAS thread count, so its peak resident memory, and that of its pool
workers, belongs to the workload alone.  Writes its results as JSON.

Untraced mode runs ops until --seconds have passed and every input has run
once (at least MIN_OPS ops), and reports the mean over inputs of each
input's mean op wall time: the run's time per op, every input weighted
equally.  Between ops it also times SETUP_REPEATS fresh interpreters
importing emirt.cli, spread evenly over the run, and reports their median.

Traced mode runs whole passes over the inputs, at least MIN_TRACE_PAIRS
ops, each once untraced and once traced on the same input, so its counts
repeat exactly whatever the seed, and the median wall-time ratio of the
pairs gives the tracing overhead.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import emirt  # noqa: E402
import emirt.cli  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

MIN_OPS = 3
SETUP_REPEATS = 11
# Times `python -c "import emirt.cli"` once per line it reads.  It runs the
# set-up interpreters as its own children, not this process's, so that they
# stay out of this process's peak RSS of children: its pool workers'.
SETUP_SAMPLER = """
import subprocess, sys, time
for _ in sys.stdin:
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import emirt.cli"], check=True)
    print(time.perf_counter() - start, flush=True)
"""
MIN_TRACE_PAIRS = 5


class Runner:
    """Runs ops, checks their outputs and tallies attempted and failed fits."""

    def __init__(self, workload, size, csv_path, work_dir):
        self.workload = workload
        self.calls = workload.calls[size]
        self.size = size
        self.csv_path = csv_path
        self.work_dir = work_dir
        self.reference = workloads.load_reference()
        self.attempted = 0
        self.failed = 0
        self.fits_raised = 0  # as the study JSONs report them
        self.problems: list[str] = []
        self.ops = 0

    def op(self, key, tracer=None) -> tuple[float, int]:
        """Run one op; return its wall time and the bytes it wrote."""
        out_dir = self.work_dir / f"op{self.ops}"
        out_dir.mkdir()
        self.ops += 1
        argvs = [
            workloads.call_argv(self.workload, call, key, self.csv_path, out_dir)
            for call in self.calls
        ]
        codes = []
        with contextlib.redirect_stdout(io.StringIO()):
            start = time.perf_counter()
            for argv in argvs:
                if tracer is None:
                    codes.append(emirt.cli.main(argv))
                else:
                    codes.append(tracer.call("cli.main", emirt.cli.main, argv))
            wall = time.perf_counter() - start
        written = sum(p.stat().st_size for p in out_dir.iterdir())
        for call, code in zip(self.calls, codes):
            self._check(call, code, key, out_dir)
        shutil.rmtree(out_dir)
        return wall, written

    def _check(self, call, code, key, out_dir):
        self.attempted += call.fits
        where = f"{call.tag} (input {key})"
        if code != 0:
            self.failed += call.fits
            self.problems.append(f"{where}: exit code {code}")
            return
        got = workloads.extract(self.workload, call, out_dir)
        want = workloads.reference_for(self.reference, self.workload, self.size, key, call)
        diffs = workloads.mismatches(got, want)
        # Fits that raised are part of the checked output: the reference
        # records how many raise for this input.
        self.fits_raised += got.get("failures", 0)
        if diffs:
            self.failed += call.fits
            self.problems.append(f"{where}: {len(diffs)} mismatches, first {diffs[0]}")


def _peak_rss_mb() -> float:
    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return peak_kb / 1024.0


def measure(args) -> dict:
    workload = workloads.WORKLOADS[args.workload]
    runner = Runner(workload, args.size, args.csv, args.work_dir)
    result = {}
    if not args.trace:
        sampler = subprocess.Popen([sys.executable, "-c", SETUP_SAMPLER], cwd=ROOT,
                                   stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

        def setup_seconds() -> float:
            """Time from a fresh interpreter until emirt.cli is imported."""
            sampler.stdin.write("\n")
            sampler.stdin.flush()
            return float(sampler.stdout.readline())

        setup_seconds()  # warms the file cache; not counted
        walls, setups = [], []
        by_input = defaultdict(list)
        keys = workloads.op_inputs(workload, args.seed)
        min_ops = max(MIN_OPS, workloads.distinct_inputs(workload))
        started = time.perf_counter()
        elapsed = 0.0  # run time so far, less the set-up samples
        while elapsed < args.seconds or len(walls) < min_ops:
            key = next(keys)
            walls.append(runner.op(key)[0])
            by_input[key].append(walls[-1])
            # Set-up samples are spread over the run, so that they see the
            # host's drift over the run as the ops do, not a few seconds of it.
            elapsed = time.perf_counter() - started - sum(setups)
            while len(setups) < SETUP_REPEATS * min(1.0, elapsed / args.seconds):
                setups.append(setup_seconds())
        while len(setups) < SETUP_REPEATS:
            setups.append(setup_seconds())
        result["peak_rss_mb"] = _peak_rss_mb()  # before the sampler is reaped
        sampler.stdin.close()
        if sampler.wait() != 0:
            raise RuntimeError(f"set-up sampler exited with code {sampler.returncode}")
        result["setup_s"] = statistics.median(setups)
        result["walls"] = walls
        # Every input runs at least once, and inputs are weighted equally, so
        # which inputs ran twice does not move the figure.  A mean over the
        # run, not a median: on a host whose speed drifts by 10-25% from op
        # to op, it spreads less from run to run.
        result["wall_s"] = statistics.mean(statistics.mean(w) for w in by_input.values())
    else:
        # Whole passes over the inputs, so the counts depend neither on the
        # seed nor on --seconds, and at least MIN_TRACE_PAIRS pairs, so the
        # median pair ratio is not one pair's host drift.
        inputs = workloads.distinct_inputs(workload)
        n_ops = inputs * -(-MIN_TRACE_PAIRS // inputs)
        spool = args.work_dir / "spool"
        spool.mkdir()
        tracer = tracing.Tracer(spool)
        ratios = []
        written = 0
        keys = itertools.islice(workloads.op_inputs(workload, args.seed), n_ops)
        for i, key in enumerate(keys):
            # Alternate which of the pair runs first, so that neither side
            # alone pays for the process's first op.
            if i % 2 == 0:
                untraced = runner.op(key)[0]
            tracer.install()
            try:
                traced, nbytes = runner.op(key, tracer)
            finally:
                tracer.uninstall()
            tracer.collect_spool()
            written += nbytes
            if i % 2 == 1:
                untraced = runner.op(key)[0]
            ratios.append(traced / untraced)
        result["layers"] = tracing.layer_metrics(
            tracer.spans, tracer.counts, n_ops, ratios, written, runner.fits_raised
        )
        result["trace_ops"] = n_ops
        result["pair_ratios"] = ratios
    result.update(
        ops=runner.ops,
        attempted=runner.attempted,
        failed=runner.failed,
        fits_raised=runner.fits_raised,
        problems=runner.problems,
    )
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--size", required=True, choices=["full", "tiny"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    parser.add_argument("--csv", type=Path, required=True)
    parser.add_argument("--work-dir", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    args = parser.parse_args(argv)
    if not Path(emirt.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: emirt imported from {emirt.__file__}, not {ROOT / 'src'}", file=sys.stderr)
        return 2
    args.result.write_text(json.dumps(measure(args)), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Record the reference outputs that every benchmark op is checked against.

    python3 benchmarks/record_reference.py [--size full|tiny ...]

Runs each workload's calls once per pool entry (study seeds) or once on the
response CSV, through emirt.cli.main, and writes the checked values to
benchmarks/reference.json.  Run it only on a commit whose outputs are known
good: a change to emirt's results must be explained before re-recording.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

from run import PINNED_ENV  # noqa: E402

os.environ.update(PINNED_ENV)

import emirt.cli  # noqa: E402

import workloads  # noqa: E402


def record(workload, size: str, tmp: Path) -> dict:
    csv_path = tmp / "responses.csv"
    if workload.kind == "fit":
        workloads.write_response_csv(csv_path, workload.persons[size], seed=0)
        keys = [None]
    else:
        keys = list(workload.pool)
    entries = {}
    for key in keys:
        values = {}
        for call in workload.calls[size]:
            argv = workloads.call_argv(workload, call, key, csv_path, tmp)
            with contextlib.redirect_stdout(io.StringIO()):
                code = emirt.cli.main(argv)
            if code != 0:
                raise SystemExit(f"{workload.name} {call.tag} input {key}: exit code {code}")
            values[call.tag] = workloads.extract(workload, call, tmp)
        print(f"recorded {workload.name} {size} input {key}", file=sys.stderr)
        if workload.kind == "fit":
            return values
        entries[str(key)] = values
    return entries


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--size", action="append", choices=["full", "tiny"])
    args = parser.parse_args(argv)
    sizes = args.size or ["tiny", "full"]
    path = workloads.REFERENCE_PATH
    reference = json.loads(path.read_text(encoding="utf-8")) if path.is_file() else {}
    with tempfile.TemporaryDirectory(dir=BENCH_DIR.parent) as tmp:
        for workload in workloads.WORKLOADS.values():
            for size in sizes:
                reference.setdefault(workload.name, {})[size] = record(workload, size, Path(tmp))
    path.write_text(json.dumps(reference, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

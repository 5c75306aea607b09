"""The benchmark's workloads: inputs made from the seed, emirt calls, output checks.

One op is one workload run: the `emirt` calls below, made in process through
`emirt.cli.main`.  Study inputs are study seeds taken from the workload's
pool, whose outputs were recorded from a known-good commit in reference.json
(see record_reference.py), so every op's output is checked against reference
values at ABS_TOL whatever the workload seed.  The workload seed fixes the
order in which a run goes through its pool.
"""
from __future__ import annotations

import csv
import itertools
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REFERENCE_PATH = BENCH_DIR / "reference.json"

# Study seeds with recorded reference outputs.  A run covers its whole pool,
# so the acceptance pool, whose ops take ~5 s, is smaller.
SWEEP_POOL = tuple(range(101, 117))
ACCEPTANCE_POOL = tuple(range(101, 106))
# Absolute tolerance on estimates; the log-likelihood uses it relative to
# max(1, |loglik|), since at 1e6 an absolute 1e-10 is below one ulp.
ABS_TOL = 1e-10

# The response CSV: a fixed sample whose rows the workload seed shuffles.
# Tabulation sorts patterns, so every seed gives the same pattern table and
# the same EM work, and one recorded fit checks every seed's output.
CSV_DATA_SEED = 20241127
CSV_ITEMS = 30


@dataclass(frozen=True)
class Call:
    """One `emirt` invocation within an op."""

    tag: str
    argv: tuple[str, ...]  # without the --seed/--out (study) or data/--out (fit)
    fits: int  # fits attempted


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "study" or "fit"
    calls: dict  # size -> tuple[Call, ...]
    pool: tuple  # study seeds (study workloads)
    persons: dict  # size -> persons in the response CSV (fit workloads)


def _sweep(reps, n):
    quads = (2, 3, 4, 5, 8, 10, 15)
    argv = ("quadstudy", "--model", "2pl", "--estimator", "ols",
            "--quads", ",".join(map(str, quads)), "--workers", "1",
            "--reps", str(reps), "--n-persons", str(n))
    return (Call("sweep", argv, reps * len(quads)),)


# The real acceptance designs run 500 reps each.  At 16 reps the pool deals
# 2-rep chunks, and the time split is close to the 500-rep one: NR is 94-95%
# of fit time (95% at 500) and generate + tabulate 4% (4%); pool efficiency
# is 0.89-0.91 (0.95), so pool start-up and the last chunk weigh more.
def _acceptance(reps1, reps2, n):
    def design(tag, model, quads, reps):
        argv = ("simulate", "--model", model, "--n-quads", str(quads),
                "--estimator", "both", "--workers", "2",
                "--reps", str(reps), "--n-persons", str(n))
        return Call(tag, argv, reps * 2)

    return (design("criterion1", "1pl", 2, reps1), design("criterion2", "2pl", 4, reps2))


FIT_CALL = Call("fit", ("fit", "--model", "2pl", "--n-quads", "10", "--estimator", "ols"), 1)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "study-ols-sweep", "study",
            {"full": _sweep(10, 5000), "tiny": _sweep(2, 1000)},
            SWEEP_POOL, {},
        ),
        Workload(
            "study-acceptance-both", "study",
            {"full": _acceptance(16, 16, 5000), "tiny": _acceptance(2, 2, 5000)},
            ACCEPTANCE_POOL, {},
        ),
        Workload(
            "fit-csv-large", "fit",
            {"full": (FIT_CALL,), "tiny": (FIT_CALL,)},
            (), {"full": 100_000, "tiny": 2_000},
        ),
    )
}


def op_inputs(workload: Workload, seed: int):
    """Endless iterator over each op's study seed (None for the CSV workload)."""
    if workload.kind == "fit":
        return itertools.repeat(None)
    pool = workload.pool
    return itertools.cycle(random.Random(seed).sample(pool, len(pool)))


def distinct_inputs(workload: Workload) -> int:
    """How many ops it takes op_inputs to cycle through every input once."""
    return 1 if workload.kind == "fit" else len(workload.pool)


def call_argv(workload: Workload, call: Call, key, csv_path: Path, out_dir: Path) -> list[str]:
    if workload.kind == "fit":
        return [call.argv[0], str(csv_path), *call.argv[1:], "--out", str(out_dir / "fit.json")]
    return [*call.argv, "--seed", str(key), "--out", str(out_dir / call.tag)]


# ---------------------------------------------------------------------------
# response CSV


def write_response_csv(path: Path, persons: int, seed: int) -> dict:
    """Write the fit workload's CSV and return its shape, pattern ratio and size.

    A 2PL sample with evenly spaced discriminations and difficulties; the
    header row names the items.  Written with numpy byte arrays, not emirt.
    """
    import numpy as np

    rng = np.random.default_rng(CSV_DATA_SEED)
    a = np.linspace(0.5, 2.0, CSV_ITEMS)
    b = np.linspace(-2.5, 2.5, CSV_ITEMS)
    theta = rng.standard_normal(persons)
    prob = 1.0 / (1.0 + np.exp(-a * (theta[:, None] - b)))
    x = (rng.random(prob.shape) < prob).astype(np.uint8)
    x = x[np.random.default_rng(seed).permutation(persons)]

    text = np.empty((persons, 2 * CSV_ITEMS), dtype=np.uint8)
    text[:, 0::2] = x + ord("0")
    text[:, 1::2] = ord(",")
    text[:, -1] = ord("\n")
    header = ",".join(f"item{j + 1}" for j in range(CSV_ITEMS)) + "\n"
    payload = header.encode() + text.tobytes()
    path.write_bytes(payload)

    codes = x.astype(np.int64) @ (1 << np.arange(CSV_ITEMS, dtype=np.int64))
    return {
        "persons": persons,
        "items": CSV_ITEMS,
        "distinct_ratio": len(np.unique(codes)) / persons,
        "bytes": len(payload),
    }


# ---------------------------------------------------------------------------
# output checks


def extract(workload: Workload, call: Call, out_dir: Path) -> dict:
    """The checked values of one call's output files."""
    if workload.kind == "fit":
        payload = json.loads((out_dir / "fit.json").read_text(encoding="utf-8"))
        return {
            "a": [item["a"] for item in payload["items"]],
            "b": [item["b"] for item in payload["items"]],
            "loglik": payload["loglik"],
            "converged": payload["converged"],
        }
    stem = out_dir / call.tag
    with open(stem.with_suffix(".csv"), newline="", encoding="utf-8") as fh:
        records = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
    header, body = records[0], records[1:]
    rows = {}
    for record in body:
        row = dict(zip(header, record))
        key = f"{row['item']}/{row['estimator']}/{row['n_quads']}"
        rows[key] = [
            float(row[k]) for k in ("true_a", "true_b", "mean_a", "mean_b", "rmse_a", "rmse_b")
        ] + [int(row["outliers"]), int(row["reps"])]
    summary = json.loads(stem.with_suffix(".json").read_text(encoding="utf-8"))
    return {"rows": rows, "failures": summary["failures"]}


def _close(x, y, tol):
    if isinstance(x, float) and isinstance(y, float) and math.isnan(x) and math.isnan(y):
        return True
    if isinstance(x, bool) or isinstance(y, bool) or isinstance(x, int) and isinstance(y, int):
        return x == y
    return abs(x - y) <= tol


def mismatches(got: dict, want: dict) -> list[str]:
    """Differences between extracted values and their reference."""
    out = []
    if "rows" in want:
        if got["failures"] != want["failures"]:
            out.append(f"fits raised: {got['failures']} vs {want['failures']}")
        if sorted(got["rows"]) != sorted(want["rows"]):
            return [f"row keys differ: {sorted(got['rows'])} vs {sorted(want['rows'])}"]
        for key, values in want["rows"].items():
            for i, (x, y) in enumerate(zip(got["rows"][key], values)):
                if not _close(x, y, ABS_TOL):
                    out.append(f"row {key} field {i}: {x!r} vs {y!r}")
        return out
    for name in ("a", "b"):
        if len(got[name]) != len(want[name]):
            return [f"{name}: {len(got[name])} items vs {len(want[name])}"]
        for j, (x, y) in enumerate(zip(got[name], want[name])):
            if not _close(x, y, ABS_TOL):
                out.append(f"{name}[{j}]: {x!r} vs {y!r}")
    if not _close(got["loglik"], want["loglik"], ABS_TOL * max(1.0, abs(want["loglik"]))):
        out.append(f"loglik: {got['loglik']!r} vs {want['loglik']!r}")
    if got["converged"] is not True:
        out.append("fit did not converge")
    return out


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))


def reference_for(reference: dict, workload: Workload, size: str, key, call: Call) -> dict:
    entry = reference[workload.name][size]
    return entry[call.tag] if workload.kind == "fit" else entry[str(key)][call.tag]

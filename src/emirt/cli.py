"""Command-line front end: fit response data, run simulation studies.

Exit codes: 0 success, 1 input error, 2 non-convergence (results are
still written).

The study CSV has one row per item x estimator x quadrature count, in the
columns of STUDY_CSV_COLUMNS.  The first line is a comment referencing the
JSON file that carries the run manifest.  Timing and filtered statistics
live in the JSON only, so the CSV is byte-identical across runs with the
same flags and seed.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import sys
from dataclasses import asdict
from datetime import datetime, timezone
from pathlib import Path

from . import __version__, em_ols, simgen
from .em_ols import FitConfig, FitResult
from .model import ItemParams, ModelKind
from .patterns import load_response_csv, tabulate
from .simgen import StudyDesign, StudySummary, is_outlier

SCHEMA_VERSION = 5

STUDY_CSV_COLUMNS = (
    "item",
    "estimator",
    "n_quads",
    "true_a",
    "true_b",
    "mean_a",
    "mean_b",
    "rmse_a",
    "rmse_b",
    "outliers",
    "reps",
)

FIT_CSV_COLUMNS = (
    "item",
    "estimator",
    "a",
    "b",
    "tau",
    "outlier",
    "flags",
    "converged",
    "iterations",
    "loglik",
    "phi_max",
)


def _utcnow() -> str:
    return datetime.now(timezone.utc).isoformat()


def _manifest(command: str, config: dict, seed: int | None, started: str, digested: bytes) -> dict:
    """The run record every command writes; input_digest is the sha256 of digested."""
    return {
        "command": command,
        "config": config,
        "seed": seed,
        "version": __version__,
        "started_utc": started,
        "finished_utc": _utcnow(),
        "input_digest": hashlib.sha256(digested).hexdigest(),
    }


def _json_text(payload) -> str:
    """payload as indented JSON, with null for every non-finite float: RFC 8259 has no NaN."""

    def finite(value):
        if isinstance(value, float):
            return value if math.isfinite(value) else None
        if isinstance(value, dict):
            return {k: finite(v) for k, v in value.items()}
        if isinstance(value, (list, tuple)):
            return [finite(v) for v in value]
        return value

    return json.dumps(finite(payload), indent=2, allow_nan=False) + "\n"


def _parse_float_list(text: str) -> list[float]:
    """The numbers of a comma-separated list; "" is the empty list, and an
    empty item anywhere else is an error."""
    if not text:
        return []
    try:
        return [float(tok) for tok in text.split(",")]
    except ValueError:
        raise ValueError(f"expected a comma-separated list of numbers, got {text!r}")


def _parse_int_list(text: str) -> list[int]:
    values = _parse_float_list(text)
    for v in values:
        if not v.is_integer():  # nor is inf or nan
            raise ValueError(f"expected integers, got {v}")
    return [int(v) for v in values]


def _estimator_list(flag: str) -> tuple[str, ...]:
    return simgen.ESTIMATORS if flag == "both" else (flag,)


def _csv_cell(value):
    """A CSV cell by type: floats by repr, flag lists joined by ';', booleans as 0/1."""
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, float):
        return repr(float(value))
    if isinstance(value, list):
        return ";".join(value)
    return value


def _write_csv(path: Path, manifest_name: str, columns: tuple[str, ...], rows) -> None:
    """Write the manifest comment, the header and each row mapping's cells, in columns order."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(f"# manifest: {manifest_name}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows([_csv_cell(row[c]) for c in columns] for row in rows)


# ---------------------------------------------------------------------------
# fit


def _fit_block(result: FitResult, model: ModelKind, estimator: str) -> dict:
    items = []
    for j, p in enumerate(result.params):
        degenerate = em_ols.DEGENERATE_SLOPE in result.flags[j]
        items.append(
            {
                "index": j + 1,
                "a": p.a,
                "b": p.b,
                "tau": p.tau,
                "outlier": is_outlier(p, model, degenerate),
                "flags": list(result.flags[j]),
            }
        )
    return {
        "estimator": estimator,
        "converged": result.converged,
        "iterations": result.iterations,
        "loglik": result.final_loglik,
        "phi_max": result.final_phi_max,
        "loglik_decreases": result.loglik_decreases,
        "items": items,
        "trace": {
            "loglik": result.loglik_trace,
            "max_delta": result.max_delta_trace,
            "phi_max": result.phi_max_trace,
        },
    }


def cmd_fit(args) -> int:
    started = _utcnow()
    data_path = Path(args.data)
    raw = data_path.read_bytes()
    data = tabulate(load_response_csv(data_path, raw))

    model = ModelKind(args.model)
    cfg = FitConfig(model=model, n_quads=args.n_quads, tol=args.tol, max_iter=args.max_iter)
    blocks = [
        _fit_block(simgen.fit_estimator(data, estimator, cfg), model, estimator)
        for estimator in _estimator_list(args.estimator)
    ]

    flags = {k: v for k, v in vars(args).items() if k not in ("command", "func")}
    manifest = _manifest("fit", flags, None, started, raw)

    out_path = Path(args.out)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    if args.format == "json":
        payload: dict = {"schema_version": SCHEMA_VERSION, "manifest": manifest}
        if len(blocks) == 1:
            block = dict(blocks[0])
            block.pop("estimator")
            payload.update(block)
        else:
            payload["fits"] = {b["estimator"]: b for b in blocks}
            pairs = list(zip(blocks[0]["items"], blocks[1]["items"]))
            payload["disagreement"] = {
                f"max_abs_{k}": max(abs(ia[k] - ib[k]) for ia, ib in pairs) for k in ("a", "b")
            }
        out_path.write_text(_json_text(payload), encoding="utf-8")
    else:
        manifest_path = Path(str(out_path) + ".manifest.json")
        manifest_path.write_text(_json_text(manifest), encoding="utf-8")
        rows = [{"item": i["index"], **block, **i} for block in blocks for i in block["items"]]
        _write_csv(out_path, manifest_path.name, FIT_CSV_COLUMNS, rows)
    print(f"wrote {out_path}")

    for block in blocks:
        status = "converged" if block["converged"] else "did NOT converge"
        print(
            f"{block['estimator']}: {status} after {block['iterations']} iterations, "
            f"loglik {block['loglik']:.4f}"
        )
    if not all(b["converged"] for b in blocks):
        return 2
    return 0


# ---------------------------------------------------------------------------
# simulate / quadstudy


def _resolve_truth(args, model: ModelKind) -> tuple[ItemParams, ...]:
    true_b = (
        _parse_float_list(args.true_b)
        if args.true_b is not None
        else list(simgen.DEFAULT_TRUE_B)
    )
    if args.true_a is not None:
        true_a = _parse_float_list(args.true_a)
    elif model is ModelKind.ONE_PL:
        true_a = [1.0] * len(true_b)
    else:
        true_a = list(simgen.DEFAULT_TRUE_A)
    if len(true_a) != len(true_b):
        raise ValueError(
            f"--true-a has {len(true_a)} values but --true-b has {len(true_b)}"
        )
    return tuple(ItemParams(a=a, b=b) for a, b in zip(true_a, true_b))


def _summary_json(summary: StudySummary) -> dict:
    design = summary.design
    return {
        "design": {
            "true_a": [p.a for p in design.true_params],
            "true_b": [p.b for p in design.true_params],
            "n_persons": design.n_persons,
            "reps": design.reps,
            "model": design.model.value,
            "t_list": list(design.t_list),
            "seed": design.seed,
        },
        "rows": [asdict(row) for row in summary.rows],
        "timing": [asdict(t) for t in summary.timing],
        "failures": summary.failures,
    }


def _run_study(args, command: str, t_list: tuple[int, ...]) -> int:
    started = _utcnow()
    model = ModelKind(args.model)
    truth = _resolve_truth(args, model)
    design = StudyDesign(
        true_params=truth,
        n_persons=args.n_persons,
        reps=args.reps,
        model=model,
        t_list=t_list,
        seed=args.seed,
    )
    estimators = _estimator_list(args.estimator)
    summary = simgen.replicate_study(design, estimators=estimators, workers=args.workers)

    config = {
        "model": args.model,
        "estimator": args.estimator,
        "t_list": list(t_list),
        "reps": args.reps,
        "n_persons": args.n_persons,
        "seed": args.seed,
        "true_a": [p.a for p in truth],
        "true_b": [p.b for p in truth],
        "workers": args.workers,
        "out": str(args.out),
    }
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    manifest = _manifest(command, config, args.seed, started, canonical.encode())

    stem = Path(args.out)
    if stem.suffix in (".csv", ".json"):
        stem = stem.with_suffix("")
    stem.parent.mkdir(parents=True, exist_ok=True)
    # appended, not swapped in: the stems d/run.seed1 and d/run.seed2 name two studies
    csv_path = stem.with_name(stem.name + ".csv")
    json_path = stem.with_name(stem.name + ".json")

    payload = {
        "schema_version": SCHEMA_VERSION,
        "manifest": manifest,
        **_summary_json(summary),
    }
    json_path.write_text(_json_text(payload), encoding="utf-8")
    _write_csv(csv_path, json_path.name, STUDY_CSV_COLUMNS, map(asdict, summary.rows))
    print(f"wrote {csv_path} and {json_path}")
    if summary.failures:
        print(f"note: {summary.failures} fit(s) failed and were excluded")
    return 0


def cmd_simulate(args) -> int:
    cfg = FitConfig(model=ModelKind(args.model), n_quads=args.n_quads)
    return _run_study(args, "simulate", (cfg.resolved_quads,))


def cmd_quadstudy(args) -> int:
    quads = simgen.DEFAULT_QUAD_SWEEP if args.quads is None else tuple(_parse_int_list(args.quads))
    return _run_study(args, "quadstudy", quads)


# ---------------------------------------------------------------------------
# parser


def _add_model_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--model", required=True, choices=[kind.value for kind in ModelKind])
    sub.add_argument("--estimator", default="ols", choices=[*simgen.ESTIMATORS, "both"])


def _add_study_flags(sub: argparse.ArgumentParser) -> None:
    _add_model_flags(sub)
    sub.add_argument("--reps", type=int, default=500)
    sub.add_argument("--n-persons", type=int, default=5000)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--true-a", default=None, help="comma-separated discriminations")
    sub.add_argument("--true-b", default=None, help="comma-separated difficulties")
    sub.add_argument("--workers", type=int, default=1,
                     help="processes fitting the study, each one contiguous run "
                     "of replications: this process and N-1 started ones (at most "
                     "one per replication; N >= 1; default 1)")
    sub.add_argument("--out", required=True, help="output stem; writes .csv and .json")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="emirt",
        description="1PL/2PL item parameter estimation by EM with a closed-form "
        "OLS M-step, plus a Newton-Raphson reference and a simulation harness.",
    )
    parser.add_argument("--version", action="version", version=f"emirt {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    fit = subs.add_parser("fit", help="estimate item parameters from a response CSV")
    fit.add_argument("data", help="CSV with one person per row, 0/1 values")
    _add_model_flags(fit)
    fit.add_argument("--n-quads", type=int, default=FitConfig.n_quads)
    fit.add_argument("--tol", type=float, default=FitConfig.tol)
    fit.add_argument("--max-iter", type=int, default=FitConfig.max_iter)
    fit.add_argument("--out", required=True)
    fit.add_argument("--format", default="json", choices=["json", "csv"])
    fit.set_defaults(func=cmd_fit)

    sim = subs.add_parser("simulate", help="run a Monte-Carlo replication study")
    _add_study_flags(sim)
    sim.add_argument("--n-quads", type=int, default=FitConfig.n_quads)
    sim.set_defaults(func=cmd_simulate)

    quad = subs.add_parser(
        "quadstudy", help="replication study swept over quadrature point counts"
    )
    _add_study_flags(quad)
    quad.add_argument("--quads", default=None, help="comma-separated node counts")
    quad.set_defaults(func=cmd_quadstudy)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

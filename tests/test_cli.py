"""Tests for the command-line interface and its file formats."""
import csv
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import emirt
from emirt.cli import STUDY_CSV_COLUMNS, build_parser, main
from emirt.em_ols import FitConfig
from emirt.model import ItemParams, ModelKind
from emirt.simgen import generate

MANIFEST_KEYS = [
    "command", "config", "seed", "version", "started_utc", "finished_utc", "input_digest",
]


def read_study_csv(path):
    """Parse an emitted study CSV back into typed row dicts."""
    rows = []
    with open(path, newline="", encoding="utf-8") as fh:
        records = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
    header, body = records[0], records[1:]
    assert tuple(header) == STUDY_CSV_COLUMNS
    for record in body:
        row = dict(zip(header, record))
        for key in ("item", "n_quads", "outliers", "reps"):
            row[key] = int(row[key])
        for key in ("true_a", "true_b", "mean_a", "mean_b", "rmse_a", "rmse_b"):
            row[key] = float(row[key])
        rows.append(row)
    return rows


@pytest.fixture
def response_csv(tmp_path):
    truth = [ItemParams(a=1, b=-0.5), ItemParams(a=1, b=0.0), ItemParams(a=1, b=0.5)]
    matrix = generate(truth, 600, 11)
    path = tmp_path / "responses.csv"
    np.savetxt(path, matrix, fmt="%d", delimiter=",")
    return path


class TestFit:
    def test_json_output(self, response_csv, tmp_path, capsys):
        out = tmp_path / "fit.json"
        code = main(
            ["fit", str(response_csv), "--model", "1pl", "--n-quads", "2", "--out", str(out)]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["schema_version"] == 5
        assert payload["manifest"]["command"] == "fit"
        assert len(payload["manifest"]["input_digest"]) == 64
        assert payload["converged"] is True
        assert len(payload["items"]) == 3
        item = payload["items"][1]
        assert set(item) == {"index", "a", "b", "tau", "outlier", "flags"}
        assert abs(item["b"]) < 0.2  # simulated at b=0
        assert len(payload["trace"]["loglik"]) == payload["iterations"] + 1
        assert len(payload["trace"]["max_delta"]) == payload["iterations"]
        phi_trace = payload["trace"]["phi_max"]
        assert len(phi_trace) == payload["iterations"]
        assert all(isinstance(v, float) and v >= 0 for v in phi_trace)
        assert phi_trace[-1] == payload["phi_max"]
        assert isinstance(payload["loglik_decreases"], int)
        assert 0 <= payload["loglik_decreases"] <= payload["iterations"]

    def test_reads_the_data_file_once(self, response_csv, tmp_path, monkeypatch):
        """The manifest digest and the fit come from one read of the file."""
        reads = []
        read_bytes = Path.read_bytes

        def counting_read_bytes(path):
            reads.append(path)
            return read_bytes(path)

        monkeypatch.setattr(Path, "read_bytes", counting_read_bytes)
        out = tmp_path / "fit.json"
        argv = ["fit", str(response_csv), "--model", "1pl", "--n-quads", "2", "--out", str(out)]
        assert main(argv) == 0
        assert reads == [response_csv]
        digest = json.loads(out.read_text())["manifest"]["input_digest"]
        assert digest == hashlib.sha256(read_bytes(response_csv)).hexdigest()

    def test_more_than_62_items(self, tmp_path):
        truth = [ItemParams(a=1, b=b) for b in np.linspace(-1.5, 1.5, 70)]
        path = tmp_path / "wide.csv"
        header = ",".join(f"item{j + 1}" for j in range(70))
        np.savetxt(path, generate(truth, 800, 5), fmt="%d", delimiter=",", header=header, comments="")
        out = tmp_path / "fit.json"
        code = main(["fit", str(path), "--model", "1pl", "--n-quads", "5", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["converged"] is True
        assert len(payload["items"]) == 70

    def test_both_estimators_report_disagreement(self, response_csv, tmp_path):
        out = tmp_path / "fit.json"
        code = main(
            ["fit", str(response_csv), "--model", "1pl", "--estimator", "both", "--out", str(out)]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert set(payload["fits"]) == {"ols", "nr"}
        for block in payload["fits"].values():
            assert len(block["trace"]["phi_max"]) == block["iterations"]
            assert isinstance(block["loglik_decreases"], int)
        assert payload["fits"]["nr"]["loglik_decreases"] == 0  # NR raises on a decrease
        gap = payload["disagreement"]
        assert gap["max_abs_a"] >= 0
        assert gap["max_abs_b"] < 0.1

    def test_csv_output_with_manifest_sidecar(self, response_csv, tmp_path):
        out = tmp_path / "fit.csv"
        code = main(
            ["fit", str(response_csv), "--model", "1pl", "--format", "csv", "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "# manifest: fit.csv.manifest.json"
        assert lines[1].startswith("item,estimator,a,b,tau")
        assert len(lines) == 2 + 3
        assert (tmp_path / "fit.csv.manifest.json").exists()

    def test_malformed_cell_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("1,0\n1,2\n")
        code = main(["fit", str(bad), "--model", "1pl", "--out", str(tmp_path / "o.json")])
        assert code == 1
        err = capsys.readouterr().err
        assert "row 2" in err and "column 2" in err

    def test_missing_file_exits_one(self, tmp_path):
        code = main(
            ["fit", str(tmp_path / "nope.csv"), "--model", "1pl", "--out", str(tmp_path / "o.json")]
        )
        assert code == 1

    @pytest.mark.parametrize("data", ["directory", "non_utf8_byte"])
    def test_input_error_is_one_error_line(self, tmp_path, capsys, data):
        """An input error, whatever raises it, reaches main's one handler."""
        path = tmp_path / "data"
        if data == "directory":
            path.mkdir()
        else:
            path.write_bytes(b"a,b\n1,0\n0,\xff\n")
        out = tmp_path / "o.json"
        assert main(["fit", str(path), "--model", "1pl", "--out", str(out)]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert data == "directory" or "row 3" in lines[0]
        assert not out.exists()

    def test_nonconvergence_exits_two_but_writes(self, response_csv, tmp_path):
        out = tmp_path / "fit.json"
        code = main(
            [
                "fit", str(response_csv), "--model", "1pl",
                "--max-iter", "1", "--tol", "1e-12", "--out", str(out),
            ]
        )
        assert code == 2
        payload = json.loads(out.read_text())
        assert payload["converged"] is False


class TestSimulate:
    def test_deterministic_csv_bytes(self, tmp_path):
        args = [
            "simulate", "--model", "1pl", "--reps", "2", "--n-persons", "300",
            "--seed", "5",
        ]
        for sub in ("one", "two"):
            (tmp_path / sub).mkdir()
            assert main(args + ["--out", str(tmp_path / sub / "study")]) == 0
        a = (tmp_path / "one" / "study.csv").read_bytes()
        b = (tmp_path / "two" / "study.csv").read_bytes()
        assert a == b

    def test_csv_round_trip(self, tmp_path):
        out = tmp_path / "study"
        main(
            [
                "simulate", "--model", "2pl", "--reps", "2", "--n-persons", "400",
                "--seed", "3", "--true-a", "0.8,1.2", "--true-b=-0.5,0.5",
                "--out", str(out),
            ]
        )
        rows = read_study_csv(out.with_suffix(".csv"))
        payload = json.loads(out.with_suffix(".json").read_text())
        assert len(rows) == len(payload["rows"]) == 2
        for parsed, original in zip(rows, payload["rows"]):
            for key in parsed:
                assert parsed[key] == original[key]

    def test_defaults_encode_the_study_design(self, tmp_path):
        out = tmp_path / "study"
        main(
            ["simulate", "--model", "2pl", "--reps", "1", "--n-persons", "200",
             "--out", str(out)]
        )
        payload = json.loads(out.with_suffix(".json").read_text())
        assert payload["design"]["true_b"] == [-3.0, -1.5, 0.0, 1.5, 3.0]
        assert payload["design"]["true_a"] == [0.3, 0.725, 1.15, 1.575, 2.0]
        assert payload["design"]["t_list"] == [4]
        assert payload["manifest"]["config"]["workers"] == 1

    def test_one_pl_defaults_to_unit_discriminations(self, tmp_path):
        out = tmp_path / "study"
        main(
            ["simulate", "--model", "1pl", "--reps", "1", "--n-persons", "200",
             "--out", str(out)]
        )
        payload = json.loads(out.with_suffix(".json").read_text())
        assert payload["design"]["true_a"] == [1.0] * 5
        assert payload["design"]["t_list"] == [2]

    def test_mismatched_truth_lengths_exit_one(self, tmp_path, capsys):
        code = main(
            ["simulate", "--model", "2pl", "--true-a", "1,1,1,1",
             "--true-b=-1,0,1,2,3", "--out", str(tmp_path / "s")]
        )
        assert code == 1
        assert "4 values" in capsys.readouterr().err

    def test_too_few_nodes_for_two_pl_exit_one(self, tmp_path, capsys):
        code = main(
            ["simulate", "--model", "2pl", "--n-quads", "1", "--reps", "1",
             "--out", str(tmp_path / "s")]
        )
        assert code == 1
        assert "quadrature" in capsys.readouterr().err

    def test_dotted_stems_name_their_own_files(self, tmp_path):
        args = ["simulate", "--model", "1pl", "--reps", "1", "--n-persons", "200"]
        for seed in (1, 2):
            assert main(args + ["--seed", str(seed), "--out", str(tmp_path / f"run.seed{seed}")]) == 0
        assert main(args + ["--seed", "3", "--out", str(tmp_path / "run.seed3.csv")]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            f"run.seed{seed}.{ext}" for seed in (1, 2, 3) for ext in ("csv", "json")
        ]
        for seed in (1, 2, 3):
            payload = json.loads((tmp_path / f"run.seed{seed}.json").read_text())
            assert payload["manifest"]["seed"] == seed
            rows = read_study_csv(tmp_path / f"run.seed{seed}.csv")
            assert [row["mean_b"] for row in rows] == [row["mean_b"] for row in payload["rows"]]

    def test_too_many_nodes_exit_one_without_output(self, tmp_path, capsys):
        code = main(
            ["simulate", "--model", "1pl", "--n-quads", "51", "--reps", "1",
             "--out", str(tmp_path / "out" / "s")]
        )
        assert code == 1
        assert "quadrature point count" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["simulate", "quadstudy"])
def test_negative_seed_exits_one_without_output(tmp_path, capsys, command):
    code = main(
        [command, "--model", "1pl", "--reps", "2", "--seed", "-1",
         "--out", str(tmp_path / "out" / "s")]
    )
    assert code == 1
    assert "error: seed must be >= 0, got -1" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


class TestQuadstudy:
    def test_too_many_nodes_exit_one_without_output(self, tmp_path, capsys):
        code = main(
            ["quadstudy", "--model", "2pl", "--quads", "4,51", "--reps", "1",
             "--out", str(tmp_path / "out" / "s")]
        )
        assert code == 1
        assert "quadrature point count" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("quads", ["inf", "1e400", "4,-inf", "nan", "4,2.5"])
    def test_non_integer_nodes_exit_one_without_output(self, tmp_path, capsys, quads):
        code = main(
            ["quadstudy", "--model", "2pl", "--quads", quads, "--reps", "1",
             "--out", str(tmp_path / "out" / "s")]
        )
        assert code == 1
        assert "error: expected integers, got" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flag, error", [
        ("--quads", "t_list must be nonempty"),
        ("--true-a", "--true-a has 0 values but --true-b has 5"),
        ("--true-b", "--true-a has 5 values but --true-b has 0"),
    ])
    def test_an_empty_list_exits_one_without_output(self, tmp_path, capsys, flag, error):
        """An empty list is an error, not a request for the default."""
        code = main(
            ["quadstudy", "--model", "2pl", flag, "", "--reps", "1", "--n-persons", "200",
             "--out", str(tmp_path / "out" / "s")]
        )
        assert code == 1
        assert f"error: {error}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flag", ["--quads", "--true-a", "--true-b"])
    @pytest.mark.parametrize("value", ["1,,2", "1,2,"])
    def test_an_empty_item_exits_one_without_output(self, tmp_path, capsys, flag, value):
        """An empty item is an error, not dropped from the list."""
        code = main(
            ["quadstudy", "--model", "1pl", flag, value, "--reps", "1", "--n-persons", "200",
             "--out", str(tmp_path / "out" / "s")]
        )
        assert code == 1
        assert f"error: expected a comma-separated list of numbers, got {value!r}" in (
            capsys.readouterr().err
        )
        assert not (tmp_path / "out").exists()

    def test_repeated_node_count_exits_one_without_output(self, tmp_path, capsys):
        code = main(
            ["quadstudy", "--model", "2pl", "--quads", "4,4", "--reps", "3",
             "--n-persons", "500", "--seed", "1", "--out", str(tmp_path / "out" / "s")]
        )
        assert code == 1
        assert "error: t_list repeats a node count: (4, 4)" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_single_t_matches_simulate(self, tmp_path):
        common = ["--model", "1pl", "--reps", "2", "--n-persons", "300", "--seed", "9"]
        main(["simulate", *common, "--n-quads", "2", "--out", str(tmp_path / "sim")])
        main(["quadstudy", *common, "--quads", "2", "--out", str(tmp_path / "quad")])
        sim_rows = (tmp_path / "sim.csv").read_text().splitlines()[1:]
        quad_rows = (tmp_path / "quad.csv").read_text().splitlines()[1:]
        assert sim_rows == quad_rows

    def test_a_cell_without_fits_writes_null_not_nan(self, tmp_path):
        """Both T = 50 fits fail, so the cell has no means: its JSON gives
        null, which an RFC 8259 parser accepts, and its CSV row keeps nan."""
        out = tmp_path / "s"
        code = main(
            ["quadstudy", "--model", "2pl", "--quads", "50", "--reps", "2",
             "--n-persons", "200", "--seed", "3", "--out", str(out)]
        )
        assert code == 0

        def reject(token):
            raise ValueError(f"the study JSON holds a bare {token}")

        payload = json.loads(out.with_suffix(".json").read_text(), parse_constant=reject)
        assert payload["failures"] == 2
        assert all(row["mean_a"] is None and row["rmse_b"] is None for row in payload["rows"])
        assert all(np.isnan(row["mean_a"]) for row in read_study_csv(out.with_suffix(".csv")))

    def test_default_sweep(self, tmp_path):
        out = tmp_path / "sweep"
        code = main(
            ["quadstudy", "--model", "1pl", "--reps", "1", "--n-persons", "200",
             "--out", str(out)]
        )
        assert code == 0
        rows = read_study_csv(out.with_suffix(".csv"))
        assert sorted({r["n_quads"] for r in rows}) == [2, 3, 4, 5, 8, 10, 15]


class TestManifest:
    """Every command writes one run record: the same seven keys, in one order."""

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_fit_records_its_flags(self, response_csv, tmp_path, fmt):
        out = tmp_path / f"fit.{fmt}"
        argv = ["fit", str(response_csv), "--model", "1pl", "--n-quads", "2",
                "--format", fmt, "--out", str(out)]
        assert main(argv) == 0
        if fmt == "json":
            manifest = json.loads(out.read_text())["manifest"]
        else:
            manifest = json.loads((tmp_path / "fit.csv.manifest.json").read_text())
        assert list(manifest) == MANIFEST_KEYS
        assert (manifest["command"], manifest["seed"]) == ("fit", None)
        assert manifest["version"] == emirt.__version__
        assert manifest["config"] == {
            "data": str(response_csv), "model": "1pl", "estimator": "ols", "n_quads": 2,
            "tol": FitConfig.tol, "max_iter": FitConfig.max_iter, "out": str(out), "format": fmt,
        }

    @pytest.mark.parametrize("command", ["simulate", "quadstudy"])
    def test_study_digests_its_canonical_config(self, tmp_path, command):
        out = tmp_path / "s"
        argv = [command, "--model", "1pl", "--reps", "1", "--n-persons", "200", "--seed", "4",
                "--out", str(out)]
        assert main(argv) == 0
        manifest = json.loads(out.with_suffix(".json").read_text())["manifest"]
        assert list(manifest) == MANIFEST_KEYS
        assert (manifest["command"], manifest["seed"]) == (command, 4)
        digested = {k: v for k, v in manifest["config"].items() if k not in ("workers", "out")}
        assert set(manifest["config"]) - set(digested) == {"workers", "out"}
        canonical = json.dumps(digested, sort_keys=True, separators=(",", ":"))
        assert manifest["input_digest"] == hashlib.sha256(canonical.encode()).hexdigest()

    def test_study_digest_covers_neither_stem_nor_workers(self, tmp_path):
        """One study written to two stems and run on two worker counts has one
        digest and one set of rows; another seed has another digest."""
        digests, rows = [], []
        for stem, workers, seed in [("a", 1, 3), ("b", 1, 3), ("a2", 2, 3), ("c", 1, 4)]:
            out = tmp_path / stem
            argv = ["simulate", "--model", "1pl", "--reps", "2", "--n-persons", "100",
                    "--seed", str(seed), "--workers", str(workers), "--out", str(out)]
            assert main(argv) == 0
            manifest = json.loads(out.with_suffix(".json").read_text())["manifest"]
            digests.append(manifest["input_digest"])
            rows.append(read_study_csv(out.with_suffix(".csv")))
        assert digests[0] == digests[1] == digests[2] != digests[3]
        assert rows[0] == rows[1] == rows[2]


@pytest.mark.parametrize(
    "command, settings",
    [("fit data.csv", ("n_quads", "tol", "max_iter")), ("simulate", ("n_quads",)),
     ("quadstudy", ())],
    ids=["fit", "simulate", "quadstudy"],
)
def test_parser_defaults_are_the_fit_configs(command, settings):
    """The fit settings a command takes default to FitConfig's, and its choices to their owners."""
    args = build_parser().parse_args([*command.split(), "--model", "2pl", "--out", "o"])
    defaults = FitConfig(model=ModelKind.TWO_PL)
    assert {name: getattr(args, name) for name in settings} == {
        name: getattr(defaults, name) for name in settings
    }
    assert args.estimator == "ols"
    for flag, choices in [("--model", ["1pl", "2pl"]), ("--estimator", ["ols", "nr", "both"])]:
        for choice in choices:
            argv = [*command.split(), "--model", "2pl", flag, choice, "--out", "o"]
            assert build_parser().parse_args(argv)
        with pytest.raises(SystemExit):
            build_parser().parse_args([*command.split(), "--model", "2pl", flag, "x", "--out", "o"])


def test_import_loads_no_process_pool():
    """The process pool's modules load only when a study starts a pool."""
    src = str(Path(emirt.__file__).resolve().parent.parent)
    code = (
        "import sys, emirt.cli; "
        "print([m for m in ('concurrent.futures.process', 'multiprocessing') if m in sys.modules])"
    )
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == "[]"

"""Tests for data generation and the replication harness."""
import multiprocessing
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

from emirt.em_nr import fit_nr
from emirt.em_ols import FitConfig, fit
from emirt.expectation import logistic
from emirt.model import ItemParams, ModelKind
from emirt.patterns import tabulate
from emirt.simgen import (
    DEFAULT_QUAD_SWEEP,
    DEFAULT_TRUE_A,
    DEFAULT_TRUE_B,
    StudyDesign,
    _aggregate,
    _FitRecord,
    fit_estimator,
    generate,
    is_outlier,
    outlier_verdicts,
    replicate_study,
)


class TestGenerate:
    def test_marginal_proportion_of_balanced_item(self):
        matrix = generate([ItemParams(a=1, b=0)], 100_000, 7)
        assert abs(matrix.mean() - 0.5) < 0.005

    def test_trivially_easy_item(self):
        matrix = generate([ItemParams(a=1, b=-10)], 5000, 1)
        assert matrix.mean() >= 0.999

    def test_same_seed_identical(self):
        truth = [ItemParams(a=0.7, b=-1), ItemParams(a=1.7, b=2)]
        np.testing.assert_array_equal(generate(truth, 400, 42), generate(truth, 400, 42))

    def test_different_seeds_differ(self):
        truth = [ItemParams(a=1, b=0)]
        assert (generate(truth, 400, 1) != generate(truth, 400, 2)).any()

    def test_shape_and_dtype(self):
        matrix = generate([ItemParams(a=1, b=0)] * 3, 50, 0)
        assert matrix.shape == (50, 3)
        assert matrix.dtype == np.uint8
        assert set(np.unique(matrix)) <= {0, 1}

    @pytest.mark.parametrize("n_persons", [1, 7, 5000])
    def test_draws_match_the_person_major_formula(self, n_persons):
        """The item-major probabilities give the matrix of the (N, J) formula, bit for bit."""
        truth = [ItemParams(a=a, b=b) for a, b in zip(DEFAULT_TRUE_A, DEFAULT_TRUE_B)]
        a = np.array(DEFAULT_TRUE_A)
        b = np.array(DEFAULT_TRUE_B)
        for seed in np.random.SeedSequence(2024).spawn(4):
            rng = np.random.default_rng(seed)
            theta = rng.standard_normal(n_persons)
            prob = logistic(a[None, :] * (theta[:, None] - b[None, :]))
            want = (rng.random(prob.shape) < prob).astype(np.uint8)
            got = generate(truth, n_persons, seed)
            assert got.flags.c_contiguous and got.dtype == np.uint8
            np.testing.assert_array_equal(got, want)


class TestIsOutlier:
    def test_table_values_are_acceptable(self):
        assert not is_outlier(ItemParams(a=2.112, b=3.05), ModelKind.TWO_PL)

    def test_large_discrimination(self):
        assert is_outlier(ItemParams(a=3.5, b=0), ModelKind.TWO_PL)

    def test_difficulty_boundary_excluded(self):
        assert is_outlier(ItemParams(a=1, b=5.0), ModelKind.TWO_PL)
        assert is_outlier(ItemParams(a=1, b=5.0), ModelKind.ONE_PL)

    def test_discrimination_boundaries_excluded(self):
        assert is_outlier(ItemParams(a=0.1, b=0), ModelKind.TWO_PL)
        assert is_outlier(ItemParams(a=3.0, b=0), ModelKind.TWO_PL)
        assert not is_outlier(ItemParams(a=0.11, b=0), ModelKind.TWO_PL)

    def test_one_pl_ignores_discrimination(self):
        assert not is_outlier(ItemParams(a=9.0, b=0), ModelKind.ONE_PL)

    def test_degenerate_flag_dominates(self):
        assert is_outlier(ItemParams(a=1, b=0), ModelKind.TWO_PL, degenerate=True)

    def test_verdicts_per_parameter(self):
        two_pl = ModelKind.TWO_PL
        assert outlier_verdicts(1.0, 0.0, two_pl) == (False, False)
        assert outlier_verdicts(4.0, 0.0, two_pl) == (True, False)
        assert outlier_verdicts(1.0, -6.0, two_pl) == (False, True)
        assert outlier_verdicts(4.0, 6.0, two_pl) == (True, True)
        assert outlier_verdicts(1.0, 0.0, two_pl, degenerate=True) == (True, True)
        assert outlier_verdicts(4.0, 0.0, ModelKind.ONE_PL) == (False, False)

    @pytest.mark.parametrize("model", [ModelKind.ONE_PL, ModelKind.TWO_PL])
    def test_verdicts_are_elementwise(self, model):
        a = np.array([1.0, 4.0, 1.0, 0.05, 1.0])
        b = np.array([0.0, 0.0, -6.0, 0.0, 0.0])
        degenerate = np.array([False, False, False, False, True])
        out_a, out_b = outlier_verdicts(a, b, model, degenerate)
        expected = [outlier_verdicts(x, y, model, d) for x, y, d in zip(a, b, degenerate)]
        np.testing.assert_array_equal(np.stack([out_a, out_b], axis=1), expected)


class TestFitEstimator:
    """fit_estimator hands its FitConfig unchanged to either estimator."""

    TRUTH = (ItemParams(a=0.8, b=-0.6), ItemParams(a=1.4, b=0.7))

    @pytest.mark.parametrize("estimator", ["ols", "nr"])
    def test_max_iter_reaches_the_estimator(self, estimator):
        data = tabulate(generate(self.TRUTH, 800, 4))
        result = fit_estimator(data, estimator, FitConfig(model=ModelKind.TWO_PL, max_iter=3))
        assert result.iterations == 3
        assert result.converged is False

    @pytest.mark.parametrize("estimator, fitter", [("ols", fit), ("nr", fit_nr)])
    def test_result_equals_the_direct_fit(self, estimator, fitter):
        data = tabulate(generate(self.TRUTH, 800, 4))
        cfg = FitConfig(model=ModelKind.TWO_PL, n_quads=7, tol=1e-2)
        result = fit_estimator(data, estimator, cfg)
        assert result == fitter(data, cfg)
        assert result != fitter(data, FitConfig(model=ModelKind.TWO_PL))


class TestResolveWorkers:
    """The worker count is --workers, 1 by default, and replicate_study checks it."""

    def test_default_serial(self, monkeypatch):
        from emirt import simgen
        from emirt.cli import build_parser

        def no_processes(runs):
            raise AssertionError("a serial study starts no process")

        monkeypatch.setattr(simgen, "_fit_runs", no_processes)
        assert replicate_study(small_design()).rows
        assert build_parser().parse_args(["simulate", "--model", "1pl", "--out", "s"]).workers == 1

    @pytest.mark.parametrize("flag", [0, -3])
    def test_flag_below_one_rejected(self, flag):
        with pytest.raises(ValueError, match=f"workers must be >= 1, got {flag}"):
            replicate_study(small_design(), workers=flag)

    @pytest.mark.parametrize("flag", ["0", "-3"])
    def test_cli_exits_one_without_output(self, tmp_path, capsys, flag):
        from emirt.cli import main

        argv = ["simulate", "--model", "1pl", "--reps", "2", "--out", str(tmp_path / "out" / "s")]
        code = main(argv + ["--workers", flag])
        assert code == 1
        assert f"error: workers must be >= 1, got {flag}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


def small_design(**overrides):
    base = dict(
        true_params=(ItemParams(a=1, b=-1), ItemParams(a=1, b=1)),
        n_persons=400,
        reps=4,
        model=ModelKind.ONE_PL,
        t_list=(2,),
        seed=123,
    )
    base.update(overrides)
    return StudyDesign(**base)


def first_rep(run):
    """The first replication of a pool run (design, estimators, seeds): its first seed's index."""
    return run[2][0].spawn_key[-1]


@pytest.fixture
def inline_processes(monkeypatch):
    """Replace multiprocessing.Process by a stand-in that starts no process.

    A stand-in runs its target in this process when started.  Returns the
    list of stand-ins started.
    """
    started = []

    class InlineProcess:
        def __init__(self, target, args):
            self.target, self.args = target, args

        def start(self):
            started.append(self)
            self.target(*self.args)

        def terminate(self):
            pass

        def join(self):
            pass

    monkeypatch.setattr(multiprocessing, "Process", InlineProcess)
    return started


def fit_record(b_hat, converged=True):
    """A record of a fit of two items at a = 1 that raised nothing."""
    return _FitRecord(1.0, (1.0, 1.0), b_hat, (False, False), converged)


class TestAggregate:
    """_aggregate on synthetic cells: two items, one fit raised, one stopped at max_iter."""

    CELLS = {
        ("ols", 2): [
            fit_record((-1.0, 1.0)),
            fit_record((-2.0, 4.0), converged=False),
            _FitRecord(1.0, error="ValueError: boom"),
            fit_record((0.0, 7.0)),
        ],
        ("ols", 3): [fit_record((-1.0, 1.0))],
    }

    def test_counts_nonconverged_fits_per_cell(self):
        summary = _aggregate(small_design(t_list=(2, 3)), self.CELLS)
        assert [(t.n_quads, t.fits, t.nonconverged) for t in summary.timing] == [(2, 4, 1), (3, 1, 0)]
        assert summary.failures == 1

    def test_nonconverged_fits_stay_in_the_means(self):
        rows = _aggregate(small_design(t_list=(2, 3)), self.CELLS).rows
        by_cell = {(row.n_quads, row.item): row for row in rows}
        assert by_cell[2, 1].reps == 3 and by_cell[2, 1].mean_b == -1.0
        assert by_cell[2, 2].mean_b == 4.0 and by_cell[2, 2].outliers_b == 1
        assert by_cell[2, 2].filtered_mean_b == 2.5
        assert by_cell[3, 1].reps == 1

    def test_study_json_timing_carries_the_count(self, tmp_path):
        import json

        from emirt.cli import SCHEMA_VERSION, main

        out = tmp_path / "study"
        argv = ["simulate", "--model", "1pl", "--reps", "2", "--n-persons", "200", "--out", str(out)]
        assert main(argv) == 0
        payload = json.loads(out.with_suffix(".json").read_text())
        assert payload["schema_version"] == SCHEMA_VERSION == 5
        (timing,) = payload["timing"]
        assert timing["fits"] == 2 and timing["nonconverged"] == 0


class TestReplicateStudy:
    def test_single_rep_restates_the_fit(self):
        from emirt.em_ols import FitConfig, fit
        from emirt.patterns import tabulate

        design = small_design(reps=1)
        summary = replicate_study(design)
        seed = np.random.SeedSequence(design.seed).spawn(1)[0]
        data = tabulate(generate(design.true_params, design.n_persons, seed))
        result = fit(data, FitConfig(model=design.model, n_quads=2))
        for row, p in zip(summary.rows, result.params):
            assert row.mean_a == p.a
            assert row.mean_b == p.b
            assert row.rmse_b == pytest.approx(abs(p.b - row.true_b))
            assert row.reps == 1

    def test_reproducible_rows(self):
        design = small_design()
        first = replicate_study(design)
        second = replicate_study(design)
        assert first.rows == second.rows
        assert first.failures == second.failures

    def test_rows_independent_of_worker_count(self):
        """Lockstep cells in one process and over contiguous runs in pool workers agree."""
        # Runs of equal length, of unequal length, and more workers than reps.
        for reps, workers in [(4, 2), (5, 2), (5, 3), (2, 3)]:
            design = small_design(reps=reps)
            serial = replicate_study(design, estimators=("ols", "nr"), workers=1)
            parallel = replicate_study(design, estimators=("ols", "nr"), workers=workers)
            assert serial.rows == parallel.rows
            # Everything but the wall-clock timing must match.
            assert replace(serial, timing=()) == replace(parallel, timing=())

    @pytest.mark.parametrize("reps", [2, 5])
    def test_study_csv_independent_of_worker_count(self, tmp_path, reps):
        from emirt.cli import main

        def study_csv(workers):
            out = tmp_path / f"workers{workers}" / "study"
            argv = ["simulate", "--model", "2pl", "--estimator", "both", "--reps", str(reps),
                    "--n-persons", "300", "--seed", "11", "--workers", str(workers)]
            assert main(argv + ["--out", str(out)]) == 0
            manifest, rest = out.with_suffix(".csv").read_bytes().split(b"\n", 1)
            assert manifest.startswith(b"# manifest: ")
            return rest

        assert study_csv(1) == study_csv(2) == study_csv(3)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_timing_counts_every_attempted_fit(self, monkeypatch, workers):
        from emirt import simgen

        handed = {}
        aggregate = simgen._aggregate

        def recording_aggregate(design, cells):
            handed.update(cells)
            return aggregate(design, cells)

        monkeypatch.setattr(simgen, "_aggregate", recording_aggregate)
        design = small_design(reps=3, t_list=(2, 3))
        summary = replicate_study(design, estimators=("ols", "nr"), workers=workers)
        assert [(t.estimator, t.n_quads) for t in summary.timing] == [
            ("ols", 2), ("ols", 3), ("nr", 2), ("nr", 3)
        ]
        assert all(t.fits == design.reps for t in summary.timing)
        assert list(handed) == [(t.estimator, t.n_quads) for t in summary.timing]
        # A lockstep cell shares its wall time out evenly over its fits.  One
        # worker fits reps 0-2 as one run; two fit rep 0 and reps 1-2.
        run_of_rep = [0, 0, 0] if workers == 1 else [0, 1, 1]
        for records in handed.values():
            assert len(records) == design.reps
            walls = {}
            for rep, r in enumerate(records):
                walls.setdefault(run_of_rep[rep], set()).add(r.wall_ms)
            assert len(walls) == len(set(run_of_rep))
            assert all(len(w) == 1 and min(w) > 0 for w in walls.values())

    @pytest.mark.parametrize("reps", [3, 5])
    def test_split_runs_merge_into_the_whole(self, reps):
        """Cells fitted over seeds[:k] then extended by seeds[k:] equal the cells over seeds."""
        from emirt.simgen import _run_cells

        design = small_design(reps=reps, model=ModelKind.TWO_PL, t_list=(2, 3))
        estimators = ("ols", "nr")
        seeds = np.random.SeedSequence(design.seed).spawn(reps)

        def without_walls(cells):
            return {key: [replace(r, wall_ms=0.0) for r in cell] for key, cell in cells.items()}

        whole = without_walls(_run_cells(design, estimators, seeds))
        assert list(whole) == [(e, t) for e in estimators for t in design.t_list]
        assert all(len(cell) == reps for cell in whole.values())
        for k in range(1, reps):
            head = without_walls(_run_cells(design, estimators, seeds[:k]))
            tail = without_walls(_run_cells(design, estimators, seeds[k:]))
            assert list(head) == list(tail) == list(whole)
            assert {key: head[key] + tail[key] for key in head} == whole

    def test_repeated_estimator_rejected(self):
        with pytest.raises(ValueError, match="estimators repeat an estimator"):
            replicate_study(small_design(), estimators=("ols", "ols"))

    def test_empty_estimator_list_rejected_before_any_work(self, monkeypatch):
        from emirt import simgen

        def no_generate(*args, **kwargs):
            raise AssertionError("generated a replication")

        monkeypatch.setattr(simgen, "generate", no_generate)
        with pytest.raises(ValueError, match="estimators is empty"):
            replicate_study(small_design(), estimators=())

    def test_multi_block_rows_independent_of_worker_count(self, monkeypatch):
        """A pool study's processes run their E-step blocks inline, a serial one on its threads."""
        from emirt import expectation

        monkeypatch.setattr(expectation, "BLOCK_ROWS", 64)
        truth = tuple(
            ItemParams(a=a, b=b)
            for a, b in zip(np.linspace(0.5, 2.0, 12), np.linspace(-2.5, 2.5, 12))
        )
        design = small_design(
            true_params=truth, n_persons=1000, reps=3, model=ModelKind.TWO_PL, t_list=(4,)
        )
        first_rep = np.random.SeedSequence(design.seed).spawn(1)[0]
        assert tabulate(generate(truth, 1000, first_rep)).n_patterns > 4 * 64
        with ThreadPoolExecutor(1) as helper:
            monkeypatch.setattr(expectation, "_pool", helper)
            monkeypatch.setattr(expectation, "_helpers", 1)
            serial = replicate_study(design, estimators=("ols", "nr"), workers=1)
            parallel = replicate_study(design, estimators=("ols", "nr"), workers=2)
        assert repr(serial.rows) == repr(parallel.rows)
        assert serial.failures == parallel.failures

    def test_pool_workers_run_blocks_inline(self, monkeypatch, inline_processes):
        """The children start first, then the caller fits; each runs its blocks inline."""
        from emirt import expectation, simgen

        helpers = []
        run_replication = simgen._run_replication

        def recording(run):
            helpers.append((first_rep(run), expectation._helpers))
            return run_replication(run)

        monkeypatch.setattr(simgen, "_run_replication", recording)
        monkeypatch.setattr(expectation, "_helpers", 3)
        replicate_study(small_design(reps=4), workers=3)
        assert helpers == [(1, 0), (2, 0), (0, 0)]
        assert expectation._helpers == 3

    @pytest.mark.parametrize("reps, workers, runs", [(2, 64, 2), (5, 3, 3), (5, 2, 2)])
    def test_pool_sized_by_its_runs(self, inline_processes, reps, workers, runs):
        """min(workers, reps) processes fit, the caller one of them: runs - 1 are started."""
        design = small_design(reps=reps)
        pooled = replicate_study(design, workers=workers)
        assert len(inline_processes) == runs - 1
        assert replace(pooled, timing=()) == replace(replicate_study(design), timing=())

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="a child runs the patched run only when forked",
    )
    @pytest.mark.parametrize(
        "failing_run, raised",
        [(1, ZeroDivisionError), (2, RuntimeError), (0, KeyboardInterrupt)],
        ids=["child-raises", "child-exits-without-sending", "caller-interrupted"],
    )
    def test_a_failed_run_fails_the_study_and_leaves_no_process(
        self, monkeypatch, failing_run, raised
    ):
        """The study raises, and the children still fitting are terminated and joined.

        Runs before the failing one fit; runs after it are still running when
        it fails.
        """
        from emirt import expectation, simgen

        run_replication = simgen._run_replication

        def failing(run):
            if first_rep(run) == failing_run:
                if raised is RuntimeError:
                    os._exit(3)
                raise raised("the failing run")
            if first_rep(run) > failing_run:
                time.sleep(60)
            return run_replication(run)

        monkeypatch.setattr(simgen, "_run_replication", failing)
        monkeypatch.setattr(expectation, "_helpers", 3)
        start = time.perf_counter()
        with pytest.raises(raised) as error:
            replicate_study(small_design(reps=3), workers=3)
        assert time.perf_counter() - start < 30  # the sleeping child did not run out its time
        if raised is RuntimeError:
            assert "replications 2-2" in str(error.value)
        assert multiprocessing.active_children() == []
        assert expectation._helpers == 3

    def test_both_estimators_and_t_sweep_keys(self):
        design = small_design(reps=2, t_list=(2, 3))
        summary = replicate_study(design, estimators=("ols", "nr"))
        keys = {(r.estimator, r.n_quads, r.item) for r in summary.rows}
        assert len(keys) == 2 * 2 * 2
        assert len(summary.rows) == 8
        assert {t.estimator for t in summary.timing} == {"ols", "nr"}

    def test_unknown_estimator_rejected(self):
        with pytest.raises(ValueError):
            replicate_study(small_design(), estimators=("mcmc",))

    def test_rmse_decreases_with_sample_size(self):
        """Estimates of moderate items sharpen as the sample grows."""
        rmse = {}
        for n in (500, 5000, 50_000):
            design = small_design(
                true_params=(ItemParams(a=1, b=-1.5), ItemParams(a=1, b=0), ItemParams(a=1, b=1.5)),
                n_persons=n,
                reps=12,
                seed=2026,
            )
            summary = replicate_study(design, estimators=("ols", "nr"))
            for row in summary.rows:
                rmse.setdefault((row.estimator, row.item), []).append(row.rmse_b)
        for series in rmse.values():
            assert series[0] > series[1] > series[2]

    def test_failures_counted_not_fatal(self, monkeypatch):
        from emirt import expectation

        def broken_posterior(stack, prob, grid):
            raise RuntimeError("boom")

        monkeypatch.setattr(expectation, "posterior", broken_posterior)
        # One run, then runs of equal length, of unequal length, and more workers than reps.
        for reps, workers in [(4, 1), (4, 2), (5, 2), (5, 3), (2, 3)]:
            summary = replicate_study(small_design(reps=reps), workers=workers)
            assert summary.failures == reps
            assert all(row.reps == 0 for row in summary.rows)
            assert all(np.isnan(row.mean_a) for row in summary.rows)
            assert all(t.fits == reps for t in summary.timing)


class TestQuadStudy:
    def test_two_nodes_minimize_one_pl_rmse_for_extreme_items(self):
        """Across the full sweep, T=2 gives the smallest RMSE at |b| = 3."""
        design = StudyDesign(
            true_params=tuple(ItemParams(a=1.0, b=b) for b in DEFAULT_TRUE_B),
            n_persons=5000,
            reps=100,
            model=ModelKind.ONE_PL,
            t_list=DEFAULT_QUAD_SWEEP,
            seed=314,
        )
        summary = replicate_study(design)
        rmse = {}
        for row in summary.rows:
            rmse.setdefault(row.item, {})[row.n_quads] = row.rmse_b
        for item in (1, 5):
            assert min(rmse[item], key=rmse[item].get) == 2


class TestStudyDesignValidation:
    def test_rejects_zero_reps(self):
        with pytest.raises(ValueError):
            small_design(reps=0)

    def test_rejects_empty_t_list(self):
        with pytest.raises(ValueError):
            small_design(t_list=())

    def test_rejects_repeated_node_count(self):
        with pytest.raises(ValueError, match=r"t_list repeats a node count: \(4, 2, 4\)"):
            small_design(t_list=(4, 2, 4))

    @pytest.mark.parametrize("t", [0, 51])
    def test_rejects_node_count_out_of_range(self, t):
        with pytest.raises(ValueError, match="quadrature point count"):
            small_design(t_list=(2, t))

    def test_rejects_single_node_two_pl(self):
        with pytest.raises(ValueError, match="2PL"):
            small_design(model=ModelKind.TWO_PL, t_list=(1,))

    def test_default_grids_have_five_items(self):
        assert len(DEFAULT_TRUE_A) == len(DEFAULT_TRUE_B) == 5

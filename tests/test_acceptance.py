"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete.  Every tolerance is fixed here; nothing is calibrated at runtime.
"""
import math

import numpy as np
import pytest

from emirt import expectation
from emirt.cli import main
from emirt.em_nr import fit_nr, item_score
from emirt.em_ols import FitConfig, fit
from emirt.model import ItemParams, ModelKind, irf, irf_grad
from emirt.patterns import tabulate
from emirt.quadrature import normal_grid
from emirt.simgen import (
    DEFAULT_TRUE_A,
    DEFAULT_TRUE_B,
    StudyDesign,
    generate,
    is_outlier,
    replicate_study,
)

ACCEPTANCE_SEED = 0


def report(number: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {number} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def summarize_failures(checks: list[tuple[str, bool]]) -> tuple[bool, str]:
    bad = [name for name, ok in checks if not ok]
    if bad:
        return False, f"{len(bad)} of {len(checks)} checks failed: " + "; ".join(bad)
    return True, f"all {len(checks)} checks within tolerance"


def test_criterion_1_one_pl_table():
    """1PL study, 500 reps of N=5000 at T=2, against the reference study row."""
    design = StudyDesign(
        true_params=tuple(ItemParams(a=1.0, b=b) for b in DEFAULT_TRUE_B),
        n_persons=5000,
        reps=500,
        model=ModelKind.ONE_PL,
        t_list=(2,),
        seed=ACCEPTANCE_SEED,
    )
    summary = replicate_study(design, estimators=("ols",))
    target_mean = [-2.99, -1.52, 0.00, 1.52, 2.99]
    target_rmse = [0.07, 0.04, 0.03, 0.04, 0.07]
    checks = []
    for row, mean, rmse in zip(summary.rows, target_mean, target_rmse):
        checks.append(
            (f"mean_b[{row.item}]={row.mean_b:.4f} vs {mean}±0.05",
             abs(row.mean_b - mean) <= 0.05)
        )
        checks.append(
            (f"rmse_b[{row.item}]={row.rmse_b:.4f} vs {rmse}±0.03",
             abs(row.rmse_b - rmse) <= 0.03)
        )
        checks.append((f"outliers[{row.item}]={row.outliers}", row.outliers == 0))
    report(1, *summarize_failures(checks))


def test_criterion_2_two_pl_table():
    """2PL study, 500 reps of N=5000 at T=4, against the reference study rows."""
    design = StudyDesign(
        true_params=tuple(
            ItemParams(a=a, b=b) for a, b in zip(DEFAULT_TRUE_A, DEFAULT_TRUE_B)
        ),
        n_persons=5000,
        reps=500,
        model=ModelKind.TWO_PL,
        t_list=(4,),
        seed=ACCEPTANCE_SEED,
    )
    summary = replicate_study(design, estimators=("ols",))
    rows = summary.rows
    target_a = [0.315, 0.750, 1.156, 1.531, 2.112]
    tol_a = [0.08, 0.08, 0.08, 0.08, 0.20]
    target_b = [-2.98, -1.48, -0.01, 1.53, 3.05]
    tol_b = [0.10, 0.10, 0.10, 0.10, 0.20]
    checks = []
    for row, mean, tol in zip(rows, target_a, tol_a):
        checks.append(
            (f"mean_a[{row.item}]={row.mean_a:.4f} vs {mean}±{tol}",
             abs(row.mean_a - mean) <= tol)
        )
    for row, mean, tol in zip(rows, target_b, tol_b):
        checks.append(
            (f"mean_b[{row.item}]={row.mean_b:.4f} vs {mean}±{tol}",
             abs(row.mean_b - mean) <= tol)
        )
    a5_rate = rows[4].outliers_a / rows[4].reps
    b1_rate = rows[0].outliers_b / rows[0].reps
    checks.append(
        (f"item-5 discrimination outlier rate {a5_rate:.3f} in [0.02, 0.12]",
         0.02 <= a5_rate <= 0.12)
    )
    checks.append(
        (f"item-1 difficulty outlier rate {b1_rate:.4f} in [0.002, 0.03]",
         0.002 <= b1_rate <= 0.03)
    )
    report(2, *summarize_failures(checks))


def _parity_instances():
    """50 moderate 2PL datasets fitted with both estimators at T=4."""
    results = []
    for seed in np.random.SeedSequence(ACCEPTANCE_SEED).spawn(50):
        params_seed, data_seed = seed.spawn(2)
        rng = np.random.default_rng(params_seed)
        truth = [
            ItemParams(a=float(rng.uniform(0.5, 1.5)), b=float(rng.uniform(-2, 2)))
            for _ in range(5)
        ]
        data = tabulate(generate(truth, 5000, data_seed))
        ols = fit(data, FitConfig(model=ModelKind.TWO_PL, n_quads=4))
        nr = fit_nr(data, FitConfig(model=ModelKind.TWO_PL, n_quads=4))
        results.append((data, ols, nr))
    return results


def test_criterion_3_oracle_parity():
    """OLS and Newton-Raphson estimates agree on moderate 2PL data."""
    results = _parity_instances()
    gaps_a, gaps_b = [], []
    phi_checks = []
    scale = 5000 / 4  # N / T
    for data, ols, nr in results:
        for po, pn in zip(ols.params, nr.params):
            if is_outlier(po, ModelKind.TWO_PL) or is_outlier(pn, ModelKind.TWO_PL):
                continue
            gaps_a.append(abs(po.a - pn.a))
            gaps_b.append(abs(po.b - pn.b))
        phi_checks.append(
            (ols.phi_max_trace[0], ols.phi_max_trace[-1],
             nr.phi_max_trace[0], nr.phi_max_trace[-1])
        )
    gaps_a, gaps_b = np.array(gaps_a), np.array(gaps_b)
    phi = np.array(phi_checks)
    checks = [
        (f"median |da|={np.median(gaps_a):.4f} < 0.05", np.median(gaps_a) < 0.05),
        (f"p90 |da|={np.quantile(gaps_a, .9):.4f} < 0.15", np.quantile(gaps_a, 0.9) < 0.15),
        (f"median |db|={np.median(gaps_b):.4f} < 0.05", np.median(gaps_b) < 0.05),
        (f"p90 |db|={np.quantile(gaps_b, .9):.4f} < 0.15", np.quantile(gaps_b, 0.9) < 0.15),
        (f"all converged max|phi| < N/T={scale:.0f} (worst {max(phi[:,1].max(), phi[:,3].max()):.0f})",
         bool((phi[:, 1] < scale).all() and (phi[:, 3] < scale).all())),
        (f"median phi shrank: OLS {np.median(phi[:,0]):.0f}->{np.median(phi[:,1]):.0f}, "
         f"NR {np.median(phi[:,2]):.0f}->{np.median(phi[:,3]):.0f}",
         bool(np.median(phi[:, 1]) < np.median(phi[:, 0])
              and np.median(phi[:, 3]) < np.median(phi[:, 2]))),
        ("converged residual scales agree within 10x",
         bool((np.maximum(phi[:, 1] / phi[:, 3], phi[:, 3] / phi[:, 1]) < 10).all())),
    ]
    report(3, *summarize_failures(checks))


def _irf_central_difference(a, b, theta, wrt, h=1e-6):
    """FD of irf taken on the unsaturated side via irf(-a,b) = 1 - irf(a,b)."""
    if irf(ItemParams(a=a, b=b), theta) <= 0.5:
        f, sign = (lambda aa, bb: irf(ItemParams(a=aa, b=bb), theta)), 1.0
    else:
        f, sign = (lambda aa, bb: irf(ItemParams(a=-aa, b=bb), theta)), -1.0
    if wrt == "a":
        return sign * (f(a + h, b) - f(a - h, b)) / (2 * h)
    return sign * (f(a, b + h) - f(a, b - h)) / (2 * h)


def test_criterion_4_gradient_correctness():
    """Analytic derivatives match finite differences."""
    worst_irf = 0.0
    for a in (0.3, 1.0, 2.0):
        for b in (-3.0, 0.0, 3.0):
            for theta in range(-4, 5):
                da, db = irf_grad(ItemParams(a=a, b=b), theta)
                fd_a = _irf_central_difference(a, b, theta, "a")
                fd_b = _irf_central_difference(a, b, theta, "b")
                worst_irf = max(
                    worst_irf,
                    abs(fd_a - da) / max(abs(da), 1e-8),
                    abs(fd_b - db) / max(abs(db), 1e-8),
                )
    worst_score = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        grid = normal_grid(int(rng.integers(2, 6)))
        p = ItemParams(a=float(rng.uniform(0.4, 2)), b=float(rng.uniform(-2, 2)))
        nt = rng.uniform(2, 40, grid.size)
        n1 = nt * rng.uniform(0.05, 0.95, grid.size)
        counts = expectation.ExpectedCounts(n1=n1[None, :], nt=nt)
        s_a, s_b = item_score(p, n1, nt, grid)
        hq = 1e-6
        def q1_at(a, b):
            prob = expectation.response_prob_matrix(np.array([a]), np.array([b]), grid)
            return expectation.q1(prob, counts)

        fd_a = (q1_at(p.a + hq, p.b) - q1_at(p.a - hq, p.b)) / (2 * hq)
        fd_b = (q1_at(p.a, p.b + hq) - q1_at(p.a, p.b - hq)) / (2 * hq)
        worst_score = max(
            worst_score,
            abs(fd_a - s_a) / max(abs(s_a), 1.0),
            abs(fd_b - s_b) / max(abs(s_b), 1.0),
        )
    ok = worst_irf < 1e-6 and worst_score < 1e-5
    report(
        4, ok,
        f"irf_grad rel err {worst_irf:.2e} < 1e-6; item_score rel err {worst_score:.2e} < 1e-5",
    )


def test_criterion_5_quadrature_exactness():
    checks = []
    for n in range(1, 51):
        grid = normal_grid(n)
        checks.append((f"T={n} weight sum", abs(grid.weights.sum() - 1) <= 1e-12))
        if n >= 2:
            checks.append(
                (f"T={n} second moment", abs(grid.weights @ grid.nodes**2 - 1) <= 1e-10)
            )
        if n >= 3:
            checks.append(
                (f"T={n} fourth moment", abs(grid.weights @ grid.nodes**4 - 3) <= 1e-9)
            )
    g2 = normal_grid(2)
    checks.append(
        ("T=2 grid equals ±1 with weights 0.5",
         bool(np.abs(g2.nodes - [-1, 1]).max() <= 1e-12
              and np.abs(g2.weights - 0.5).max() <= 1e-12))
    )
    report(5, *summarize_failures(checks))


@pytest.fixture(scope="module")
def random_instance_fits():
    """20 random instances fitted by both estimators with E-step probes."""
    runs = []
    estep = expectation.estep
    for i, seed in enumerate(np.random.SeedSequence(2024).spawn(20)):
        rng = np.random.default_rng(seed)
        n_items = int(rng.integers(3, 7))
        n_persons = int(rng.integers(3000, 6000))
        model = ModelKind.ONE_PL if i % 2 == 0 else ModelKind.TWO_PL
        truth = [
            ItemParams(
                a=1.0 if model is ModelKind.ONE_PL else float(rng.uniform(0.6, 1.4)),
                b=float(rng.uniform(-1.5, 1.5)),
            )
            for _ in range(n_items)
        ]
        data = tabulate(generate(truth, n_persons, seed))
        calls = []

        def recording(stack, prob, grid, calls=calls):
            out = estep(stack, prob, grid)
            calls.append((stack, prob, grid, out[1]))
            return out

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(expectation, "estep", recording)
            ols = fit(data, FitConfig(model=model))
            nr = fit_nr(data, FitConfig(model=model))
        probes = []
        for stack, prob, grid, counts in calls:
            post, _ = expectation.posterior(stack, prob, grid)
            probes.append(
                (abs(counts.nt.sum() - data.n_persons),
                 float(np.abs(post.sum(axis=1) - 1).max()))
            )
        runs.append((data, ols, nr, probes))
    return runs


def test_criterion_6_estep_conservation(random_instance_fits):
    """Counts conserve mass and posteriors stay normalized, every iteration."""
    worst_mass = worst_row = 0.0
    iterations = 0
    for _, _, _, probes in random_instance_fits:
        for mass_gap, row_gap in probes:
            worst_mass = max(worst_mass, mass_gap)
            worst_row = max(worst_row, row_gap)
            iterations += 1
    ok = worst_mass <= 1e-8 and worst_row <= 1e-8
    report(
        6, ok,
        f"over {iterations} E-steps: worst |sum nt - N| = {worst_mass:.2e}, "
        f"worst posterior row gap = {worst_row:.2e} (tol 1e-8)",
    )


def test_criterion_7_nr_monotone_and_loglik_parity(random_instance_fits):
    checks = []
    worst_gap = 0.0
    for data, ols, nr, _ in random_instance_fits:
        diffs = np.diff(nr.loglik_trace)
        checks.append(("NR trace non-decreasing", bool((diffs >= -1e-8).all())))
        gap = abs(ols.final_loglik - nr.final_loglik) / abs(nr.final_loglik)
        worst_gap = max(worst_gap, gap)
        checks.append((f"loglik gap {gap:.2e} <= 1e-3", gap <= 1e-3))
    ok, detail = summarize_failures(checks)
    report(7, ok, f"{detail}; worst relative loglik gap {worst_gap:.2e}")


def test_criterion_8_quadrature_count_trends():
    """Node-count sensitivity trends at 200 reps."""
    one_pl = StudyDesign(
        true_params=tuple(ItemParams(a=1.0, b=b) for b in DEFAULT_TRUE_B),
        n_persons=5000,
        reps=200,
        model=ModelKind.ONE_PL,
        t_list=(2, 15),
        seed=42,
    )
    s1 = replicate_study(one_pl, estimators=("ols",))
    r1 = {(row.n_quads, row.item): row for row in s1.rows}

    two_pl = StudyDesign(
        true_params=tuple(
            ItemParams(a=a, b=b) for a, b in zip(DEFAULT_TRUE_A, DEFAULT_TRUE_B)
        ),
        n_persons=5000,
        reps=200,
        model=ModelKind.TWO_PL,
        t_list=(3, 4, 15),
        seed=42,
    )
    s2 = replicate_study(two_pl, estimators=("ols",))
    r2 = {(row.n_quads, row.item): row for row in s2.rows}

    checks = []
    for item in (1, 5):  # the |b| = 3 items
        lo, hi = r1[(2, item)].rmse_b, r1[(15, item)].rmse_b
        checks.append((f"1PL rmse_b item {item}: T=2 {lo:.3f} <= T=15 {hi:.3f}", lo <= hi))
    for t in (3, 4):
        lo, hi = r2[(t, 5)].rmse_a, r2[(15, 5)].rmse_a
        checks.append((f"2PL rmse_a a=2: T={t} {lo:.3f} <= T=15 {hi:.3f}", lo <= hi))
    for item in (1, 5):
        bias2 = abs(r1[(2, item)].mean_b - r1[(2, item)].true_b)
        bias15 = abs(r1[(15, item)].mean_b - r1[(15, item)].true_b)
        checks.append(
            (f"1PL |bias| item {item}: T=15 {bias15:.3f} > T=2 {bias2:.3f}", bias15 > bias2)
        )
    report(8, *summarize_failures(checks))


def test_criterion_9_brute_force_loglik():
    """Marginal log-likelihood equals direct enumeration on 100 tiny cases."""
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(10_000 + seed)
        n_items = int(rng.integers(1, 4))
        params = [
            ItemParams(a=float(rng.uniform(0.3, 2.5)), b=float(rng.uniform(-3, 3)))
            for _ in range(n_items)
        ]
        grid = normal_grid(int(rng.integers(1, 4)))
        matrix = rng.integers(0, 2, size=(int(rng.integers(1, 40)), n_items))
        data = tabulate(matrix)
        expected = 0.0
        for pattern, freq in zip(data.patterns, data.freqs):
            mixture = 0.0
            for node, weight in zip(grid.nodes, grid.weights):
                prob = 1.0
                for x, p in zip(pattern, params):
                    prob *= irf(p, node) if x else 1.0 - irf(p, node)
                mixture += prob * weight
            expected += freq * math.log(mixture)
        prob = expectation.response_prob_matrix(
            np.array([p.a for p in params]), np.array([p.b for p in params]), grid
        )
        worst = max(worst, abs(expectation.observed_loglik(data, prob, grid) - expected))
    report(9, worst <= 1e-10, f"worst |loglik - enumeration| = {worst:.2e} (tol 1e-10)")


def test_criterion_10_simulate_determinism(tmp_path):
    args = [
        "simulate", "--model", "1pl", "--reps", "2", "--n-persons", "300", "--seed", "17",
    ]
    for sub in ("first", "second"):
        (tmp_path / sub).mkdir()
        assert main(args + ["--out", str(tmp_path / sub / "study")]) == 0
    first = (tmp_path / "first" / "study.csv").read_bytes()
    second = (tmp_path / "second" / "study.csv").read_bytes()
    report(10, first == second, f"two runs produced identical CSVs ({len(first)} bytes)")

"""Acceptance suite.

Runs each shipping criterion at its stated tolerance and prints one pass/fail
line per criterion (run with ``pytest tests/test_acceptance.py -s`` to see the
lines as they complete).

The two benchmark-data criteria (splice accuracy and flip robustness) need the
public LIBSVM files under data/; they skip with instructions when the files
were never fetched. Everything else is self-contained.
"""

import csv
import dataclasses
import functools
import os
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import dataset_path, require_dataset
from helpers import default_grid, gaussian_clusters
from oracles import complement_mask, reconstruct_hyperplane, solve_direct, solve_smw

from slidesvm.admm import (
    TrainConfig,
    check_proximal_stationarity,
    compute_z,
    select_working_set,
    solve_w_system,
    train,
    update_b,
    update_u,
)
from slidesvm.cli import main as cli_main
from slidesvm.data import Dataset, align_features, parse_libsvm
from slidesvm.loss import SlideParams, prox_slide_vector, slide_loss
from slidesvm.tuning import fit_full, grid_search



def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


# ---------------------------------------------------------------------------
# criterion 1: closed-form prox equals the grid oracle on 10,000 seeded draws


def test_criterion_1_prox_oracle_equivalence(tmp_path):
    out = tmp_path / "proxcheck.csv"
    started = time.perf_counter()
    status = cli_main(
        ["proxcheck", "--samples", "10000", "--seed", "7", "--out", str(out)]
    )
    elapsed = time.perf_counter() - started
    assert status == 0
    max_dev = 0.0
    with open(out, newline="") as fh:
        for row in csv.DictReader(fh):
            if row["near_tie"] == "0":
                max_dev = max(max_dev, float(row["abs_dev"]))
            assert row["fail"] == "0"
    ok = max_dev <= 1e-6 and elapsed < 10.0
    _report("1", ok, f"10000 samples, max_dev={max_dev:.3g}, {elapsed:.2f}s (budget 10s)")


# ---------------------------------------------------------------------------
# criterion 2: convergence plus stationarity certificate on the 2-D clusters


def test_criterion_2_stationarity_certificate(clusters200, clusters_config):
    started = time.perf_counter()
    mdl, diag = train(clusters200, clusters_config)
    report = check_proximal_stationarity(
        mdl.w,
        mdl.b,
        diag.u,
        diag.lam,
        gamma=1.0 / clusters_config.delta,
        ds=clusters200,
        C=clusters_config.C,
        p=clusters_config.slide,
    )
    elapsed = time.perf_counter() - started
    tau = 10.0 * clusters_config.tol
    ok = (
        diag.converged
        and diag.iterations <= 1000
        and diag.residuals.max() < 1e-3
        and report.max() <= tau
        and elapsed < 5.0
    )
    _report(
        "2",
        ok,
        f"converged in {diag.iterations} sweeps, max defect "
        f"{report.max():.4g} <= tau={tau}, {elapsed:.2f}s (budget 5s)",
    )


# ---------------------------------------------------------------------------
# criteria 3-4: splice benchmark (skips when the data files are absent)

NCPU = os.cpu_count() or 1


@functools.cache
def _splice_runs():
    train_path = require_dataset("splice")
    test_path = require_dataset("splice.t")
    with open(train_path, "rb") as fh:
        train_ds = parse_libsvm(fh.read())
    with open(test_path, "rb") as fh:
        test_ds = parse_libsvm(fh.read())
    train_ds, test_ds = align_features(train_ds, test_ds)
    assert (train_ds.m, test_ds.m) == (1000, 2175)
    rows = grid_search(
        train_ds,
        default_grid(),
        k=10,
        seed=0,
        parallelism=NCPU,
        rates=[0.05, 0.15],
        test_ds=test_ds,
    )
    return rows, train_ds, test_ds


def test_criterion_3_splice_accuracy():
    rows, _, _ = _splice_runs()
    acc = rows[0].test[1]
    _report("3", acc >= 0.825, f"splice test accuracy {acc:.4f} >= 0.825")


def test_criterion_4_splice_flip_robustness():
    rows, _, _ = _splice_runs()
    clean = rows[0].test[1]
    drifts = {row.rate: abs(row.test[1] - clean) for row in rows[1:]}
    ok = all(d <= 0.03 for d in drifts.values())
    detail = ", ".join(f"r={r:g}: drift {d:.4f}" for r, d in sorted(drifts.items()))
    _report("4", ok, f"clean {clean:.4f}; {detail} (allowed 0.03)")


def test_leukemia_stretch_run():
    """Optional wide-data run (38 x 7129) exercising the small-working-set
    solve path; not a shipping gate."""
    train_path = require_dataset("leukemia")
    test_path = require_dataset("leukemia.t")
    with open(train_path, "rb") as fh:
        train_ds = parse_libsvm(fh.read())
    with open(test_path, "rb") as fh:
        test_ds = parse_libsvm(fh.read())
    train_ds, test_ds = align_features(train_ds, test_ds)
    assert (train_ds.m, test_ds.m) == (38, 34)
    [result] = grid_search(train_ds, default_grid(), k=10, seed=0, parallelism=NCPU)
    _, acc = fit_full(train_ds, test_ds, result.best)
    # one test sample is 1/34 of accuracy
    band = 1.0 / 34.0 + 1e-12
    assert abs(acc - 0.9118) <= band, f"leukemia accuracy {acc:.4f}"


# ---------------------------------------------------------------------------
# criterion 5: support vectors alone reconstruct the hyperplane


def _reconstruction_agrees(ds: Dataset, mdl, tol: float, probe: Dataset) -> bool:
    w_hat = reconstruct_hyperplane(ds, mdl.support)
    for sample_set in (ds, probe):
        scores = sample_set.X @ mdl.w + mdl.b
        hat_scores = sample_set.X @ w_hat + mdl.b
        norms = np.sqrt((sample_set.X * sample_set.X).sum(axis=1))
        decided = np.abs(scores) > 10.0 * tol * norms
        lhs = np.where(scores[decided] > 0.0, 1.0, -1.0)
        rhs = np.where(hat_scores[decided] > 0.0, 1.0, -1.0)
        if not np.array_equal(lhs, rhs):
            return False
    return True


def test_criterion_5_support_vector_reconstruction(
    clusters200, clusters_config, trained_clusters
):
    mdl, diag = trained_clusters
    probe = gaussian_clusters(1000, seed=99)
    agrees = _reconstruction_agrees(clusters200, mdl, clusters_config.tol, probe)
    support_rows = mdl.support.t1.size + mdl.support.t2.size
    strict_subset = 0 < support_rows < clusters200.m
    ok = agrees and strict_subset
    _report(
        "5",
        ok,
        f"support {support_rows}/{clusters200.m} rows, "
        f"decided predictions identical from reconstructed hyperplane",
    )


def test_criterion_5_splice_reconstruction():
    if dataset_path("splice") is None or dataset_path("splice.t") is None:
        pytest.skip("splice data not present (see scripts/fetch_datasets.py)")
    rows, train_ds, test_ds = _splice_runs()
    clean_model = rows[0].test[0]
    if not clean_model.converged:
        pytest.skip("clean splice run stopped at the sweep cap; nothing to certify")
    from slidesvm.data import apply_scaling, fit_scaling

    smap = fit_scaling(train_ds)
    scaled_train = apply_scaling(train_ds, smap)
    scaled_test = apply_scaling(test_ds, smap)
    assert _reconstruction_agrees(
        scaled_train, clean_model, rows[0].best.tol, scaled_test
    )
    assert clean_model.support.t1.size + clean_model.support.t2.size < scaled_train.m


# ---------------------------------------------------------------------------
# criterion 6: direct and push-through linear solves agree


def test_criterion_6_w_solve_branch_equivalence():
    rng = np.random.default_rng(606)
    started = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 31))
        t_size = int(rng.integers(0, 31))
        delta = float(rng.uniform(0.05, 10.0))
        a_t = rng.normal(size=(t_size, n))
        r_t = rng.normal(size=t_size)
        if t_size == 0:
            # an empty working set reaches neither system
            assert solve_w_system(a_t, r_t, delta).tobytes() == np.zeros(n).tobytes()
            continue
        wa = solve_direct(a_t, r_t, delta)
        wb = solve_smw(a_t, r_t, delta)
        gap = np.linalg.norm(wa - wb) / (1.0 + np.linalg.norm(wa))
        worst = max(worst, gap)
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-8 and elapsed < 5.0
    _report("6", ok, f"200 instances, worst relative gap {worst:.3g}, {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# criterion 7: the (0, 1) parameterization collapses to the ramp loss exactly


def test_criterion_7_ramp_collapse():
    p = SlideParams(0.0, 1.0)
    ts = np.linspace(-2.0, 3.0, 10001)
    exact = np.array_equal(slide_loss(ts, p), np.minimum(1.0, np.maximum(ts, 0.0)))
    _report("7", exact, "pointwise equal to min(1, max(t, 0)) on 10001-point grid")


# ---------------------------------------------------------------------------
# criterion 8: invariant suite at 1000 property cases each

N_CASES = 1000


@st.composite
def _slide_params(draw):
    v = draw(st.floats(min_value=0.1, max_value=1.0))
    frac = draw(st.floats(min_value=0.0, max_value=0.9))
    return SlideParams(v * frac, v)


@st.composite
def _tiny_problem(draw):
    m = draw(st.integers(min_value=1, max_value=8))
    n = draw(st.integers(min_value=1, max_value=3))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    slide = draw(_slide_params())
    C = draw(st.floats(min_value=0.05, max_value=4.0))
    delta = draw(st.floats(min_value=0.1, max_value=4.0))
    rng = np.random.default_rng(seed)
    ds = Dataset(rng.normal(size=(m, n)), rng.choice([-1.0, 1.0], size=m))
    return ds, TrainConfig(C=C, delta=delta, slide=slide)


def test_criterion_8a_lipschitz_bound():
    @given(_slide_params(), st.floats(-10, 10), st.floats(-10, 10))
    @settings(max_examples=N_CASES, deadline=None)
    def prop(p, t1, t2):
        gap = abs(slide_loss(t1, p) - slide_loss(t2, p))
        assert gap <= abs(t1 - t2) / p.ramp_width + 1e-9

    prop()
    _report("8a", True, f"Lipschitz bound held on {N_CASES} cases")


def test_criterion_8b_multiplier_support_zeroing():
    @given(_tiny_problem())
    @settings(max_examples=N_CASES, deadline=None)
    def prop(problem):
        ds, cfg = problem
        # train capped at K = k ends on the iterate of sweep k
        for k in range(1, 4):
            diag = train(ds, dataclasses.replace(cfg, K=k))[1]
            off = complement_mask(diag.working_set, ds.m)
            assert np.array_equal(diag.lam[off], np.zeros(int(off.sum())))

    prop()
    _report("8b", True, f"multipliers exactly zero off the working set on {N_CASES} cases")


def test_criterion_8c_b_update_zeroes_gradient():
    @given(_tiny_problem(), st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=N_CASES, deadline=None)
    def prop(problem, seed):
        ds, cfg = problem
        rng = np.random.default_rng(seed)
        u = rng.uniform(-3.0, 3.0, size=ds.m)
        w = rng.uniform(-3.0, 3.0, size=ds.n)
        lam = rng.uniform(-3.0, 3.0, size=ds.m)
        A = ds.signed_matrix()
        b = update_b(1.0 - u - A @ w, ds.y, lam / cfg.delta)
        grad = float(lam @ ds.y) + cfg.delta * float(
            ds.y @ (u + A @ w + b * ds.y - 1.0)
        )
        assert abs(grad) <= 1e-10 * ds.m

    prop()
    _report("8c", True, f"b-block gradient below 1e-10*m on {N_CASES} cases")


def test_criterion_8d_u_update_is_the_prox():
    @given(_tiny_problem(), st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=N_CASES, deadline=None)
    def prop(problem, seed):
        ds, cfg = problem
        rng = np.random.default_rng(seed)
        w = rng.uniform(-2.0, 2.0, size=ds.n)
        b = float(rng.uniform(-1.0, 1.0))
        lam = np.where(
            rng.integers(0, 2, size=ds.m) == 1, rng.uniform(-2.0, 0.0, size=ds.m), 0.0
        )
        z = compute_z(1.0 - ds.signed_matrix() @ w - b * ds.y, lam / cfg.delta)
        ws = select_working_set(z, lam, cfg)
        u = update_u(z, ws, cfg)
        prox = prox_slide_vector(z, cfg.gamma_c, cfg.slide)
        from slidesvm.loss import prox_thresholds

        off_tie = z != prox_thresholds(cfg.gamma_c, cfg.slide).tie_point
        assert np.array_equal(u[off_tie], prox[off_tie])

    prop()
    _report("8d", True, f"slack update equals the vector prox on {N_CASES} cases")

"""Acceptance gate: one test per criterion, each printing a pass/fail line
(run with `pytest tests/test_acceptance.py -v -s`).

Numeric thresholds marked "frozen" below were derived from pilot runs and are
pinned; the pilot measurements are quoted next to each.
"""

import math
import os
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from groco import batchpipe as bp
from groco import dataio as dio
from groco import diffgrad as dg
from groco import evals as ev
from groco import losses as ls
from groco import model as md
from groco import sortcore as sc
from groco.losses import GroCoParams, InfoNCEParams

from oracles import oracle_diff_sort, oracle_groco, oracle_knn_predict

LN2 = math.log(2.0)
SRC = str(Path(__file__).resolve().parent.parent / "src")


@contextmanager
def criterion(num, name, budget_s):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[criterion {num}] {name}: FAIL ({time.perf_counter() - start:.2f}s)")
        raise
    elapsed = time.perf_counter() - start
    print(f"[criterion {num}] {name}: PASS ({elapsed:.2f}s < {budget_s}s)")
    assert elapsed < budget_s, f"criterion {num} exceeded its {budget_s}s budget"


def test_criterion_1_analytic_values():
    with criterion(1, "analytic values exact", 1.0):
        assert abs(sc.sigmoid_f(0.0, 7.3) - 0.5) < 1e-12
        assert abs(sc.sigmoid_f(1.0, 1.0) - 0.75) < 1e-12
        assert abs(sc.sigmoid_f(-1.0, 1.0) - 0.25) < 1e-12
        lo, hi = sc.soft_swap(2.0, 1.0, 1.0)
        assert abs(lo - 1.25) < 1e-12 and abs(hi - 1.75) < 1e-12
        sorted_soft, perm = sc.diff_sort([2.0, 1.0], 1.0)
        assert np.max(np.abs(perm.entries - [[0.25, 0.75], [0.75, 0.25]])) < 1e-12
        assert np.max(np.abs(sorted_soft - [1.25, 1.75])) < 1e-12
        assert abs(ls.groco_loss([0.37], [0.37], GroCoParams(beta=1.0)) - LN2) < 1e-12
        assert abs(ls.groco_loss([0.0], [1.0], GroCoParams(beta=1.0)) - (-math.log(0.75))) < 1e-12


def test_criterion_2_closed_form_equivalence():
    with criterion(2, "closed forms match the general losses", 5.0):
        rng = np.random.default_rng(2024)
        for _ in range(1000):
            d_p, d_n = rng.uniform(-2.0, 2.0, 2)
            beta = float(rng.uniform(0.2, 5.0))
            tau = float(rng.uniform(0.2, 2.0))
            full = ls.groco_loss([d_p], [d_n], GroCoParams(beta=beta))
            assert abs(full - ls.groco_closed_form_1v1(d_p, d_n, beta)) < 1e-12
            nce = ls.infonce_loss([d_p], [d_n], InfoNCEParams(tau=tau))
            assert abs(nce - math.log(1.0 + math.exp(-(d_n - d_p) / tau))) < 1e-12


def test_criterion_3_structural_invariants():
    with criterion(3, "structural invariants over 500 random inputs", 30.0):
        rng = np.random.default_rng(3033)
        betas = (0.5, 1.0, 2.0, 10.0)
        for case in range(500):
            n = int(rng.integers(2, 33))
            beta = betas[case % 4]
            values = rng.uniform(-3.0, 3.0, n)
            sorted_soft, perm = sc.diff_sort(values, beta)
            p = perm.entries
            assert np.max(np.abs(p.sum(axis=0) - 1.0)) < 1e-9
            assert np.max(np.abs(p.sum(axis=1) - 1.0)) < 1e-9
            assert abs(sorted_soft.sum() - values.sum()) < 1e-9 * n

            k = int(rng.integers(1, min(8, n - 1) + 1))
            d_pos = np.sort(values[:k])
            d_neg = np.sort(values[k:])
            # the two cross-entropy terms of each column agree
            for i in range(n):
                pos_mass = p[:k, i].sum()
                neg_mass = p[k:, i].sum()
                target = 1.0 if i < k else 0.0
                assert abs(ls.bce(pos_mass, target) - ls.bce(neg_mass, 1.0 - target)) < 1e-9
            params = GroCoParams(beta=beta)
            base = ls.groco_loss(d_pos, d_neg, params)
            shift = float(rng.uniform(-4.0, 4.0))
            assert abs(base - ls.groco_loss(d_pos + shift, d_neg + shift, params)) < 1e-10
            nce = InfoNCEParams(tau=0.5)
            assert abs(
                ls.infonce_loss(d_pos, d_neg, nce) - ls.infonce_loss(d_pos + shift, d_neg + shift, nce)
            ) < 1e-10
            scale_c = float(rng.uniform(0.2, 4.0))
            assert abs(
                ls.groco_loss(scale_c * d_pos, scale_c * d_neg, params)
                - ls.groco_loss(d_pos, d_neg, GroCoParams(beta=scale_c * beta))
            ) < 1e-10


def test_criterion_4_hard_limit_convergence():
    with criterion(4, "relaxed matrix converges to the hard permutation", 5.0):
        rng = np.random.default_rng(4044)
        for _ in range(10):
            base = np.cumsum(rng.uniform(0.5, 1.5, 8))  # min pairwise gap >= 0.5
            values = rng.permutation(base)
            q = sc.permutation_matrix(sc.hard_sort(values)[1])
            distances = []
            for beta in (1.0, 10.0, 100.0, 1e4, 1e6):
                _, perm = sc.diff_sort(values, beta)
                distances.append(float(np.max(np.abs(perm.entries - q))))
            assert all(b <= a + 1e-15 for a, b in zip(distances, distances[1:])), distances
            assert distances[-1] < 1e-2


def test_criterion_5_gradient_fidelity():
    with criterion(5, "full-path gradients match central differences", 120.0):
        rng = np.random.default_rng(5055)
        worst = 0.0
        for beta in (0.5, 1.0, 2.0):
            for k in range(1, 5):
                for n in range(1, 11):
                    # probe points: pairwise-separated (hard pre-ordering stays
                    # on one branch under +-h) and inside a moderate range so no
                    # coordinate's gradient degenerates below what a 1e-6
                    # central difference can certify at 1e-5 relative error
                    while True:
                        point = rng.uniform(-0.4, 0.4, k + n)
                        if np.min(np.diff(np.sort(point))) >= 1e-3:
                            break
                    report = dg.grad_check(
                        lambda tape, x, k=k, beta=beta: ls.groco_from_raw_distances(x, k, beta),
                        point,
                        h=1e-6,
                        tol=1e-5,
                    )
                    worst = max(worst, report.max_rel_error)
                    assert report.passed, (
                        f"k={k} n={n} beta={beta}: rel error {report.max_rel_error:.3e}"
                    )
        print(f"  worst relative error across 120 combos: {worst:.3e}")

        # stop-gradient zeroing is exact through the batch pipeline
        rng = np.random.default_rng(5155)
        raw = rng.normal(size=(6, 4))
        image_id = np.repeat(np.arange(3), 2)
        tape = dg.Tape()
        batch = bp.ViewBatch(tape.variable(raw), image_id, 2)
        block, _, _ = bp._selected_distances(batch, 4, True, False, True, None)
        start = block.shape[1] * 1  # block row 1: anchor 1's positive, then its negatives
        d_pos = dg.index_select(block, start + np.arange(1))
        d_neg = dg.index_select(block, start + np.arange(1, block.shape[1]))
        loss = ls.groco_loss(d_pos, d_neg, GroCoParams(beta=1.0))
        grads = dg.backward(tape, loss).grad(batch.projections)
        assert np.any(grads[1] != 0.0)
        for row in (0, 2, 3, 4, 5):
            assert np.all(grads[row] == 0.0)


def test_criterion_6_oracle_equivalence():
    with criterion(6, "optimized paths match brute-force oracles", 60.0):
        rng = np.random.default_rng(6066)
        for _ in range(25):
            n = int(rng.integers(1, 9))
            values = rng.uniform(-2.0, 2.0, n)
            beta = float(rng.choice([0.5, 1.0, 2.0, 10.0]))
            got_sorted, got_perm = sc.diff_sort(values, beta)
            expect_sorted, expect_p = oracle_diff_sort(values.tolist(), beta)
            assert np.max(np.abs(got_perm.entries - expect_p)) < 1e-12
            assert np.max(np.abs(got_sorted - expect_sorted)) < 1e-12
        for _ in range(25):
            k = int(rng.integers(1, 4))
            n = int(rng.integers(1, 6))
            d_pos = np.sort(rng.uniform(-1.0, 1.0, k))
            d_neg = np.sort(rng.uniform(-1.0, 1.0, n))
            beta = float(rng.choice([0.5, 1.0, 2.0]))
            got = ls.groco_loss(d_pos, d_neg, GroCoParams(beta=beta))
            assert abs(got - oracle_groco(d_pos, d_neg, beta)) < 1e-12

        train = rng.normal(size=(200, 8))
        labels = rng.integers(0, 5, 200)
        for _ in range(40):
            query = rng.normal(size=8)
            k = int(rng.integers(1, 21))
            assert ev.knn_predict(train, labels, query, k) == oracle_knn_predict(
                train, labels, query, k, 0.07
            )


# Documented grid for the optimization-dynamics property (lr, steps, beta, tau).
# Pilot measurements: farthest-negative displacement ratio groco/infonce was
# 0.046..0.223 across this grid; the 0.5 bound below freezes 2x headroom.
TOY_GRID = [
    (0.05, 300, 2.0, 0.5),
    (0.05, 300, 1.0, 0.5),
    (0.05, 300, 2.0, 1.0),
    (0.02, 300, 2.0, 0.5),
    (0.05, 200, 2.0, 0.5),
    (0.02, 200, 1.0, 1.0),
]


def test_criterion_7_toy_dynamics_property():
    with criterion(7, "far negatives move less under group ordering", 10.0):
        init = [0.0, 0.6, 0.3, 0.0, -0.3]
        far = 1 + int(np.argmin(init[1:]))
        for lr, steps, beta, tau in TOY_GRID:
            tg = ev.toy_dynamics("groco", init, steps, lr, GroCoParams(beta=beta))
            ti = ev.toy_dynamics("infonce", init, steps, lr, InfoNCEParams(tau=tau))
            move_g = abs(tg.similarities[-1, far] - tg.similarities[0, far])
            move_i = abs(ti.similarities[-1, far] - ti.similarities[0, far])
            assert move_g < move_i, (lr, steps, beta, tau)
            assert move_g < 0.5 * move_i, (lr, steps, beta, tau)  # frozen margin
            assert np.min(np.diff(tg.similarities[:, 0])) >= -1e-12
            assert np.min(np.diff(ti.similarities[:, 0])) >= -1e-12


@pytest.fixture(scope="module")
def desk_run():
    """One full default training run on the pinned dataset."""
    start = time.perf_counter()
    dataset = dio.synth_generate(dio.SynthConfig())  # 8 clusters, D=32, 200 each
    train_ds, test_ds = dio.split_dataset(dataset, 0.2, seed=123)
    config = md.TrainConfig()  # 20 epochs, B=128, m=2, N=10, beta=1
    result = md.train(train_ds, config)

    def knn10(params):
        rep_train, _ = md.forward(params, train_ds.vectors.astype(np.float64))
        rep_test, _ = md.forward(params, test_ds.vectors.astype(np.float64))
        return ev.knn_accuracy(rep_train, train_ds.labels, rep_test, test_ds.labels, k=10)

    init_seed = np.random.SeedSequence(config.seed).generate_state(4)[0]
    random_params = md.init_params(
        dataset.dim, config.encoder_widths, config.projection_widths, seed=init_seed
    )
    return knn10(result.params), knn10(random_params), result, time.perf_counter() - start


def test_criterion_8_desk_scale_training(desk_run):
    trained_acc, random_acc, result, elapsed = desk_run
    with criterion(8, "desk-scale training quality (k-NN >= 0.90 held out)", 300.0):
        spe = result.steps_per_epoch
        first = float(np.mean(result.step_losses[:spe]))
        last = float(np.mean(result.step_losses[-spe:]))
        print(
            f"  trained knn@10={trained_acc:.4f} random-init knn@10={random_acc:.4f} "
            f"loss first={first:.5f} last={last:.5f} train+eval={elapsed:.0f}s"
        )
        assert elapsed < 300.0, f"training run took {elapsed:.0f}s, budget is 300s"
        assert trained_acc >= 0.90  # frozen: pilot measured 1.0000
        assert last < first  # frozen: pilot measured 0.21177 -> 0.21004
        # short-run trend as well: epoch-mean loss already drops within 5 epochs
        fifth = float(np.mean(result.step_losses[4 * spe : 5 * spe]))
        assert fifth < first  # frozen: pilot measured 0.21177 -> 0.21136
        # The margin clause over the random-init baseline is checked (and
        # documented) separately in test_criterion_8_margin_over_random_init.


# Margin workload for criterion 8's clause over the random-init baseline. The
# pinned SynthConfig() data is raw-separable (k-NN@10 = 1.0 on inputs and on a
# random-init encoder alike), which leaves no room above the baseline. Here the
# class signal sits in a small subspace and large view-specific noise sits on
# the nuisance dimensions, so the encoder has to learn to ignore them.
MARGIN_CLASSES, MARGIN_PER_CLASS = 8, 200
MARGIN_CLASS_DIM, MARGIN_NUISANCE_DIM = 8, 24
MARGIN_VIEW_NOISE = (0.1,) * MARGIN_CLASS_DIM + (2.0,) * MARGIN_NUISANCE_DIM
MARGIN_SEED = 123


def margin_workload() -> dio.Dataset:
    """Class dims: centres with std 1.0, instance jitter 0.3. Nuisance dims:
    instance std 2.0, independent of the class."""
    rng = np.random.default_rng(MARGIN_SEED)
    count = MARGIN_CLASSES * MARGIN_PER_CLASS
    centers = rng.standard_normal((MARGIN_CLASSES, MARGIN_CLASS_DIM))
    signal = np.repeat(centers, MARGIN_PER_CLASS, axis=0)
    signal += 0.3 * rng.standard_normal((count, MARGIN_CLASS_DIM))
    nuisance = 2.0 * rng.standard_normal((count, MARGIN_NUISANCE_DIM))
    labels = np.repeat(np.arange(MARGIN_CLASSES, dtype=np.uint32), MARGIN_PER_CLASS)
    return dio.Dataset(np.hstack([signal, nuisance]), labels, "criterion-8 margin workload")


@pytest.fixture(scope="module")
def margin_run():
    """One default-recipe training run on the margin workload; only the view
    noise is per-coordinate, matching the workload's nuisance dimensions."""
    start = time.perf_counter()
    dataset = margin_workload()
    train_ds, test_ds = dio.split_dataset(dataset, 0.2, seed=MARGIN_SEED)
    config = md.TrainConfig(view_noise=MARGIN_VIEW_NOISE)  # seed 0, default recipe
    result = md.train(train_ds, config)

    def knn10(params):
        rep_train, _ = md.forward(params, train_ds.vectors.astype(np.float64))
        rep_test, _ = md.forward(params, test_ds.vectors.astype(np.float64))
        return ev.knn_accuracy(rep_train, train_ds.labels, rep_test, test_ds.labels, k=10)

    init_seed = np.random.SeedSequence(config.seed).generate_state(4)[0]
    random_params = md.init_params(
        dataset.dim, config.encoder_widths, config.projection_widths, seed=init_seed
    )
    raw_acc = ev.knn_accuracy(
        train_ds.vectors, train_ds.labels, test_ds.vectors, test_ds.labels, k=10
    )
    return knn10(result.params), knn10(random_params), raw_acc, time.perf_counter() - start


def test_criterion_8_margin_over_random_init(margin_run):
    trained_acc, random_acc, raw_acc, elapsed = margin_run
    with criterion(8, "trained exceeds random-init k-NN by >= 0.10", 300.0):
        measured = (
            f"trained knn@10={trained_acc:.4f}, random-init knn@10={random_acc:.4f}, "
            f"raw knn@10={raw_acc:.4f}"
        )
        print(f"  {measured} train+eval={elapsed:.0f}s")
        assert elapsed < 300.0, f"training run took {elapsed:.0f}s, budget is 300s"
        # the workload is not saturated (frozen): pilot measured raw 0.4531
        # and random-init 0.4000 / 0.3656 / 0.3656 at training seeds 0 / 1 / 2
        assert raw_acc <= 0.60, measured
        assert random_acc <= 0.60, measured
        # frozen margin: pilot measured trained 0.8094 / 0.7063 / 0.6563 at
        # training seeds 0 / 1 / 2, i.e. margins +0.41 / +0.34 / +0.29
        assert trained_acc >= random_acc + 0.10, measured


def _run_cli(*args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "groco.cli", *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=cwd,
    )


def test_criterion_9_bitwise_determinism(tmp_path):
    with criterion(9, "same seed, same bytes (metrics, checkpoint, eval)", 600.0):
        outputs = []
        for run in ("a", "b"):
            ckpt = tmp_path / f"{run}.ckpt"
            metrics = tmp_path / f"{run}.csv"
            data = tmp_path / f"{run}.gvec"
            proc = _run_cli(
                "train", "--synth", "--seed", "0",
                "--ckpt", str(ckpt), "--metrics", str(metrics), "--save-data", str(data),
                cwd=tmp_path,
            )
            assert proc.returncode == 0, proc.stderr
            evald = _run_cli(
                "eval", "--ckpt", str(ckpt), "--data", str(data), "--k", "1,10,20",
                "--seed", "0", cwd=tmp_path,
            )
            assert evald.returncode == 0, evald.stderr
            outputs.append((ckpt.read_bytes(), metrics.read_bytes(), data.read_bytes(), evald.stdout))
        assert outputs[0][0] == outputs[1][0], "checkpoints differ between identical runs"
        assert outputs[0][1] == outputs[1][1], "metrics CSVs differ between identical runs"
        assert outputs[0][2] == outputs[1][2], "datasets differ between identical runs"
        assert outputs[0][3] == outputs[1][3], "evaluation reports differ between identical runs"

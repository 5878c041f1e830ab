"""Each benchmark check accepts the package's own output and rejects a
slightly wrong one, so a run that reports `correct: true` has been checked
by tests that can fail."""

import numpy as np
import pytest

import checks
from groco import batchpipe as bp
from groco import diffgrad as dg
from groco import evals as ev
from groco import losses as ls
from groco import sortcore as sc
from groco.losses import GroCoParams

SPEC = checks.LossSpec(beta=1.0, num_negatives=4)


def _taped_step(seed=7, images=6, dim=5):
    """Loss and projection gradient of one batch, through the package."""
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=(2 * images, dim))
    image_id = np.repeat(np.arange(images), 2)
    tape = dg.Tape()
    batch = bp.ViewBatch(tape.variable(raw), image_id, 2)
    loss = bp.batch_loss(batch, "groco", GroCoParams(beta=1.0, num_negatives=4), num_negatives=4)
    grad = dg.backward(tape, loss).grad(batch.projections)
    return raw, image_id, float(loss.data), grad


def test_step_loss_check_rejects_a_loss_off_by_1e_8():
    raw, image_id, loss, _ = _taped_step()
    checks.check_step_loss(raw, image_id, SPEC, loss, loss)
    with pytest.raises(checks.CheckFailed):
        checks.check_step_loss(raw, image_id, SPEC, loss + 1e-8, loss)
    with pytest.raises(checks.CheckFailed):
        checks.check_step_loss(raw, image_id, SPEC, loss, loss - 1e-8)


def test_step_gradient_check_rejects_a_scaled_gradient():
    raw, image_id, _, grad = _taped_step()
    checks.check_step_gradient(raw, image_id, SPEC, grad, np.random.default_rng(0))
    with pytest.raises(checks.CheckFailed):
        checks.check_step_gradient(raw, image_id, SPEC, grad * (1 + 1e-3), np.random.default_rng(0))


def test_permutation_check_rejects_two_swapped_rows():
    values = np.random.default_rng(3).uniform(0.0, 6.0, 6)
    soft, perm = sc.diff_sort(values, 1.0)
    checks.check_permutation(values, 1.0, soft, perm.entries)
    swapped = perm.entries[[1, 0, 2, 3, 4, 5]]
    with pytest.raises(checks.CheckFailed):
        checks.check_permutation(values, 1.0, soft, swapped)


@pytest.mark.parametrize("n", [6, 20])
def test_supervision_checks_reject_a_wrong_loss_or_gradient(n):
    values = np.random.default_rng(n).uniform(0.0, float(n), n)
    q = np.zeros((n, n))
    q[np.arange(n), np.argsort(values, kind="stable")] = 1.0
    tape = dg.Tape()
    x = tape.variable(values)
    _, p = sc.diff_sort(x, 1.0)
    loss = ls.sorting_supervision_loss(p, q)
    grad = dg.backward(tape, loss).grad(x)

    def plain(v, q):
        return ls.sorting_supervision_loss(sc.diff_sort(v, 1.0)[1], q)

    checks.check_supervision_loss(p.data, q, float(loss.data))
    checks.check_value_gradient(values, q, 1.0, grad, np.random.default_rng(0), plain)
    with pytest.raises(checks.CheckFailed):
        checks.check_supervision_loss(p.data, q, float(loss.data) + 1e-8)
    with pytest.raises(checks.CheckFailed):
        checks.check_value_gradient(values, q, 1.0, -grad, np.random.default_rng(0), plain)


def test_knn_check_rejects_one_flipped_label():
    rng = np.random.default_rng(11)
    train = rng.normal(size=(40, 4))
    train_labels = rng.integers(0, 3, 40)
    test = rng.normal(size=(12, 4))
    test_labels = rng.integers(0, 3, 12)
    accuracy = ev.knn_accuracy(train, train_labels, test, test_labels, 5)
    checks.check_knn(train, train_labels, test, test_labels, 5, accuracy, ev.KNN_WEIGHT_TAU)
    right = next(
        i for i in range(12) if ev.knn_predict(train, train_labels, test[i], 5) == test_labels[i]
    )
    flipped = test_labels.copy()
    flipped[right] = (flipped[right] + 1) % 3
    with pytest.raises(checks.CheckFailed):
        checks.check_knn(train, train_labels, test, flipped, 5, accuracy, ev.KNN_WEIGHT_TAU)


def test_probe_check_allows_one_query_and_no_more():
    rng = np.random.default_rng(12)
    train = rng.normal(size=(60, 4))
    train_labels = rng.integers(0, 3, 60)
    test = rng.normal(size=(20, 4))
    test_labels = rng.integers(0, 3, 20)
    accuracy = ev.linear_probe(train, train_labels, test, test_labels, steps=50, lr=0.1)
    checks.check_probe(train, train_labels, test, test_labels, accuracy + 1 / 20, 50, 0.1)
    with pytest.raises(checks.CheckFailed):
        checks.check_probe(train, train_labels, test, test_labels, accuracy + 2 / 20, 50, 0.1)


def test_checkpoint_and_representation_checks_reject_a_changed_entry():
    w = np.random.default_rng(13).normal(size=(3, 2))
    rounded = w.astype(np.float32).astype(np.float64)
    checks.check_checkpoint({"w": w}, {"w": rounded})
    with pytest.raises(checks.CheckFailed):
        checks.check_checkpoint({"w": w}, {"w": rounded + np.eye(3, 2) * 1e-6})
    encoder = [(w, np.zeros(2)), (w[:2], np.ones(2))]
    x = np.random.default_rng(14).normal(size=(5, 3))
    rep = np.maximum(x @ w, 0.0) @ w[:2] + 1.0
    checks.check_representation(encoder, x, rep)
    with pytest.raises(checks.CheckFailed):
        checks.check_representation(encoder, x, rep + 1e-6)

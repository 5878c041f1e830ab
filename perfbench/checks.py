"""Checks of the package's outputs against computations made apart from it.

Reference values come from `tests/oracles.py` (explicit Python loops that
share no code path with the package) and from the small numpy routines
below. Each check raises `CheckFailed` naming the discrepancy it measured.
"""

from __future__ import annotations

import importlib.util
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np


def _load_oracles():
    path = Path(__file__).resolve().parent.parent / "tests" / "oracles.py"
    spec = importlib.util.spec_from_file_location("perfbench_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


oracles = _load_oracles()

LOSS_TOL = 1e-10  # batch loss against the recomputation and the metrics CSV
P_TOL = 1e-12  # permutation entries and list losses against the oracles
STOCHASTIC_TOL = 1e-9  # row and column sums of P, and P @ v against the soft sort
GRAD_TOL = 1e-5  # taped gradient against central differences, relative
GRAD_FLOOR = 0.1  # ... to at least this share of the gradient's largest entry
MIN_GAP = 1e-4  # distances this close make the loss non-smooth: skip that anchor


class CheckFailed(Exception):
    """An output of the package disagrees with the independent computation."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _close_grads(analytic: np.ndarray, numeric: np.ndarray, largest: float, what: str) -> None:
    """Entries far below the gradient's largest one carry the central
    difference's rounding error, so their error is taken relative to it."""
    scale = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), GRAD_FLOOR * largest)
    worst = float(np.max(np.abs(analytic - numeric) / scale))
    _require(worst <= GRAD_TOL, f"{what}: taped gradient {analytic} vs central difference {numeric} (rel {worst:.3e})")


# ---------------------------------------------------------------------------
# training steps


@dataclass(frozen=True)
class LossSpec:
    """The per-anchor GroCo loss of a training recipe."""

    beta: float = 1.0
    num_negatives: int = 10

    def anchor_loss(self, d_pos, d_neg) -> float:
        return oracles.oracle_groco(d_pos, d_neg, self.beta)


def _unit_rows(x: np.ndarray) -> np.ndarray:
    return x / np.sqrt(np.sum(x * x, axis=1, keepdims=True))


def anchor_groups(row, image_id, anchor: int, num_negatives):
    """Ascending positive and negative distance groups of one anchor from its
    row of distances to every view. Negatives are the `num_negatives`
    smallest, the lower view index first on ties, or all of them."""
    views = range(len(row))
    pos = sorted(float(row[j]) for j in views if j != anchor and image_id[j] == image_id[anchor])
    neg = sorted((j for j in views if image_id[j] != image_id[anchor]), key=lambda j: (row[j], j))
    if num_negatives is not None:
        neg = neg[:num_negatives]
    return pos, [float(row[j]) for j in neg]


def _row_is_smooth(row, image_id, anchor: int, spec: LossSpec) -> bool:
    """True when no two distances that the group selection or pre-ordering
    compares lie within MIN_GAP, so central differences stay on one branch."""
    pos, neg = anchor_groups(row, image_id, anchor, spec.num_negatives + 1)
    gaps = list(np.diff(pos)) + list(np.diff(neg))
    return not gaps or min(gaps) >= MIN_GAP


def check_step_loss(projections, image_id, spec: LossSpec, program_loss: float, csv_loss: float) -> None:
    """The batch loss recomputed from independently built per-anchor groups
    equals the program's value and its metrics-CSV row."""
    unit = _unit_rows(np.asarray(projections, dtype=np.float64))
    total = 0.0
    for a in range(unit.shape[0]):
        total += spec.anchor_loss(*anchor_groups(-(unit @ unit[a]), image_id, a, spec.num_negatives))
    expected = total / unit.shape[0]
    _require(abs(expected - program_loss) <= LOSS_TOL, f"batch loss {program_loss!r} != recomputed {expected!r}")
    _require(abs(expected - csv_loss) <= LOSS_TOL, f"metrics CSV loss {csv_loss!r} != recomputed {expected!r}")


def check_step_gradient(projections, image_id, spec: LossSpec, grad, rng, rows: int = 2, coords: int = 3) -> None:
    """The taped gradient of the batch loss with respect to the projections
    matches central differences at sampled coordinates.

    With stop-gradient on, a projection reaches the loss only as its own
    anchor; the other views' unit vectors are held fixed here, exactly as
    the detached factor of the distance matrix holds them.
    """
    x = np.asarray(projections, dtype=np.float64)
    unit = _unit_rows(x)
    count = x.shape[0]
    checked = 0
    for r in rng.permutation(count):
        if checked == rows:
            break
        if not _row_is_smooth(-(unit @ unit[r]), image_id, r, spec):
            continue
        cols = rng.choice(x.shape[1], size=coords, replace=False)
        x0 = x[r].copy()

        def loss_of(sub, r=r, cols=cols, x0=x0):
            xr = x0.copy()
            xr[cols] = sub
            xr /= math.sqrt(float(xr @ xr))
            return spec.anchor_loss(*anchor_groups(-(unit @ xr), image_id, r, spec.num_negatives))

        h = 1e-6 * math.sqrt(float(x0 @ x0))
        numeric = oracles.central_difference(loss_of, x0[cols], h) / count
        row_grad = np.asarray(grad)[r]
        _close_grads(row_grad[cols], numeric, float(np.max(np.abs(row_grad))), f"projection row {r} columns {list(cols)}")
        checked += 1
    _require(checked == rows, f"only {checked} of {rows} anchors were far enough from a tie to check")


def check_checkpoint(trained: dict, loaded: dict) -> None:
    """Every loaded tensor equals the trained one rounded to float32."""
    _require(set(trained) <= set(loaded), f"checkpoint lacks {sorted(set(trained) - set(loaded))}")
    for name, arr in trained.items():
        expected = np.asarray(arr).astype(np.float32).astype(np.float64)
        _require(np.array_equal(loaded[name], expected), f"loaded {name} differs from the float32-rounded parameters")


def check_representation(encoder, inputs, representation) -> None:
    """The encoder output equals an affine/ReLU stack evaluated here."""
    h = np.asarray(inputs, dtype=np.float64)
    for i, (w, b) in enumerate(encoder):
        h = h @ w + b
        if i < len(encoder) - 1:
            h = np.where(h > 0.0, h, 0.0)
    err = float(np.max(np.abs(h - representation)))
    _require(err <= 1e-9 * max(1.0, float(np.max(np.abs(h)))), f"representation differs by {err:.3e}")


def check_knn(train, train_labels, test, test_labels, k: int, accuracy: float, weight_tau: float) -> None:
    """k-NN accuracy equals the share of queries `oracle_knn_predict` gets right."""
    hits = sum(
        oracles.oracle_knn_predict(train, train_labels, query, k, weight_tau) == int(label)
        for query, label in zip(test, test_labels)
    )
    expected = hits / len(test_labels)
    _require(accuracy == expected, f"k-NN@{k} accuracy {accuracy!r} != oracle {expected!r}")


def check_probe(train, train_labels, test, test_labels, accuracy: float, steps: int, lr: float) -> None:
    """Probe accuracy within one query of a zero-init, full-batch softmax
    regression with a bias, trained here."""
    x = np.asarray(train, dtype=np.float64)
    classes, y = np.unique(np.asarray(train_labels), return_inverse=True)
    w = np.zeros((x.shape[1], classes.size))
    b = np.zeros(classes.size)
    rows = np.arange(x.shape[0])
    for _ in range(steps):
        z = x @ w + b
        z -= z.max(axis=1, keepdims=True)
        p = np.exp(z)
        p /= p.sum(axis=1, keepdims=True)
        p[rows, y] -= 1.0  # softmax cross-entropy gradient with respect to the logits
        w -= lr * (x.T @ p) / x.shape[0]
        b -= lr * p.sum(axis=0) / x.shape[0]
    predicted = classes[np.argmax(np.asarray(test, dtype=np.float64) @ w + b, axis=1)]
    expected = float(np.mean(predicted == np.asarray(test_labels)))
    _require(
        abs(expected - accuracy) <= 1.0 / len(test_labels) + 1e-12,
        f"linear probe accuracy {accuracy!r} vs {expected!r} from the reference regression",
    )


# ---------------------------------------------------------------------------
# sorting supervision


def check_permutation(values, beta: float, soft, p) -> None:
    """P is doubly stochastic, P @ v is the soft-sorted output, and for
    n <= 16 P equals `oracle_diff_sort`."""
    values = np.asarray(values, dtype=np.float64)
    p = np.asarray(p, dtype=np.float64)
    n = values.size
    _require(p.shape == (n, n) and float(p.min()) >= -STOCHASTIC_TOL, f"n={n}: P is not a non-negative n x n matrix")
    sums = max(float(np.max(np.abs(p.sum(axis=0) - 1.0))), float(np.max(np.abs(p.sum(axis=1) - 1.0))))
    _require(sums <= STOCHASTIC_TOL, f"n={n}: P is not doubly stochastic (sums off by {sums:.3e})")
    err = float(np.max(np.abs(p @ values - soft)))
    _require(err <= STOCHASTIC_TOL * max(1.0, float(np.max(np.abs(values)))), f"n={n}: P @ v differs from the soft sort by {err:.3e}")
    if n <= 16:
        _, expected = oracles.oracle_diff_sort(values.tolist(), beta)
        err = float(np.max(np.abs(p - expected)))
        _require(err <= P_TOL, f"n={n}: P differs from oracle_diff_sort by {err:.3e}")


def check_supervision_loss(p, q, loss: float) -> None:
    expected = oracles.oracle_sorting_supervision(np.asarray(p), np.asarray(q))
    _require(abs(expected - loss) <= P_TOL, f"n={len(q)}: loss {loss!r} != oracle {expected!r}")


def check_value_gradient(values, q, beta: float, grad, rng, plain_loss, coords: int = 2) -> None:
    """The taped gradient with respect to the values matches central
    differences: of the oracle loss for n <= 16, else of `plain_loss`, the
    package's untaped forward."""
    values = np.asarray(values, dtype=np.float64)
    cols = rng.choice(values.size, size=min(coords, values.size), replace=False)

    def loss_of(sub):
        v = values.copy()
        v[cols] = sub
        if v.size <= 16:
            return oracles.oracle_sorting_supervision(oracles.oracle_diff_sort(v.tolist(), beta)[1], q)
        return plain_loss(v, q)

    numeric = oracles.central_difference(loss_of, values[cols], 1e-6)
    grad = np.asarray(grad)
    _close_grads(grad[cols], numeric, float(np.max(np.abs(grad))), f"n={values.size} value gradient at {list(cols)}")

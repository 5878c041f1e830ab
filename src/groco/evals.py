"""Embedding evaluation: weighted k-NN, linear probe, and the five-variable
optimization-dynamics experiment."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import batchpipe
from . import diffgrad as dg
from . import losses

__all__ = [
    "EvalReport",
    "ToyTrajectory",
    "knn_predict",
    "knn_accuracies",
    "knn_accuracy",
    "linear_probe",
    "toy_dynamics",
    "write_trajectory_csv",
]

KNN_WEIGHT_TAU = 0.07  # similarity-weighting temperature for k-NN votes


@dataclass
class EvalReport:
    knn_accuracies: dict[int, float] = field(default_factory=dict)
    linear_probe_accuracy: float | None = None
    space: str = "representation"
    meta: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        values = list(self.knn_accuracies.values())
        if self.linear_probe_accuracy is not None:
            values.append(self.linear_probe_accuracy)
        if any(not (0.0 <= v <= 1.0) for v in values):
            raise ValueError(f"accuracies must lie in [0, 1], got {values}")


def _unit_rows(x, what: str) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr[None, :]
    norms = np.linalg.norm(arr, axis=1, keepdims=True)
    if np.any(norms == 0.0):
        raise ValueError(f"{what} contains a zero-norm embedding")
    return arr / norms


def _knn_predictions(train_embeds, train_labels, queries, ks, weight_tau: float) -> dict[int, np.ndarray]:
    """Predicted class of each query row for every k in `ks`; see
    `knn_predict` for the rules. One similarity matmul and one stable top-k
    at the largest k serve every k: a stable order's first k entries are the
    order at k, so each smaller k reads a prefix of the same votes."""
    if not (math.isfinite(weight_tau) and weight_tau > 0):
        raise ValueError(f"weight_tau must be finite and > 0, got {weight_tau}")
    train_labels = np.asarray(train_labels)
    train = _unit_rows(train_embeds, "train_embeds")
    if train_labels.shape != (train.shape[0],):
        raise ValueError("train_labels must provide one label per embedding")
    if train.shape[0] < 1:
        raise ValueError("empty train set")
    for k in ks:
        if not (1 <= k <= train.shape[0]):
            raise ValueError(f"k must be in 1..{train.shape[0]}, got {k}")
    queries = _unit_rows(queries, "query")
    if queries.shape[1] != train.shape[1]:
        raise ValueError(f"query width {queries.shape[1]} differs from train width {train.shape[1]}")
    distances = queries @ train.T
    np.negative(distances, out=distances)  # in place: no second (Q, N) array
    nearest = batchpipe.select_top_negatives(distances, max(ks))
    classes, label_index = np.unique(train_labels, return_inverse=True)
    votes = label_index[nearest]
    weights = np.exp(-np.take_along_axis(distances, nearest, axis=1) / weight_tau)
    scores = np.zeros((distances.shape[0], classes.size))
    rows = np.arange(distances.shape[0])
    predictions = {}
    for j in range(nearest.shape[1]):  # add the votes in neighbour order
        scores[rows, votes[:, j]] += weights[:, j]
        if j + 1 in ks:
            predictions[j + 1] = classes[np.argmax(scores, axis=1)]
    return predictions


def knn_predict(train_embeds, train_labels, query, k: int, weight_tau: float = KNN_WEIGHT_TAU) -> int:
    """Weighted k-nearest-neighbor vote under cosine distance.

    Each of the k nearest training points votes exp(similarity / weight_tau)
    for its class, for a finite `weight_tau` > 0; neighbor ties break toward
    the lower index and class-score ties toward the smaller class id.
    """
    return int(_knn_predictions(train_embeds, train_labels, query, (k,), weight_tau)[k][0])


def knn_accuracies(
    train_embeds,
    train_labels,
    test_embeds,
    test_labels,
    ks,
    weight_tau: float = KNN_WEIGHT_TAU,
) -> dict[int, float]:
    """Fraction of test points whose weighted k-NN vote matches their label,
    for every k in `ks`, from one neighbour search at the largest k. Each
    value equals `knn_accuracy` at that k."""
    ks = [int(k) for k in ks]
    if not ks:
        raise ValueError("ks must name at least one k")
    test_labels = np.asarray(test_labels)
    test = np.asarray(test_embeds, dtype=np.float64)
    if test.ndim != 2 or test_labels.shape != (test.shape[0],):
        raise ValueError("test embeddings/labels mismatch")
    predicted = _knn_predictions(train_embeds, train_labels, test, ks, weight_tau)
    return {k: float(np.mean(predicted[k] == test_labels)) for k in ks}


def knn_accuracy(
    train_embeds,
    train_labels,
    test_embeds,
    test_labels,
    k: int,
    weight_tau: float = KNN_WEIGHT_TAU,
) -> float:
    """Fraction of test points whose weighted k-NN vote matches their label."""
    return knn_accuracies(train_embeds, train_labels, test_embeds, test_labels, (k,), weight_tau)[int(k)]


def linear_probe(
    train_embeds,
    train_labels,
    test_embeds,
    test_labels,
    steps: int = 500,
    lr: float = 0.1,
) -> float:
    """Multinomial logistic regression on frozen embeddings.

    Full-batch gradient descent on softmax cross-entropy from a zero init;
    returns test accuracy. The embeddings are never modified. The model is
    kept class-major: weights (C, D) and logits (C, n), so the softmax
    reductions run across C contiguous rows, and every step writes into
    buffers allocated once.
    """
    x = np.ascontiguousarray(train_embeds, dtype=np.float64)
    y = np.asarray(train_labels)
    xt = np.asarray(test_embeds, dtype=np.float64)
    yt = np.asarray(test_labels)
    if x.ndim != 2 or y.shape != (x.shape[0],):
        raise ValueError("train embeddings/labels mismatch")
    if xt.ndim != 2 or yt.shape != (xt.shape[0],):
        raise ValueError("test embeddings/labels mismatch")
    if xt.shape[1] != x.shape[1]:
        raise ValueError(f"test embedding width {xt.shape[1]} differs from train width {x.shape[1]}")
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    if not (math.isfinite(lr) and lr > 0):
        raise ValueError(f"lr must be finite and > 0, got {lr}")
    classes = np.unique(y)
    if classes.size < 2:
        raise ValueError("linear probe needs at least two classes")
    n = x.shape[0]
    onehot = np.zeros((classes.size, n))
    onehot[np.searchsorted(classes, y), np.arange(n)] = 1.0

    x_transposed = np.ascontiguousarray(x.T)
    w = np.zeros((classes.size, x.shape[1]))
    b = np.zeros((classes.size, 1))
    delta = np.empty((classes.size, n))  # logits, then probabilities, then the gradient
    column = np.empty(n)
    grad_w = np.empty_like(w)
    grad_b = np.empty_like(b)
    for _ in range(steps):
        np.matmul(w, x_transposed, out=delta)
        delta += b
        np.max(delta, axis=0, out=column)
        delta -= column
        np.exp(delta, out=delta)
        np.sum(delta, axis=0, out=column)
        delta /= column
        delta -= onehot
        delta /= n
        np.matmul(delta, x, out=grad_w)
        grad_w *= lr
        w -= grad_w
        np.sum(delta, axis=1, keepdims=True, out=grad_b)
        grad_b *= lr
        b -= grad_b
    pred = classes[np.argmax(w @ xt.T + b, axis=0)]
    return float(np.mean(pred == yt))


@dataclass
class ToyTrajectory:
    """Similarity values over optimization steps: row s holds the values after
    s gradient updates (row 0 is the initialization); column 0 is the positive
    similarity, the rest are negatives."""

    loss_kind: str
    similarities: np.ndarray

    @property
    def steps(self) -> int:
        return self.similarities.shape[0] - 1


def toy_dynamics(loss_kind: str, init_similarities, steps: int, lr: float, params) -> ToyTrajectory:
    """Plain gradient descent on a handful of raw similarity variables.

    The first variable is the positive similarity, the rest are negatives;
    losses see distances d = -s. For the group-ordering loss, negatives are
    re-ordered ascending by distance at every step (a hard reindex, exactly as
    in the batch pipeline). `lr` must be finite and >= 0; at 0 every row
    is the initialization.
    """
    if loss_kind not in ("groco", "infonce"):
        raise ValueError(f"unknown loss_kind {loss_kind!r}, expected 'groco' or 'infonce'")
    sims = np.asarray(init_similarities, dtype=np.float64).copy()
    if sims.ndim != 1 or sims.size < 2:
        raise ValueError("need one positive and at least one negative similarity")
    if steps < 0:
        raise ValueError("steps must be >= 0")
    if not (math.isfinite(lr) and lr >= 0):
        raise ValueError(f"lr must be finite and >= 0, got {lr}")
    neg_count = sims.size - 1
    history = [sims.copy()]
    for _ in range(steps):
        tape = dg.Tape()
        s = tape.variable(sims)
        d = dg.scale(s, -1.0)
        if loss_kind == "groco":
            neg_order = np.argsort(-sims[1:], kind="stable")  # ascending distance
            row = dg.index_select(d, np.concatenate([[0], 1 + neg_order]))
            loss = losses.group_loss_from_concat(row, 1, params.beta)
        else:
            d_pos = dg.index_select(d, np.array([0], dtype=np.intp))
            d_neg = dg.index_select(d, 1 + np.arange(neg_count, dtype=np.intp))
            loss = losses.infonce_loss(d_pos, d_neg, params)
        grad = dg.backward(tape, loss).grad(s)
        sims = sims - lr * grad
        history.append(sims.copy())
    return ToyTrajectory(loss_kind, np.array(history))


def write_trajectory_csv(trajectory: ToyTrajectory, path) -> None:
    """CSV with header step,s_pos,s_neg1,... and one row per recorded step,
    values at 12 significant digits."""
    n_neg = trajectory.similarities.shape[1] - 1
    header = "step,s_pos," + ",".join(f"s_neg{i + 1}" for i in range(n_neg))
    lines = [header]
    for step, row in enumerate(trajectory.similarities):
        lines.append(f"{step}," + ",".join(f"{v:.12g}" for v in row))
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")

"""Embedding evaluation: weighted k-NN, linear probe, and the five-variable
optimization-dynamics experiment."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import batchpipe
from . import diffgrad as dg
from . import losses

__all__ = [
    "ToyTrajectory",
    "knn_predict",
    "knn_accuracies",
    "knn_accuracy",
    "linear_probe",
    "toy_dynamics",
    "write_trajectory_csv",
]

KNN_WEIGHT_TAU = 0.07  # similarity-weighting temperature for k-NN votes
_KNN_BLOCK_ENTRIES = 2**16  # similarities per k-NN query block: 512 KiB of float64
_PROBE_BLOCK_ENTRIES = 2**15  # train entries per linear-probe row block: 256 KiB of float64


def _check_finite(arr: np.ndarray, what: str) -> None:
    if not np.isfinite(arr).all():
        raise ValueError(f"{what} contains a non-finite value")


def _finite_rows(x, what: str) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr[None, :]
    _check_finite(arr, what)
    return arr


def _check_nonzero(norms: np.ndarray, what: str) -> None:
    if np.any(norms == 0.0):
        raise ValueError(f"{what} contains a zero-norm embedding")


def _unit_rows(x, what: str) -> np.ndarray:
    arr = _finite_rows(x, what)
    norms = np.linalg.norm(arr, axis=1, keepdims=True)
    _check_nonzero(norms, what)
    return arr / norms


def _duplicate_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(copies, firsts): every row of `rows` that equals an earlier row
    entry for entry, ascending, and the lowest index of the same row for
    each. Only rows whose first entry occurs more than once are compared
    whole, so rows without duplicates cost one sort of the first column;
    the rows compared whole are copied for that comparison."""
    by_first = np.argsort(rows[:, 0], kind="stable")
    lead = rows[by_first, 0]
    same = lead[1:] == lead[:-1]
    shared = np.zeros(lead.size, dtype=bool)
    shared[1:] |= same
    shared[:-1] |= same
    candidates = np.sort(by_first[shared])
    if candidates.size == 0:
        return candidates, candidates
    # np.unique gives the first occurrence of each distinct row, and the
    # candidates ascend, so that is the row's lowest index
    _, first, inverse = np.unique(rows[candidates], axis=0, return_index=True, return_inverse=True)
    firsts = candidates[first[inverse.reshape(-1)]]
    copy = firsts != candidates
    return candidates[copy], firsts[copy]


def _knn_predictions(
    train_embeds, train_labels, queries, ks, weight_tau: float, queries_name: str = "query"
) -> dict[int, np.ndarray]:
    """Predicted class of each query row for every k in `ks`; see
    `knn_predict` for the rules. Errors about the queries call them
    `queries_name`, the caller's name for them.

    The similarity of a unit query q^ and a train row t is (q^ . t) / |t|:
    the train rows are read in place, never copied or written, and only
    their norms are kept. The queries are searched in row blocks of about
    `_KNN_BLOCK_ENTRIES` similarities: each block gets one matmul against
    the train rows transposed (a view), turned into distances by one
    in-place multiply by -1/|t| per column, and one stable top-k at the
    largest k, whose indices and distances go to (Q, max k) arrays. So the
    memory is one block plus Q x max k entries (and the unit queries);
    nothing of size Q x N or of the train set's size is formed. A train row
    that equals an earlier one entry for entry gets that row's column in
    every block, since BLAS can round the last few columns of a product
    differently from the rest, and an exact duplicate must tie with its
    first copy. The votes then run on the (Q, max k) arrays for every k: a
    stable order's first k entries are the order at k, so each smaller k
    reads a prefix of the same votes."""
    if not (math.isfinite(weight_tau) and weight_tau > 0):
        raise ValueError(f"weight_tau must be finite and > 0, got {weight_tau}")
    train_labels = np.asarray(train_labels)
    train = _finite_rows(train_embeds, "train_embeds")
    norms = np.sqrt(np.vecdot(train, train))  # row by row, no temporary of the train set's size
    _check_nonzero(norms, "train_embeds")
    if train_labels.shape != (train.shape[0],):
        raise ValueError("train_labels must provide one label per embedding")
    if train.shape[0] < 1:
        raise ValueError("empty train set")
    for k in ks:
        if not (1 <= k <= train.shape[0]):
            raise ValueError(f"k must be in 1..{train.shape[0]}, got {k}")
    queries = _unit_rows(queries, queries_name)
    if queries.shape[0] < 1:
        raise ValueError("empty test set: no query embeddings")
    if queries.shape[1] != train.shape[1]:
        raise ValueError(f"query width {queries.shape[1]} differs from train width {train.shape[1]}")
    scale = -1.0 / norms
    copies, firsts = _duplicate_rows(train)
    count, kmax = queries.shape[0], max(ks)
    block = max(1, _KNN_BLOCK_ENTRIES // train.shape[0])
    buffer = np.empty((min(block, count), train.shape[0]))
    nearest = np.empty((count, kmax), dtype=np.intp)
    near_distances = np.empty((count, kmax))
    for start in range(0, count, block):
        stop = min(start + block, count)
        distances = buffer[: stop - start]
        np.matmul(queries[start:stop], train.T, out=distances)
        distances *= scale
        distances[:, copies] = distances[:, firsts]
        nearest[start:stop] = batchpipe.select_top_negatives(distances, kmax)
        near_distances[start:stop] = np.take_along_axis(distances, nearest[start:stop], axis=1)
    classes, label_index = np.unique(train_labels, return_inverse=True)
    votes = label_index[nearest]
    weights = np.exp(-near_distances / weight_tau)
    scores = np.zeros((count, classes.size))
    rows = np.arange(count)
    predictions = {}
    for j in range(kmax):  # add the votes in neighbour order
        scores[rows, votes[:, j]] += weights[:, j]
        if j + 1 in ks:
            predictions[j + 1] = classes[np.argmax(scores, axis=1)]
    return predictions


def knn_predict(train_embeds, train_labels, query, k: int, weight_tau: float = KNN_WEIGHT_TAU) -> int:
    """Weighted k-nearest-neighbor vote under cosine distance.

    The similarity of the query q and train row t is (q / |q|) . t / |t|.
    Each of the k nearest training points votes exp(similarity / weight_tau)
    for its class, for a finite `weight_tau` > 0; neighbor ties break toward
    the lower index and class-score ties toward the smaller class id. A
    train row that equals an earlier one entry for entry has exactly that
    row's similarity, so it always ranks after it. The train rows are read
    in place: memory is one block of similarities plus queries x k entries,
    with no copy of the train set.
    """
    k = dg.check_count(k, "k")
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
    value equals `knn_accuracy` at that k. The search walks the test set in
    row blocks, so memory grows as block rows x train points plus test
    points x largest k, never as test points x train points. An empty test
    set is a `ValueError`."""
    ks = [dg.check_count(k, "k") for k in ks]
    if not ks:
        raise ValueError("ks must name at least one k")
    test_labels = np.asarray(test_labels)
    test = np.asarray(test_embeds, dtype=np.float64)
    if test.ndim != 2 or test_labels.shape != (test.shape[0],):
        raise ValueError("test embeddings/labels mismatch")
    predicted = _knn_predictions(train_embeds, train_labels, test, ks, weight_tau, "test_embeds")
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
    k = dg.check_count(k, "k")
    return knn_accuracies(train_embeds, train_labels, test_embeds, test_labels, (k,), weight_tau)[k]


def _probe_weights(x, label_index, class_count: int, steps: int, lr: float) -> tuple[np.ndarray, np.ndarray]:
    """Weights (C, D) and bias (C, 1) of `linear_probe` after `steps`
    full-batch gradient steps on the (n, D) float64 train rows `x`, whose
    classes are `label_index` in 0..C-1. `x` is read, never written.

    The train rows are walked in blocks of about `_PROBE_BLOCK_ENTRIES`
    entries, whose transposes are copied once, so each block's operands stay
    in cache through its two matmuls: the block's logits go straight into
    their column slice of `delta`, and `grad_w` sums the blocks' products.
    The logits are those of one full matmul; `grad_w` differs from it only in
    summation order."""
    x = np.ascontiguousarray(x)
    n, dim = x.shape
    onehot = np.zeros((class_count, n))
    onehot[label_index, np.arange(n)] = 1.0
    rows = max(1, _PROBE_BLOCK_ENTRIES // dim)
    spans = [slice(start, min(start + rows, n)) for start in range(0, n, rows)]
    blocks = [np.ascontiguousarray(x[span].T) for span in spans]
    w = np.zeros((class_count, dim))
    b = np.zeros((class_count, 1))
    delta = np.empty((class_count, n))  # logits, then probabilities, then the gradient
    column = np.empty(n)
    grad_w = np.empty_like(w)
    part = np.empty_like(w)
    grad_b = np.empty_like(b)
    for _ in range(steps):
        for span, block in zip(spans, blocks):
            np.matmul(w, block, out=delta[:, span])
        delta += b
        np.max(delta, axis=0, out=column)
        delta -= column
        np.exp(delta, out=delta)
        np.sum(delta, axis=0, out=column)
        delta /= column
        delta -= onehot
        delta /= n
        np.matmul(delta[:, spans[0]], x[spans[0]], out=grad_w)
        for span in spans[1:]:
            np.matmul(delta[:, span], x[span], out=part)
            grad_w += part
        grad_w *= lr
        w -= grad_w
        np.sum(delta, axis=1, keepdims=True, out=grad_b)
        grad_b *= lr
        b -= grad_b
    return w, b


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
    buffers allocated once. Each step's two matmuls walk the train rows in
    cache-sized row blocks (see `_probe_weights`).
    """
    x = np.asarray(train_embeds, dtype=np.float64)
    y = np.asarray(train_labels)
    xt = np.asarray(test_embeds, dtype=np.float64)
    yt = np.asarray(test_labels)
    if x.ndim != 2 or y.shape != (x.shape[0],):
        raise ValueError("train embeddings/labels mismatch")
    if xt.ndim != 2 or yt.shape != (xt.shape[0],):
        raise ValueError("test embeddings/labels mismatch")
    if xt.shape[0] < 1:
        raise ValueError("empty test set: no test embeddings")
    if xt.shape[1] != x.shape[1]:
        raise ValueError(f"test embedding width {xt.shape[1]} differs from train width {x.shape[1]}")
    _check_finite(x, "train_embeds")
    _check_finite(xt, "test_embeds")
    steps = dg.check_count(steps, "steps")
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    if not (math.isfinite(lr) and lr > 0):
        raise ValueError(f"lr must be finite and > 0, got {lr}")
    classes, label_index = np.unique(y, return_inverse=True)
    if classes.size < 2:
        raise ValueError("linear probe needs at least two classes")
    w, b = _probe_weights(x, label_index, classes.size, steps, lr)
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
    in the batch pipeline). `params` is `GroCoParams` for "groco" and
    `InfoNCEParams` for "infonce". `lr` must be finite and >= 0; at 0 every
    row is the initialization.
    """
    kind_params = {"groco": losses.GroCoParams, "infonce": losses.InfoNCEParams}.get(loss_kind)
    if kind_params is None:
        raise ValueError(f"unknown loss_kind {loss_kind!r}, expected 'groco' or 'infonce'")
    if not isinstance(params, kind_params):
        raise ValueError(f"{loss_kind} loss requires {kind_params.__name__}")
    sims = np.asarray(init_similarities, dtype=np.float64).copy()
    if sims.ndim != 1 or sims.size < 2:
        raise ValueError("need one positive and at least one negative similarity")
    steps = dg.check_count(steps, "steps")
    if steps < 0:
        raise ValueError("steps must be >= 0")
    if not (math.isfinite(lr) and lr >= 0):
        raise ValueError(f"lr must be finite and >= 0, got {lr}")
    history = [sims.copy()]
    for _ in range(steps):
        tape = dg.Tape()
        s = tape.variable(sims)
        d = dg.scale(s, -1.0)
        if loss_kind == "groco":
            loss = losses.groco_from_raw_distances(d, 1, params.beta)
        else:
            loss = losses.infonce_from_concat(d, 1, params)
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

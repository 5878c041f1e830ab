"""Group-ordering, sorting-supervision, InfoNCE, and triplet losses.

Each loss takes positive and negative distance groups: one anchor's groups
as 1-D arrays, or one row per anchor as (A, k) and (A, m) arrays, in which
case the result is the mean of the per-anchor losses. Inputs may be plain
arrays (the result is a float) or `diffgrad.Tensor`s (the result is a
scalar tensor recorded on the input tape, so gradients flow back to every
distance).

Each contrastive loss also takes the [positives | negatives] rows whole,
with the positive count and its settings: `group_loss_from_concat`,
`infonce_from_concat` and `triplet_from_concat`, which the batch pipeline
calls on its selected block. The per-group forms join their groups with
one `concat` and call the same code. `LOSS_KINDS` is the one list of the
loss kinds: each with its settings class and its row function. On a tape,
InfoNCE and triplet each record one op with a hand-written gradient, and
the group-ordering loss two: the sorting network's border mass and the
clamped binary cross-entropy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import diffgrad as dg
from . import sortcore
from .diffgrad import Tensor
from .sortcore import RelaxedPermutation, sigmoid_f

__all__ = [
    "BCE_EPSILON",
    "LOSS_KINDS",
    "GroCoParams",
    "InfoNCEParams",
    "TripletParams",
    "bce",
    "groco_loss",
    "groco_from_raw_distances",
    "group_loss_from_concat",
    "groco_closed_form_1v1",
    "sorting_supervision_loss",
    "infonce_loss",
    "infonce_from_concat",
    "triplet_loss",
    "triplet_from_concat",
]

# Clamp for probabilities inside binary cross-entropy. Never active on
# well-conditioned inputs; caps a single term at -log(1e-7) ~ 16.1, keeping
# gradients finite when a permutation entry saturates.
BCE_EPSILON = 1e-7


def _raw(x) -> np.ndarray:
    return x.data if isinstance(x, Tensor) else np.asarray(x, dtype=np.float64)


def _check_group(name: str, x) -> np.ndarray:
    arr = _raw(x)
    if arr.ndim not in (1, 2) or arr.size < 1:
        raise ValueError(f"{name} must be a non-empty 1-D group or (A, k) groups, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite values")
    return arr


def _check_pair(d_pos, d_neg) -> tuple[np.ndarray, np.ndarray]:
    pos = _check_group("d_pos", d_pos)
    neg = _check_group("d_neg", d_neg)
    if pos.shape[:-1] != neg.shape[:-1]:
        raise ValueError(f"d_pos {pos.shape} and d_neg {neg.shape} must have the same rows")
    return pos, neg


def _result(x):
    return x if isinstance(x, Tensor) else float(x)


@dataclass(frozen=True)
class GroCoParams:
    """Configuration of the group-ordering loss: its inverse temperature.
    Neither group size is a setting: `groco_loss` takes them from `d_pos`
    and `d_neg`, and `batchpipe.batch_loss(num_negatives=...)` sets how many
    negatives the pipeline assembles. `num_negatives` here is read by
    nothing; it stays only while the benchmark's checks still pass it."""

    beta: float = 1.0
    num_negatives: int = 10

    def __post_init__(self):
        if not math.isfinite(self.beta) or self.beta <= 0:
            raise ValueError(f"beta must be a finite positive real, got {self.beta}")
        if self.num_negatives < 1:
            raise ValueError(f"num_negatives must be >= 1, got {self.num_negatives}")


@dataclass(frozen=True)
class InfoNCEParams:
    tau: float = 0.1

    def __post_init__(self):
        if not math.isfinite(self.tau) or self.tau <= 0:
            raise ValueError(f"tau must be a finite positive real, got {self.tau}")


@dataclass(frozen=True)
class TripletParams:
    """Margin of the hinge; `margin=math.inf` selects the unbounded mode
    where the raw difference d_pos - d_neg is averaged without clipping."""

    margin: float = 0.8

    def __post_init__(self):
        if math.isnan(self.margin) or self.margin <= 0:
            raise ValueError(f"margin must be positive (or +inf), got {self.margin}")

    @property
    def unbounded(self) -> bool:
        return math.isinf(self.margin)


def bce(p: float, q: float) -> float:
    """Binary cross-entropy with the probability clamped to
    [BCE_EPSILON, 1 - BCE_EPSILON]."""
    p, q = float(p), float(q)
    if not math.isfinite(p):
        raise ValueError(f"p must be finite, got {p}")
    if not (0.0 <= q <= 1.0):
        raise ValueError(f"q must lie in [0, 1], got {q}")
    pt = min(max(p, BCE_EPSILON), 1.0 - BCE_EPSILON)
    return -(q * math.log(pt) + (1.0 - q) * math.log(1.0 - pt))


def _bce_mean(p, targets: np.ndarray, denom: float):
    """Mean clamped binary cross-entropy of `p` against constant targets:
    the sum of the terms over `denom`.

    Every target must be 0 or 1, as the group-ordering loss's and a hard
    permutation's are. Each term is then -log(pt) or -log(1 - pt), picked by
    its target, which is bitwise t * log(pt) + (1 - t) * log(1 - pt); any
    other nonzero target would count as 1. A `diffgrad.Tensor` input is
    recorded as one `bce_mean` op, which keeps the targets as a private
    boolean copy, and pt and 1 - pt for the gradient."""
    hits = np.array(targets, dtype=bool)
    pt = np.minimum(np.maximum(_raw(p), BCE_EPSILON), 1.0 - BCE_EPSILON)
    rest_pt = 1.0 - pt
    loss = np.log(np.where(hits, pt, rest_pt)).sum() * (-1.0 / denom)
    if isinstance(p, Tensor):
        return p.tape._append("bce_mean", (p,), loss, hits=hits, pt=pt, rest_pt=rest_pt, factor=-1.0 / denom)
    return loss


def _vjp_bce_mean(node, g):
    """Gradient of the clamped terms, zero where the clamp holds p, its
    bounds included: g / pt at a target of 1 and -g / (1 - pt) at a target
    of 0. These are bitwise what a tape of the clamp, log, multiply, sum and
    scale chain computes for 0/1 targets, -(g * (1 - t)) / (1 - pt) +
    (g * t) / pt, since one of its two terms is then a zero."""
    attrs = node.attrs
    p = node.inputs[0].data
    g = float(g * attrs["factor"])
    gp = np.where(attrs["hits"], g / attrs["pt"], -g / attrs["rest_pt"])
    return (gp * ((p > BCE_EPSILON) & (p < 1.0 - BCE_EPSILON)),)


dg.VJP_RULES["bce_mean"] = _vjp_bce_mean


def _group_loss(d, num_positives: int, beta: float):
    """Mean group-ordering loss over the rows of `d`, (n,) or (A, n), whose
    first `num_positives` entries are the positive group.

    Each input has two BCE terms: its mass in the positive places against
    target 1 if it is a positive, and its mass in the negative places against
    the opposite target. P is doubly stochastic, so every column sums to 1
    and the negative mass is 1 - the positive mass. The clamp is symmetric,
    so both terms are equal, and the mean over all 2n terms of a row is the
    mean over its n positive-mass terms.
    """
    shape = _raw(d).shape
    targets = np.zeros(shape, dtype=np.float64)
    targets[..., :num_positives] = 1.0
    return _bce_mean(sortcore.border_mass(d, num_positives, beta), targets, float(targets.size))


def _check_split(arr: np.ndarray, num_positives: int) -> int:
    k = dg.check_count(num_positives, "num_positives")
    if not (1 <= k < arr.shape[-1]):
        raise ValueError(f"need 1 <= num_positives < {arr.shape[-1]}, got {k}")
    return k


def _from_concat(loss, d, num_positives: int, setting: float):
    """`loss(d, k, setting)` on checked [positives | negatives] rows: finite,
    with 1 <= k < the row width."""
    arr = _check_group("distances", d)
    k = _check_split(arr, num_positives)
    return _result(loss(d if isinstance(d, Tensor) else arr, k, setting))


def group_loss_from_concat(d, num_positives: int, params: GroCoParams):
    """Group-ordering loss over already concatenated distance lists whose
    first `num_positives` entries are the positive group.

    The batch pipeline calls it on one [positives | negatives] row per
    anchor, for both pre-ordering settings. Non-finite values are rejected,
    but the order is not checked here: with pre-ordering the caller checks
    it, and without it the unordered groups go to the sorting network as
    they are.
    """
    return _from_concat(_group_loss, d, num_positives, params.beta)


def groco_loss(d_pos, d_neg, params: GroCoParams):
    """Group-ordering loss: concatenate the pre-ordered groups, sort them with
    the relaxed network, and penalize probability mass that crosses the
    positive/negative border.

    Both groups must be non-descending; the caller owns pre-ordering (and the
    gradient routing it implies), so unsorted input is rejected rather than
    silently fixed.
    """
    pos, neg = _check_pair(d_pos, d_neg)
    if np.any(np.diff(pos, axis=-1) < 0):
        raise ValueError("d_pos must be non-descending (pre-ordered)")
    if np.any(np.diff(neg, axis=-1) < 0):
        raise ValueError("d_neg must be non-descending (pre-ordered)")
    return _result(_group_loss(dg.concat([d_pos, d_neg]), pos.shape[-1], params.beta))


def groco_from_raw_distances(d, num_positives: int, beta: float):
    """Full loss path from unordered distance lists: split the first
    `num_positives` entries of each off as the positive group, hard pre-order
    each group ascending, and apply the group-ordering loss.

    The gradient checker probes it and the optimization-dynamics experiment
    descends it; the pre-ordering is an index selection recomputed from the
    current values, so it is smooth away from ties.
    """
    raw = _check_group("distances", d)
    k = _check_split(raw, num_positives)
    pos_order = np.argsort(raw[..., :k], axis=-1, kind="stable")
    neg_order = k + np.argsort(raw[..., k:], axis=-1, kind="stable")
    order = np.concatenate([pos_order, neg_order], axis=-1)
    n = raw.shape[-1]
    row_start = n * np.arange(raw.size // n).reshape(raw.shape[:-1] + (1,))
    return _result(_group_loss(dg.index_select(d, row_start + order), k, beta))


def groco_closed_form_1v1(d_p: float, d_n: float, beta: float) -> float:
    """Closed form of the one-positive / one-negative group-ordering loss:
    -log f(d_n - d_p), with the same probability clamp as the general path."""
    f = sigmoid_f(float(d_n) - float(d_p), beta)
    pt = min(max(f, BCE_EPSILON), 1.0 - BCE_EPSILON)
    return -math.log(pt)


def _check_hard_permutation(q: np.ndarray) -> np.ndarray:
    q = np.asarray(q, dtype=np.float64)
    if q.ndim != 2 or q.shape[0] != q.shape[1]:
        raise ValueError(f"Q must be square, got shape {q.shape}")
    # Q is a permutation exactly when each row's largest entry is a 1, those
    # are its only nonzero entries, and no two rows put theirs in one column
    n = q.shape[0]
    if n == 0:
        return q
    cols = q.argmax(axis=1)
    used = np.zeros(n, dtype=bool)
    used[cols] = True
    if used.all() and np.count_nonzero(q) == n and (q[np.arange(n), cols] == 1.0).all():
        return q
    # only a rejected Q is scanned again, to name its fault
    if not np.all((q == 0.0) | (q == 1.0)):
        raise ValueError("Q must contain only 0/1 entries")
    raise ValueError("Q must have exactly one 1 per row and per column")


def sorting_supervision_loss(p, q):
    """Elementwise BCE between a relaxed permutation matrix and a ground-truth
    hard permutation matrix, averaged over all n^2 entries."""
    if isinstance(p, RelaxedPermutation):
        p = p.entries
    q = _check_hard_permutation(q)
    p_raw = _raw(p)
    if p_raw.shape != q.shape:
        raise ValueError(f"shape mismatch: P {p_raw.shape} vs Q {q.shape}")
    n = q.shape[0]
    return _result(_bce_mean(p, q, float(n * n)))


def _infonce(d, num_positives: int, tau: float):
    """Mean InfoNCE loss over the rows of `d`, (n,) or (A, n), whose first
    `num_positives` entries are the positives: with logits z = -d / tau,
    each positive's term is the log-sum-exp of itself and its row's
    negatives, minus itself. Every log-sum-exp is shifted by the larger of
    its positive's logit and the row's largest negative logit, so no
    exponent is positive and each shifted sum is at least 1. A row's
    negatives are summed as a product with a ones column, and the gradient
    keeps a fixed order of operations, so losses and gradients are bitwise
    those of the generic-op chain that the tests keep as the reference.

    A `diffgrad.Tensor` input is recorded as one `infonce` op, which keeps
    the shifted exponentials and sums for the gradient."""
    inv_tau = -1.0 / tau
    z = _raw(d) * inv_tau
    zp, zn = z[..., :num_positives], z[..., num_positives:]
    top = np.max(zn, axis=-1, keepdims=True)
    shift = np.maximum(zp, top)
    neg_exp = np.exp(zn - top)
    top_exp = np.exp(top - shift)
    pos_exp = np.exp(zp - shift)
    sums = pos_exp + (neg_exp @ np.ones((zn.shape[-1], 1))) * top_exp
    factor = 1.0 / zp.size
    loss = np.sum(np.log(sums) + shift - zp) * factor
    if isinstance(d, Tensor):
        return d.tape._append("infonce", (d,), loss, pos_exp=pos_exp, neg_exp=neg_exp, top_exp=top_exp,
                              sums=sums, factor=factor, inv_tau=inv_tau)
    return loss


def _vjp_infonce(node, g):
    """With c = g / (A·k) and w = c / s for each positive's shifted sum s,
    the gradient on z is w·e^(z_p - shift) - c on a positive, c times its
    softmax weight minus 1, and on a negative e^(z_n - top) times the sum of
    w·e^(top - shift) over its row's positives, the negative's weights
    summed; d z / d d is -1 / tau. Each product and sum runs in the order of
    the reference chain's rules."""
    attrs = node.attrs
    c = float(g * attrs["factor"])
    w = c / attrs["sums"]
    gp = w * attrs["pos_exp"] - c
    gn = np.sum(w * attrs["top_exp"], axis=-1, keepdims=True) * attrs["neg_exp"]
    return (np.concatenate([gp, gn], axis=-1) * attrs["inv_tau"],)


dg.VJP_RULES["infonce"] = _vjp_infonce


def _triplet(d, num_positives: int, margin: float):
    """Mean triplet hinge over all positive/negative pairs of the rows of
    `d`, (n,) or (A, n), whose first `num_positives` entries are the
    positives; at `margin=inf` the raw differences d_p - d_n are averaged
    without clipping.

    A `diffgrad.Tensor` input is recorded as one `triplet` op, which keeps
    the pairs whose hinge is active: d_p - d_n + margin > 0, strictly, or
    every pair in the unbounded mode."""
    raw = _raw(d)
    diff = raw[..., :num_positives, None] - raw[..., None, num_positives:]
    if math.isinf(margin):
        terms, active = diff, np.ones(diff.shape, dtype=bool)
    else:
        terms = diff + margin
        active = terms > 0.0
        np.clip(terms, 0.0, None, out=terms)
    factor = 1.0 / diff.size
    loss = np.sum(terms) * factor
    if isinstance(d, Tensor):
        return d.tape._append("triplet", (d,), loss, active=active, factor=factor)
    return loss


def _vjp_triplet(node, g):
    """Each active pair adds +1 to its positive and -1 to its negative,
    over the number of pairs."""
    active = node.attrs["active"]
    counts = np.concatenate([np.sum(active, axis=-1), -np.sum(active, axis=-2)], axis=-1)
    return (counts * (float(g) * node.attrs["factor"]),)


dg.VJP_RULES["triplet"] = _vjp_triplet


def infonce_from_concat(d, num_positives: int, params: InfoNCEParams):
    """InfoNCE loss over already concatenated [positives | negatives]
    distance lists whose first `num_positives` entries are the positives.
    The batch pipeline and the optimization-dynamics experiment call it."""
    return _from_concat(_infonce, d, num_positives, params.tau)


def triplet_from_concat(d, num_positives: int, params: TripletParams):
    """Triplet loss over already concatenated [positives | negatives]
    distance lists whose first `num_positives` entries are the positives.
    The batch pipeline calls it."""
    return _from_concat(_triplet, d, num_positives, params.margin)


def infonce_loss(d_pos, d_neg, params: InfoNCEParams):
    """Contrastive loss: each positive is contrasted against all negatives of
    its row, averaged over positives."""
    pos, _ = _check_pair(d_pos, d_neg)
    return _result(_infonce(dg.concat([d_pos, d_neg]), pos.shape[-1], params.tau))


def triplet_loss(d_pos, d_neg, params: TripletParams):
    """Mean hinge over all positive/negative pairs of each row; in unbounded
    mode the raw differences are averaged without clipping."""
    pos, _ = _check_pair(d_pos, d_neg)
    return _result(_triplet(dg.concat([d_pos, d_neg]), pos.shape[-1], params.margin))


# Each loss kind: its settings class and its [positives | negatives] row loss.
LOSS_KINDS = {
    "groco": (GroCoParams, group_loss_from_concat),
    "infonce": (InfoNCEParams, infonce_from_concat),
    "triplet": (TripletParams, triplet_from_concat),
}

"""Distance groups of every anchor in a batch of projected views.

Every view in a batch serves once as the anchor: its positives are the other
views of the same image, its negatives the views of all other images. Both
groups are hard index selections (top-N strongest negatives, ascending
pre-ordering), one row per anchor. The distances are computed as plain numpy
in blocks of `ROW_BLOCK` anchors: each block's rows of the distance matrix
are formed, searched, gathered and dropped, so memory grows as
O(block * A + A * width), never as (A, A). Only the selected (A, m - 1 + N)
block is recorded, as one tape op whose hand-written gradient walks the same
row blocks, each one dense (block, A) product with the unit rows at every
selection width. Stop-gradient (the default) lives in that gradient: the
other views count as constants, so the loss gradient reaches only each
anchor's own projection.

Each block row is [positives | negatives]. For the group-ordering loss each
group is ascending when pre-ordered, which is the row its network sorts;
InfoNCE and triplet read no order within a group and get both groups in
batch order. Every loss takes the block whole with the positive count, in
one call.

Projections may be a plain array (losses come back as floats) or a
`diffgrad.Tensor` (losses are recorded scalars).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import diffgrad as dg
from . import losses
from .diffgrad import NumericError, Tensor

__all__ = [
    "ViewBatch",
    "select_top_negatives",
    "batch_loss",
]

# Anchors per block of the distance stage and of its gradient. One GroCo
# loss plus backward at A = 4,096 (N = 10, D = 64, one BLAS thread, 2-core
# x86 VM) took 213 / 210 / 208 ms with a traced peak of 16.1 / 16.1 / 23.4
# MiB at 64 / 128 / 256 rows, against 259 ms and 260 MiB unblocked; budgets
# of 2^15 entries per block (8 rows there) took 404 ms.
ROW_BLOCK = 128


@dataclass
class ViewBatch:
    """`m` augmented views for each of `B` images, already projected.

    `projections` has one row per view; `image_id[v]` names the source image
    of view v and must occur exactly `views_per_image` times.
    """

    projections: object  # (m*B, D) ndarray or Tensor
    image_id: np.ndarray
    views_per_image: int

    def __post_init__(self):
        self.image_id = np.asarray(self.image_id)
        raw = _raw2d(self.projections)
        m = self.views_per_image = dg.check_count(self.views_per_image, "views_per_image")
        if m < 2:
            raise ValueError(f"views_per_image must be >= 2, got {m}")
        if self.image_id.ndim != 1 or self.image_id.size != raw.shape[0]:
            raise ValueError("image_id must assign one source image per view")
        _, counts = np.unique(self.image_id, return_counts=True)
        if counts.size < 2:
            raise ValueError("batch must contain at least 2 distinct images")
        if not np.all(counts == m):
            raise ValueError(f"every image must contribute exactly {m} views")

    @property
    def num_views(self) -> int:
        return self.image_id.size

    @property
    def num_images(self) -> int:
        return self.num_views // self.views_per_image


def _raw2d(x) -> np.ndarray:
    raw = x.data if isinstance(x, Tensor) else np.asarray(x, dtype=np.float64)
    if raw.ndim != 2:
        raise ValueError(f"projections must be 2-D, got shape {raw.shape}")
    return raw


def select_top_negatives(d_all, num_negatives: int) -> np.ndarray:
    """Indices of the min(num_negatives, len) smallest distances (the
    strongest negatives), ascending, ties broken by lower original index:
    exactly `np.argsort(d_all, kind="stable")[..., :num_negatives]`, found by
    a per-row partition, one comparison with each row's N-th smallest value
    (falling back to index order among the ties there when it keeps too
    many) and a stable sort of the survivors only. The input is not written
    to.
    A 2-D input is one distance list per row and gives one index row each."""
    d = np.asarray(d_all, dtype=np.float64)
    if d.ndim not in (1, 2) or d.size < 1:
        raise ValueError(f"expected a non-empty 1-D distance list or 2-D rows of them, got shape {d.shape}")
    k = dg.check_count(num_negatives, "num_negatives")
    if k < 1:
        raise ValueError(f"num_negatives must be >= 1, got {num_negatives}")
    if k >= d.shape[-1]:
        return np.argsort(d, axis=-1, kind="stable")
    rows = d.reshape(-1, d.shape[-1])
    # t = the k-th smallest value per row; NaNs sort last, so a NaN t means
    # the row has fewer than k numbers and the comparisons below cannot work
    t = np.partition(rows, k - 1, axis=1)[:, [k - 1]]  # a copy: the partition is freed
    if np.isnan(t).any():
        return np.argsort(d, axis=-1, kind="stable")[..., :k]
    keep = rows <= t  # at least k per row, and exactly k unless a tie sits at t
    if np.count_nonzero(keep) != rows.shape[0] * k:
        # a tie at t holds more entries than places are left: of the entries
        # equal to t, the lowest indices win
        keep = rows < t
        at_t = rows == t
        room = k - keep.sum(axis=1, keepdims=True)  # places left for entries equal to t
        crowded = np.flatnonzero(at_t.sum(axis=1) > room[:, 0])
        at_t[crowded] &= np.cumsum(at_t[crowded], axis=1) <= room[crowded]
        keep |= at_t
    cols = (np.flatnonzero(keep) % rows.shape[1]).reshape(rows.shape[0], k)  # ascending column per row
    return _ascending(rows, cols).reshape(d.shape[:-1] + (k,))


def _ascending(raw: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Each row of `cols` reordered by ascending distance; equal distances
    keep their order in `cols`, which arrives ascending by column on ties."""
    order = np.argsort(np.take_along_axis(raw, cols, axis=1), axis=1, kind="stable")
    return np.take_along_axis(cols, order, axis=1)


def _own_image_columns(batch: ViewBatch) -> np.ndarray:
    """(A, m) columns of the views of each view's own image, itself included,
    ascending."""
    by_image = np.argsort(batch.image_id, kind="stable").reshape(-1, batch.views_per_image)
    cols = np.empty((batch.num_views, batch.views_per_image), dtype=np.intp)
    cols[by_image] = by_image[:, None, :]
    return cols


def _select_groups(
    batch: ViewBatch, raw: np.ndarray, num_negatives: int, random_negatives: bool, preorder: bool, rng,
    first: int = 0, own=None,
):
    """Columns of the positives (rows, m - 1) and negatives (rows, N) of
    the anchors first, first + 1, ... whose distance rows `raw` holds (by
    default every anchor's), one row per anchor, each group ascending by
    distance if `preorder` and in batch order otherwise. A count N that
    covers every negative takes the other images' columns whole, with no
    search; random negatives draw one uniform per (anchor, negative), row
    after row, so blocks of rows draw the stream of one call on all of
    them. `own` holds these anchors' rows of `_own_image_columns(batch)`,
    which a caller walking blocks computes once; by default they are
    computed here. For the top-N negatives `raw` must be writable: each
    anchor's own columns are masked in place and put back before this
    returns."""
    count = raw.shape[0]
    if own is None:
        own = _own_image_columns(batch)[first : first + count]
    rows = np.arange(count)[:, None]
    pos = own[own != first + rows].reshape(count, -1)
    if random_negatives or num_negatives >= batch.num_views - batch.views_per_image:
        if random_negatives and rng is None:
            raise ValueError("random_negatives requires a seeded rng")
        other = np.ones(raw.shape, dtype=bool)
        other[rows, own] = False
        neg = (np.flatnonzero(other) % batch.num_views).reshape(count, -1)
        if random_negatives:
            picks = np.argsort(rng.random(neg.shape), axis=1)[:, :num_negatives]
            neg = np.take_along_axis(neg, np.sort(picks, axis=1), axis=1)  # batch order
        if preorder:
            neg = _ascending(raw, neg)
    else:
        # +inf sorts after every distance, and N is below the number of
        # negatives, so no column of the anchor's own image is ever taken
        own_d = raw[rows, own]
        raw[rows, own] = np.inf
        neg = select_top_negatives(raw, num_negatives)
        raw[rows, own] = own_d
        if not preorder:
            neg = np.sort(neg, axis=1)  # keep batch order
    return (_ascending(raw, pos) if preorder else pos), neg


def _vjp_selected_distances(node, g):
    """The distances are d = -x_hat x_hat^T. Anchor i's gradient is
    -sum_c g_ic x_hat_c over its selected columns c. Without stop-gradient
    each column c also gets -g_ic x_hat_i. A row selects each column at most
    once, so each block of rows of g is assigned into a zero (block, A)
    matrix S_b, and one product S_b x_hat gives the block's own rows at
    every selection width; without stop-gradient the products S_b^T x_hat_b
    of the block's transpose are summed over the blocks and added. The row
    normalization then maps each row's gradient h to
    (h - x_hat <h, x_hat>) / |x|."""
    unit, norms, cols = node.attrs["unit"], node.attrs["norms"], node.attrs["cols"]
    h = np.empty_like(unit)
    transposed = None if node.attrs["stop_grad"] else np.zeros_like(unit)
    for rows in dg.row_blocks(unit.shape[0], ROW_BLOCK):
        scattered = np.zeros((rows.stop - rows.start, unit.shape[0]))
        scattered[np.arange(scattered.shape[0])[:, None], cols[rows]] = g[rows]
        np.matmul(scattered, unit, out=h[rows])
        if transposed is not None:
            transposed += scattered.T @ unit[rows]
    if transposed is not None:
        h += transposed
    np.negative(h, out=h)
    h -= unit * np.sum(h * unit, axis=1, keepdims=True)
    return (h / norms,)


dg.VJP_RULES["selected_distances"] = _vjp_selected_distances


def _selected_distances(
    batch: ViewBatch, num_negatives: int, stop_grad: bool, random_negatives: bool, preorder: bool, rng
):
    """Every anchor's selected distances as one (A, m - 1 + N) block, the
    positives first, plus the positive (A, m - 1) and negative (A, N)
    columns they come from.

    The distance matrix is computed plainly, `ROW_BLOCK` anchors at a time
    against the unit rows transposed once, since the top-N selection reads
    every column of a row; each block's rows are searched and gathered, then
    dropped. Only the gathered block is recorded: one op whose gradient
    reaches the projections through the selected entries alone.
    """
    raw = _raw2d(batch.projections)
    norms = np.sqrt(np.sum(np.square(raw), axis=1, keepdims=True))
    bad = np.flatnonzero(norms == 0.0)
    if bad.size:
        raise NumericError(f"zero-norm projection for view {int(bad[0])}")
    bad = np.flatnonzero(~np.isfinite(norms))
    if bad.size:
        raise NumericError(f"non-finite projection norm for view {int(bad[0])}")
    unit = raw / norms
    unit_t = np.ascontiguousarray(unit.T)
    num_positives = batch.views_per_image - 1
    width = num_positives + min(num_negatives, batch.num_views - batch.views_per_image)
    cols = np.empty((batch.num_views, width), dtype=np.intp)
    block = np.empty((batch.num_views, width))
    own = _own_image_columns(batch)
    for rows in dg.row_blocks(batch.num_views, ROW_BLOCK):
        distances = unit[rows] @ unit_t
        np.negative(distances, out=distances)
        pos, neg = _select_groups(
            batch, distances, num_negatives, random_negatives, preorder, rng, rows.start, own[rows]
        )
        cols[rows, :num_positives] = pos
        cols[rows, num_positives:] = neg
        block[rows] = np.take_along_axis(distances, cols[rows], axis=1)
    if isinstance(batch.projections, Tensor):
        block = batch.projections.tape._append(
            "selected_distances", (batch.projections,), block,
            unit=unit, norms=norms, cols=cols, stop_grad=stop_grad,
        )
    return block, cols[:, :num_positives], cols[:, num_positives:]


def _check_preordered(block, num_positives: int) -> None:
    """Reject a block row whose positive or negative group descends; the
    step from the last positive to the first negative may go either way."""
    raw = block.data if isinstance(block, Tensor) else block
    steps = np.diff(raw, axis=1)
    steps[:, num_positives - 1] = 0.0
    if np.any(steps < 0):
        raise ValueError("each group of the selected distances must be non-descending (pre-ordered)")


def batch_loss(
    batch: ViewBatch,
    loss_kind: str,
    params,
    *,
    num_negatives: int = 10,
    stop_grad: bool = True,
    preorder: bool = True,
    random_negatives: bool = False,
    infonce_top_n: bool = False,
    rng=None,
):
    """Mean per-anchor loss with every view serving as the anchor once.

    The positive group of an anchor is the other views of its image, so its
    size is always `batch.views_per_image - 1`. The negative group size is
    `num_negatives` for every loss, except InfoNCE without `infonce_top_n`,
    which uses all available negatives. Only a count that is used is
    checked, and it is capped at the negatives the batch holds. `preorder`
    applies to the group-ordering loss only.
    """
    if loss_kind not in losses.LOSS_KINDS:
        raise ValueError(f"unknown loss_kind {loss_kind!r}, expected one of {tuple(losses.LOSS_KINDS)}")
    params_class, loss_from_concat = losses.LOSS_KINDS[loss_kind]
    if not isinstance(params, params_class):
        raise ValueError(f"{loss_kind} loss requires {params_class.__name__}")
    if loss_kind == "infonce" and not infonce_top_n:
        num_negatives = batch.views_per_image * (batch.num_images - 1)
    num_negatives = dg.check_count(num_negatives, "num_negatives")
    if num_negatives < 1:
        raise ValueError(f"num_negatives must be >= 1, got {num_negatives}")

    # only the group-ordering loss reads the order within a group
    preorder = preorder and loss_kind == "groco"
    block, _, _ = _selected_distances(batch, num_negatives, stop_grad, random_negatives, preorder, rng)
    num_positives = batch.views_per_image - 1
    if preorder:
        _check_preordered(block, num_positives)
    return loss_from_concat(block, num_positives, params)

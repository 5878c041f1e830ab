import tracemalloc

import numpy as np
import pytest

from groco import batchpipe as bp
from groco import diffgrad as dg
from groco import losses as ls
from groco.diffgrad import NumericError, Tape
from groco.losses import GroCoParams, InfoNCEParams, TripletParams

import tapeops
from oracles import oracle_groco, oracle_infonce, oracle_triplet


def _make_batch(rng, images=3, views=2, dim=4, as_tensor=False):
    projections = rng.normal(size=(images * views, dim))
    image_id = np.repeat(np.arange(images), views)
    if as_tensor:
        tape = Tape()
        t = tape.variable(projections)
        return bp.ViewBatch(t, image_id, views), tape, projections
    return bp.ViewBatch(projections, image_id, views)


def _cosine_distance(x, y) -> float:
    """Negative cosine similarity of two vectors, by the textbook formula."""
    return float(-np.dot(x, y) / (np.linalg.norm(x) * np.linalg.norm(y)))


def test_select_top_negatives_examples():
    idx = bp.select_top_negatives([0.5, -0.2, 0.9], 2)
    assert idx.tolist() == [1, 0]
    assert bp.select_top_negatives([0.5, -0.2, 0.9], 10).tolist() == [1, 0, 2]


def test_select_top_negatives_ties_and_oracle():
    idx = bp.select_top_negatives([0.3, 0.1, 0.3, 0.1], 3)
    assert idx.tolist() == [1, 3, 0]  # ties break toward the lower index
    rng = np.random.default_rng(40)
    for _ in range(30):
        d = rng.uniform(-1, 1, int(rng.integers(1, 20)))
        n = int(rng.integers(1, 25))
        got = bp.select_top_negatives(d, n)
        expect = sorted(range(d.size), key=lambda i: (d[i], i))[: min(n, d.size)]
        assert got.tolist() == expect
    rows = rng.integers(0, 3, (5, 7)).astype(float)  # many exact ties
    got = bp.select_top_negatives(rows, 4)
    assert got.tolist() == [bp.select_top_negatives(row, 4).tolist() for row in rows]


def test_select_top_negatives_ties_straddling_the_kth_place():
    # integer-grid rows where the k-th smallest value is shared by entries
    # on both sides of place k: only the lowest-index ties may get in
    rows = np.array(
        [
            [2.0, 1.0, 1.0, 0.0, 1.0, 1.0, 3.0, 1.0],  # four 1s compete for places 2..
            [1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0],  # one value only
            [5.0, 0.0, 5.0, 0.0, 5.0, 0.0, 5.0, 0.0],
            [3.0, 2.0, 1.0, 0.0, -1.0, -2.0, -3.0, -4.0],  # no ties
            [0.0, 0.0, 2.0, 2.0, 2.0, 2.0, 1.0, 1.0],
        ]
    )
    n = rows.shape[1]
    for k in (1, 2, 3, 4, 5, n - 1, n, n + 3):
        expect = np.argsort(rows, axis=1, kind="stable")[:, :k]
        assert bp.select_top_negatives(rows, k).tolist() == expect.tolist()
        for row, want in zip(rows, expect):
            assert bp.select_top_negatives(row, k).tolist() == want.tolist()
    assert bp.select_top_negatives(rows[0], 2).tolist() == [3, 1]
    assert bp.select_top_negatives(rows[1], 3).tolist() == [0, 1, 2]
    rng = np.random.default_rng(44)
    for _ in range(200):
        rows = rng.integers(-2, 3, (int(rng.integers(1, 6)), int(rng.integers(1, 16)))).astype(float)
        n = rows.shape[1]
        for k in {1, 2, max(n - 1, 1), n, n + 1, int(rng.integers(1, n + 1))}:
            expect = np.argsort(rows, axis=1, kind="stable")[:, :k]
            assert bp.select_top_negatives(rows, k).tolist() == expect.tolist()
            assert bp.select_top_negatives(rows[0], k).tolist() == expect[0].tolist()


def test_select_top_negatives_nan_and_infinite_entries_sort_like_argsort():
    rows = np.array([[np.nan, 1.0, -np.inf, np.nan, 1.0], [np.nan, np.nan, np.nan, 0.0, np.inf]])
    for k in range(1, 6):
        expect = np.argsort(rows, axis=1, kind="stable")[:, :k]
        assert bp.select_top_negatives(rows, k).tolist() == expect.tolist()


def _readonly(a):
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


def test_select_top_negatives_one_comparison_and_tie_fallback_match_stable_argsort():
    # each row's k-th smallest value t: untied rows keep exactly k entries
    # <= t (one comparison suffices), a tie at t keeps more (the fallback
    # ranks the tied entries by index), a NaN t sorts by argsort
    rng = np.random.default_rng(45)
    k = 4
    untied = rng.permutation(24).reshape(3, 8).astype(float)
    tied = untied.copy()
    tied[1, np.argsort(tied[1])[k]] = np.sort(tied[1])[k - 1]  # t now occurs twice
    infinite = untied.copy()
    infinite[:, ::2] = np.inf
    infinite[2, :] = np.inf  # all of row 2 ties at t = +inf
    nan = untied.copy()
    nan[0, ::3] = np.nan
    nan[2, 1:] = np.nan  # fewer than k numbers: t is NaN
    for rows, fast in ((untied, True), (tied, False), (infinite[:2], True), (infinite, False),
                       (nan[:2], True), (nan, None)):
        t = np.sort(rows, axis=1)[:, [k - 1]]
        if fast is not None:
            assert (np.count_nonzero(rows <= t) == rows.shape[0] * k) == fast
        before = rows.copy()
        readonly = _readonly(rows)
        expect = np.argsort(rows, axis=1, kind="stable")[:, :k]
        assert np.array_equal(bp.select_top_negatives(readonly, k), expect)
        for row, want in zip(readonly, expect):
            assert np.array_equal(bp.select_top_negatives(row, k), want)
        assert np.array_equal(rows, before, equal_nan=True)


def test_select_groups_puts_the_masked_columns_back():
    rng = np.random.default_rng(46)
    for views in (2, 3):
        image_id, d = _tie_heavy_layout(rng, 5, views)
        batch = bp.ViewBatch(np.ones((5 * views, 2)), image_id, views)
        before = d.copy()
        for preorder in (True, False):
            bp._select_groups(batch, d, 3, False, preorder, None)
            assert d.tobytes() == before.tobytes()


def test_view_batch_validation():
    rng = np.random.default_rng(41)
    with pytest.raises(ValueError):
        bp.ViewBatch(rng.normal(size=(4, 3)), np.array([0, 0, 1, 1]), 1)  # m < 2
    with pytest.raises(ValueError):
        bp.ViewBatch(rng.normal(size=(4, 3)), np.array([0, 0, 0, 1]), 2)  # uneven views
    with pytest.raises(ValueError):
        bp.ViewBatch(rng.normal(size=(2, 3)), np.array([0, 0]), 2)  # single image


def _groups(batch, num_negatives, stop_grad=True, random_negatives=False, preorder=True, rng=None):
    """The selection `batch_loss` makes for every anchor at once: the
    (A, m - 1 + N) distance block and its positive and negative columns."""
    return bp._selected_distances(batch, num_negatives, stop_grad, random_negatives, preorder, rng)


def _anchor_row(block, num_positives, anchor):
    """One anchor's positive and negative groups: row `anchor` of the block."""
    start = block.shape[1] * anchor
    return (
        dg.index_select(block, start + np.arange(num_positives)),
        dg.index_select(block, start + np.arange(num_positives, block.shape[1])),
    )


def test_anchor_group_counts_and_saturation():
    rng = np.random.default_rng(42)
    batch = _make_batch(rng, images=2, views=2)
    block, pos, neg = _groups(batch, 10)
    assert pos[0].tolist() == [1]
    assert neg.shape == (4, 2)  # saturated: only m*(B-1) = 2 exist
    assert set(neg[0].tolist()) == {2, 3}
    assert block.shape == (4, 3)


def test_anchor_group_excludes_own_views_and_orders_ascending():
    rng = np.random.default_rng(43)
    batch = _make_batch(rng, images=4, views=3)
    block, pos, neg = _groups(batch, 5)
    assert pos.shape == (batch.num_views, batch.views_per_image - 1)
    for anchor in range(batch.num_views):
        own = batch.image_id[anchor]
        assert anchor not in pos[anchor]
        assert anchor not in neg[anchor]
        assert all(batch.image_id[i] == own for i in pos[anchor])
        assert all(batch.image_id[i] != own for i in neg[anchor])
    assert np.all(np.diff(block[:, :2], axis=1) >= 0)
    assert np.all(np.diff(block[:, 2:], axis=1) >= 0)


def test_anchor_group_matches_manual_cosine_distances():
    rng = np.random.default_rng(44)
    batch = _make_batch(rng, images=3, views=2)
    block, pos, neg = _groups(batch, 4)
    x = batch.projections
    cols = np.concatenate([pos, neg], axis=1)
    for anchor in range(batch.num_views):
        for d, j in zip(block[anchor], cols[anchor]):
            assert d == pytest.approx(_cosine_distance(x[anchor], x[j]), abs=1e-12)


def test_stop_grad_zeroes_non_anchor_gradients():
    rng = np.random.default_rng(45)
    batch, tape, raw = _make_batch(rng, images=3, views=2, as_tensor=True)
    block, _, _ = _groups(batch, 3, stop_grad=True)
    loss = ls.groco_loss(*_anchor_row(block, 1, 2), GroCoParams(beta=1.0))
    grads = dg.backward(tape, loss).grad(batch.projections)
    for row in range(raw.shape[0]):
        if row == 2:
            assert np.any(grads[row] != 0.0)
        else:
            assert np.all(grads[row] == 0.0)


def test_without_stop_grad_others_receive_gradient():
    rng = np.random.default_rng(46)
    batch, tape, raw = _make_batch(rng, images=3, views=2, as_tensor=True)
    block, _, _ = _groups(batch, 3, stop_grad=False)
    loss = ls.groco_loss(*_anchor_row(block, 1, 2), GroCoParams(beta=1.0))
    grads = dg.backward(tape, loss).grad(batch.projections)
    touched = [row for row in range(raw.shape[0]) if np.any(grads[row] != 0.0)]
    assert 2 in touched and len(touched) > 1


def test_batch_gradient_is_sum_of_anchor_gradients():
    # one selection for the batch; each anchor's loss gradient on its own
    # block row is pushed through the recorded selection op on its own
    rng = np.random.default_rng(47)
    images, views = 3, 2
    raw = rng.normal(size=(images * views, 4))
    image_id = np.repeat(np.arange(images), views)
    params = GroCoParams(beta=1.0)

    tape = Tape()
    batch = bp.ViewBatch(tape.variable(raw), image_id, views)
    total = bp.batch_loss(batch, "groco", params, num_negatives=3)
    g_total = dg.backward(tape, total).grad(batch.projections)

    tape = Tape()
    block, _, _ = _groups(bp.ViewBatch(tape.variable(raw), image_id, views), 3)
    node = tape.nodes[-1]
    acc = np.zeros_like(raw)
    for anchor in range(images * views):
        t = Tape()
        row = t.variable(block.data[anchor : anchor + 1])
        g_block = np.zeros(block.shape)
        g_block[anchor] = dg.backward(t, ls.groco_loss(*_anchor_row(row, 1, 0), params)).grad(row)[0]
        (g_single,) = dg.VJP_RULES["selected_distances"](node, g_block)
        acc += g_single
        # with stop-grad on, row j is exactly the j-as-anchor contribution
        assert np.all(np.delete(g_single, anchor, axis=0) == 0.0)
        assert np.max(np.abs(g_total[anchor] - g_single[anchor] / (images * views))) < 1e-12
    assert np.max(np.abs(g_total - acc / (images * views))) < 1e-12


def test_batch_loss_equals_mean_of_anchor_losses():
    rng = np.random.default_rng(48)
    batch = _make_batch(rng, images=4, views=2)
    params = GroCoParams(beta=1.0)
    total = bp.batch_loss(batch, "groco", params, num_negatives=4)
    block, _, _ = _groups(batch, 4)
    per_anchor = [ls.groco_loss(row[:1], row[1:], params) for row in block]
    assert abs(total - float(np.mean(per_anchor))) < 1e-12


def test_batch_loss_identical_projections_gives_equal_distance_case():
    proj = np.tile(np.array([1.0, 2.0, 0.5]), (4, 1))
    batch = bp.ViewBatch(proj, np.array([0, 0, 1, 1]), 2)
    got = bp.batch_loss(batch, "groco", GroCoParams(beta=1.0))
    expect = oracle_groco([-1.0], [-1.0, -1.0], 1.0)
    assert abs(got - expect) < 1e-12


def test_batch_loss_single_anchor_hand_computation():
    # B=2, m=2, explicit 2-D projections, chained manual evaluation
    proj = np.array([[1.0, 0.0], [0.8, 0.6], [0.0, 1.0], [-1.0, 0.0]])
    image_id = np.array([0, 0, 1, 1])
    batch = bp.ViewBatch(proj, image_id, 2)
    params = GroCoParams(beta=1.0)
    manual = []
    for anchor in range(4):
        d = {j: _cosine_distance(proj[anchor], proj[j]) for j in range(4) if j != anchor}
        pos = [d[j] for j in range(4) if image_id[j] == image_id[anchor] and j != anchor]
        neg = sorted(d[j] for j in range(4) if image_id[j] != image_id[anchor])
        manual.append(oracle_groco(sorted(pos), neg, 1.0))
    got = bp.batch_loss(batch, "groco", params)
    assert abs(got - float(np.mean(manual))) < 1e-12


def test_loss_invariant_under_view_permutation():
    rng = np.random.default_rng(49)
    raw = rng.normal(size=(8, 5))
    image_id = np.repeat(np.arange(4), 2)
    params = GroCoParams(beta=1.0)
    base = bp.batch_loss(bp.ViewBatch(raw, image_id, 2), "groco", params, num_negatives=6)
    for _ in range(5):
        perm = rng.permutation(8)
        shuffled = bp.batch_loss(bp.ViewBatch(raw[perm], image_id[perm], 2), "groco", params, num_negatives=6)
        assert abs(base - shuffled) < 1e-12


def test_random_negatives_needs_rng_and_is_seeded():
    rng = np.random.default_rng(50)
    batch = _make_batch(rng, images=5, views=2)
    with pytest.raises(ValueError):
        bp.batch_loss(batch, "groco", GroCoParams(), num_negatives=3, random_negatives=True)
    b1, _, n1 = _groups(batch, 3, random_negatives=True, rng=np.random.default_rng(7))
    b2, _, n2 = _groups(batch, 3, random_negatives=True, rng=np.random.default_rng(7))
    assert np.array_equal(n1, n2) and np.array_equal(b1, b2)
    assert np.all(np.diff(b1[:, 1:], axis=1) >= 0)


def test_preorder_off_keeps_batch_order():
    rng = np.random.default_rng(51)
    batch = _make_batch(rng, images=4, views=3)
    _, pos, neg = _groups(batch, 9, preorder=False)
    assert np.all(np.diff(pos, axis=1) > 0)
    assert np.all(np.diff(neg, axis=1) > 0)
    # batch loss still computes through the unordered path
    val = bp.batch_loss(batch, "groco", GroCoParams(beta=1.0), num_negatives=9, preorder=False)
    assert np.isfinite(val) and val > 0


def test_preorder_check_rejects_a_descending_group(monkeypatch):
    plain = _make_batch(np.random.default_rng(53), images=6, views=3)
    taped, _, _ = _make_batch(np.random.default_rng(53), images=6, views=3, as_tensor=True)
    params = GroCoParams(beta=1.0)
    assert np.isfinite(bp.batch_loss(plain, "groco", params, num_negatives=5))
    # without the ascending reorder both groups arrive in column order
    monkeypatch.setattr(bp, "_ascending", lambda raw, cols: cols)
    block, _, _ = _groups(plain, 5)
    assert np.any(np.diff(block[:, :2], axis=1) < 0) and np.any(np.diff(block[:, 2:], axis=1) < 0)
    for batch in (plain, taped):
        with pytest.raises(ValueError, match="non-descending"):
            bp.batch_loss(batch, "groco", params, num_negatives=5)
    assert np.isfinite(bp.batch_loss(plain, "groco", params, num_negatives=5, preorder=False))


def test_preorder_check_reads_each_group_and_skips_the_border():
    bp._check_preordered(np.array([[0.0, 1.0, -5.0, 2.0]]), 2)  # the border may step down
    for row in ([1.0, 0.0, 2.0, 3.0], [0.0, 1.0, 3.0, 2.0]):
        with pytest.raises(ValueError, match="non-descending"):
            bp._check_preordered(np.array([[0.0, 0.0, 0.0, 0.0], row]), 2)


def test_infonce_uses_all_negatives_unless_top_n():
    rng = np.random.default_rng(52)
    raw = rng.normal(size=(8, 4))
    image_id = np.repeat(np.arange(4), 2)
    batch = bp.ViewBatch(raw, image_id, 2)
    params = InfoNCEParams(tau=0.5)
    block, _, neg = _groups(batch, 6)
    assert neg.shape == (8, 6)  # all m(B-1) negatives
    manual = [ls.infonce_loss(row[:1], row[1:], params) for row in block]
    assert abs(bp.batch_loss(batch, "infonce", params) - float(np.mean(manual))) < 1e-12
    top = bp.batch_loss(batch, "infonce", params, infonce_top_n=True, num_negatives=2)
    assert abs(top - bp.batch_loss(batch, "infonce", params)) > 1e-12


def test_infonce_multi_positive_matches_formula():
    # three views per image: each anchor has two positives, averaged per anchor
    rng = np.random.default_rng(55)
    raw = rng.normal(size=(9, 4))
    image_id = np.repeat(np.arange(3), 3)
    batch = bp.ViewBatch(raw, image_id, 3)
    tau = 0.4
    unit = raw / np.linalg.norm(raw, axis=1, keepdims=True)
    d = -(unit @ unit.T)
    per_anchor = []
    for a in range(9):
        pos = [j for j in range(9) if image_id[j] == image_id[a] and j != a]
        neg = [j for j in range(9) if image_id[j] != image_id[a]]
        terms = []
        for p in pos:
            denom = np.exp(-d[a, p] / tau) + np.sum([np.exp(-d[a, z] / tau) for z in neg])
            terms.append(-np.log(np.exp(-d[a, p] / tau) / denom))
        per_anchor.append(np.mean(terms))
    got = bp.batch_loss(batch, "infonce", InfoNCEParams(tau=tau))
    assert abs(got - float(np.mean(per_anchor))) < 1e-12


def test_triplet_batch_runs():
    rng = np.random.default_rng(53)
    batch = _make_batch(rng, images=4, views=2)
    val = bp.batch_loss(batch, "triplet", TripletParams(margin=0.8), num_negatives=3)
    assert np.isfinite(val)


def test_batch_loss_rejects_bad_kind_and_params():
    rng = np.random.default_rng(54)
    batch = _make_batch(rng, images=3, views=2)
    with pytest.raises(ValueError):
        bp.batch_loss(batch, "nonsense", GroCoParams())
    with pytest.raises(ValueError):
        bp.batch_loss(batch, "groco", InfoNCEParams())


def test_batch_loss_checks_only_the_negative_count_it_uses():
    rng = np.random.default_rng(55)
    batch = _make_batch(rng, images=3, views=2)
    for count in (0, -1):
        # InfoNCE without infonce_top_n takes every negative: the keyword is unused
        params = InfoNCEParams()
        assert bp.batch_loss(batch, "infonce", params, num_negatives=count) == bp.batch_loss(batch, "infonce", params)
        for kind, params in (("groco", GroCoParams()), ("infonce", InfoNCEParams()), ("triplet", TripletParams())):
            with pytest.raises(ValueError, match="num_negatives"):
                bp.batch_loss(batch, kind, params, num_negatives=count, infonce_top_n=True)


def test_zero_norm_projection_reports_view():
    proj = np.ones((4, 3))
    proj[2] = 0.0
    batch = bp.ViewBatch(proj, np.array([0, 0, 1, 1]), 2)
    with pytest.raises(NumericError, match="view 2"):
        bp.batch_loss(batch, "groco", GroCoParams(), num_negatives=2)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_non_finite_projection_norm_reports_view(bad):
    # a diverged step used to fail later, as a ValueError about the distances
    proj = np.ones((4, 3))
    proj[1, 2] = bad
    batch = bp.ViewBatch(proj, np.array([0, 0, 1, 1]), 2)
    tape = Tape()
    taped = bp.ViewBatch(tape.variable(proj), batch.image_id, 2)
    for kind, params in (("groco", GroCoParams()), ("infonce", InfoNCEParams()),
                         ("triplet", TripletParams())):
        for b in (batch, taped):
            with pytest.raises(NumericError, match="non-finite projection norm for view 1"):
                bp.batch_loss(b, kind, params, num_negatives=2)


def _reference_columns(d, image_id, num_negatives, preorder):
    """Every anchor's positive and negative columns from explicit loops:
    negatives are the smallest distances, lower column first on ties;
    pre-ordering sorts by (distance, column), otherwise columns stay in
    batch order."""
    pos_rows, neg_rows = [], []
    for a in range(len(image_id)):
        others = [j for j in range(len(image_id)) if j != a]
        pos = [j for j in others if image_id[j] == image_id[a]]
        neg = sorted((j for j in others if image_id[j] != image_id[a]), key=lambda j: (d[a, j], j))
        neg = neg[:num_negatives]
        if preorder:
            pos = sorted(pos, key=lambda j: (d[a, j], j))
        else:
            neg = sorted(neg)
        pos_rows.append(pos)
        neg_rows.append(neg)
    return np.array(pos_rows), np.array(neg_rows)


def _tie_heavy_layout(rng, images, views):
    """Shuffled, non-contiguous image ids and an integer-grid distance matrix
    whose own-image entries are the smallest, so that a leaked one shows."""
    image_id = rng.permutation(np.repeat(rng.choice(1000, images, replace=False), views))
    d = rng.integers(-2, 3, (images * views,) * 2) / 2.0
    d[image_id[:, None] == image_id[None, :]] = -9.0
    return image_id, d


def test_select_groups_matches_per_anchor_reference():
    rng = np.random.default_rng(57)
    for views in (2, 3):
        for images in (2, 3, 7):
            all_negatives = views * (images - 1)
            for trial in range(4):
                image_id, d = _tie_heavy_layout(rng, images, views)
                batch = bp.ViewBatch(np.ones((images * views, 2)), image_id, views)
                for n in sorted({1, 2, all_negatives - 1, all_negatives, all_negatives + 3} - {0}):
                    for preorder in (True, False):
                        pos, neg = bp._select_groups(batch, d, n, False, preorder, None)
                        expect_pos, expect_neg = _reference_columns(d, image_id, n, preorder)
                        assert np.array_equal(pos, expect_pos), (views, images, n, preorder)
                        assert np.array_equal(neg, expect_neg), (views, images, n, preorder)


def test_select_groups_takes_every_negative_once_and_no_own_view():
    rng = np.random.default_rng(58)
    for views in (2, 3):
        image_id, d = _tie_heavy_layout(rng, 5, views)
        batch = bp.ViewBatch(np.ones((5 * views, 2)), image_id, views)
        for n in (4 * views, 4 * views + 1, 100):
            for preorder in (True, False):
                _, neg = bp._select_groups(batch, d, n, False, preorder, None)
                assert neg.shape == (5 * views, 4 * views)
                for a, row in enumerate(neg):
                    assert sorted(row.tolist()) == np.flatnonzero(image_id != image_id[a]).tolist()


def test_random_negatives_draw_the_reference_stream():
    # one uniform per (anchor, negative), argsorted per row; the first N
    # picks, in batch order, index the anchor's negatives in batch order
    rng = np.random.default_rng(59)
    for views in (2, 3):
        image_id, d = _tie_heavy_layout(rng, 4, views)
        batch = bp.ViewBatch(np.ones((4 * views, 2)), image_id, views)
        for preorder in (True, False):
            draws, reference = np.random.default_rng(60), np.random.default_rng(60)
            pos, neg = bp._select_groups(batch, d, 5, True, preorder, draws)
            other = np.array([np.flatnonzero(image_id != i) for i in image_id])
            picks = np.sort(np.argsort(reference.random(other.shape), axis=1)[:, :5], axis=1)
            expect = np.take_along_axis(other, picks, axis=1)
            if preorder:
                expect = np.array([sorted(row, key=lambda j, a=a: (d[a, j], j)) for a, row in enumerate(expect)])
            assert np.array_equal(neg, expect)
            assert np.array_equal(pos, _reference_columns(d, image_id, 1, preorder)[0])
            assert draws.random() == reference.random()  # the same number of draws


def _oracle_groups(unit, image_id, anchor, num_negatives, preorder):
    """One anchor's groups from explicit loops: negatives are the smallest
    distances, lower view first on ties; pre-ordering sorts by (distance,
    view), otherwise views stay in batch order."""
    d = [-float(unit[anchor] @ unit[j]) for j in range(len(image_id))]
    others = [j for j in range(len(image_id)) if j != anchor]
    pos = [j for j in others if image_id[j] == image_id[anchor]]
    neg = sorted((j for j in others if image_id[j] != image_id[anchor]), key=lambda j: (d[j], j))
    neg = neg[:num_negatives]
    if preorder:
        pos = sorted(pos, key=lambda j: (d[j], j))
    else:
        neg = sorted(neg)
    return [d[j] for j in pos], [d[j] for j in neg]


def test_batch_loss_matches_per_anchor_oracles_with_ties():
    # unit-norm-friendly rows: every cosine distance is exact, and many tie
    rng = np.random.default_rng(56)
    directions = np.array([[1, 1, 1, 1], [1, -1, 1, -1], [2, 0, 0, 0], [0, 0, 2, 0], [1, 1, -1, -1]], float)
    for raw, views in ((directions[rng.integers(0, 5, 12)], 2), (rng.normal(size=(12, 4)), 3)):
        image_id = np.repeat(np.arange(12 // views), views)
        unit = raw / np.sqrt(np.sum(raw * raw, axis=1, keepdims=True))
        cases = (
            ("groco", GroCoParams(beta=1.5), 4,
             lambda p, n: oracle_groco(p, n, 1.5)),
            ("infonce", InfoNCEParams(tau=0.3), 12 - views, lambda p, n: oracle_infonce(p, n, 0.3)),
            ("triplet", TripletParams(margin=0.8), 3, lambda p, n: oracle_triplet(p, n, 0.8)),
        )
        for kind, params, count, oracle in cases:
            for preorder in (True, False):
                expect = np.mean(
                    [oracle(*_oracle_groups(unit, image_id, a, count, preorder)) for a in range(12)]
                )
                for stop_grad in (True, False):
                    tape = Tape()
                    batch = bp.ViewBatch(tape.variable(raw), image_id, views)
                    got = bp.batch_loss(batch, kind, params, num_negatives=count, stop_grad=stop_grad,
                                        preorder=preorder)
                    assert abs(float(got.data) - expect) < 1e-12, (kind, preorder, stop_grad)


def test_infonce_over_all_negatives_neither_searches_nor_sorts(monkeypatch):
    # InfoNCE reads no order within a group, so its groups come in batch
    # order, with or without pre-ordering, and the full width takes every
    # other image's column whole
    rng = np.random.default_rng(57)
    raw = rng.normal(size=(12, 4))
    image_id = np.repeat(np.arange(4), 3)
    unit = raw / np.sqrt(np.sum(raw * raw, axis=1, keepdims=True))
    expect = np.mean([oracle_infonce(*_oracle_groups(unit, image_id, a, 9, False), 0.3) for a in range(12)])

    def refuse(*args, **kwargs):
        raise AssertionError("InfoNCE over all negatives searched or sorted a group")

    monkeypatch.setattr(bp, "select_top_negatives", refuse)
    monkeypatch.setattr(bp, "_ascending", refuse)
    for preorder in (True, False):
        assert abs(bp.batch_loss(bp.ViewBatch(raw, image_id, 3), "infonce", InfoNCEParams(tau=0.3),
                                 preorder=preorder) - expect) < 1e-12
        tape = Tape()
        batch = bp.ViewBatch(tape.variable(raw), image_id, 3)
        loss = bp.batch_loss(batch, "infonce", InfoNCEParams(tau=0.3), preorder=preorder)
        assert abs(float(loss.data) - expect) < 1e-12
        assert np.all(np.isfinite(dg.backward(tape, loss).grad(batch.projections)))


def _dense_chain_loss(batch, kind, params, count, stop_grad, preorder, rng):
    """`batch_loss` as it was built from generic ops before the selected-
    distances op: normalized rows, the full (A, A) distance matrix on the
    tape, and one gather each for the positives and the negatives. The rows
    are normalized with the `tapeops` ops, whose rules the caller installs;
    stop-gradient is a constant copy of the unit rows, and the transpose a
    gather."""
    x = batch.projections
    unit = tapeops.div(x, tapeops.l2norm(x))
    others = x.tape.constant(unit.data) if stop_grad else unit
    rows, dim = x.shape
    d = dg.scale(dg.matmul(unit, dg.index_select(others, np.arange(rows * dim).reshape(rows, dim).T)), -1.0)
    # a writable copy: the selection masks the anchors' own columns in place
    # batch_loss pre-orders the groups of the group-ordering loss only
    pos, neg = bp._select_groups(batch, d.data.copy(), count, rng is not None, preorder and kind == "groco", rng)
    row_start = batch.num_views * np.arange(batch.num_views)[:, None]
    d_pos, d_neg = dg.index_select(d, row_start + pos), dg.index_select(d, row_start + neg)
    if kind == "groco":
        if preorder:
            return ls.groco_loss(d_pos, d_neg, params)
        return ls.group_loss_from_concat(dg.concat([d_pos, d_neg]), pos.shape[1], params.beta)
    if kind == "infonce":
        return ls.infonce_loss(d_pos, d_neg, params)
    return ls.triplet_loss(d_pos, d_neg, params)


def test_selected_distances_match_the_dense_chain(monkeypatch):
    tapeops.install(monkeypatch)
    rng = np.random.default_rng(61)
    for views, images in ((2, 6), (3, 4)):
        raw = rng.normal(size=(views * images, 5))
        image_id = rng.permutation(np.repeat(np.arange(images), views))
        all_negatives = views * (images - 1)
        cases = (
            ("groco", GroCoParams(beta=1.5), 4),
            ("infonce", InfoNCEParams(tau=0.3), all_negatives),
            ("triplet", TripletParams(margin=0.8), 3),
        )
        for kind, params, count in cases:
            for stop_grad in (True, False):
                for preorder in (True, False):
                    for random_negatives in (False, True):
                        results = []
                        for build in (
                            lambda b, r: bp.batch_loss(b, kind, params, num_negatives=count, stop_grad=stop_grad,
                                                       preorder=preorder, random_negatives=random_negatives, rng=r),
                            lambda b, r: _dense_chain_loss(b, kind, params, count, stop_grad, preorder, r),
                        ):
                            tape = Tape()
                            batch = bp.ViewBatch(tape.variable(raw), image_id, views)
                            loss = build(batch, np.random.default_rng(62) if random_negatives else None)
                            results.append((float(loss.data), dg.backward(tape, loss).grad(batch.projections)))
                        (got, g_got), (expect, g_expect) = results
                        case = (views, kind, stop_grad, preorder, random_negatives)
                        assert got == expect, case
                        assert np.max(np.abs(g_got - g_expect)) <= 1e-14 * np.max(np.abs(g_expect)), case


def test_selected_distances_gradient_matches_central_differences(monkeypatch):
    # without stop-gradient the op's gradient is the derivative of its output
    tapeops.install(monkeypatch)
    rng = np.random.default_rng(63)
    for views, images, count, random_negatives, preorder in (
        (2, 4, 3, False, True),
        (3, 3, 4, False, False),
        (2, 4, 2, True, True),
        (3, 3, 6, False, True),
    ):
        raw = rng.normal(size=(views * images, 3))
        image_id = np.repeat(np.arange(images), views)
        weights = rng.uniform(-1.0, 1.0, (views * images, views - 1 + count))

        def fn(tape, x):
            draws = np.random.default_rng(64) if random_negatives else None
            block, _, _ = bp._selected_distances(
                bp.ViewBatch(x, image_id, views), count, False, random_negatives, preorder, draws
            )
            return tapeops.weighted_sum(block, weights)

        report = dg.grad_check(fn, raw, h=1e-6, tol=1e-6)
        assert report.passed, (views, count, random_negatives, preorder, report.max_rel_error)


def _gathered_selected_distances_vjp(node, g):
    """The selected-distances rule as a gather: each anchor's selected unit
    rows taken into an (A, width, D) array and contracted with its gradient
    row, plus, without stop-gradient, the transposed pairs scattered into an
    (A, A) matrix times the unit rows."""
    unit, norms, cols = node.attrs["unit"], node.attrs["norms"], node.attrs["cols"]
    h = np.matmul(g[:, None, :], np.take(unit, cols, axis=0)).reshape(unit.shape)
    if not node.attrs["stop_grad"]:
        scattered = np.zeros((unit.shape[0],) * 2)
        scattered[cols, np.arange(unit.shape[0])[:, None]] = g
        h += scattered @ unit
    np.negative(h, out=h)
    h -= unit * np.sum(h * unit, axis=1, keepdims=True)
    return (h / norms,)


def test_selected_distances_dense_gradient_matches_the_gathered_product():
    rng = np.random.default_rng(66)
    for views, images, count, random_negatives, bound in (
        (2, 128, 10, False, 1e-15),
        (3, 7, 4, False, 1e-15),
        (2, 9, 5, True, 1e-15),
        # InfoNCE's full width, N = 254: measured 1.2e-15 here, at most 1.7e-15 over 40 seeds
        (2, 128, 254, False, 3e-15),
    ):
        raw = rng.normal(size=(views * images, 16))
        image_id = np.repeat(np.arange(images), views)
        for stop_grad in (True, False):
            tape = Tape()
            draws = np.random.default_rng(67) if random_negatives else None
            block, _, _ = bp._selected_distances(
                bp.ViewBatch(tape.variable(raw), image_id, views), count, stop_grad, random_negatives, True, draws
            )
            node = tape.nodes[-1]
            g = rng.normal(size=block.shape)
            (got,), (expect,) = dg.VJP_RULES["selected_distances"](node, g), _gathered_selected_distances_vjp(node, g)
            assert np.max(np.abs(got - expect)) <= bound * np.max(np.abs(expect)), (views, count, stop_grad)


def test_selected_distances_gradient_never_gathers_the_selected_rows():
    # one VJP at InfoNCE's full width: a gather of the selected unit rows
    # alone is an (A, 255, D) array, 32 MiB here; the dense rule holds (A, A)
    rng = np.random.default_rng(68)
    raw = rng.normal(size=(256, 64))
    image_id = np.repeat(np.arange(128), 2)
    for stop_grad in (True, False):
        tape = Tape()
        block, _, _ = bp._selected_distances(bp.ViewBatch(tape.variable(raw), image_id, 2), 254, stop_grad, False,
                                             True, None)
        node = tape.nodes[-1]
        g = rng.normal(size=block.shape)
        tracemalloc.start()
        try:
            dg.VJP_RULES["selected_distances"](node, g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20, (stop_grad, peak)


def test_stop_grad_gives_exact_zero_rows_to_views_no_loss_anchors_on(monkeypatch):
    tapeops.install(monkeypatch)
    rng = np.random.default_rng(65)
    raw = rng.normal(size=(8, 4))
    image_id = np.repeat(np.arange(4), 2)
    anchors = np.array([1, 6])
    for stop_grad in (True, False):
        tape = Tape()
        batch = bp.ViewBatch(tape.variable(raw), image_id, 2)
        block, pos, neg = bp._selected_distances(batch, 3, stop_grad, False, True, None)
        rows = block.shape[1] * anchors[:, None] + np.arange(block.shape[1])
        loss = tapeops.weighted_sum(dg.index_select(block, rows), rng.uniform(0.5, 1.0, rows.shape))
        grads = dg.backward(tape, loss).grad(batch.projections)
        touched = set(np.flatnonzero(np.any(grads != 0.0, axis=1)).tolist())
        if stop_grad:
            assert touched == set(anchors.tolist())
        else:
            columns = set(np.concatenate([pos[anchors], neg[anchors]], axis=None).tolist())
            assert touched == set(anchors.tolist()) | columns


def test_selected_distances_never_write_to_the_projections():
    rng = np.random.default_rng(66)
    raw = rng.normal(size=(6, 4))
    kept = raw.copy()
    image_id = np.repeat(np.arange(3), 2)
    for stop_grad in (True, False):
        block, _, _ = bp._selected_distances(bp.ViewBatch(raw, image_id, 2), 3, stop_grad, False, True, None)
        assert np.array_equal(raw, kept) and not np.shares_memory(block, raw)
        tape = Tape()
        x = tape.variable(raw)
        bp._selected_distances(bp.ViewBatch(x, image_id, 2), 3, stop_grad, False, True, None)
        node = tape.nodes[-1]
        g = rng.normal(size=node.output.shape)
        g_kept = g.copy()
        (grad,) = dg.VJP_RULES["selected_distances"](node, g)
        assert np.array_equal(g, g_kept) and np.array_equal(x.data, kept) and np.array_equal(raw, kept)
        assert grad.shape == raw.shape


def _blocked_step(monkeypatch, block, raw, image_id, views, kind, params, count, **kwargs):
    """Loss, projection gradient and negative columns of one `batch_loss`
    with `ROW_BLOCK` set to `block`, plus one draw from its rng after it."""
    monkeypatch.setattr(bp, "ROW_BLOCK", block)
    draws = np.random.default_rng(71) if kwargs.get("random_negatives") else None
    tape = Tape()
    batch = bp.ViewBatch(tape.variable(raw), image_id, views)
    loss = bp.batch_loss(batch, kind, params, num_negatives=count, rng=draws, **kwargs)
    return float(loss.data), dg.backward(tape, loss).grad(batch.projections), draws and draws.random()


def test_row_blocked_distance_stage_is_bitwise_the_unblocked_one(monkeypatch):
    # one unblocked pass (ROW_BLOCK above A) is the reference. A is a
    # multiple of 8 throughout: OpenBLAS computes the last A mod 8 columns
    # of the (rows, D) @ (D, A) distance product with a kernel whose
    # rounding depends on the row count, so at other A those columns may
    # differ from an unblocked product in the last bit
    rng = np.random.default_rng(70)
    cases = (
        (2, 20, 64),   # one block
        (2, 24, 16),   # three blocks of 16
        (2, 20, 16),   # ragged: 13 + 13 + 14 rows
        (2, 20, 13),   # 40 = 3 * 13 + 1: four blocks of 10, never a one-row block
        (3, 16, 13),   # 48 = 3 * 13 + 9, three views
        (2, 160, 128),  # at the module's own block: 106 + 107 + 107 rows
    )
    for views, images, block in cases:
        raw = rng.normal(size=(views * images, 16))
        image_id = rng.permutation(np.repeat(np.arange(images), views))
        for kind, params, count, extra in (
            ("groco", GroCoParams(beta=1.5), 7, {}),
            ("groco", GroCoParams(beta=1.5), 7, {"preorder": False}),
            ("groco", GroCoParams(beta=1.5), 7, {"random_negatives": True}),
            ("infonce", InfoNCEParams(tau=0.3), 1, {}),  # all negatives
            ("infonce", InfoNCEParams(tau=0.3), 5, {"infonce_top_n": True}),
            ("triplet", TripletParams(margin=0.8), 5, {"random_negatives": True, "preorder": False}),
        ):
            for stop_grad in (True, False):
                got, expect = (
                    _blocked_step(monkeypatch, b, raw, image_id, views, kind, params, count, stop_grad=stop_grad,
                                  **extra)
                    for b in (block, 10**9)
                )
                case = (views, images, block, kind, extra, stop_grad)
                assert got[0] == expect[0] and got[2] == expect[2], case
                if stop_grad:
                    assert np.array_equal(got[1], expect[1]), case
                else:
                    # the transposed share sums block by block: measured at
                    # most 1.0e-15 of the largest entry over 20 seeds
                    assert np.max(np.abs(got[1] - expect[1])) <= 4e-15 * np.max(np.abs(expect[1])), case


def test_row_blocked_columns_are_the_unblocked_ones(monkeypatch):
    rng = np.random.default_rng(72)
    raw = rng.normal(size=(40, 8))
    image_id = np.repeat(np.arange(20), 2)
    for random_negatives in (False, True):
        for preorder in (True, False):
            results = []
            for block in (13, 10**9):
                monkeypatch.setattr(bp, "ROW_BLOCK", block)
                draws = np.random.default_rng(73)
                results.append(bp._selected_distances(bp.ViewBatch(raw, image_id, 2), 6, True, random_negatives,
                                                      preorder, draws) + (draws.random(),))
            for got, expect in zip(*results):
                assert np.array_equal(got, expect), (random_negatives, preorder)


def test_loss_and_backward_at_a_4096_anchor_batch_stay_in_bounded_memory():
    # the distance stage and its gradient hold one (128, 4096) block at a
    # time: measured 16.1 MiB traced (the unblocked stage peaked at 260 MiB)
    rng = np.random.default_rng(74)
    raw = rng.normal(size=(4096, 64))
    image_id = np.repeat(np.arange(2048), 2)
    tape = Tape()
    batch = bp.ViewBatch(tape.variable(raw), image_id, 2)
    tracemalloc.start()
    try:
        loss = bp.batch_loss(batch, "groco", GroCoParams())
        grad = dg.backward(tape, loss).grad(batch.projections)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.isfinite(float(loss.data)) and np.all(np.isfinite(grad))
    assert peak < 24 * 2**20, peak

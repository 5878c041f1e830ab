import math

import numpy as np
import pytest

from groco import diffgrad as dg
from groco import losses as ls
from groco import sortcore as sc
from groco.losses import GroCoParams, InfoNCEParams, TripletParams

import tapeops
from oracles import (
    oracle_bce,
    oracle_diff_sort,
    oracle_groco,
    oracle_infonce,
    oracle_sorting_supervision,
    oracle_triplet,
)

LN2 = math.log(2.0)


def test_bce_values():
    assert abs(ls.bce(0.5, 1.0) - LN2) < 1e-12
    assert abs(ls.bce(0.25, 0.0) - (-math.log(0.75))) < 1e-12
    assert abs(ls.bce(1.0, 1.0) - (-math.log(1.0 - 1e-7))) < 1e-15
    assert ls.bce(1.0, 1.0) < 2e-7


def test_bce_rejects_bad_target():
    with pytest.raises(ValueError):
        ls.bce(0.5, 1.5)
    with pytest.raises(ValueError):
        ls.bce(0.5, -0.1)
    with pytest.raises(ValueError):
        ls.bce(math.nan, 0.5)


def test_groco_equal_distances_gives_ln2():
    for x in (-0.4, 0.0, 2.5):
        assert abs(ls.groco_loss([x], [x], GroCoParams(beta=1.0)) - LN2) < 1e-12


def test_groco_one_vs_one_paper_value():
    loss = ls.groco_loss([0.0], [1.0], GroCoParams(beta=1.0))
    assert abs(loss - (-math.log(0.75))) < 1e-12


def test_groco_matches_dense_oracle():
    rng = np.random.default_rng(21)
    for _ in range(30):
        k = int(rng.integers(1, 4))
        n = int(rng.integers(1, 6))
        d_pos = np.sort(rng.uniform(-1, 1, k))
        d_neg = np.sort(rng.uniform(-1, 1, n))
        beta = float(rng.choice([0.5, 1.0, 2.0]))
        got = ls.groco_loss(d_pos, d_neg, GroCoParams(beta=beta))
        assert abs(got - oracle_groco(d_pos, d_neg, beta)) < 1e-12


def test_groco_rejects_unsorted_groups():
    with pytest.raises(ValueError):
        ls.groco_loss([0.2, 0.1], [0.5], GroCoParams())
    with pytest.raises(ValueError):
        ls.groco_loss([0.1], [0.5, 0.4], GroCoParams())
    # ties inside a group are fine
    ls.groco_loss([0.1, 0.1], [0.5, 0.5], GroCoParams())


def test_groco_nonnegative_and_hard_limit():
    rng = np.random.default_rng(22)
    for _ in range(50):
        d_pos = np.sort(rng.uniform(-1, 1, 2))
        d_neg = np.sort(rng.uniform(-1, 1, 3))
        assert ls.groco_loss(d_pos, d_neg, GroCoParams(beta=1.0)) >= 0.0
    assert ls.groco_loss([0.0], [1.0], GroCoParams(beta=1e4)) < 1e-3


def test_groco_shift_invariance():
    rng = np.random.default_rng(23)
    params = GroCoParams(beta=1.0)
    for _ in range(30):
        d_pos = np.sort(rng.uniform(-1, 1, 2))
        d_neg = np.sort(rng.uniform(-1, 1, 4))
        c = float(rng.uniform(-5, 5))
        base = ls.groco_loss(d_pos, d_neg, params)
        shifted = ls.groco_loss(d_pos + c, d_neg + c, params)
        assert abs(base - shifted) < 1e-10


def test_groco_scale_beta_duality():
    rng = np.random.default_rng(24)
    for _ in range(30):
        d_pos = np.sort(rng.uniform(-1, 1, 2))
        d_neg = np.sort(rng.uniform(-1, 1, 3))
        c = float(rng.uniform(0.2, 4.0))
        beta = float(rng.uniform(0.3, 3.0))
        scaled_d = ls.groco_loss(c * d_pos, c * d_neg, GroCoParams(beta=beta))
        scaled_b = ls.groco_loss(d_pos, d_neg, GroCoParams(beta=c * beta))
        assert abs(scaled_d - scaled_b) < 1e-10


def test_groco_column_mass_symmetry():
    # the two cross-entropy terms of each column agree because columns sum to 1
    rng = np.random.default_rng(25)
    for _ in range(20):
        k = int(rng.integers(1, 4))
        n = int(rng.integers(1, 6))
        d = np.concatenate([np.sort(rng.uniform(-1, 1, k)), np.sort(rng.uniform(-1, 1, n))])
        _, perm = sc.diff_sort(d, 1.0)
        p = perm.entries
        for i in range(k + n):
            pos_mass = p[:k, i].sum()
            neg_mass = p[k:, i].sum()
            target = 1.0 if i < k else 0.0
            assert abs(ls.bce(pos_mass, target) - ls.bce(neg_mass, 1.0 - target)) < 1e-9


def test_closed_form_matches_general_loss():
    rng = np.random.default_rng(26)
    for _ in range(1000):
        d_p = float(rng.uniform(-2, 2))
        d_n = float(rng.uniform(-2, 2))
        beta = float(rng.uniform(0.2, 5.0))
        full = ls.groco_loss([d_p], [d_n], GroCoParams(beta=beta))
        closed = ls.groco_closed_form_1v1(d_p, d_n, beta)
        assert abs(full - closed) < 1e-12


def test_closed_form_examples_and_monotonicity():
    assert abs(ls.groco_closed_form_1v1(0.0, 0.0, 5.0) - LN2) < 1e-12
    assert abs(ls.groco_closed_form_1v1(0.0, 1.0, 1.0) - 0.2876820724517809) < 1e-12
    assert abs(ls.groco_closed_form_1v1(1.0, 0.0, 1.0) - (-math.log(0.25))) < 1e-12
    grid = np.linspace(-2, 2, 41)
    vals_n = [ls.groco_closed_form_1v1(0.0, d_n, 1.0) for d_n in grid]
    assert all(b < a for a, b in zip(vals_n, vals_n[1:]))
    vals_p = [ls.groco_closed_form_1v1(d_p, 0.0, 1.0) for d_p in grid]
    assert all(b > a for a, b in zip(vals_p, vals_p[1:]))


def test_groco_differentiable_through_tape():
    tape = dg.Tape()
    d = tape.variable([0.1, 0.4, 0.2])
    d_pos = dg.index_select(d, np.array([0]))
    d_neg = dg.index_select(d, np.array([2, 1]))  # ascending: 0.2 then 0.4
    loss = ls.groco_loss(d_pos, d_neg, GroCoParams(beta=1.0))
    grads = dg.backward(tape, loss).grad(d)
    assert grads.shape == (3,)
    assert grads[0] > 0  # moving the positive closer reduces the loss
    assert grads[1] < 0 and grads[2] < 0


def test_groco_saturated_swaps_reach_the_clamp_with_zero_gradient():
    # at beta=64 a gap of 1e6 leaves each swap within ~5e-9 of hard, so every
    # mass lies past the clamp: correct order costs -log(1 - eps) per term;
    # in the wrong order the positive and the first negative trade places,
    # and their four terms cost -log(eps) or -log(1 - (1 - eps))
    eps = ls.BCE_EPSILON
    params = GroCoParams(beta=64.0)
    swapped = math.log(eps) + math.log(1.0 - (1.0 - eps))
    cases = (
        ([0.0], [1e6, 2e6, 3e6], -math.log(1.0 - eps)),
        ([5e6], [0.0, 1e6, 2e6], -(swapped + 2.0 * math.log(1.0 - eps)) / 4.0),
    )
    for d_pos, d_neg, expect in cases:
        assert abs(ls.groco_loss(d_pos, d_neg, params) - expect) < 1e-12
        assert abs(oracle_groco(d_pos, d_neg, 64.0) - expect) < 1e-12
        tape = dg.Tape()
        d = tape.variable(d_pos + d_neg)
        loss = ls.groco_loss(dg.index_select(d, np.array([0])), dg.index_select(d, np.array([1, 2, 3])), params)
        assert np.array_equal(dg.backward(tape, loss).grad(d), np.zeros(4))


def test_sorting_supervision_identity_target():
    p = np.eye(3)
    q = np.eye(3)
    loss = ls.sorting_supervision_loss(p, q)
    assert loss == pytest.approx(oracle_sorting_supervision(p, q), abs=1e-15)
    assert loss < 2e-7


def test_sorting_supervision_uniform_p():
    p = np.full((2, 2), 0.5)
    q = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert abs(ls.sorting_supervision_loss(p, q) - LN2) < 1e-12


def test_sorting_supervision_from_diff_sort():
    _, perm = sc.diff_sort([2.0, 1.0], 1.0)
    q = np.array([[0.0, 1.0], [1.0, 0.0]])
    expect = (2 * ls.bce(0.75, 1.0) + 2 * ls.bce(0.25, 0.0)) / 4
    got = ls.sorting_supervision_loss(perm, q)
    assert abs(got - expect) < 1e-12
    assert abs(got - (-math.log(0.75))) < 1e-9


def test_sorting_supervision_rejects_bad_q():
    with pytest.raises(ValueError):
        ls.sorting_supervision_loss(np.eye(2), np.array([[1.0, 0.0], [1.0, 0.0]]))
    with pytest.raises(ValueError):
        ls.sorting_supervision_loss(np.eye(2), np.array([[0.5, 0.5], [0.5, 0.5]]))
    with pytest.raises(ValueError):
        ls.sorting_supervision_loss(np.eye(3), np.eye(2))


_SQUARE = "Q must be square"
_ZERO_ONE = "Q must contain only 0/1 entries"
_ONE_EACH = "Q must have exactly one 1 per row and per column"


@pytest.mark.parametrize(
    "q, message",
    [
        (np.ones((2, 3)), _SQUARE),
        (np.array([[1.0, 0.0], [0.0, 0.5]]), _ZERO_ONE),
        # rows and columns both sum to 1, but the entries are -1 and 2
        (np.array([[-1.0, 2.0], [2.0, -1.0]]), _ZERO_ONE),
        (np.array([[1.0, 1.0], [0.0, 1.0]]), _ONE_EACH),
        (np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]]), _ONE_EACH),
        (np.array([[1.0, 0.0], [0.0, 0.0]]), _ONE_EACH),
        (np.array([[1.0, math.nan], [0.0, 1.0]]), _ZERO_ONE),
    ],
    ids=["non-square", "half-entry", "minus-one-and-two-row", "two-ones-in-a-row", "repeated-column",
         "zero-row", "nan"],
)
def test_sorting_supervision_rejects_each_non_permutation_q(q, message):
    p = np.full(q.shape[-1:] * 2, 0.5)
    with pytest.raises(ValueError, match=message):
        ls.sorting_supervision_loss(p, q)


def test_sorting_supervision_saturated_p_reaches_the_clamp_with_zero_gradient():
    # at beta=64 a gap of 1e6 puts every entry of P within 1e-7 of 0 or 1,
    # so every term sits at the clamp and costs -log(1 - eps)
    rng = np.random.default_rng(33)
    for n in (2, 5, 8):
        values = 1e6 * rng.permutation(n)
        q = sc.permutation_matrix(sc.hard_sort(values)[1])
        tape = dg.Tape()
        x = tape.variable(values)
        loss = ls.sorting_supervision_loss(sc.diff_sort(x, 64.0)[1], q)
        assert abs(float(loss.data) + math.log(1.0 - ls.BCE_EPSILON)) < 1e-15
        assert np.array_equal(dg.backward(tape, loss).grad(x), np.zeros(n))


def test_taped_losses_record_one_bce_op():
    # sorting supervision: the sort, the soft values' product, the clamped BCE
    values = np.array([0.3, -1.2, 2.0, 0.7])
    q = sc.permutation_matrix(sc.hard_sort(values)[1])
    tape = dg.Tape()
    ls.sorting_supervision_loss(sc.diff_sort(tape.variable(values), 1.0)[1], q)
    assert [node.op_kind for node in tape.nodes] == ["sort_matrix", "matmul", "bce_mean"]
    # group ordering: the join, the border mass, the clamped BCE
    tape = dg.Tape()
    ls.groco_loss(tape.variable([[0.1], [0.2]]), tape.variable([[0.3, 0.5], [0.0, 0.4]]), GroCoParams())
    assert [node.op_kind for node in tape.nodes] == ["concat", "border_mass", "bce_mean"]


def _bce_chain(p, targets, denom):
    """The clamped BCE as a chain of generic ops: the reference for the one
    `bce_mean` op. The caller installs the `tapeops` rules."""
    pt = tapeops.clamp(p, ls.BCE_EPSILON, 1.0 - ls.BCE_EPSILON)
    ll = tapeops.add(tapeops.mul(targets, tapeops.log(pt)), tapeops.mul(1.0 - targets, tapeops.log(tapeops.sub(1.0, pt))))
    return dg.scale(tapeops.sum(ll), -1.0 / denom)


def _bce_cases():
    """(p, targets, denom) on (A, n) border masses and on n x n permutation
    matrices, each at beta 1 and at beta 64 with gaps of 1e6, where much of
    p lies past the clamp."""
    rng = np.random.default_rng(34)
    cases = []
    for n, k in ((3, 1), (11, 1), (11, 4)):
        for beta, spread in ((1.0, 1.0), (64.0, 1e6)):
            rows = spread * rng.normal(size=(6, n))
            targets = np.zeros((6, n))
            targets[:, :k] = 1.0
            cases.append((sc.border_mass(rows, k, beta), targets, float(targets.size)))
    for n in (4, 9):
        for beta, spread in ((1.0, 1.0), (64.0, 1e6)):
            values = spread * rng.permutation(n)
            q = sc.permutation_matrix(sc.hard_sort(values)[1])
            cases.append((sc.sort_matrix(values, beta), q, float(n * n)))
    return cases


def test_bce_mean_equals_the_op_chain(monkeypatch):
    tapeops.install(monkeypatch)
    clamped = 0
    for p, targets, denom in _bce_cases():
        results = []
        for fn in (ls._bce_mean, _bce_chain):
            tape = dg.Tape()
            x = tape.variable(p)
            loss = fn(x, targets, denom)
            results.append((float(loss.data), dg.backward(tape, loss).grad(x)))
        (loss, grad), (chain_loss, chain_grad) = results
        assert loss == chain_loss
        assert np.array_equal(grad, chain_grad)  # bitwise, so within 1e-15 of the largest entry too
        assert ls._bce_mean(p, targets, denom) == loss  # plain and taped agree
        clamped += np.count_nonzero((p <= ls.BCE_EPSILON) | (p >= 1.0 - ls.BCE_EPSILON))
    assert clamped > 0


def test_bce_mean_is_bitwise_the_op_chain_at_the_clamp_bounds(monkeypatch):
    # 0/1 targets, the only ones the losses pass, against p exactly 0 and 1,
    # at both bounds, just inside them and past them
    tapeops.install(monkeypatch)
    eps = ls.BCE_EPSILON
    p = np.array([0.0, eps / 2, eps, 2 * eps, 0.5, 1.0 - 2 * eps, 1.0 - eps, 1.0 - eps / 2, 1.0, -0.25, 1.25])
    p = np.stack([p, p[::-1]])
    for targets in (np.zeros(p.shape), np.ones(p.shape), np.indices(p.shape).sum(axis=0) % 2.0):
        results = []
        for fn in (ls._bce_mean, _bce_chain):
            tape = dg.Tape()
            x = tape.variable(p)
            loss = fn(x, targets, 22.0)
            results.append((float(loss.data), dg.backward(tape, loss).grad(x)))
        (loss, grad), (chain_loss, chain_grad) = results
        assert loss == chain_loss and ls._bce_mean(p, targets, 22.0) == loss
        assert np.array_equal(grad, chain_grad)


def test_bce_mean_gradient_is_zero_at_and_past_the_clamp():
    eps = ls.BCE_EPSILON
    p = np.array([0.0, eps / 2, eps, 1.0 - eps, 1.0 - eps / 2, 1.0, 0.3])
    for targets in (np.zeros(7), np.ones(7), np.array([1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0])):
        tape = dg.Tape()
        x = tape.variable(p)
        loss = ls._bce_mean(x, targets, 7.0)
        expect = np.mean([oracle_bce(pi, ti) for pi, ti in zip(p, targets)])
        assert abs(float(loss.data) - expect) < 1e-12
        grad = dg.backward(tape, loss).grad(x)
        assert np.array_equal(grad[:6], np.zeros(6)) and grad[6] != 0.0


def test_bce_mean_gradient_matches_central_differences():
    rng = np.random.default_rng(35)
    p = rng.uniform(0.05, 0.95, (4, 5))
    # `_bce_mean` takes only 0/1 targets: a permutation's and random ones
    for targets in (np.eye(4, 5), rng.integers(0, 2, (4, 5)).astype(np.float64)):
        report = dg.grad_check(lambda t, x: ls._bce_mean(x, targets, 20.0), p, h=1e-6, tol=1e-7)
        assert report.passed, f"rel error {report.max_rel_error:.3e}"


def test_infonce_equal_distances_and_paper_value():
    assert abs(ls.infonce_loss([0.3], [0.3], InfoNCEParams(tau=0.7)) - LN2) < 1e-12
    got = ls.infonce_loss([0.0], [1.0], InfoNCEParams(tau=1.0))
    assert abs(got - math.log(1 + math.exp(-1))) < 1e-12


def test_infonce_matches_naive_oracle():
    rng = np.random.default_rng(27)
    for _ in range(40):
        k = int(rng.integers(1, 3))
        m = int(rng.integers(1, 5))
        d_pos = rng.uniform(-1, 1, k)
        d_neg = rng.uniform(-1, 1, m)
        tau = float(rng.uniform(0.1, 2.0))
        got = ls.infonce_loss(d_pos, d_neg, InfoNCEParams(tau=tau))
        assert abs(got - oracle_infonce(d_pos, d_neg, tau)) < 1e-12


def test_infonce_shift_invariance():
    rng = np.random.default_rng(28)
    params = InfoNCEParams(tau=0.5)
    for _ in range(30):
        d_pos = rng.uniform(-1, 1, 2)
        d_neg = rng.uniform(-1, 1, 4)
        c = float(rng.uniform(-3, 3))
        assert abs(
            ls.infonce_loss(d_pos, d_neg, params) - ls.infonce_loss(d_pos + c, d_neg + c, params)
        ) < 1e-10


def test_infonce_closed_form_1v1_reduction():
    rng = np.random.default_rng(29)
    for _ in range(1000):
        d_p, d_n = rng.uniform(-2, 2, 2)
        tau = float(rng.uniform(0.2, 2.0))
        got = ls.infonce_loss([d_p], [d_n], InfoNCEParams(tau=tau))
        expect = math.log(1 + math.exp(-(d_n - d_p) / tau))
        assert abs(got - expect) < 1e-12


def test_infonce_rejects_empty_groups():
    with pytest.raises(ValueError):
        ls.infonce_loss([], [0.1], InfoNCEParams())
    with pytest.raises(ValueError):
        ls.infonce_loss([0.1], [], InfoNCEParams())


def test_triplet_values():
    assert ls.triplet_loss([0.2], [0.5], TripletParams(margin=0.3)) == 0.0
    assert abs(ls.triplet_loss([0.2], [0.5], TripletParams(margin=0.4)) - 0.1) < 1e-12
    unbounded = ls.triplet_loss([0.2], [0.5], TripletParams(margin=math.inf))
    assert abs(unbounded - (-0.3)) < 1e-12


def test_triplet_matches_pairwise_oracle():
    rng = np.random.default_rng(30)
    for margin in (0.8, 1.6, math.inf):
        for _ in range(20):
            d_pos = rng.uniform(-1, 1, int(rng.integers(1, 4)))
            d_neg = rng.uniform(-1, 1, int(rng.integers(1, 6)))
            got = ls.triplet_loss(d_pos, d_neg, TripletParams(margin=margin))
            assert abs(got - oracle_triplet(d_pos, d_neg, margin)) < 1e-12


def _infonce_chain(d_pos, d_neg, params):
    """InfoNCE as the chain of generic ops it was recorded as before it
    became one `infonce` op: the reference for that op's gradient. The
    caller installs the `tapeops` rules."""
    pos, neg = d_pos.data, d_neg.data
    inv_tau = -1.0 / params.tau
    zp = dg.scale(d_pos, inv_tau)
    zn = dg.scale(d_neg, inv_tau)
    top = np.max(neg * inv_tau, axis=-1, keepdims=True)  # per row, constant
    shift = np.maximum(pos * inv_tau, top)  # per positive, constant
    neg_sum = dg.matmul(tapeops.exp(tapeops.sub(zn, top)), np.ones((neg.shape[-1], 1)))
    shifted = tapeops.add(tapeops.exp(tapeops.sub(zp, shift)), tapeops.mul(neg_sum, np.exp(top - shift)))
    lse = tapeops.add(tapeops.log(shifted), shift)
    return dg.scale(tapeops.sum(tapeops.sub(lse, zp)), 1.0 / pos.size)


def _triplet_chain(d_pos, d_neg, params):
    """Triplet as the chain of generic ops it was recorded as before it
    became one `triplet` op: one gather each for the pairs' positives and
    negatives, their difference, and the hinge as a clamp."""
    pos, neg = d_pos.data, d_neg.data
    k, m = pos.shape[-1], neg.shape[-1]
    rep = np.repeat(np.arange(pos.size).reshape(pos.shape), m, axis=-1)
    tile = np.tile(np.arange(neg.size).reshape(neg.shape), k)
    diff = tapeops.sub(dg.index_select(d_pos, rep), dg.index_select(d_neg, tile))
    if not params.unbounded:
        diff = tapeops.clamp(tapeops.add(diff, params.margin), lo=0.0)
    return dg.scale(tapeops.sum(diff), 1.0 / (pos.size * m))


def _baseline_cases():
    """(d_pos, d_neg) pairs: 1-D groups, (A, k) and (A, m) rows, InfoNCE's
    full width at a default step (A = 256, 1 positive, 254 negatives), and
    rows with ties."""
    rng = np.random.default_rng(36)
    cases = [(rng.uniform(-1, 1, k), rng.uniform(-1, 1, m)) for k, m in ((1, 1), (1, 6), (3, 4))]
    cases += [(rng.uniform(-1, 1, (6, 2)), rng.uniform(-1, 1, (6, 7))), (rng.uniform(-1, 1, (256, 1)),
              rng.uniform(-1, 1, (256, 254)))]
    tied = rng.integers(-2, 3, (8, 6)) / 2.0
    cases.append((tied[:, :2], tied[:, 2:]))
    return cases


def _oracle_rows(oracle, d_pos, d_neg, param):
    if d_pos.ndim == 1:
        return oracle(d_pos, d_neg, param)
    return float(np.mean([oracle(p, n, param) for p, n in zip(d_pos, d_neg)]))


@pytest.mark.parametrize("kind", ["infonce", "triplet", "triplet_unbounded"])
def test_baseline_op_matches_the_oracle_and_the_op_chain(kind, monkeypatch):
    # the one-op loss against the loop oracle at 1e-12, and its value and
    # gradient against the generic-op chain it replaces, to within 1e-13 of
    # the chain gradient's largest entry; InfoNCE's op keeps the chain's
    # order of operations, so it is bitwise the chain. The tau 0.01 rows put
    # logits at +-100, where the naive oracle still sums exactly enough
    tapeops.install(monkeypatch)
    if kind == "infonce":
        settings = [(InfoNCEParams(tau=tau), tau) for tau in (0.1, 0.7, 0.01)]
        loss, chain, oracle = ls.infonce_loss, _infonce_chain, oracle_infonce
    else:
        margins = (math.inf,) if kind == "triplet_unbounded" else (0.3, 0.8)
        settings = [(TripletParams(margin=margin), margin) for margin in margins]
        loss, chain, oracle = ls.triplet_loss, _triplet_chain, oracle_triplet
    for params, param in settings:
        for d_pos, d_neg in _baseline_cases():
            expect = _oracle_rows(oracle, d_pos, d_neg, param)
            assert abs(loss(d_pos, d_neg, params) - expect) < 1e-12, (kind, param, d_pos.shape)
            results = []
            for fn in (loss, chain):
                tape = dg.Tape()
                p, n = tape.variable(d_pos), tape.variable(d_neg)
                out = fn(p, n, params)
                gmap = dg.backward(tape, out)
                results.append((float(out.data), gmap.grad(p), gmap.grad(n)))
            (got, *grads), (chain_got, *chain_grads) = results
            assert abs(got - expect) < 1e-12 and abs(got - chain_got) < 1e-12
            for g, chain_g in zip(grads, chain_grads):
                assert np.all(np.isfinite(g))
                assert np.max(np.abs(g - chain_g)) <= 1e-13 * np.max(np.abs(chain_g)), (kind, param, d_pos.shape)
                assert kind != "infonce" or np.array_equal(g, chain_g)
            assert kind != "infonce" or got == chain_got


@pytest.mark.parametrize("tau", [0.5, 2.0])
def test_infonce_op_gradient_matches_central_differences(tau):
    # small tau is checked against the op chain only: at tau 0.1 some
    # gradient entries are already below the differences' roundoff
    rng = np.random.default_rng(37)
    for k, point in ((1, rng.uniform(-1, 1, 5)), (2, rng.uniform(-1, 1, (3, 6)))):
        report = dg.grad_check(lambda t, x: ls.infonce_from_concat(x, k, InfoNCEParams(tau=tau)), point,
                               h=1e-6, tol=1e-6)
        assert report.passed, (tau, k, report.max_rel_error)


def test_triplet_op_gradient_matches_central_differences():
    rng = np.random.default_rng(38)
    for margin in (0.4, math.inf):
        for k, point in ((1, rng.uniform(-1, 1, 5)), (2, rng.uniform(-1, 1, (3, 6)))):
            params = TripletParams(margin=margin)
            block = point.reshape(-1, point.shape[-1])
            hinge = block[:, :k, None] - block[:, None, k:] + margin
            assert math.isinf(margin) or np.min(np.abs(hinge)) > 1e-3  # no pair at its kink
            report = dg.grad_check(lambda t, x: ls.triplet_from_concat(x, k, params), point, h=1e-6, tol=1e-7)
            assert report.passed, (margin, k, report.max_rel_error)


def test_triplet_hinge_at_exactly_zero_has_zero_gradient():
    # d_p - d_n + margin == 0 exactly: clamp's mask is strict, so the pair
    # is inactive; the second negative's pair is active
    tape = dg.Tape()
    d = tape.variable([0.25, 0.75, 0.0])
    loss = ls.triplet_from_concat(d, 1, TripletParams(margin=0.5))
    assert 0.25 - 0.75 + 0.5 == 0.0 and float(loss.data) == 0.75 / 2
    assert dg.backward(tape, loss).grad(d).tolist() == [0.5, 0.0, -0.5]
    tape = dg.Tape()
    d = tape.variable([0.25, 0.75])
    assert dg.backward(tape, ls.triplet_from_concat(d, 1, TripletParams(margin=0.5))).grad(d).tolist() == [0.0, 0.0]


def test_taped_baselines_record_one_op():
    tape = dg.Tape()
    block = tape.variable([[0.1, 0.3, 0.5], [0.2, 0.0, 0.4]])
    ls.infonce_from_concat(block, 1, InfoNCEParams())
    ls.triplet_from_concat(block, 2, TripletParams())
    assert [node.op_kind for node in tape.nodes] == ["infonce", "triplet"]
    tape = dg.Tape()
    ls.infonce_loss(tape.variable([[0.1], [0.2]]), tape.variable([[0.3, 0.5], [0.0, 0.4]]), InfoNCEParams())
    assert [node.op_kind for node in tape.nodes] == ["concat", "infonce"]
    for bad in ([0.1], np.zeros((2, 0)), [0.1, np.nan]):
        with pytest.raises(ValueError):
            ls.infonce_from_concat(bad, 1, InfoNCEParams())
        with pytest.raises(ValueError):
            ls.triplet_from_concat(bad, 1, TripletParams())


def test_param_validation():
    with pytest.raises(ValueError):
        GroCoParams(beta=-1.0)
    with pytest.raises(ValueError):
        GroCoParams(num_negatives=0)
    with pytest.raises(ValueError):
        InfoNCEParams(tau=0.0)
    with pytest.raises(ValueError):
        TripletParams(margin=0.0)
    assert TripletParams(margin=math.inf).unbounded


def test_groco_from_raw_distances_equals_manual_preorder():
    rng = np.random.default_rng(31)
    for _ in range(20):
        k = int(rng.integers(1, 4))
        n = int(rng.integers(1, 6))
        x = rng.uniform(-1, 1, k + n)
        got = ls.groco_from_raw_distances(x, k, 1.0)
        manual = ls.groco_loss(np.sort(x[:k]), np.sort(x[k:]), GroCoParams(beta=1.0))
        assert abs(got - manual) < 1e-15


def test_group_loss_from_concat_accepts_unordered():
    # the pre-ordering ablation path: no ordering requirement, still finite
    x = np.array([0.4, -0.2, 0.3, -0.5])
    val = ls.group_loss_from_concat(x, 2, GroCoParams(beta=1.0))
    assert np.isfinite(val) and val > 0
    expect = oracle_groco([0.4, -0.2], [0.3, -0.5], 1.0)
    assert abs(float(val) - expect) < 1e-12


def test_row_batches_equal_mean_of_row_losses():
    rng = np.random.default_rng(32)
    d_pos = np.sort(rng.uniform(-1, 1, (5, 2)), axis=1)
    d_neg = np.sort(rng.uniform(-1, 1, (5, 4)), axis=1)
    raw = rng.uniform(-1, 1, (5, 6))
    cases = [
        (lambda p, n: ls.groco_loss(p, n, GroCoParams(beta=1.5)), d_pos, d_neg),
        (lambda p, n: ls.infonce_loss(p, n, InfoNCEParams(tau=0.2)), d_pos, d_neg),
        (lambda p, n: ls.triplet_loss(p, n, TripletParams(margin=0.8)), d_pos, d_neg),
        (lambda p, n: ls.triplet_loss(p, n, TripletParams(margin=math.inf)), d_pos, d_neg),
        (lambda p, n: ls.group_loss_from_concat(np.concatenate([p, n], axis=-1), 2, GroCoParams(beta=1.5)),
         raw[:, :2], raw[:, 2:]),
        (lambda p, n: ls.groco_from_raw_distances(np.concatenate([p, n], axis=-1), 2, 1.5), raw[:, :2], raw[:, 2:]),
    ]
    for loss, pos, neg in cases:
        expect = np.mean([loss(p, n) for p, n in zip(pos, neg)])
        assert abs(loss(pos, neg) - expect) < 1e-12
    with pytest.raises(ValueError):
        ls.groco_loss(d_pos, d_neg[:4], GroCoParams())
    with pytest.raises(ValueError):
        ls.groco_loss(d_pos[:, ::-1], d_neg, GroCoParams())

import math

import numpy as np
import pytest

from groco import diffgrad as dg
from groco import sortcore as sc

import tapeops
from oracles import oracle_diff_sort, oracle_f, oracle_step_matrix


def test_sigmoid_f_analytic_values():
    assert sc.sigmoid_f(0.0, 7.3) == 0.5
    assert abs(sc.sigmoid_f(1.0, 1.0) - 0.75) < 1e-15
    assert abs(sc.sigmoid_f(-1.0, 1.0) - 0.25) < 1e-15


def test_sigmoid_f_symmetry_and_monotonicity():
    rng = np.random.default_rng(1)
    for beta in (0.5, 1.0, 2.0, 10.0):
        xs = np.sort(rng.uniform(-5, 5, 50))
        vals = [sc.sigmoid_f(x, beta) for x in xs]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        for x in xs:
            assert abs(sc.sigmoid_f(x, beta) + sc.sigmoid_f(-x, beta) - 1.0) < 1e-12


def test_sigmoid_f_rejects_bad_arguments():
    with pytest.raises(ValueError):
        sc.sigmoid_f(float("nan"), 1.0)
    with pytest.raises(ValueError):
        sc.sigmoid_f(float("inf"), 1.0)
    with pytest.raises(ValueError):
        sc.sigmoid_f(1.0, 0.0)
    with pytest.raises(ValueError):
        sc.sigmoid_f(1.0, -2.0)


def test_soft_swap_examples():
    assert sc.soft_swap(1.0, 1.0, 1.0) == (1.0, 1.0)
    lo, hi = sc.soft_swap(2.0, 1.0, 1.0)
    assert abs(lo - 1.25) < 1e-12 and abs(hi - 1.75) < 1e-12
    lo, hi = sc.soft_swap(1.0, 2.0, 1e6)
    assert abs(lo - 1.0) < 1e-5 and abs(hi - 2.0) < 1e-5


def test_soft_swap_sum_conservation():
    rng = np.random.default_rng(2)
    for _ in range(200):
        a, b = rng.uniform(-3, 3, 2)
        beta = rng.uniform(0.1, 20)
        lo, hi = sc.soft_swap(a, b, beta)
        assert abs((lo + hi) - (a + b)) < 1e-12
        assert lo <= hi + 1e-15  # softmin never exceeds softmax


# n=2: the odd step holds the network's only pair and the even step none,
# so sort_matrix of two values is that one swap matrix


def test_swap_matrix_values():
    p = sc.sort_matrix([2.0, 1.0], 1.0)
    assert np.allclose(p, [[0.25, 0.75], [0.75, 0.25]], atol=1e-12)
    assert sc.sort_matrix([1.0, 1.0], 3.7).tolist() == [[0.5, 0.5], [0.5, 0.5]]


def test_swap_matrix_symmetric_doubly_stochastic():
    rng = np.random.default_rng(3)
    for _ in range(50):
        p = sc.sort_matrix(rng.normal(size=2), float(rng.uniform(0.2, 5)))
        assert p[0, 1] == p[1, 0]
        assert np.allclose(p.sum(axis=0), 1.0, atol=1e-15)
        assert np.allclose(p.sum(axis=1), 1.0, atol=1e-15)
        assert np.all((p >= 0) & (p <= 1))


def test_step_matrix_even_step_n2_is_identity():
    rng = np.random.default_rng(6)
    for _ in range(50):
        vals = rng.normal(size=2).tolist()
        beta = float(rng.uniform(0.2, 5))
        assert np.array_equal(np.array(oracle_step_matrix(vals, 2, beta)), np.eye(2))
        # the whole network equals its first step: the even step adds nothing
        p = sc.sort_matrix(vals, beta)
        expect = np.array(oracle_step_matrix(vals, 1, beta))
        assert np.max(np.abs(p - expect)) < 1e-15


def test_diff_sort_two_values():
    sorted_soft, perm = sc.diff_sort([2.0, 1.0], 1.0)
    assert np.allclose(perm.entries, [[0.25, 0.75], [0.75, 0.25]], atol=1e-12)
    assert np.allclose(sorted_soft, [1.25, 1.75], atol=1e-12)


def test_diff_sort_already_sorted_hard_limit():
    _, perm = sc.diff_sort([1.0, 2.0, 3.0], 1e6)
    assert np.max(np.abs(perm.entries - np.eye(3))) < 1e-3


def test_diff_sort_matches_dense_oracle():
    vals = [0.3, 0.1, 0.2]
    sorted_soft, perm = sc.diff_sort(vals, 2.0)
    expect_sorted, expect_p = oracle_diff_sort(vals, 2.0)
    assert np.max(np.abs(perm.entries - expect_p)) < 1e-12
    assert np.max(np.abs(sorted_soft - expect_sorted)) < 1e-12

    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(1, 9))
        vals = rng.normal(size=n)
        beta = float(rng.choice([0.5, 1.0, 2.0, 10.0]))
        got_sorted, got_p = sc.diff_sort(vals, beta)
        expect_sorted, expect_p = oracle_diff_sort(vals.tolist(), beta)
        assert np.max(np.abs(got_p.entries - expect_p)) < 1e-12
        assert np.max(np.abs(got_sorted - expect_sorted)) < 1e-12


def _tied_batch(rng, n):
    """Rows of random values, one constant row, and rows with an exact tie."""
    rows = rng.normal(size=(4, n))
    rows[1] = 0.25
    if n > 2:
        rows[2, 1] = rows[2, 0]
        rows[3, -1] = rows[3, 1]
    return rows


def test_sort_matrix_batch_matches_dense_oracle():
    rng = np.random.default_rng(9)
    for n in (1, 2, 3, 5, 11, 16):
        for beta in (0.5, 1.0, 4.0):
            rows = _tied_batch(rng, n)
            p = sc.sort_matrix(rows, beta)
            assert p.shape == (4, n, n)
            for row, got in zip(rows, p):
                _, expect = oracle_diff_sort(row.tolist(), beta)
                assert np.max(np.abs(got - expect)) < 1e-12
            assert np.array_equal(sc.sort_matrix(rows[2], beta), p[2])


def test_sort_matrix_gradient_matches_central_differences(monkeypatch):
    tapeops.install(monkeypatch)
    rng = np.random.default_rng(10)
    for n in (1, 2, 5, 11):
        for beta in (0.5, 4.0):
            rows = _tied_batch(rng, n)
            weights = rng.uniform(-1.0, 1.0, (4, n, n))
            report = dg.grad_check(
                lambda t, x: tapeops.weighted_sum(sc.sort_matrix(x, beta), weights), rows, h=1e-6, tol=1e-5
            )
            assert report.passed, f"n={n} beta={beta}: rel error {report.max_rel_error:.3e}"


def test_sort_matrix_exact_ties_match_dense_oracle():
    # a tie swaps with probability exactly 1/2, in the first step and later
    rows = np.array([[0.5, 0.5, 0.5, 0.5, 0.5],
                     [1.0, 1.0, 0.0, 2.0, 2.0],
                     [3.0, 1.0, 1.0, 3.0, 0.0],
                     [-2.0, 4.0, -2.0, 4.0, -2.0]])
    for beta in (0.5, 1.0, 64.0):
        p = sc.sort_matrix(rows, beta)
        tape = dg.Tape()
        taped = sc.sort_matrix(tape.variable(rows), beta)
        assert np.array_equal(taped.data, p)
        for row, got in zip(rows, p):
            _, expect = oracle_diff_sort(row.tolist(), beta)
            assert np.max(np.abs(got - expect)) < 1e-12
            assert np.array_equal(sc.sort_matrix(row, beta), got)


def test_sort_matrix_saturates_at_large_beta_with_finite_gradient(monkeypatch):
    # at beta=64 a gap of 1e6 leaves each swap within ~5e-9 of hard
    tapeops.install(monkeypatch)
    rng = np.random.default_rng(15)
    for n in (2, 5, 8):
        rows = np.stack([1e6 * rng.permutation(n) for _ in range(3)])
        p = sc.sort_matrix(rows, 64.0)
        for row, got in zip(rows, p):
            q = sc.permutation_matrix(sc.hard_sort(row)[1])
            assert np.max(np.abs(got - q)) < 1e-7
        tape = dg.Tape()
        x = tape.variable(rows)
        grad = dg.backward(tape, tapeops.weighted_sum(sc.sort_matrix(x, 64.0), rng.normal(size=(3, n, n)))).grad(x)
        assert np.all(np.isfinite(grad))


def test_sort_matrix_never_writes_to_its_input():
    rng = np.random.default_rng(16)
    for values in (rng.normal(size=6), rng.normal(size=(1, 6)), rng.normal(size=(4, 6))):
        kept = values.copy()
        p = sc.sort_matrix(values, 1.0)
        assert np.array_equal(values, kept) and not np.shares_memory(p, values)

        tape = dg.Tape()
        x = tape.variable(values)
        sc.sort_matrix(x, 1.0)
        node = tape.nodes[-1]
        g = rng.normal(size=values.shape + (6,))
        g_kept = g.copy()
        (grad,) = dg.VJP_RULES["sort_matrix"](node, g)
        assert np.array_equal(g, g_kept) and np.array_equal(x.data, kept)
        assert grad.shape == values.shape and not np.shares_memory(grad, g)
        # the rule is safe to run twice on one node: it keeps its saved steps
        assert np.array_equal(dg.VJP_RULES["sort_matrix"](node, g)[0], grad)


def _vecdot_stay(g_diff, diff, beta, beta_gap):
    """The stay gradient as `sort_matrix` associates it: one vecdot, times
    the slope (beta / pi) / (1 + (beta * gap)^2) computed whole."""
    return np.vecdot(g_diff, diff) * ((beta * (1.0 / math.pi)) / (1.0 + np.square(beta_gap)))


def _einsum_stay(g_diff, diff, beta, beta_gap):
    """The stay gradient as the backward associated it before its slopes
    were batched: an einsum, times beta / pi, over 1 + (beta * gap)^2."""
    return np.einsum("apk,apk->ap", g_diff, diff) * (beta * (1.0 / math.pi)) / (1.0 + np.square(beta_gap))


def _stride2_sort_matrix(rows, beta, g, stay=_vecdot_stay):
    """Reference network with its rows in place order: each step compares
    the stride-2 rows m[:, lo:hi:2] and m[:, lo + 1:hi:2]. Returns P of each
    row of `rows` (A, n) and the value gradient for the upstream gradient
    `g` (A, n, n) on P, whose stay gradients come from `stay`."""
    count, n = rows.shape
    m = np.zeros((count, n, n + 1))
    m[:, np.arange(n), np.arange(n)] = 1.0
    m[:, :, n] = rows
    saved = []
    for step in range(1, n + 1):
        lo = 1 - step % 2
        hi = lo + (n - lo) // 2 * 2
        if lo == hi:
            continue
        top, bottom = m[:, lo:hi:2], m[:, lo + 1 : hi : 2]
        diff = top - bottom
        beta_gap = beta * diff[..., n]
        swap = np.arctan(beta_gap) * (1.0 / math.pi) + 0.5
        shift = swap[..., None] * diff
        top -= shift
        bottom += shift
        saved.append((lo, hi, swap, diff, beta_gap))
    gm = np.zeros_like(m)
    gm[:, :, :n] = g
    for lo, hi, swap, diff, beta_gap in reversed(saved):
        g_top, g_bottom = gm[:, lo:hi:2], gm[:, lo + 1 : hi : 2]
        g_diff = g_top - g_bottom
        g_stay = stay(g_diff, diff, beta, beta_gap)
        shift = np.multiply(swap[..., None], g_diff, out=g_diff)
        shift[..., n] += g_stay
        g_top -= shift
        g_bottom += shift
    return m[:, :, :n], gm[:, :, n]


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 16, 33, 64])
def test_sort_matrix_parity_major_layout_is_bitwise_the_stride2_network(n, monkeypatch):
    tapeops.install(monkeypatch)
    rng = np.random.default_rng(100 + n)
    for beta in (1.0, 64.0):
        rows = _tied_batch(rng, n) * n
        g = rng.normal(size=(4, n, n))
        expect_p, expect_grad = _stride2_sort_matrix(rows, beta, g)
        tape = dg.Tape()
        x = tape.variable(rows)
        taped = sc.sort_matrix(x, beta)
        grad = dg.backward(tape, tapeops.weighted_sum(taped, g)).grad(x)
        assert _same_bits(taped.data, expect_p), (n, beta)
        assert _same_bits(grad, expect_grad), (n, beta)
        assert _same_bits(sc.sort_matrix(rows, beta), taped.data)
        for row, got in zip(rows, taped.data):
            assert _same_bits(sc.sort_matrix(row, beta), got)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 16, 33, 64])
def test_sort_matrix_gradient_is_within_1e_13_of_the_einsum_backward(n, monkeypatch):
    # tied rows, and a row spread by 1e6 that saturates every swap at beta 64
    tapeops.install(monkeypatch)
    rng = np.random.default_rng(200 + n)
    for beta in (0.3, 1.0, 7.5, 64.0):
        rows = np.vstack([_tied_batch(rng, n) * n, 1e6 * rng.permutation(n)])
        g = rng.normal(size=(5, n, n))
        expect_p, expect_grad = _stride2_sort_matrix(rows, beta, g, stay=_einsum_stay)
        tape = dg.Tape()
        x = tape.variable(rows)
        taped = sc.sort_matrix(x, beta)
        assert _same_bits(taped.data, sc.sort_matrix(rows, beta)), (n, beta)
        assert _same_bits(taped.data, expect_p), (n, beta)
        if n == 1:
            assert tape.nodes[0].attrs["saved"] == []  # no comparator, no slope
        grad = dg.backward(tape, tapeops.weighted_sum(taped, g)).grad(x)
        for got, expect in zip(grad, expect_grad):
            assert np.max(np.abs(got - expect)) <= 1e-13 * np.max(np.abs(expect)), (n, beta)
    if n == 1:
        assert np.array_equal(grad, np.zeros((5, 1)))


def _stride2_border_mass(rows, k, beta, g):
    """Reference border-mass kernel with its places in order, (n, A, 1):
    each step compares the stride-2 rows x[lo:hi:2] and x[lo + 1:hi:2].
    Returns the mass of each row of `rows` (A, n) in the first k places,
    the value gradient for the upstream gradient `g` (A, n) on the mass as
    the shared adjoint forms it (swap form, one product and one slope per
    step), and the value gradient of the stay-form adjoint it replaced."""

    def swap_step(x, lo, hi, stay):
        top, bottom = x[lo:hi:2], x[lo + 1 : hi : 2]
        gap = top - bottom
        shift = stay * gap
        new_top = bottom + shift
        x[lo + 1 : hi : 2] = top - shift
        x[lo:hi:2] = new_top
        return gap

    n = rows.shape[1]
    v = rows.T.copy()[:, :, None]
    steps = []
    for step in range(1, n + 1):
        lo = 1 - step % 2
        hi = lo + (n - lo) // 2 * 2
        if lo == hi:
            continue
        stay = np.arctan(-beta * (v[lo:hi:2] - v[lo + 1 : hi : 2])) * (1.0 / math.pi) + 0.5
        steps.append((lo, hi, stay, swap_step(v, lo, hi, stay)))
    w = np.zeros_like(v)
    w[:k] = 1.0
    w_gaps = [swap_step(w, lo, hi, stay) for lo, hi, stay, _ in reversed(steps)][::-1]
    u = g.T.copy()[:, :, None]
    g_stays = [swap_step(u, lo, hi, stay) * w_gap for (lo, hi, stay, _), w_gap in zip(steps, w_gaps)]
    a = np.zeros_like(u)
    for (lo, hi, stay, gap), g_extra in zip(reversed(steps), reversed(g_stays)):
        top, bottom = a[lo:hi:2], a[lo + 1 : hi : 2]
        g_diff = top - bottom
        g_stay = g_diff[..., 0] * gap[..., 0]
        g_stay += g_extra[..., 0]
        shift = (1.0 - stay) * g_diff
        g_stay *= (beta * (1.0 / math.pi)) / (1.0 + np.square(beta * gap[..., 0]))
        shift[..., -1] += g_stay
        top -= shift
        bottom += shift
    stay_form = np.zeros_like(u)
    for (lo, hi, stay, gap), g_stay in zip(reversed(steps), reversed(g_stays)):
        g_stay += swap_step(stay_form, lo, hi, stay) * gap
        g_gap = g_stay * (beta * (1.0 / math.pi)) / (1.0 + np.square(beta * gap))
        stay_form[lo + 1 : hi : 2] += g_gap
        stay_form[lo:hi:2] -= g_gap
    return w[..., 0].T, a[..., 0].T, stay_form[..., 0].T


@pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 11, 16])
def test_border_mass_parity_major_layout_is_bitwise_the_stride2_kernel(n, monkeypatch):
    tapeops.install(monkeypatch)
    rng = np.random.default_rng(200 + n)
    for beta in (1.0, 64.0):
        for k in sorted({1, n - 1}):
            rows = _tied_batch(rng, n) * n
            g = rng.normal(size=rows.shape)
            expect_mass, expect_grad, stay_form_grad = _stride2_border_mass(rows, k, beta, g)
            tape = dg.Tape()
            x = tape.variable(rows)
            taped = sc.border_mass(x, k, beta)
            grad = dg.backward(tape, tapeops.weighted_sum(taped, g)).grad(x)
            assert _same_bits(taped.data, expect_mass), (n, beta, k)
            assert _same_bits(grad, expect_grad), (n, beta, k)
            # the stay-form adjoint differs only in rounding: at most 8.6e-16
            # of its largest entry over these cases
            assert np.max(np.abs(grad - stay_form_grad)) <= 4e-15 * np.max(np.abs(stay_form_grad)), (n, beta, k)
            assert _same_bits(sc.border_mass(rows, k, beta), expect_mass)
            for row, row_g, mass, row_grad in zip(rows, g, expect_mass, expect_grad):
                assert _same_bits(sc.border_mass(row, k, beta), mass)
                tape = dg.Tape()
                x = tape.variable(row)
                taped = sc.border_mass(x, k, beta)
                assert _same_bits(taped.data, mass)
                assert _same_bits(dg.backward(tape, tapeops.weighted_sum(taped, row_g)).grad(x), row_grad)


def _place_counts(n):
    return sorted({0, 1, n // 2, n - 1, n} & set(range(n + 1)))


def test_border_mass_matches_sort_matrix_column_sums():
    rng = np.random.default_rng(11)
    for n in (1, 2, 3, 5, 11, 31, 64):
        for beta in (0.5, 1.0, 4.0, 64.0):
            rows = _tied_batch(rng, n)
            p = sc.sort_matrix(rows, beta)
            for k in _place_counts(n):
                mass = sc.border_mass(rows, k, beta)
                assert mass.shape == (4, n)
                # measured at most 4.2e-15 over these cases
                assert np.max(np.abs(mass - p[:, :k, :].sum(axis=1))) < 1e-14, (n, beta, k)
                assert np.array_equal(sc.border_mass(rows[2], k, beta), mass[2])


def test_border_mass_gradient_matches_central_differences(monkeypatch):
    tapeops.install(monkeypatch)
    rng = np.random.default_rng(12)
    for n in (1, 2, 5, 11):
        for beta in (0.5, 4.0):
            rows = _tied_batch(rng, n)
            weights = rng.uniform(-1.0, 1.0, (4, n))
            for k in _place_counts(n):
                # h=1e-5: some coordinates are ~1e-6, where h=1e-6 leaves too much roundoff
                report = dg.grad_check(
                    lambda t, x: tapeops.weighted_sum(sc.border_mass(x, k, beta), weights), rows, h=1e-5, tol=1e-5
                )
                assert report.passed, f"n={n} beta={beta} k={k}: rel error {report.max_rel_error:.3e}"


def test_border_mass_gradient_equals_sort_matrix_gradient(monkeypatch):
    # the same weights on the first k rows of P give the same function
    tapeops.install(monkeypatch)
    rng = np.random.default_rng(13)
    for n in (2, 3, 5, 11, 31):
        for beta in (0.5, 4.0, 64.0):
            rows = _tied_batch(rng, n)
            weights = rng.uniform(-1.0, 1.0, (4, n))
            for k in _place_counts(n):
                on_p = np.zeros((4, n, n))
                on_p[:, :k, :] = weights[:, None, :]
                grads = []
                for op, w in ((lambda x: sc.border_mass(x, k, beta), weights),
                              (lambda x: sc.sort_matrix(x, beta), on_p)):
                    tape = dg.Tape()
                    x = tape.variable(rows)
                    grads.append(dg.backward(tape, tapeops.weighted_sum(op(x), w)).grad(x))
                # measured at most 1.2e-13 over these cases, where gradients reach 14
                assert np.max(np.abs(grads[0] - grads[1])) < 3e-13, (n, beta, k)


def test_diff_sort_doubly_stochastic_and_sum_conserving():
    rng = np.random.default_rng(6)
    betas = [0.5, 1.0, 2.0, 10.0]
    for trial in range(120):
        n = int(rng.integers(1, 33))
        vals = rng.uniform(-4, 4, n)
        beta = betas[trial % len(betas)]
        sorted_soft, perm = sc.diff_sort(vals, beta)
        p = perm.entries
        assert np.max(np.abs(p.sum(axis=0) - 1.0)) < 1e-9
        assert np.max(np.abs(p.sum(axis=1) - 1.0)) < 1e-9
        assert np.all((p >= -1e-15) & (p <= 1 + 1e-15))
        assert abs(sorted_soft.sum() - vals.sum()) < 1e-9 * n


def test_diff_sort_hard_limit_convergence_monotone():
    rng = np.random.default_rng(7)
    for _ in range(5):
        base = np.cumsum(rng.uniform(0.5, 1.5, 8))
        vals = rng.permutation(base)
        _, hard_perm = sc.hard_sort(vals)
        q = sc.permutation_matrix(hard_perm)
        dists = []
        for beta in (1.0, 10.0, 100.0, 1e4, 1e6):
            _, perm = sc.diff_sort(vals, beta)
            dists.append(np.max(np.abs(perm.entries - q)))
        assert all(b <= a + 1e-15 for a, b in zip(dists, dists[1:]))
        assert dists[-1] < 1e-2


def test_hard_sort_examples():
    ordered, perm = sc.hard_sort([6, 1, 4, 2])
    assert ordered.tolist() == [1.0, 2.0, 4.0, 6.0]
    assert (sc.permutation_matrix(perm) @ [6, 1, 4, 2]).tolist() == [1.0, 2.0, 4.0, 6.0]
    ordered, perm = sc.hard_sort([5.0])
    assert ordered.tolist() == [5.0] and perm.mapping.tolist() == [0]


def test_hard_sort_stability_on_ties():
    ordered, perm = sc.hard_sort([1.0, 1.0, 0.0])
    assert ordered.tolist() == [0.0, 1.0, 1.0]
    # equal keys keep original index order: input index 0 before input index 1
    assert perm.mapping.tolist() == [1, 2, 0]
    # -0.0 and 0.0 are equal keys too: neither moves past the other
    for vals in ([0.0, -0.0, -1.0], [-0.0, 0.0, -1.0]):
        ordered, perm = sc.hard_sort(vals)
        assert np.signbit(ordered).tolist() == [True] + np.signbit(vals[:2]).tolist()
        assert perm.mapping.tolist() == [1, 2, 0]


def test_hard_sort_random_against_numpy():
    rng = np.random.default_rng(8)
    for _ in range(50):
        vals = rng.integers(0, 5, size=int(rng.integers(1, 12))).astype(float)
        ordered, perm = sc.hard_sort(vals)
        assert ordered.tolist() == np.sort(vals, kind="stable").tolist()
        assert (sc.permutation_matrix(perm) @ vals).tolist() == ordered.tolist()
        # stability: among equal values the original order survives
        srt = sorted(range(vals.size), key=lambda i: (vals[i], i))
        expect_mapping = np.empty(vals.size, dtype=int)
        for pos, src in enumerate(srt):
            expect_mapping[src] = pos
        assert perm.mapping.tolist() == expect_mapping.tolist()


def test_permutation_matrix_convention():
    _, perm = sc.hard_sort([6, 1, 4, 2])
    q = sc.permutation_matrix(perm)
    assert q @ np.array([6.0, 1.0, 4.0, 2.0]) == pytest.approx([1.0, 2.0, 4.0, 6.0])


def test_diff_sort_rejects_bad_input():
    with pytest.raises(ValueError):
        sc.diff_sort([], 1.0)
    with pytest.raises(ValueError):
        sc.diff_sort([1.0, math.nan], 1.0)
    with pytest.raises(ValueError):
        sc.diff_sort([1.0, 2.0], -1.0)
    with pytest.raises(ValueError):
        sc.diff_sort(np.ones((2, 2)), 1.0)
    with pytest.raises(ValueError):
        sc.sort_matrix(np.ones((2, 2, 2)), 1.0)


def test_border_mass_never_writes_to_its_inputs():
    # a (1, n) batch is already contiguous when transposed to place-major,
    # so only a copy keeps the value chain off the caller's array
    rng = np.random.default_rng(14)
    for values in (rng.normal(size=7), rng.normal(size=(1, 7)), rng.normal(size=(5, 7))):
        kept = values.copy()
        mass = sc.border_mass(values, 3, 1.0)
        assert np.array_equal(values, kept) and not np.shares_memory(mass, values)
        assert sc.border_mass(values.tolist(), 3, 1.0).tolist() == mass.tolist()

        tape = dg.Tape()
        x = tape.variable(values)
        sc.border_mass(x, 3, 1.0)
        node = tape.nodes[-1]
        g = rng.normal(size=values.shape)
        g_kept = g.copy()
        (grad,) = dg.VJP_RULES["border_mass"](node, g)
        assert np.array_equal(g, g_kept) and np.array_equal(x.data, kept)
        assert grad.shape == values.shape and not np.shares_memory(grad, g)


def test_border_mass_rejects_bad_input():
    with pytest.raises(ValueError):
        sc.border_mass([], 0, 1.0)
    with pytest.raises(ValueError):
        sc.border_mass([1.0, math.inf], 1, 1.0)
    with pytest.raises(ValueError):
        sc.border_mass([1.0, 2.0], 1, 0.0)
    with pytest.raises(ValueError):
        sc.border_mass(np.ones((2, 2, 2)), 1, 1.0)
    for k in (-1, 3):
        with pytest.raises(ValueError):
            sc.border_mass([1.0, 2.0], k, 1.0)

"""Hard and relaxed odd-even sorting networks over lists of real values.

An odd-even network sorts n values in exactly n fixed compare-and-swap
steps: odd steps compare the adjacent pairs starting at index 0, even steps
the pairs starting at index 1 (0-based). Relaxing each conditional swap with
an arctan sigmoid turns the network into a chain of doubly stochastic swap
matrices whose product is a differentiable permutation matrix.

Two kernels run the relaxed network over one value list or a batch of rows
at once:

- `border_mass` returns only each input's mass in the first k sorted places,
  s^T P for the indicator s of those places. It runs the network on the
  values alone and pushes s back through the steps, in O(n^2) per row. The
  group-ordering loss uses it. It works on (n, A) copies of the rows, one
  row of A values per place.
- `sort_matrix` returns the full permutation matrix P, in O(n^3) per row.
  `diff_sort`, sorting supervision and `groco sort` use it, and it is the
  reference `border_mass` is tested against. Its state holds the rows of
  [P | values] and moves each compared row pair in place by the pair's
  swap probability.

Both keep their places in one layout, parity-major: the even places first
and then the odd ones, so each step compares two contiguous blocks of
places (`_parity_blocks`). They put the places back in order once, when
the result is returned.

Each accepts either a plain array (returning concrete results and keeping
nothing of the steps) or a `diffgrad.Tensor`, on whose tape the whole
network is one op with a hand-written gradient. Swap probabilities at each
step are computed from the running, partially-sorted values, i.e. the
relaxation follows the sequential network rather than re-reading the
original input; this is an interpretation choice and is pinned by the
oracle tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import diffgrad as dg
from .diffgrad import Tensor

__all__ = [
    "RelaxedPermutation",
    "HardPermutation",
    "sigmoid_f",
    "soft_swap",
    "sort_matrix",
    "border_mass",
    "diff_sort",
    "hard_sort",
    "permutation_matrix",
]

_INV_PI = 1.0 / math.pi


def _check_beta(beta: float) -> float:
    beta = float(beta)
    if not math.isfinite(beta) or beta <= 0.0:
        raise ValueError(f"beta must be a finite positive real, got {beta}")
    return beta


def _check_values(values, max_ndim: int = 1) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if not (1 <= arr.ndim <= max_ndim) or arr.size < 1:
        kind = "1-D value list" if max_ndim == 1 else "value list or (A, n) batch of them"
        raise ValueError(f"expected a non-empty {kind}, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError("values must be finite")
    return arr


@dataclass(frozen=True)
class RelaxedPermutation:
    """Doubly stochastic matrix; rows are output positions, columns inputs."""

    entries: np.ndarray

    def __post_init__(self):
        e = self.entries
        if e.ndim != 2 or e.shape[0] != e.shape[1]:
            raise ValueError(f"entries must be square, got shape {e.shape}")


@dataclass(frozen=True)
class HardPermutation:
    """Output position for each input index (0-based bijection)."""

    mapping: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.mapping)
        if m.ndim != 1 or sorted(m.tolist()) != list(range(m.size)):
            raise ValueError("mapping must be a bijection on 0..n-1")

    @property
    def n(self) -> int:
        return self.mapping.size


def permutation_matrix(perm: HardPermutation) -> np.ndarray:
    """0/1 matrix of a hard permutation, same row/column convention as
    `RelaxedPermutation`."""
    n = perm.n
    q = np.zeros((n, n), dtype=np.float64)
    q[perm.mapping, np.arange(n)] = 1.0
    return q


def sigmoid_f(x: float, beta: float) -> float:
    """Swap sigmoid arctan(beta*x)/pi + 0.5, strictly increasing, with
    f(x) + f(-x) = 1."""
    beta = _check_beta(beta)
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"x must be finite, got {x}")
    return math.atan(beta * x) * _INV_PI + 0.5


def soft_swap(d_i: float, d_j: float, beta: float) -> tuple[float, float]:
    """Relaxed conditional swap: returns (softmin, softmax) of the pair.

    The outputs are convex combinations, so their sum equals d_i + d_j up to
    rounding, and equal inputs are a fixed point.
    """
    f_ji = sigmoid_f(float(d_j) - float(d_i), beta)
    f_ij = sigmoid_f(float(d_i) - float(d_j), beta)
    lo = d_i * f_ji + d_j * f_ij
    hi = d_i * f_ij + d_j * f_ji
    return lo, hi


def _parity_rows(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Copy the place rows (axis 1) of `x` into `out` in parity-major order:
    the even places 0, 2, 4, ... first, then the odd places 1, 3, 5, ..."""
    evens = (x.shape[1] + 1) // 2
    out[:, :evens] = x[:, 0::2]
    out[:, evens:] = x[:, 1::2]
    return out


def _place_rows(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Undo `_parity_rows`: copy the parity-major rows (axis 1) of `x` into
    `out` in place order."""
    evens = (x.shape[1] + 1) // 2
    out[:, 0::2] = x[:, :evens]
    out[:, 1::2] = x[:, evens:]
    return out


def _parity_blocks(n: int) -> list[tuple[slice, slice]]:
    """(top, bottom) row blocks of the odd step and of the even step of an
    n-input network in parity-major order; each step compares top[j] with
    bottom[j]. The odd step pairs places (2j, 2j + 1), even[j] with odd[j];
    the even step pairs (2j + 1, 2j + 2), odd[j] with even[j + 1]. A step
    with no pair has empty blocks."""
    evens = (n + 1) // 2
    odd_pairs, even_pairs = n // 2, (n - 1) // 2
    return [
        (slice(0, odd_pairs), slice(evens, evens + odd_pairs)),
        (slice(evens, evens + even_pairs), slice(1, 1 + even_pairs)),
    ]


def _network(values: np.ndarray, beta: float, keep: bool):
    """Run the relaxed network over every row of `values` (A, n) at once.

    The state is M = [P | v] of shape (A, n, n + 1): the permutation so far
    and the running values, with its place rows in parity-major order (see
    `_parity_rows`), so both kinds of step compare two contiguous row
    blocks and nothing is reordered between steps. A step moves each
    compared row pair (i, j) in place by its swap probability
    swap = f(v_i - v_j): row_i -= swap * (row_i - row_j) and
    row_j += swap * (row_i - row_j). Returns P after all n steps, its rows
    back in place order, and, if `keep`, per step with at least one pair,
    (step parity, swap, row_i - row_j, slope) for the gradient, where
    slope = d swap / d(v_i - v_j); otherwise nothing is kept and the second
    result is None.
    """
    rows, n = values.shape
    evens = (n + 1) // 2
    m = np.zeros((rows, n, n + 1), dtype=np.float64)
    # P starts as the identity: row r < evens holds place 2r and row evens + j
    # place 2j + 1, so within each block a row's 1 sits n + 3 entries after
    # the previous row's
    flat = m.reshape(rows, -1)
    flat[:, : evens * (n + 1) : n + 3] = 1.0
    flat[:, evens * (n + 1) + 1 :: n + 3] = 1.0
    _parity_rows(values, m[:, :, n])
    blocks = [(top.stop - top.start, m[:, top], m[:, bottom]) for top, bottom in _parity_blocks(n)]
    saved = [] if keep else None
    # one slot per comparator for beta * (v_i - v_j), turned into the slopes
    # after the last step
    slopes = np.empty((rows, n * (n - 1) // 2)) if keep else None
    used = 0
    for step in range(n):
        pairs, top, bottom = blocks[step % 2]
        if pairs == 0:
            continue
        diff = top - bottom
        if keep:
            beta_gap = np.multiply(beta, diff[..., n], out=slopes[:, used : used + pairs])
            used += pairs
        else:
            beta_gap = beta * diff[..., n]
        swap = np.arctan(beta_gap)
        swap *= _INV_PI
        swap += 0.5
        swap = swap[..., None]
        if keep:
            shift = swap * diff
            saved.append((step % 2, swap, diff, beta_gap))
        else:
            shift = np.multiply(swap, diff, out=diff)
        top -= shift
        bottom += shift
    if keep:
        # d swap / d(v_i - v_j) = (beta / pi) / (1 + (beta * (v_i - v_j))^2),
        # written over the stored beta * gaps that each step holds a view of
        np.square(slopes, out=slopes)
        slopes += 1.0
        np.divide(beta * _INV_PI, slopes, out=slopes)
    return _place_rows(m[:, :, :n], np.empty((rows, n, n))), saved


def _vjp_sort_matrix(node, g):
    """Reverse pass through the stored steps: each step is linear in M given
    its swap probabilities, with the same in-place form as the forward, and
    each swap depends on its pair's values. The gradient state has the
    forward's parity-major row order, undone once on the value gradient."""
    x = node.inputs[0]
    n = x.shape[-1]
    rows = x.size // n
    gm = np.zeros((rows, n, n + 1), dtype=np.float64)
    _parity_rows(g.reshape(rows, n, n), gm[:, :, :n])
    blocks = [(gm[:, top], gm[:, bottom]) for top, bottom in _parity_blocks(n)]
    for parity, swap, diff, slope in reversed(node.attrs["saved"]):
        g_top, g_bottom = blocks[parity]
        g_diff = g_top - g_bottom
        g_stay = np.vecdot(g_diff, diff)
        shift = np.multiply(swap, g_diff, out=g_diff)
        # g_stay = -dL/dswap reaches the values through the slope:
        # negative at v_i, positive at v_j
        g_stay *= slope
        shift[..., n] += g_stay
        g_top -= shift
        g_bottom += shift
    return (_place_rows(gm[:, :, n], np.empty((rows, n))).reshape(x.shape),)


dg.VJP_RULES["sort_matrix"] = _vjp_sort_matrix


def sort_matrix(values, beta: float):
    """Relaxed permutation matrix of the full network, for one value list
    (n,) or for each row of an (A, n) batch: returns (n, n) or (A, n, n).

    Each step's swap probabilities come from the running soft values, and
    later steps multiply on the left. A plain input gives a plain array and
    keeps nothing of the steps; a `diffgrad.Tensor` input is recorded as one
    op whose gradient runs the stored steps backwards.
    """
    beta = _check_beta(beta)
    taped = isinstance(values, Tensor)
    arr = _check_values(values.data if taped else values, max_ndim=2)
    n = arr.shape[-1]
    p, saved = _network(arr.reshape(-1, n), beta, keep=taped)
    p = p.reshape(arr.shape + (n,))
    if taped:
        return values.tape._append("sort_matrix", (values,), p, saved=saved)
    return p


def _parity_major(rows: np.ndarray) -> np.ndarray:
    """A (n, A) copy of the (A, n) `rows`, one row per place, the places in
    parity-major order (see `_parity_rows`)."""
    out = np.empty(rows.shape[::-1], dtype=np.float64)
    _parity_rows(rows, out.T)
    return out


def _value_chain(rows: np.ndarray, beta: float):
    """Run the relaxed network on the running values of every row of `rows`
    (A, n) alone, on a parity-major (n, A) copy (see `_parity_major`).
    Returns, per step with at least one pair, (top block, bottom block,
    stay, v_i - v_j) with the values entering the step; these are the same
    stays `_network` computes. The caller's array is not written to."""
    v = _parity_major(rows)
    blocks = _parity_blocks(v.shape[0])
    steps = []
    for step in range(v.shape[0]):
        top, bottom = blocks[step % 2]
        if top.start == top.stop:
            continue
        gap = v[top] - v[bottom]
        stay = np.arctan(-beta * gap) * _INV_PI + 0.5
        steps.append((top, bottom, stay, _swap_step(v, top, bottom, stay, gap)))
    return steps


def _swap_step(x: np.ndarray, top: slice, bottom: slice, stay: np.ndarray, gap=None) -> np.ndarray:
    """Apply one step's symmetric swap block to the parity-major place rows
    of `x` (n, A) in place, each row of the `top` block paired with the same
    row of the `bottom` block: x_i, x_j <- stay * x_i + (1 - stay) * x_j and
    its mirror image. Returns `gap`, x_i - x_j from before the step, which
    is computed here unless the caller has it."""
    x_i, x_j = x[top], x[bottom]
    if gap is None:
        gap = x_i - x_j
    shift = stay * gap
    new_top = x_j + shift
    np.subtract(x_i, shift, out=x_j)
    x[top] = new_top
    return gap


def _vjp_border_mass(node, g):
    """The mass is S_1 ... S_T s for the step matrices S_t, each symmetric
    and linear given its stays. The adjoint u of the place chain runs the
    steps forwards and gives each stay (u_i - u_j)(w_i - w_j); the adjoint
    of the value chain then runs them backwards, adds its own stay term, and
    turns each stay gradient into one on its pair's values. Both adjoints
    are parity-major, like the chains."""
    x = node.inputs[0]
    beta = node.attrs["beta"]
    steps, w_gaps = node.attrs["steps"], node.attrs["w_gaps"]
    n = x.shape[-1]
    u = _parity_major(np.reshape(g, (-1, n)))
    g_stays = [_swap_step(u, top, bottom, stay) * w_gap for (top, bottom, stay, _), w_gap in zip(steps, w_gaps)]
    a = np.zeros_like(u)
    for (top, bottom, stay, gap), g_stay in zip(reversed(steps), reversed(g_stays)):
        g_stay += _swap_step(a, top, bottom, stay) * gap
        # d stay / d(v_j - v_i), with v_j - v_i = -gap
        g_gap = g_stay * (beta * _INV_PI) / (1.0 + np.square(beta * gap))
        a[bottom] += g_gap
        a[top] -= g_gap
    return (_place_rows(a.T, np.empty((u.shape[1], n))).reshape(x.shape),)


dg.VJP_RULES["border_mass"] = _vjp_border_mass


def border_mass(values, num_positives: int, beta: float):
    """Each input's relaxed mass in the first `num_positives` sorted places,
    for one value list (n,) or for each row of an (A, n) batch: the column
    sums of `sort_matrix` over its first `num_positives` rows, same shape as
    the input.

    The network runs on the values alone and stores its stays; the place
    indicator then goes back through the steps as one vector per row, so no
    n x n state is built. A `diffgrad.Tensor` input is recorded as one op.
    """
    beta = _check_beta(beta)
    arr = _check_values(values.data if isinstance(values, Tensor) else values, max_ndim=2)
    n = arr.shape[-1]
    k = int(num_positives)
    if not (0 <= k <= n):
        raise ValueError(f"need 0 <= num_positives <= {n}, got {k}")
    rows = arr.reshape(-1, n)
    steps = _value_chain(rows, beta)
    # the indicator of the first k places: places 0, 2, ... < k lead the
    # even block and places 1, 3, ... < k the odd one
    w = np.zeros(rows.shape[::-1], dtype=np.float64)
    w[: (k + 1) // 2] = 1.0
    w[(n + 1) // 2 : (n + 1) // 2 + k // 2] = 1.0
    # P = S_T ... S_1 with symmetric S_t, so s^T P = S_1 ... S_T s
    w_gaps = [_swap_step(w, top, bottom, stay) for top, bottom, stay, _ in reversed(steps)][::-1]
    mass = _place_rows(w.T, np.empty(rows.shape)).reshape(arr.shape)
    if isinstance(values, Tensor):
        return values.tape._append("border_mass", (values,), mass, beta=beta, steps=steps, w_gaps=w_gaps)
    return mass


def diff_sort(values, beta: float):
    """Run the full relaxed network on one value list.

    Returns `(sorted_soft, P)` with P from `sort_matrix` and
    `sorted_soft = P @ values`. With a plain array input P comes wrapped as
    a `RelaxedPermutation`; with a `diffgrad.Tensor` input both results are
    tensors on the input's tape.
    """
    if isinstance(values, Tensor):
        if values.ndim != 1:
            raise ValueError(f"expected a non-empty 1-D value list, got shape {values.shape}")
        p = sort_matrix(values, beta)
        return dg.matmul(p, values), p
    # a plain list is checked once here; `sort_matrix` would check it again
    arr = _check_values(values)
    p = _network(arr[None], _check_beta(beta), keep=False)[0][0]
    return p @ arr, RelaxedPermutation(p)


def hard_sort(values) -> tuple[np.ndarray, HardPermutation]:
    """Discrete odd-even network: non-descending output, stable on ties
    (earlier input index wins). A network that swaps only on a strict `>`
    is a stable sort, so the result is that of a stable argsort."""
    arr = _check_values(values)
    order = np.argsort(arr, kind="stable")
    mapping = np.empty(arr.size, dtype=np.intp)
    mapping[order] = np.arange(arr.size)
    return arr[order], HardPermutation(mapping)

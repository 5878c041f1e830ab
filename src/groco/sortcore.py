"""Hard and relaxed odd-even sorting networks over lists of real values.

An odd-even network sorts n values in exactly n fixed compare-and-swap
steps: odd steps compare the adjacent pairs starting at index 0, even steps
the pairs starting at index 1 (0-based). Relaxing each conditional swap with
an arctan sigmoid turns the network into a chain of doubly stochastic swap
matrices whose product is a differentiable permutation matrix.

Two kernels run the relaxed network over one value list or a batch of A
rows at once. Both keep one layout, a state with the places on axis 0 and
the rows on axis 1, the places parity-major: the even places first, then
the odd ones, so each step compares two contiguous blocks of places. The
network itself is data, a list of layers that every loop walks: the (top,
bottom) block pair of each step that has a comparator (`_layers`).

- `sort_matrix` returns the full permutation matrix P, in O(n^3) per row.
  `diff_sort`, sorting supervision and `groco sort` use it, and it is the
  reference `border_mass` is tested against. Its state (n, A, n + 1) holds
  the rows of [P | values]; `_forward` moves each compared pair in place by
  its swap probability.
- `border_mass` returns only each input's mass in the first k sorted places,
  s^T P for the indicator s of those places, in O(n^2) per row. The
  group-ordering loss uses it. Its state (n, A, 1) holds only the values,
  which run through the same `_forward`; `_chain` then pushes s back
  through the stored swaps, and its gradient pushes the adjoint of s^T P
  forwards through them the same way.

Both gradients run one adjoint loop (`_adjoint`) over the stored steps.

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
        if m.ndim != 1 or m.dtype.kind not in "iu" or sorted(m.tolist()) != list(range(m.size)):
            raise ValueError("mapping must be a bijection of integers on 0..n-1")
        object.__setattr__(self, "mapping", m.astype(np.intp))

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


def _parity_places(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Copy `x` (A, n, ...) into `out` (n, A, ...), moving the places from
    axis 1 to axis 0 in parity-major order: the even places 0, 2, 4, ...
    first, then the odd places 1, 3, 5, ..."""
    evens = (x.shape[1] + 1) // 2
    by_row = out.swapaxes(0, 1)
    by_row[:, :evens] = x[:, 0::2]
    by_row[:, evens:] = x[:, 1::2]
    return out


def _ordered_places(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Undo `_parity_places`: copy the parity-major places (axis 0) of `x`
    into `out` (A, n, ...), in place order on axis 1."""
    evens = (x.shape[0] + 1) // 2
    out[:, 0::2] = x[:evens].swapaxes(0, 1)
    out[:, 1::2] = x[evens:].swapaxes(0, 1)
    return out


def _layers(x: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """The network over the parity-major places (axis 0) of `x`, as data:
    one layer per step that has a comparator, in step order, each the
    (top, bottom) views of the place blocks it compares, top[j] with
    bottom[j]. Steps 1, 3, ... pair places (2j, 2j + 1), even[j] with
    odd[j]; steps 2, 4, ... pair (2j + 1, 2j + 2), odd[j] with even[j + 1]."""
    n = x.shape[0]
    evens, odd_pairs, even_pairs = (n + 1) // 2, n // 2, (n - 1) // 2
    blocks = (x[:odd_pairs], x[evens : evens + odd_pairs]), (x[evens : evens + even_pairs], x[1 : 1 + even_pairs])
    return [blocks[step % 2] for step in range(n) if len(blocks[step % 2][0])]


def _forward(x: np.ndarray, beta: float, keep: bool):
    """Run the relaxed network in place on the state `x` (n, A, c): its
    places parity-major on axis 0 (see `_parity_places`), the running
    values in its last column. A step moves each compared place pair (i, j)
    by its swap probability swap = f(v_i - v_j): x_i -= swap * (x_i - x_j)
    and x_j += swap * (x_i - x_j). If `keep`, returns per layer (swap,
    x_i - x_j, slope) for the gradient, where slope = d swap / d(v_i - v_j);
    otherwise keeps nothing and returns None."""
    n, rows = x.shape[:2]
    saved = [] if keep else None
    # one slot per comparator for beta * (v_i - v_j), turned into the slopes
    # after the last step
    slopes = np.empty((n * (n - 1) // 2, rows)) if keep else None
    used = 0
    for top, bottom in _layers(x):
        diff = top - bottom
        if keep:
            beta_gap = np.multiply(beta, diff[..., -1], out=slopes[used : used + len(diff)])
            used += len(diff)
        else:
            beta_gap = beta * diff[..., -1]
        swap = np.arctan(beta_gap)
        swap *= _INV_PI
        swap += 0.5
        swap = swap[..., None]
        if keep:
            shift = swap * diff
            saved.append((swap, diff, beta_gap))
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
    return saved


def _chain(layers, saved) -> list[np.ndarray]:
    """Apply the swaps of the steps `saved` by `_forward` at each of
    `layers`, in place and in the order given, in `_forward`'s step form:
    x_i -= swap * (x_i - x_j) and x_j += swap * (x_i - x_j). Returns each
    step's gap x_i - x_j from before it."""
    gaps = []
    for (top, bottom), (swap, _, _) in zip(layers, saved):
        gap = top - bottom
        shift = swap * gap
        top -= shift
        bottom += shift
        gaps.append(gap)
    return gaps


def _adjoint(g: np.ndarray, saved, stay_grads=None) -> None:
    """Run the steps of `saved` backwards in place on the gradient state
    `g`, laid out as the forward's state. Each step is linear in the state
    given its swaps, with the same in-place form as the forward, and each
    swap depends on its pair's values. `stay_grads`, if given, holds per
    layer a gradient on each stay 1 - swap from outside the state, added to
    the state's own before it goes through the slope."""
    layers = _layers(g)
    for step in reversed(range(len(saved))):
        top, bottom = layers[step]
        swap, diff, slope = saved[step]
        g_diff = top - bottom
        # one column's dot product is the plain product, without `vecdot`'s
        # per-row call
        g_stay = np.vecdot(g_diff, diff) if diff.shape[-1] > 1 else g_diff[..., 0] * diff[..., 0]
        if stay_grads is not None:
            g_stay += stay_grads[step]
        shift = np.multiply(swap, g_diff, out=g_diff)
        # g_stay = -dL/dswap reaches the values through the slope:
        # negative at v_i, positive at v_j
        g_stay *= slope
        shift[..., -1] += g_stay
        top -= shift
        bottom += shift


def _network(values: np.ndarray, beta: float, keep: bool):
    """Run the relaxed network on M = [P | v] (n, A, n + 1) for every row of
    `values` (A, n), P starting as the identity. Returns P (A, n, n), its
    rows in place order, and what `_forward` keeps."""
    rows, n = values.shape
    evens = (n + 1) // 2
    m = np.zeros((n, rows, n + 1), dtype=np.float64)
    # the identity: place row r < evens holds place 2r and row evens + j
    # place 2j + 1, so within each block a row's 1s sit one place row and
    # two columns after the previous row's
    place, row, col = m.strides
    diagonal = (place + 2 * col, row)
    np.ndarray((evens, rows), np.float64, m, 0, diagonal)[...] = 1.0
    if n > 1:
        np.ndarray((n // 2, rows), np.float64, m, evens * place + col, diagonal)[...] = 1.0
    _parity_places(values, m[..., n])
    saved = _forward(m, beta, keep)
    return _ordered_places(m[..., :n], np.empty((rows, n, n))), saved


def _vjp_sort_matrix(node, g):
    """The adjoint of `_forward` on the gradient of M, which starts as the
    gradient of P in the forward's parity-major place order; the values'
    gradient is read off its last column."""
    x = node.inputs[0]
    n = x.shape[-1]
    rows = x.size // n
    gm = np.zeros((n, rows, n + 1), dtype=np.float64)
    _parity_places(g.reshape(rows, n, n), gm[..., :n])
    _adjoint(gm, node.attrs["saved"])
    return (_ordered_places(gm[..., n], np.empty((rows, n))).reshape(x.shape),)


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


def _vjp_border_mass(node, g):
    """The mass is s^T P = S_1 ... S_T s for the step matrices S_t, each
    symmetric and linear given its swaps. The adjoint u of that chain runs
    the steps forwards, so each stay 1 - swap gets (u_i - u_j)(w_i - w_j)
    from the mass, with the gaps of w that the forward stored. `_adjoint`
    then runs the value chain backwards from a zero state and adds that
    term to each stay's gradient."""
    x = node.inputs[0]
    n = x.shape[-1]
    saved = node.attrs["saved"]
    u = np.empty((n, x.size // n, 1))
    _parity_places(np.reshape(g, (-1, n)), u[..., 0])
    stay_grads = [(u_gap * w_gap)[..., 0] for u_gap, w_gap in zip(_chain(_layers(u), saved), node.attrs["w_gaps"])]
    a = np.zeros_like(u)
    _adjoint(a, saved, stay_grads)
    return (_ordered_places(a[..., 0], np.empty((u.shape[1], n))).reshape(x.shape),)


dg.VJP_RULES["border_mass"] = _vjp_border_mass


def border_mass(values, num_positives: int, beta: float):
    """Each input's relaxed mass in the first `num_positives` sorted places,
    for one value list (n,) or for each row of an (A, n) batch: the column
    sums of `sort_matrix` over its first `num_positives` rows, same shape as
    the input.

    The network runs on the values alone and stores its swaps; the place
    indicator then goes back through the steps as one vector per row, so no
    n x n state is built. A `diffgrad.Tensor` input is recorded as one op.
    """
    beta = _check_beta(beta)
    arr = _check_values(values.data if isinstance(values, Tensor) else values, max_ndim=2)
    n = arr.shape[-1]
    k = dg.check_count(num_positives, "num_positives")
    if not (0 <= k <= n):
        raise ValueError(f"need 0 <= num_positives <= {n}, got {k}")
    rows = arr.reshape(-1, n)
    v = np.empty((n, rows.shape[0], 1))
    _parity_places(rows, v[..., 0])
    saved = _forward(v, beta, keep=True)
    # the indicator of the first k places: places 0, 2, ... < k lead the
    # even block and places 1, 3, ... < k the odd one
    w = np.zeros_like(v)
    w[: (k + 1) // 2] = 1.0
    w[(n + 1) // 2 : (n + 1) // 2 + k // 2] = 1.0
    # P = S_T ... S_1 with symmetric S_t, so s^T P = S_1 ... S_T s
    w_gaps = _chain(_layers(w)[::-1], saved[::-1])[::-1]
    mass = _ordered_places(w[..., 0], np.empty(rows.shape)).reshape(arr.shape)
    if isinstance(values, Tensor):
        return values.tape._append("border_mass", (values,), mass, saved=saved, w_gaps=w_gaps)
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

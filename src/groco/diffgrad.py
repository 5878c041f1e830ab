"""Reverse-mode differentiation on a flat tape of numpy-backed tensors.

The op set is deliberately small: a small MLP's layers, one `affine` op
each, or one `affine_pair` op for two layers with no ReLU between them;
`matmul`, which applies a relaxed permutation to its values; and `scale`,
`concat` and `index_select`, which negate, join and reorder distance lists.
Every op function here dispatches on its arguments: given plain numpy
arrays (or floats) it computes the forward value directly, given a `Tensor`
it records a node on the owning `Tape`. Algorithm code elsewhere in the
package is therefore written once and runs in both "plain" and "recorded"
mode. `Tensor` has no arithmetic operators: every recorded op is a call.

Gradients come from `backward(tape, loss)`, which replays the tape in
reverse, applying one vector-Jacobian product rule per node. The rules live
in the module-level `VJP_RULES` table so tests can install a corrupted rule
as a negative control. An op whose forward lives in another module of the
package (the relaxed sorting network in `sortcore`, the cosine distances
of the selected groups in `batchpipe`, the clamped binary cross-entropy and
the InfoNCE and triplet losses in `losses`) records itself with
`Tape._append` and adds its rule to this table beside its forward.

Two helpers the other modules share sit here too: `check_count`, which
rejects a count that is not a whole number at a public boundary, and
`row_blocks`, the row spans that the batch pipeline and the model's
forward walk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "NumericError",
    "Tensor",
    "Tape",
    "GradientMap",
    "GradCheckReport",
    "VJP_RULES",
    "backward",
    "grad_check",
    "matmul",
    "affine",
    "affine_pair",
    "scale",
    "concat",
    "index_select",
    "check_count",
    "row_blocks",
]


class NumericError(ArithmeticError):
    """Raised when an operation hits an invalid numeric domain (zero-norm
    vector, non-finite evaluation)."""


def _as_array(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64)


def check_count(value, name: str) -> int:
    """`value` as an int. A value that is not a whole number (2.5, NaN, a
    string) raises `ValueError` naming `name`, where `int()` would truncate
    it or numpy would fail with a `TypeError`; 2.0 passes as 2."""
    try:
        count = int(value)
    except (TypeError, ValueError, OverflowError):
        count = None
    if count is None or count != value:
        raise ValueError(f"{name} must be a whole number, got {value!r}")
    return count


def row_blocks(count: int, block: int) -> list[slice]:
    """Spans that cover rows 0..count-1 in ceil(count / block) consecutive
    blocks whose sizes differ by at most one row. So no block of a
    multi-row input has one row: numpy runs a one-row matmul as a
    matrix-vector product, which rounds differently. With OpenBLAS such
    blocks give each row the bits of one full-height matmul, except in the
    last (columns mod 8) columns of a product whose column count is not a
    multiple of 8, which its kernel rounds according to the row count."""
    parts = max(1, -(-count // block))
    edges = [i * count // parts for i in range(parts + 1)]
    return [slice(lo, hi) for lo, hi in zip(edges[:-1], edges[1:])]


class Tensor:
    """Immutable float64 value bound to a tape.

    `data` is row-major and write-protected after construction; reuse across
    threads is safe. Ops record onto the owning tape through the op
    functions; there are no arithmetic operators, so `Tensor * 2.0` and
    `ndarray + Tensor` raise `TypeError`.
    """

    __slots__ = ("data", "tape", "tid")

    # Keep numpy from wrapping a Tensor into an object array in
    # `ndarray <op> Tensor`: the expression fails at once with TypeError.
    __array_ufunc__ = None

    def __init__(self, data: np.ndarray, tape: "Tape", tid: int):
        self.data = data
        self.tape = tape
        self.tid = tid

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Tensor(tid={self.tid}, shape={self.shape})"


class _Node:
    __slots__ = ("op_kind", "inputs", "output", "attrs")

    def __init__(self, op_kind, inputs, output, attrs):
        self.op_kind = op_kind
        self.inputs = inputs
        self.output = output
        self.attrs = attrs


class Tape:
    """Append-only record of operations, consumed by a single backward pass.

    A tape is single-writer: record on it from one thread only. Independent
    tapes are fully isolated and may run concurrently.
    """

    def __init__(self):
        self.nodes: list[_Node] = []
        self._next_tid = 0
        self._backward_done = False

    def _new_tensor(self, data: np.ndarray) -> Tensor:
        arr = _as_array(data)
        arr.setflags(write=False)
        t = Tensor(arr, self, self._next_tid)
        self._next_tid += 1
        return t

    def variable(self, data) -> Tensor:
        """Create a tracked leaf; gradients accumulate against it."""
        return self._new_tensor(np.array(data, dtype=np.float64))

    def constant(self, data) -> Tensor:
        """Create an untracked leaf. Gradients flowing into it are discarded
        by callers; it exists so constants can participate in recorded ops."""
        return self._new_tensor(np.array(data, dtype=np.float64))

    def _append(self, op_kind: str, inputs: tuple[Tensor, ...], out_data: np.ndarray, **attrs) -> Tensor:
        out = self._new_tensor(out_data)
        self.nodes.append(_Node(op_kind, inputs, out, attrs))
        return out


def _lift(tape: Tape, x) -> Tensor:
    if isinstance(x, Tensor):
        if x.tape is not tape:
            raise ValueError("operands belong to different tapes")
        return x
    return tape.constant(x)


def _find_tape(*args) -> Tape | None:
    for a in args:
        if isinstance(a, Tensor):
            return a.tape
    return None


# ---------------------------------------------------------------------------
# op forwards


def _matmul_forward(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if a.ndim not in (1, 2) or b.ndim not in (1, 2):
        raise ValueError(f"matmul supports 1-D/2-D operands, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[0]:
        raise ValueError(f"matmul shape mismatch: {a.shape} @ {b.shape}")
    return a @ b


def matmul(a, b):
    if not isinstance(a, Tensor) and not isinstance(b, Tensor):
        return _matmul_forward(_as_array(a), _as_array(b))
    tape = _find_tape(a, b)
    a, b = _lift(tape, a), _lift(tape, b)
    return tape._append("matmul", (a, b), _matmul_forward(a.data, b.data))


def affine(x, w, b, relu: bool):
    """One MLP layer: `x @ w + b` for (rows, fan_in) `x`, (fan_in, fan_out)
    `w` and (fan_out,) `b`, then ReLU if `relu`. The values are those of the
    matmul, add and clamp(lo=0) chain. Recorded as one op with `w` and `b`
    as inputs, and `x` too when it is a tensor; a plain `x` gets no
    gradient."""
    tape = _find_tape(x, w, b)
    xd, wd, bd = (t.data if isinstance(t, Tensor) else _as_array(t) for t in (x, w, b))
    if xd.ndim != 2 or wd.ndim != 2 or bd.shape != wd.shape[1:]:
        raise ValueError(f"affine expects (rows, fan_in) @ (fan_in, fan_out) + (fan_out,), got "
                         f"{xd.shape} @ {wd.shape} + {bd.shape}")
    out = _matmul_forward(xd, wd)
    out += bd
    if relu:
        np.clip(out, 0.0, None, out=out)
    if tape is None:
        return out
    inputs = tuple(_lift(tape, t) for t in ((x, w, b) if isinstance(x, Tensor) else (w, b)))
    return tape._append("affine", inputs, out, x=xd, relu=bool(relu))


def affine_pair(x, w1, b1, w2, b2, relu: bool):
    """Two stacked layers with no ReLU between them, as one affine map:
    `x @ (w1 @ w2) + (b1 @ w2 + b2)` for (rows, fan_in) `x`, (fan_in, mid)
    `w1`, (mid,) `b1`, (mid, fan_out) `w2` and (fan_out,) `b2`, then ReLU if
    `relu`. The (rows, mid) middle layer is never formed, so with more rows
    than `fan_out` this costs fewer multiply-adds than two `affine` ops, and
    its values are theirs up to rounding. Recorded as one op with the four
    parameters as inputs, and `x` too when it is a tensor; a plain `x` gets
    no gradient."""
    tape = _find_tape(x, w1, b1, w2, b2)
    xd, w1d, b1d, w2d, b2d = (t.data if isinstance(t, Tensor) else _as_array(t) for t in (x, w1, b1, w2, b2))
    if (xd.ndim != 2 or w1d.ndim != 2 or w2d.ndim != 2 or xd.shape[1] != w1d.shape[0]
            or b1d.shape != w1d.shape[1:] or w2d.shape[0] != w1d.shape[1] or b2d.shape != w2d.shape[1:]):
        raise ValueError(f"affine_pair expects (rows, fan_in) @ (fan_in, mid) + (mid,), then @ (mid, fan_out) + "
                         f"(fan_out,), got {xd.shape} @ {w1d.shape} + {b1d.shape}, then @ {w2d.shape} + {b2d.shape}")
    w = w1d @ w2d
    out = xd @ w
    out += b1d @ w2d + b2d
    if relu:
        np.clip(out, 0.0, None, out=out)
    if tape is None:
        return out
    params = (w1, b1, w2, b2)
    inputs = tuple(_lift(tape, t) for t in ((x, *params) if isinstance(x, Tensor) else params))
    return tape._append("affine_pair", inputs, out, x=xd, w=w, relu=bool(relu))


def scale(x, factor):
    factor = float(factor)
    if not isinstance(x, Tensor):
        return _as_array(x) * factor
    return x.tape._append("scale", (x,), x.data * factor, factor=factor)


def concat(parts):
    """Join parts along their last axis; a 1-D part is one row, and 2-D
    parts must have the same number of rows."""
    parts = list(parts)
    if not parts:
        raise ValueError("concat of zero parts")
    tape = _find_tape(*parts)
    if tape is None:
        return np.concatenate([np.atleast_1d(_as_array(p)) for p in parts], axis=-1)
    parts = [_lift(tape, p) for p in parts]
    out = np.concatenate([np.atleast_1d(p.data) for p in parts], axis=-1)
    return tape._append("concat", tuple(parts), out)


def index_select(x, indices):
    """Gather by flat index; the output takes the shape of `indices`.

    Covers row selection, reordering, transposition and tiling. Gradients
    scatter-add back through the index map.
    """
    indices = np.asarray(indices, dtype=np.intp)
    if not isinstance(x, Tensor):
        x = _as_array(x)
        if indices.size and (indices.min() < 0 or indices.max() >= x.size):
            raise ValueError("index_select index out of range")
        return np.take(x.ravel(), indices)
    if indices.size and (indices.min() < 0 or indices.max() >= x.size):
        raise ValueError("index_select index out of range")
    out = np.take(x.data.ravel(), indices)
    return x.tape._append("index_select", (x,), out, indices=indices)


# ---------------------------------------------------------------------------
# vector-Jacobian product rules


def _vjp_matmul(node, g):
    a, b = node.inputs
    ad, bd = a.data, b.data
    if ad.ndim == 2 and bd.ndim == 2:
        return (g @ bd.T, ad.T @ g)
    if ad.ndim == 2 and bd.ndim == 1:
        return (np.outer(g, bd), ad.T @ g)
    # 1-D @ 2-D
    return (bd @ g, np.outer(ad, g))


def _vjp_affine(node, g):
    """The chain's rules in its order: clamp's mask (out > 0 exactly where
    the pre-activation is), add's bias sum, then matmul's two products."""
    if node.attrs["relu"]:
        g = g * (node.output.data > 0.0)
    gw, gb = node.attrs["x"].T @ g, g.sum(axis=0)
    if len(node.inputs) == 2:
        return (gw, gb)
    return (g @ node.inputs[1].data.T, gw, gb)


def _vjp_affine_pair(node, g):
    """With M = x^T g and s the column sums of g (after the ReLU mask):
    gw1 = M w2^T, gb1 = w2 s, gw2 = w1^T M + outer(b1, s), gb2 = s, and
    gx = g (w1 w2)^T."""
    if node.attrs["relu"]:
        g = g * (node.output.data > 0.0)
    w1, b1, w2, _ = (t.data for t in node.inputs[-4:])
    m, s = node.attrs["x"].T @ g, g.sum(axis=0)
    gw2 = w1.T @ m
    gw2 += np.outer(b1, s)
    grads = (m @ w2.T, w2 @ s, gw2, s)
    if len(node.inputs) == 4:
        return grads
    return (g @ node.attrs["w"].T, *grads)


def _vjp_scale(node, g):
    return (g * node.attrs["factor"],)


def _vjp_concat(node, g):
    outs = []
    offset = 0
    for p in node.inputs:
        width = p.shape[-1] if p.ndim else 1
        outs.append(g[..., offset : offset + width].reshape(p.shape))
        offset += width
    return tuple(outs)


def _vjp_index_select(node, g):
    x = node.inputs[0]
    gx = np.bincount(node.attrs["indices"].ravel(), weights=g.ravel(), minlength=x.size)
    return (gx.reshape(x.shape),)


VJP_RULES = {
    "matmul": _vjp_matmul,
    "affine": _vjp_affine,
    "affine_pair": _vjp_affine_pair,
    "scale": _vjp_scale,
    "concat": _vjp_concat,
    "index_select": _vjp_index_select,
}


class GradientMap:
    """Accumulated gradients keyed by tensor identity. Tensors the loss never
    touched report a zero gradient of matching shape."""

    def __init__(self, grads: dict[int, np.ndarray]):
        self._grads = grads

    def grad(self, t: Tensor) -> np.ndarray:
        g = self._grads.get(t.tid)
        if g is None:
            return np.zeros(t.shape, dtype=np.float64)
        return g


def backward(tape: Tape, loss: Tensor) -> GradientMap:
    """Reverse pass over the tape seeding d(loss)/d(loss) = 1.

    Accumulation follows node order, so results are deterministic and
    bitwise reproducible for an identical tape. One backward per recording:
    it consumes the tape's nodes.
    """
    if not isinstance(loss, Tensor) or loss.tape is not tape:
        raise ValueError("loss is not a tensor on this tape")
    if loss.ndim != 0:
        raise ValueError(f"loss must be a scalar, got shape {loss.shape}")
    if tape._backward_done:
        raise ValueError("tape already consumed by a backward pass")
    tape._backward_done = True

    grads: dict[int, np.ndarray] = {loss.tid: np.ones((), dtype=np.float64)}
    while tape.nodes:
        # Popping releases each node once its rule has run, and leaves no
        # tape -> node -> tensor -> tape cycle to wait for the garbage collector.
        node = tape.nodes.pop()
        g = grads.get(node.output.tid)
        if g is None:
            continue
        for inp, gi in zip(node.inputs, VJP_RULES[node.op_kind](node, g)):
            acc = grads.get(inp.tid)
            grads[inp.tid] = gi if acc is None else acc + gi
    return GradientMap(grads)


@dataclass(frozen=True)
class GradCheckReport:
    """Per-coordinate comparison of analytic and central-difference gradients."""

    passed: bool
    max_rel_error: float
    worst_index: int
    analytic: np.ndarray
    numeric: np.ndarray
    rel_errors: np.ndarray


def _eval_scalar(fn, point: np.ndarray) -> float:
    tape = Tape()
    x = tape.variable(point)
    out = fn(tape, x)
    val = float(out.data) if isinstance(out, Tensor) else float(out)
    if not math.isfinite(val):
        raise NumericError(f"non-finite evaluation at {point!r}")
    return val


def grad_check(fn, point, h: float = 1e-6, tol: float = 1e-5) -> GradCheckReport:
    """Compare the taped gradient of `fn` against central differences.

    `fn(tape, x)` must build and return a scalar on the given tape. A
    coordinate passes when its relative error is below `tol`; coordinates
    where both gradients are below 1e-10 in magnitude are compared
    absolutely instead.
    """
    if h <= 0:
        raise ValueError("step h must be positive")
    point = np.asarray(point, dtype=np.float64)
    tape = Tape()
    x = tape.variable(point)
    out = fn(tape, x)
    if not isinstance(out, Tensor) or out.ndim != 0:
        raise ValueError("fn must return a scalar tensor")
    if not math.isfinite(float(out.data)):
        raise NumericError(f"non-finite evaluation at {point!r}")
    analytic = backward(tape, out).grad(x)

    flat = point.ravel()
    numeric = np.zeros_like(flat)
    for i in range(flat.size):
        shifted = flat.copy()
        shifted[i] = flat[i] + h
        f_plus = _eval_scalar(fn, shifted.reshape(point.shape))
        shifted[i] = flat[i] - h
        f_minus = _eval_scalar(fn, shifted.reshape(point.shape))
        numeric[i] = (f_plus - f_minus) / (2.0 * h)
    numeric = numeric.reshape(point.shape)

    a, n = analytic.ravel(), numeric.ravel()
    rel = np.zeros_like(a)
    for i in range(a.size):
        diff = abs(a[i] - n[i])
        if abs(a[i]) < 1e-10 and abs(n[i]) < 1e-10:
            rel[i] = diff
        else:
            rel[i] = diff / max(abs(a[i]), abs(n[i]))
    worst = int(np.argmax(rel)) if rel.size else 0
    max_rel = float(rel[worst]) if rel.size else 0.0
    return GradCheckReport(
        passed=bool(max_rel < tol),
        max_rel_error=max_rel,
        worst_index=worst,
        analytic=analytic,
        numeric=numeric,
        rel_errors=rel.reshape(point.shape),
    )

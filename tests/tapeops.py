"""Tape ops that only tests record: the generic elementwise ops, a row
`l2norm`, a broadcast `div` and `weighted_sum`.

The package records each loss as one op with a hand-written gradient, so it
records none of these. Tests build reference chains from them: the dense
cosine distances of `test_batchpipe`, the clamped BCE, InfoNCE and triplet
chains of `test_losses`, the matmul, add and clamp layers of `test_model`
and `test_diffgrad`. `weighted_sum(x, w)` is the scalar sum(x * w) that
turns an op's output into a loss. Each op computes plainly on arrays and
records on a tape when an operand is a tensor. Their rules are not in
`diffgrad.VJP_RULES`: a test that records them calls `install(monkeypatch)`,
and the rules go again when the test ends.
"""

import numpy as np

from groco import diffgrad as dg
from groco.diffgrad import NumericError, Tensor


def _operands(*args):
    """The tape of the first tensor operand, and every operand as a tensor on
    it; (None, the plain arrays) when there is no tensor."""
    tape = next((a.tape for a in args if isinstance(a, Tensor)), None)
    if tape is None:
        return None, tuple(np.asarray(a, dtype=np.float64) for a in args)
    for a in args:
        if isinstance(a, Tensor) and a.tape is not tape:
            raise ValueError("operands belong to different tapes")
    return tape, tuple(a if isinstance(a, Tensor) else tape.constant(a) for a in args)


def _binary(kind, fn, a, b):
    tape, (a, b) = _operands(a, b)
    if tape is None:
        return fn(a, b)
    return tape._append(kind, (a, b), fn(a.data, b.data))


def add(a, b):
    return _binary("add", np.add, a, b)


def sub(a, b):
    return _binary("sub", np.subtract, a, b)


def mul(a, b):
    return _binary("mul", np.multiply, a, b)


def div(a, b):
    return _binary("div", np.divide, a, b)


def log(x):
    tape, (x,) = _operands(x)
    xd = x if tape is None else x.data
    if np.any(xd <= 0.0):
        raise NumericError("log of non-positive value")
    return np.log(xd) if tape is None else tape._append("log", (x,), np.log(xd))


def exp(x):
    tape, (x,) = _operands(x)
    return np.exp(x) if tape is None else tape._append("exp", (x,), np.exp(x.data))


def sum(x):  # noqa: A001 - mirrors the op name; full reduction to a scalar
    tape, (x,) = _operands(x)
    return np.sum(x) if tape is None else tape._append("sum", (x,), np.sum(x.data))


def clamp(x, lo=None, hi=None):
    tape, (x,) = _operands(x)
    if tape is None:
        return np.clip(x, lo, hi)
    return tape._append("clamp", (x,), np.clip(x.data, lo, hi), lo=lo, hi=hi)


def l2norm(x):
    """Euclidean norm of each row of a 2-D tensor, as a (rows, 1) column."""
    return x.tape._append("l2norm", (x,), np.sqrt(np.sum(np.square(x.data), axis=1, keepdims=True)))


def weighted_sum(x, weights):
    """The scalar sum(x * weights) of a tensor `x` and constant weights of its
    shape, or broadcast to it."""
    weights = np.broadcast_to(np.asarray(weights, dtype=np.float64), x.shape)
    return x.tape._append("weighted_sum", (x,), np.sum(x.data * weights), weights=weights)


def _unbroadcast(g, shape):
    """Reduce an output gradient back to the shape of a broadcast input."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def _vjp_add(node, g):
    a, b = node.inputs
    return (_unbroadcast(g, a.shape), _unbroadcast(g, b.shape))


def _vjp_sub(node, g):
    a, b = node.inputs
    return (_unbroadcast(g, a.shape), _unbroadcast(-g, b.shape))


def _vjp_mul(node, g):
    a, b = node.inputs
    return (_unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape))


def _vjp_div(node, g):
    a, b = node.inputs
    return (_unbroadcast(g / b.data, a.shape), _unbroadcast(-g * a.data / np.square(b.data), b.shape))


def _vjp_log(node, g):
    return (g / node.inputs[0].data,)


def _vjp_exp(node, g):
    return (g * node.output.data,)


def _vjp_sum(node, g):
    return (np.full(node.inputs[0].shape, float(g)),)


def _vjp_clamp(node, g):
    x = node.inputs[0].data
    lo, hi = node.attrs["lo"], node.attrs["hi"]
    mask = np.ones_like(x, dtype=bool)
    if lo is not None:
        mask &= x > lo
    if hi is not None:
        mask &= x < hi
    return (g * mask,)


def _vjp_l2norm(node, g):
    return (g * (node.inputs[0].data / node.output.data),)


def _vjp_weighted_sum(node, g):
    return (float(g) * node.attrs["weights"],)


RULES = {
    "add": _vjp_add,
    "sub": _vjp_sub,
    "mul": _vjp_mul,
    "div": _vjp_div,
    "log": _vjp_log,
    "exp": _vjp_exp,
    "sum": _vjp_sum,
    "clamp": _vjp_clamp,
    "l2norm": _vjp_l2norm,
    "weighted_sum": _vjp_weighted_sum,
}


def install(monkeypatch):
    for kind, rule in RULES.items():
        monkeypatch.setitem(dg.VJP_RULES, kind, rule)

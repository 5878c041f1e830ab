"""Two tape ops that only tests record: a row `l2norm` and a broadcast `div`.

The package normalizes rows inside its cosine-distance op, so it records
neither; the dense reference chain of `test_batchpipe` still builds its
unit rows from them. Their rules are not in `diffgrad.VJP_RULES`: a test
that records them calls `install(monkeypatch)`, and the rules go again
when the test ends.
"""

import numpy as np

from groco import diffgrad as dg
from groco.diffgrad import Tensor


def l2norm(x):
    """Euclidean norm of each row of a 2-D tensor, as a (rows, 1) column."""
    return x.tape._append("l2norm", (x,), np.sqrt(np.sum(np.square(x.data), axis=1, keepdims=True)))


def div(a, b):
    """`a / b` with numpy broadcasting; at least one operand is a tensor."""
    tape = a.tape if isinstance(a, Tensor) else b.tape
    a, b = (t if isinstance(t, Tensor) else tape.constant(t) for t in (a, b))
    return tape._append("div", (a, b), np.divide(a.data, b.data))


def _vjp_l2norm(node, g):
    return (g * (node.inputs[0].data / node.output.data),)


def _vjp_div(node, g):
    a, b = node.inputs
    return (dg._unbroadcast(g / b.data, a.shape), dg._unbroadcast(-g * a.data / np.square(b.data), b.shape))


RULES = {"l2norm": _vjp_l2norm, "div": _vjp_div}


def install(monkeypatch):
    for kind, rule in RULES.items():
        monkeypatch.setitem(dg.VJP_RULES, kind, rule)

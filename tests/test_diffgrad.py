import math

import numpy as np
import pytest

from groco import batchpipe as bp
from groco import dataio as dio
from groco import diffgrad as dg
from groco import evals as ev
from groco import losses as ls
from groco import model as md
from groco import sortcore as sc
from groco.diffgrad import Tape, Tensor
from groco.losses import GroCoParams, InfoNCEParams, TripletParams

import tapeops
from oracles import central_difference


def _scalar_tape(values):
    tape = Tape()
    return tape, tape.variable(values)


def test_record_mul_example(monkeypatch):
    tapeops.install(monkeypatch)
    tape, a = _scalar_tape([2.0])
    b = tape.variable([3.0])
    out = tapeops.mul(a, b)
    assert out.data.tolist() == [6.0]
    gmap = dg.backward(tape, tapeops.sum(out))
    assert gmap.grad(a).tolist() == [3.0]
    assert gmap.grad(b).tolist() == [2.0]


def test_record_arctan_example(monkeypatch):
    # the sort op's arctan swap: a gap of 1 at beta 1 swaps with
    # arctan(1)/pi + 1/2 = 3/4, and d swap / d gap = 1/(2 pi)
    tapeops.install(monkeypatch)
    tape, x = _scalar_tape([1.0, 0.0])
    out = sc.sort_matrix(x, 1.0)
    assert np.max(np.abs(out.data - [[0.25, 0.75], [0.75, 0.25]])) < 1e-15
    gmap = dg.backward(tape, tapeops.weighted_sum(out, np.array([[0.0, 1.0], [0.0, 0.0]])))
    assert np.max(np.abs(gmap.grad(x) - np.array([1.0, -1.0]) / (2.0 * math.pi))) < 1e-15


def test_record_supports_every_op_kind():
    tape = Tape()
    v = tape.variable([0.5, 1.5])
    m = tape.variable([[1.0, 2.0], [3.0, 4.0]])
    views = bp.ViewBatch(tape.variable([[1.0, 0.0], [0.8, 0.6], [0.0, 1.0], [-1.0, 0.5]]), [0, 0, 1, 1], 2)
    calls = {
        "matmul": lambda: dg.matmul(m, v),
        "affine": lambda: dg.affine(m, m, v, relu=True),
        "affine_pair": lambda: dg.affine_pair(m, m, v, m, v, relu=True),
        "scale": lambda: dg.scale(v, 2.0),
        "concat": lambda: dg.concat([v, v]),
        "index_select": lambda: dg.index_select(v, np.array([1, 0])),
        "bce_mean": lambda: ls._bce_mean(v, np.array([1.0, 0.0]), 2.0),
        "infonce": lambda: ls.infonce_from_concat(m, 1, InfoNCEParams()),
        "triplet": lambda: ls.triplet_from_concat(m, 1, TripletParams()),
        "sort_matrix": lambda: sc.sort_matrix(m, 1.0),
        "border_mass": lambda: sc.border_mass(m, 1, 1.0),
        "selected_distances": lambda: bp._selected_distances(views, 2, True, False, True, None)[0],
    }
    assert set(calls) == set(dg.VJP_RULES)
    calls["affine without relu"] = lambda: dg.affine(m, m, v, relu=False)
    calls["affine_pair without relu"] = lambda: dg.affine_pair(m, m, v, m, v, relu=False)
    calls["affine_pair on a plain x"] = lambda: dg.affine_pair(m.data, m, v, m, v, relu=True)
    for kind, call in calls.items():
        out = call()
        assert isinstance(out, Tensor)
        assert out.tape is tape
        assert tape.nodes[-1].op_kind == kind.split()[0] and tape.nodes[-1].output is out


def test_vjp_rules_are_the_op_kinds_the_package_records(monkeypatch):
    # a rule no entry point records is dead code, and a kind without a rule
    # fails only at backward time; the default widths keep every projection
    # away from zero norm
    recorded = set()
    append = Tape._append

    def spy(self, op_kind, *args, **kw):
        recorded.add(op_kind)
        return append(self, op_kind, *args, **kw)

    monkeypatch.setattr(Tape, "_append", spy)
    ds = dio.synth_generate(dio.SynthConfig(clusters=3, dim=6, per_cluster=10, seed=4))
    for kw in (dict(loss_kind="groco"), dict(loss_kind="groco", preorder=False, stop_grad=False),
               dict(loss_kind="groco", random_negatives=True), dict(loss_kind="infonce"),
               dict(loss_kind="infonce", infonce_top_n=True), dict(loss_kind="triplet"),
               dict(loss_kind="triplet", triplet_margin=math.inf)):
        md.train(ds, md.TrainConfig(epochs=1, batch_size=8, num_negatives=4, lr=0.5, warmup_epochs=0, seed=11, **kw))

    tape = Tape()
    x = tape.variable([0.3, -1.2, 0.5, 2.0])
    q = np.eye(4)[[1, 0, 2, 3]]
    dg.backward(tape, ls.sorting_supervision_loss(sc.diff_sort(x, 1.0)[1], q))
    ev.toy_dynamics("groco", [0.0, 0.6, 0.3, 0.0, -0.3], 2, 0.05, GroCoParams(beta=2.0))
    ev.toy_dynamics("infonce", [0.0, 0.6, 0.3, 0.0, -0.3], 2, 0.05, InfoNCEParams(tau=0.5))
    tape = Tape()
    ls.groco_from_raw_distances(tape.variable([[0.4, 0.1, 0.9, 0.2], [0.3, 0.8, 0.5, 0.6]]), 2, 1.0)
    d_pos, d_neg = tape.variable([[0.1, 0.2]]), tape.variable([[0.3, 0.5, 0.9]])
    ls.groco_loss(d_pos, d_neg, GroCoParams())
    ls.infonce_loss(d_pos, d_neg, InfoNCEParams())
    ls.triplet_loss(d_pos, d_neg, TripletParams())
    ls.triplet_loss(d_pos, d_neg, TripletParams(margin=math.inf))
    assert recorded == set(dg.VJP_RULES)


def test_backward_sum_and_dot(monkeypatch):
    tapeops.install(monkeypatch)
    tape, x = _scalar_tape([1.0, 2.0, 3.0])
    gmap = dg.backward(tape, tapeops.sum(x))
    assert gmap.grad(x).tolist() == [1.0, 1.0, 1.0]

    tape, x = _scalar_tape([1.0, 2.0])
    gmap = dg.backward(tape, tapeops.sum(tapeops.mul(x, x)))
    assert gmap.grad(x).tolist() == [2.0, 4.0]


def test_backward_requires_scalar_on_this_tape():
    tape, x = _scalar_tape([1.0, 2.0])
    with pytest.raises(ValueError):
        dg.backward(tape, x)  # not a scalar
    other = Tape()
    y = other.variable(1.0)
    with pytest.raises(ValueError):
        dg.backward(tape, y)


def test_backward_single_pass_per_recording(monkeypatch):
    tapeops.install(monkeypatch)
    tape, x = _scalar_tape([1.0, 2.0])
    loss = tapeops.sum(tapeops.mul(x, x))
    dg.backward(tape, loss)
    with pytest.raises(ValueError):
        dg.backward(tape, loss)


def test_untouched_variable_reports_zero(monkeypatch):
    tapeops.install(monkeypatch)
    tape = Tape()
    x = tape.variable([1.0, 2.0])
    y = tape.variable([3.0, 4.0, 5.0])
    gmap = dg.backward(tape, tapeops.sum(x))
    assert gmap.grad(y).shape == (3,)
    assert gmap.grad(y).tolist() == [0.0, 0.0, 0.0]


def test_mixed_tape_operands_rejected():
    t1, t2 = Tape(), Tape()
    a = t1.variable([1.0])
    b = t2.variable([2.0])
    with pytest.raises(ValueError, match="different tapes"):
        dg.concat([a, b])
    with pytest.raises(ValueError, match="different tapes"):
        dg.matmul(a, b)


def test_shape_mismatch_rejected():
    tape = Tape()
    a = tape.variable(np.ones((2, 3)))
    b = tape.variable(np.ones((2, 3)))
    with pytest.raises(ValueError):
        dg.matmul(a, b)


def _single_op_cases():
    rng = np.random.default_rng(11)
    v3 = rng.uniform(0.5, 2.0, 3)
    m23 = rng.uniform(-1.5, 1.5, (2, 3))
    m32 = rng.uniform(-1.5, 1.5, (3, 2))
    w233 = rng.uniform(-1.5, 1.5, (2, 3, 3))
    b2 = np.array([0.4, -0.3])
    # pre-activations of m23 @ m32 + b2 at least 0.05 from the ReLU's kink
    assert np.min(np.abs(m23 @ m32 + b2)) > 0.05 and np.any(m23 @ m32 + b2 < 0)
    # a pair of layers 3 -> 4 -> 2 with nonzero biases, so that no gradient
    # has the shape of another, and the same margin from the kink
    w34 = rng.uniform(-1.5, 1.5, (3, 4))
    b4 = np.array([0.5, -0.4, 0.3, 0.2])
    w42 = rng.uniform(-1.5, 1.5, (4, 2))
    pair_pre = (m23 @ w34 + b4) @ w42 + b2
    assert np.min(np.abs(pair_pre)) > 0.05 and np.any(pair_pre < 0) and np.any(pair_pre > 0)

    def pair(x=m23, w1=w34, b1=b4, w2=w42, b2=b2, relu=True):
        return tapeops.weighted_sum(dg.affine_pair(x, w1, b1, w2, b2, relu), m23[:, :2])

    return [
        ("add", lambda t, x: tapeops.sum(tapeops.add(x, t.constant([0.3, -0.2, 0.4]))), v3),
        ("sub", lambda t, x: tapeops.sum(tapeops.sub(1.5, x)), v3),
        ("mul", lambda t, x: tapeops.sum(tapeops.mul(x, x)), v3),
        ("div", lambda t, x: tapeops.sum(tapeops.div(1.0, x)), v3),
        ("matmul", lambda t, x: tapeops.sum(dg.matmul(x, m32)), m23.copy()),
        ("matmul_vec", lambda t, x: tapeops.sum(dg.matmul(m23, x)), v3),
        ("affine_x", lambda t, x: tapeops.weighted_sum(dg.affine(x, m32, b2, relu=False), m23[:, :2]), m23.copy()),
        ("affine_x_relu", lambda t, x: tapeops.weighted_sum(dg.affine(x, m32, b2, relu=True), m23[:, :2]), m23.copy()),
        ("affine_w_relu", lambda t, x: tapeops.weighted_sum(dg.affine(m23, x, b2, relu=True), m23[:, :2]), m32.copy()),
        ("affine_b_relu", lambda t, x: tapeops.weighted_sum(dg.affine(m23, m32, x, relu=True), m23[:, :2]), b2.copy()),
        ("affine_pair_x", lambda t, x: pair(x=x, relu=False), m23.copy()),
        ("affine_pair_x_relu", lambda t, x: pair(x=x), m23.copy()),
        ("affine_pair_w1", lambda t, x: pair(w1=x, relu=False), w34.copy()),
        ("affine_pair_w1_relu", lambda t, x: pair(w1=x), w34.copy()),
        ("affine_pair_b1_relu", lambda t, x: pair(b1=x), b4.copy()),
        ("affine_pair_w2", lambda t, x: pair(w2=x, relu=False), w42.copy()),
        ("affine_pair_w2_relu", lambda t, x: pair(w2=x), w42.copy()),
        ("affine_pair_b2_relu", lambda t, x: pair(b2=x), b2.copy()),
        ("log", lambda t, x: tapeops.sum(tapeops.log(x)), v3),
        ("exp", lambda t, x: tapeops.sum(tapeops.exp(x)), v3),
        ("l2norm", lambda t, x: tapeops.sum(tapeops.l2norm(x)), m23.copy()),
        ("clamp", lambda t, x: tapeops.sum(tapeops.clamp(x, lo=0.7, hi=1.8)), v3),
        ("scale", lambda t, x: tapeops.sum(dg.scale(x, -2.5)), v3),
        ("concat", lambda t, x: tapeops.sum(dg.concat([x, dg.scale(x, 2.0)])), v3),
        (
            "index_select",
            lambda t, x: tapeops.sum(dg.index_select(x, np.array([2, 0, 0, 1]))),
            v3,
        ),
        ("sort_matrix", lambda t, x: tapeops.weighted_sum(sc.sort_matrix(x, 1.5), w233), m23.copy()),
        ("border_mass", lambda t, x: tapeops.weighted_sum(sc.border_mass(x, 2, 1.5), m32.T), m23.copy()),
        ("bce_mean", lambda t, x: ls._bce_mean(x, np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 1.0]]), 6.0),
         rng.uniform(0.05, 0.95, (2, 3))),
        ("infonce", lambda t, x: ls.infonce_from_concat(x, 2, InfoNCEParams(tau=0.5)), m23.copy()),
        # every hinge at least 0.05 from its kink, some of them inactive
        ("triplet", lambda t, x: ls.triplet_from_concat(x, 1, TripletParams(margin=0.3)),
         np.array([[0.1, 0.3, 0.6, -0.5], [0.4, 0.2, 1.0, 0.9]])),
    ]


@pytest.mark.parametrize("name,fn,point", _single_op_cases(), ids=lambda c: c if isinstance(c, str) else "")
def test_single_op_vjps_match_central_differences(name, fn, point, monkeypatch):
    tapeops.install(monkeypatch)
    report = dg.grad_check(fn, point, h=1e-6, tol=1e-7)
    assert report.passed, f"{name}: max rel error {report.max_rel_error}"


def _chain_layer(x, w, b, relu):
    """The layer `affine` replaces, built from matmul, add and clamp."""
    h = tapeops.add(dg.matmul(x, w), b)
    return tapeops.clamp(h, lo=0.0) if relu else h


@pytest.mark.parametrize("relu", [True, False])
def test_affine_is_bitwise_the_matmul_add_clamp_chain(relu, monkeypatch):
    tapeops.install(monkeypatch)
    rng = np.random.default_rng(15)
    x = rng.standard_normal((6, 4))
    w = rng.standard_normal((4, 5))
    b = rng.standard_normal(5)
    x[0] = 0.0
    b[1] = 0.0  # row 0, column 1: a pre-activation of exactly 0
    b[2] = -1e300  # column 2: negative everywhere
    weights = rng.standard_normal((6, 5))
    assert np.array_equal(dg.affine(x, w, b, relu), _chain_layer(x, w, b, relu))

    results = []
    for layer in (dg.affine, _chain_layer):
        tape = Tape()
        xt, wt, bt = tape.variable(x), tape.variable(w), tape.variable(b)
        out = layer(xt, wt, bt, relu)
        gmap = dg.backward(tape, tapeops.weighted_sum(out, weights))
        results.append((out.data, gmap.grad(xt), gmap.grad(wt), gmap.grad(bt)))
    for got, expect in zip(*results):
        assert np.array_equal(got, expect)
    if relu:  # the kink gets clamp's zero gradient: x > lo, not x >= lo
        _, _, gw, gb = results[0]
        assert results[0][0][0, 1] == 0.0
        assert gb[1] == np.sum(weights[1:, 1] * ((x[1:] @ w[:, 1] + b[1]) > 0))
        assert gb[2] == 0.0 and np.all(gw[:, 2] == 0.0)


def test_affine_records_one_node_and_no_gradient_for_a_plain_input():
    rng = np.random.default_rng(16)
    x = rng.standard_normal((3, 2))
    tape = Tape()
    w, b = tape.variable(rng.standard_normal((2, 4))), tape.variable(rng.standard_normal(4))
    out = dg.affine(x, w, b, relu=True)
    node = tape.nodes[-1]
    assert len(tape.nodes) == 1 and node.inputs == (w, b)
    assert len(dg.VJP_RULES["affine"](node, np.ones(out.shape))) == 2
    with pytest.raises(ValueError):
        dg.affine(x, w, tape.variable(np.ones(3)), relu=False)
    with pytest.raises(ValueError):
        dg.affine(x[0], w, b, relu=False)


def test_affine_pair_records_one_node_and_no_gradient_for_a_plain_input():
    rng = np.random.default_rng(17)
    x = rng.standard_normal((5, 3))
    arrays = (rng.standard_normal((3, 4)), rng.standard_normal(4), rng.standard_normal((4, 2)), rng.standard_normal(2))
    tape = Tape()
    params = tuple(tape.variable(a) for a in arrays)
    out = dg.affine_pair(x, *params, relu=True)
    node = tape.nodes[-1]
    assert len(tape.nodes) == 1 and node.inputs == params
    assert np.array_equal(node.attrs["w"], arrays[0] @ arrays[2])
    assert np.array_equal(out.data, dg.affine_pair(x, *arrays, relu=True))
    grads = dg.VJP_RULES["affine_pair"](node, np.ones(out.shape))
    assert [g.shape for g in grads] == [a.shape for a in arrays]
    w1, b1, w2, b2 = arrays
    for bad in ((x, w1, b1[:3], w2, b2), (x, w1, b1, w2[:3], b2), (x, w1, b1, w2, b2[:1]), (x[0], w1, b1, w2, b2),
                (x[:, :2], w1, b1, w2, b2), (x, w1, b1, w2[None], b2)):
        with pytest.raises(ValueError, match="affine_pair expects"):
            dg.affine_pair(*bad, relu=False)


def test_numpy_mode_matches_tape_mode():
    rng = np.random.default_rng(12)
    x = rng.uniform(0.2, 2.0, (3, 4))
    w = rng.uniform(-1.0, 1.0, (8, 2))
    order = rng.permutation(6)

    def chain(x):
        return dg.scale(dg.index_select(dg.matmul(dg.concat([x, x]), w), order), 2.0)

    plain = chain(x)
    tape = Tape()
    taped = chain(tape.variable(x))
    assert isinstance(taped, Tensor) and not isinstance(plain, Tensor)
    assert np.array_equal(plain, taped.data)


def test_tensor_has_no_arithmetic_operators():
    # every recorded op is a function call, so an operator on a tensor fails
    # at once instead of recording or computing on the wrapped array
    tape = Tape()
    x = tape.variable([1.0, 2.0])
    with pytest.raises(TypeError):
        np.ones(2) + x
    with pytest.raises(TypeError):
        x * 2.0
    assert tape.nodes == []


def test_backward_is_linear(monkeypatch):
    tapeops.install(monkeypatch)
    rng = np.random.default_rng(13)
    point = rng.uniform(0.5, 1.5, 4)
    weights = rng.uniform(-1.0, 1.0, (4, 4))
    a, b = 1.7, -0.6

    def build(tape, x):
        l1 = tapeops.sum(tapeops.mul(x, x))
        l2 = tapeops.weighted_sum(sc.sort_matrix(x, 1.0), weights)
        return l1, l2

    tape = Tape()
    x = tape.variable(point)
    l1, l2 = build(tape, x)
    combined = tapeops.add(dg.scale(l1, a), dg.scale(l2, b))
    g_combined = dg.backward(tape, combined).grad(x)

    tape1 = Tape()
    x1 = tape1.variable(point)
    g1 = dg.backward(tape1, build(tape1, x1)[0]).grad(x1)
    tape2 = Tape()
    x2 = tape2.variable(point)
    g2 = dg.backward(tape2, build(tape2, x2)[1]).grad(x2)
    assert np.max(np.abs(g_combined - (a * g1 + b * g2))) < 1e-12


def test_backward_deterministic_bitwise(monkeypatch):
    tapeops.install(monkeypatch)
    rng = np.random.default_rng(14)
    point = rng.uniform(-1, 1, 6)

    def run():
        tape = Tape()
        x = tape.variable(point)
        y = tapeops.sum(dg.matmul(sc.sort_matrix(x, 1.5), tapeops.exp(dg.scale(x, 0.5))))
        return dg.backward(tape, y).grad(x)

    g1, g2 = run(), run()
    assert np.array_equal(g1, g2)


def test_tensors_are_write_protected():
    tape = Tape()
    x = tape.variable([1.0, 2.0])
    with pytest.raises(ValueError):
        x.data[0] = 9.0


def test_grad_check_quadratic_example(monkeypatch):
    tapeops.install(monkeypatch)
    report = dg.grad_check(lambda t, x: tapeops.sum(tapeops.mul(x, x)), np.array([3.0]), h=1e-6)
    assert report.passed
    assert abs(report.analytic[0] - 6.0) < 1e-8
    assert abs(report.numeric[0] - 6.0) < 1e-8


def test_grad_check_one_vs_one_closed_form_derivative():
    # hand oracle: d/dd_n of -log f(d_n - d_p) at (0, 1), beta=1 is
    # -f'(1)/f(1) = -(1/(2*pi))/0.75 = -2/(3*pi)
    from groco import losses as ls

    report = dg.grad_check(
        lambda t, x: ls.groco_from_raw_distances(x, 1, 1.0), np.array([0.0, 1.0]), h=1e-6
    )
    expect = 2.0 / (3.0 * math.pi)
    assert report.passed
    assert abs(report.analytic[0] - expect) < 1e-12
    assert abs(report.analytic[1] + expect) < 1e-12
    assert abs(report.numeric[0] - expect) < 1e-8


def test_grad_check_rejects_bad_step():
    with pytest.raises(ValueError):
        dg.grad_check(lambda t, x: dg.scale(x, 1.0), np.array([1.0]), h=0.0)


def test_grad_check_detects_corrupted_vjp(monkeypatch):
    # negative control: break the sort op's rule and watch the check fail
    tapeops.install(monkeypatch)
    real = dg.VJP_RULES["sort_matrix"]
    monkeypatch.setitem(dg.VJP_RULES, "sort_matrix", lambda node, g: (real(node, g)[0] * 0.123,))
    weights = np.array([[1.0, -2.0], [0.5, 3.0]])
    report = dg.grad_check(lambda t, x: tapeops.weighted_sum(sc.sort_matrix(x, 1.0), weights), np.array([0.7, -0.4]))
    assert not report.passed


def test_central_difference_oracle_agrees_with_grad_check_numeric(monkeypatch):
    tapeops.install(monkeypatch)
    point = np.array([0.3, -0.8, 1.2])
    weights = np.array([[0.4, -1.0, 2.0], [1.5, 0.2, -0.7], [-0.3, 0.9, 1.1]])

    def fn(tape, x):
        return tapeops.weighted_sum(sc.sort_matrix(x, 1.0), weights)

    report = dg.grad_check(fn, point)
    expected = central_difference(lambda p: float(np.sum(sc.sort_matrix(p, 1.0) * weights)), point)
    assert np.max(np.abs(report.numeric - expected)) < 1e-12


def test_row_blocks_cover_every_row_in_near_equal_blocks():
    for count in (0, 1, 2, 5, 127, 128, 129, 256, 257, 4097):
        blocks = dg.row_blocks(count, 128)
        assert blocks[0].start == 0 and blocks[-1].stop == count
        assert all(a.stop == b.start for a, b in zip(blocks[:-1], blocks[1:]))
        sizes = [s.stop - s.start for s in blocks]
        assert len(blocks) == max(1, -(-count // 128)) and max(sizes) - min(sizes) <= 1 and max(sizes) <= 128
        assert count < 2 or min(sizes) >= 2, count  # never a one-row block of a multi-row input


def _count_cases():
    """(name, call) pairs: each call passes a count that is not a whole
    number to one public boundary."""
    rng = np.random.default_rng(75)
    rows = np.sort(rng.normal(size=(3, 5)), axis=1)
    embeds, labels = rng.normal(size=(6, 3)), np.array([0, 1, 0, 1, 0, 1])
    batch = bp.ViewBatch(rng.normal(size=(6, 3)), np.repeat(np.arange(3), 2), 2)
    toy = np.array([0.0, 0.5, -0.2])
    return [
        ("num_positives", lambda: sc.border_mass(rows, 2.9, 1.0)),
        ("num_positives", lambda: ls.group_loss_from_concat(rows, 1.7, GroCoParams(beta=1.0))),
        ("num_positives", lambda: ls.infonce_from_concat(rows, 1.7, InfoNCEParams())),
        ("num_positives", lambda: ls.triplet_from_concat(rows, 1.7, TripletParams())),
        ("num_positives", lambda: ls.groco_from_raw_distances(rows, 1.7, 1.0)),
        ("k", lambda: ev.knn_accuracies(embeds, labels, embeds, labels, [1.5])),
        ("k", lambda: ev.knn_accuracy(embeds, labels, embeds, labels, 1.5)),
        ("k", lambda: ev.knn_predict(embeds, labels, embeds[0], 1.5)),
        ("views_per_image", lambda: bp.ViewBatch(batch.projections, batch.image_id, 2.5)),
        ("num_negatives", lambda: bp.batch_loss(batch, "groco", GroCoParams(), num_negatives=2.5)),
        ("num_negatives", lambda: bp.select_top_negatives(rows, 2.5)),
        ("steps", lambda: ev.linear_probe(embeds, labels, embeds, labels, steps=2.5)),
        ("steps", lambda: ev.toy_dynamics("groco", toy, 2.5, 0.1, GroCoParams())),
        ("epochs", lambda: md.TrainConfig(epochs=2.5)),
        ("batch_size", lambda: md.TrainConfig(batch_size=64.5)),
        ("views", lambda: md.TrainConfig(views=2.5)),
        ("num_negatives", lambda: md.TrainConfig(num_negatives=4.5)),
        ("warmup_epochs", lambda: md.TrainConfig(warmup_epochs=0.5)),
        ("layer dims", lambda: md.init_params(4, (2.5,), (3,))),
        ("clusters", lambda: dio.SynthConfig(clusters=2.5)),
        ("per_cluster", lambda: dio.SynthConfig(per_cluster=10.5)),
    ]


@pytest.mark.parametrize("index", range(len(_count_cases())))
def test_public_counts_reject_a_value_that_is_not_a_whole_number(index):
    # each of these used to truncate the count (2.9 ran as 2) or fail with
    # a TypeError from inside numpy or `range`
    name, call = _count_cases()[index]
    with pytest.raises(ValueError, match=f"^{name} must be a whole number"):
        call()


def test_check_count_keeps_whole_numbers_of_any_type():
    assert [dg.check_count(v, "n") for v in (3, np.int64(3), 3.0, np.float32(3.0))] == [3, 3, 3, 3]
    for bad in (2.5, float("nan"), float("inf"), "3", None):
        with pytest.raises(ValueError, match="n must be a whole number"):
            dg.check_count(bad, "n")

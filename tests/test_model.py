import math
import struct
import tracemalloc
import weakref

import numpy as np
import pytest

from groco import batchpipe as bp
from groco import dataio as dio
from groco import diffgrad as dg
from groco import model as md
from groco.model import CheckpointFormatError, TrainConfig

import tapeops


def test_init_params_deterministic_and_bounded():
    p1 = md.init_params(8, (16, 16), (4, 4), seed=3)
    p2 = md.init_params(8, (16, 16), (4, 4), seed=3)
    for (n1, a1), (n2, a2) in zip(p1.named_arrays(), p2.named_arrays()):
        assert n1 == n2
        assert np.array_equal(a1, a2)
    for name, arr in p1.named_arrays():
        if name.endswith("bias"):
            assert np.all(arr == 0.0)
        else:
            fan_in, fan_out = arr.shape
            bound = math.sqrt(6.0 / (fan_in + fan_out))
            assert np.max(np.abs(arr)) <= bound


def test_init_params_rejects_zero_dims():
    with pytest.raises(ValueError):
        md.init_params(0)
    with pytest.raises(ValueError):
        md.init_params(8, (0,), (4,))
    with pytest.raises(ValueError):
        md.init_params(8, (), (4,))


def test_forward_identity_toy_net():
    params = md.ModelParams(
        encoder=[(np.eye(3), np.zeros(3))],
        projection=[(np.eye(3), np.zeros(3))],
    )
    x = np.array([0.5, -1.0, 2.0])
    rep, proj = md.forward(params, x)
    assert rep.tolist() == x.tolist()
    assert proj.tolist() == x.tolist()


def test_forward_zero_weights():
    params = md.ModelParams(
        encoder=[(np.zeros((3, 2)), np.zeros(2))],
        projection=[(np.zeros((2, 2)), np.zeros(2))],
    )
    rep, proj = md.forward(params, np.ones(3))
    assert rep.tolist() == [0.0, 0.0]
    assert proj.tolist() == [0.0, 0.0]


def test_forward_matches_manual_matmul():
    rng = np.random.default_rng(60)
    params = md.init_params(5, (7, 6), (4, 3), seed=1)
    x = rng.normal(size=(4, 5))
    rep, proj = md.forward(params, x)

    h = x @ params.encoder[0][0] + params.encoder[0][1]
    h = np.maximum(h, 0.0)
    manual_rep = h @ params.encoder[1][0] + params.encoder[1][1]
    h2 = manual_rep @ params.projection[0][0] + params.projection[0][1]
    h2 = np.maximum(h2, 0.0)
    manual_proj = h2 @ params.projection[1][0] + params.projection[1][1]
    assert np.max(np.abs(rep - manual_rep)) < 1e-12
    assert np.max(np.abs(proj - manual_proj)) < 1e-12


def test_forward_in_row_blocks_is_bitwise_one_full_height_pass(monkeypatch):
    # 257 = 2 * 128 + 1 would leave a one-row block, which numpy multiplies
    # as a matrix-vector product with other rounding (2.8e-16 of the largest
    # entry off here): the blocks are 85, 86 and 86 rows instead
    rng = np.random.default_rng(61)
    params = md.init_params(32, seed=2)
    for _, b in params.encoder + params.projection:
        b[:] = rng.normal(scale=0.1, size=b.shape)
    for rows in (1, 5, 128, 256, 257, 320, 513):
        x = rng.normal(size=(rows, 32))
        results = []
        for block in (128, 10**9):
            monkeypatch.setattr(md, "FORWARD_BLOCK", block)
            results.append(md.forward(params, x))
        (rep, proj), (full_rep, full_proj) = results
        assert np.array_equal(rep, full_rep) and np.array_equal(proj, full_proj), rows


def test_forward_holds_the_outputs_and_one_block_of_activations():
    rows = 20_000
    params = md.init_params(32, seed=3)
    x = np.random.default_rng(62).normal(size=(rows, 32))
    outputs = rows * (128 + 64) * 8  # the representation and the projection: 29.3 MiB
    tracemalloc.start()
    try:
        md.forward(params, x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # measured 0.45 MiB over the outputs; a full-height pass holds 39 MiB more
    assert peak < outputs + 2 * 2**20, peak - outputs


def test_forward_dim_mismatch():
    params = md.init_params(5, (4,), (3,), seed=0)
    with pytest.raises(ValueError):
        md.forward(params, np.ones(6))


def test_cosine_warmup_lr_endpoints():
    base = 0.4
    total, warmup = 100, 10
    assert md.cosine_warmup_lr(0, total, warmup, base) == 0.0
    assert md.cosine_warmup_lr(warmup, total, warmup, base) == base
    mid = warmup + (total - warmup) // 2
    assert md.cosine_warmup_lr(mid, total, warmup, base) == pytest.approx(0.5 * base)
    last = md.cosine_warmup_lr(total - 1, total, warmup, base)
    expect = base * 0.5 * (1 + math.cos(math.pi * (total - 1 - warmup) / (total - warmup)))
    assert last == pytest.approx(expect, abs=1e-15)
    with pytest.raises(ValueError):
        md.cosine_warmup_lr(total, total, warmup, base)
    with pytest.raises(ValueError):
        md.cosine_warmup_lr(0, total, total, base)


def test_sgd_step_momentum_recurrence():
    params = md.ModelParams(encoder=[(np.zeros((1, 1)), np.zeros(1))],
                            projection=[(np.zeros((1, 1)), np.zeros(1))])
    state = md.init_optimizer(params, momentum=0.9, base_lr=1.0)
    ones = {name: np.ones_like(a) for name, a in params.named_arrays()}
    md.sgd_step(params, ones, state)
    assert params.encoder[0][0][0, 0] == -1.0
    md.sgd_step(params, ones, state)
    assert params.encoder[0][0][0, 0] == pytest.approx(-1.0 - 1.9)
    assert state.step_count == 2


def test_sgd_step_zero_grad_no_motion():
    params = md.init_params(3, (4,), (2,), seed=5)
    before = {n: a.copy() for n, a in params.named_arrays()}
    state = md.init_optimizer(params, momentum=0.9, base_lr=0.5)
    zeros = {name: np.zeros_like(a) for name, a in params.named_arrays()}
    md.sgd_step(params, zeros, state)
    for name, arr in params.named_arrays():
        assert np.array_equal(arr, before[name])


def test_sgd_step_momentum_zero_is_plain_descent():
    params = md.init_params(3, (4,), (2,), seed=5)
    before = {n: a.copy() for n, a in params.named_arrays()}
    state = md.init_optimizer(params, momentum=0.0, base_lr=0.25)
    grads = {name: np.full_like(a, 2.0) for name, a in params.named_arrays()}
    md.sgd_step(params, grads, state)
    for name, arr in params.named_arrays():
        assert np.allclose(arr, before[name] - 0.25 * 2.0, atol=1e-15)


def test_checkpoint_roundtrip(tmp_path):
    params = md.init_params(6, (8, 8), (4, 4), seed=9)
    state = md.init_optimizer(params, momentum=0.9, base_lr=0.3)
    path = tmp_path / "model.ckpt"
    md.checkpoint_save(params, state, path)
    loaded_params, loaded_state = md.checkpoint_load(path)
    # one round through float32 storage, then stable byte-exact thereafter
    for (n1, a1), (n2, a2) in zip(params.named_arrays(), loaded_params.named_arrays()):
        assert n1 == n2
        assert np.array_equal(a1.astype(np.float32), a2.astype(np.float32))
    path2 = tmp_path / "model2.ckpt"
    md.checkpoint_save(loaded_params, loaded_state, path2)
    assert path.read_bytes() == path2.read_bytes()
    reloaded_params, _ = md.checkpoint_load(path2)
    for (_, a1), (_, a2) in zip(loaded_params.named_arrays(), reloaded_params.named_arrays()):
        assert np.array_equal(a1, a2)
    assert loaded_state.step_count == 0
    assert loaded_state.momentum == pytest.approx(0.9, abs=1e-7)


def test_checkpoint_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"NOPE" + b"\x00" * 20)
    with pytest.raises(CheckpointFormatError, match="magic"):
        md.checkpoint_load(path)


def _checkpoint_tensors():
    params = md.init_params(4, (4,), (2,), seed=1)
    state = md.init_optimizer(params, base_lr=0.1)
    tensors = list(params.named_arrays()) + [(f"opt.v.{name}", v) for name, v in state.velocity.items()]
    return tensors + [("opt.step", [3.0]), ("opt.momentum", [0.9]), ("opt.base_lr", [0.1])]


def write_checkpoint_tensors(path, tensors):
    """Write (name, array) pairs in the checkpoint format, whatever they are."""
    chunks = [struct.pack("<4sII", b"GRCO", 1, len(tensors))]
    for name, arr in tensors:
        arr = np.asarray(arr, dtype="<f4")
        name_b = name.encode("utf-8")
        chunks += [struct.pack("<H", len(name_b)), name_b, struct.pack("<B", arr.ndim),
                   struct.pack(f"<{arr.ndim}I", *arr.shape), arr.tobytes()]
    path.write_bytes(b"".join(chunks))


@pytest.mark.parametrize(
    "name", ["enc.0.bias", "proj.0.bias", "opt.v.enc.0.weight", "opt.v.proj.0.bias", "opt.momentum"]
)
def test_checkpoint_rejects_a_missing_tensor(name, tmp_path):
    # a missing bias or velocity used to raise KeyError
    path = tmp_path / "model.ckpt"
    write_checkpoint_tensors(path, [t for t in _checkpoint_tensors() if t[0] != name])
    with pytest.raises(CheckpointFormatError, match=f"missing tensor '{name}'"):
        md.checkpoint_load(path)


@pytest.mark.parametrize("value", [[], [1.0, 2.0]])
def test_checkpoint_rejects_an_optimizer_scalar_that_is_not_one_value(value, tmp_path):
    # an empty opt.step used to raise IndexError
    path = tmp_path / "model.ckpt"
    write_checkpoint_tensors(path, [(n, value if n == "opt.step" else a) for n, a in _checkpoint_tensors()])
    with pytest.raises(CheckpointFormatError, match="'opt.step' must hold one value"):
        md.checkpoint_load(path)


def test_checkpoint_rejects_a_tensor_given_twice(tmp_path):
    # the last copy used to win silently
    tensors = _checkpoint_tensors()
    path = tmp_path / "model.ckpt"
    write_checkpoint_tensors(path, tensors)
    params, state = md.checkpoint_load(path)
    assert state.step_count == 3 and np.array_equal(params.projection[0][0], np.asarray(tensors[2][1], "<f4"))
    write_checkpoint_tensors(path, tensors + [(tensors[2][0], np.zeros_like(tensors[2][1]))])
    with pytest.raises(CheckpointFormatError, match=f"tensor '{tensors[2][0]}' given twice"):
        md.checkpoint_load(path)


def test_checkpoint_rejects_truncation(tmp_path):
    params = md.init_params(4, (4,), (2,), seed=1)
    state = md.init_optimizer(params, base_lr=0.1)
    path = tmp_path / "model.ckpt"
    md.checkpoint_save(params, state, path)
    blob = path.read_bytes()
    for cut in (4, len(blob) // 2, len(blob) - 3):
        partial = tmp_path / f"cut{cut}.ckpt"
        partial.write_bytes(blob[:cut])
        with pytest.raises(CheckpointFormatError, match="offset"):
            md.checkpoint_load(partial)


def test_checkpoint_rejects_trailing_garbage(tmp_path):
    params = md.init_params(4, (4,), (2,), seed=1)
    state = md.init_optimizer(params, base_lr=0.1)
    path = tmp_path / "model.ckpt"
    md.checkpoint_save(params, state, path)
    path.write_bytes(path.read_bytes() + b"xx")
    with pytest.raises(CheckpointFormatError, match="trailing"):
        md.checkpoint_load(path)


def _tiny_dataset():
    return dio.synth_generate(dio.SynthConfig(clusters=3, dim=6, per_cluster=10, seed=4))


def _tiny_config(**kw):
    base = dict(epochs=2, batch_size=8, views=2, num_negatives=4, lr=0.5,
                warmup_epochs=1, seed=11, encoder_widths=(8, 8), projection_widths=(4, 4))
    base.update(kw)
    return TrainConfig(**base)


def test_train_deterministic_given_seed():
    ds = _tiny_dataset()
    r1 = md.train(ds, _tiny_config())
    r2 = md.train(ds, _tiny_config())
    assert r1.step_losses == r2.step_losses
    for (_, a1), (_, a2) in zip(r1.params.named_arrays(), r2.params.named_arrays()):
        assert np.array_equal(a1, a2)


def test_train_writes_metrics(tmp_path):
    ds = _tiny_dataset()
    path = tmp_path / "metrics.csv"
    result = md.train(ds, _tiny_config(), metrics_path=path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "epoch,step,loss,lr"
    assert len(lines) == 1 + len(result.step_losses)
    first = lines[1].split(",")
    assert first[0] == "0" and first[1] == "0"
    assert float(first[3]) == 0.0  # warmup starts at lr 0


def test_train_all_loss_kinds_complete():
    ds = _tiny_dataset()
    for kind in ("groco", "infonce", "triplet"):
        result = md.train(ds, _tiny_config(loss_kind=kind, epochs=1, warmup_epochs=0))
        assert all(np.isfinite(v) for v in result.step_losses)


def test_default_step_records_6_tape_nodes(monkeypatch):
    # the encoder's hidden layer, its last layer and the head's first layer
    # as one affine map, the head's last layer, 1 selected-distances op, and
    # the border mass and clamped BCE of the group-ordering loss, which takes
    # the selected block whole: no gather and no join. InfoNCE, over all
    # negatives or the top N, and triplet take the block whole too, as one
    # op each, so their steps record 5 nodes.
    seen = []
    real = md.dg.backward

    def recording(tape, loss):
        seen.append([node.op_kind for node in tape.nodes])
        return real(tape, loss)

    monkeypatch.setattr(md.dg, "backward", recording)
    ds = dio.synth_generate(dio.SynthConfig(per_cluster=16))
    for kw, loss_ops in ((dict(), ["border_mass", "bce_mean"]),
                         (dict(loss_kind="infonce", lr=0.1), ["infonce"]),
                         (dict(loss_kind="infonce", infonce_top_n=True, lr=0.1), ["infonce"]),
                         (dict(loss_kind="triplet", lr=0.1), ["triplet"])):
        seen.clear()
        md.train(ds, TrainConfig(epochs=2, **kw))
        step = ["affine", "affine_pair", "affine", "selected_distances", *loss_ops]
        assert seen == [step, step], kw
        assert not {"index_select", "concat"} & set(seen[0])


def _chain_forward(params, tape, views):
    """The encoder and head as matmul, add and clamp ops, one node each;
    returns the parameter tensors, the representation and the projection."""
    tensors = [(tape.variable(w), tape.variable(b)) for w, b in params.encoder + params.projection]
    h = tape.constant(views)
    for i, (w, b) in enumerate(tensors):
        h = tapeops.add(dg.matmul(h, w), b)
        if i not in (len(params.encoder) - 1, len(tensors) - 1):
            h = tapeops.clamp(h, lo=0.0)
        if i == len(params.encoder) - 1:
            representation = h
    return tensors, representation, h


def test_default_step_matches_the_matmul_add_clamp_chain(monkeypatch):
    # the projections, the loss and all 8 parameter gradients of a default
    # GroCo step, with nonzero biases, through `_forward_core` (which maps
    # the representation layer and the head's first layer as one) and
    # through the 10-op chain (which forms the representation first): equal
    # up to rounding. The representation `forward` returns is bitwise the
    # chain's, and its projection bitwise the taped one.
    tapeops.install(monkeypatch)
    rng = np.random.default_rng(21)
    params = md.init_params(32, seed=4)
    for _, b in params.encoder + params.projection:
        b[:] = 0.1 * rng.standard_normal(b.shape)
    views = rng.standard_normal((256, 32))
    image_id = np.repeat(np.arange(128), 2)
    loss_params = TrainConfig().loss_params()
    results = []
    for build in ("core", "chain"):
        tape = dg.Tape()
        if build == "core":
            tensors = [(tape.variable(w), tape.variable(b)) for w, b in params.encoder + params.projection]
            _, proj = md._forward_core(tensors[:2], tensors[2:], views)
        else:
            tensors, chain_rep, proj = _chain_forward(params, tape, views)
        loss = bp.batch_loss(bp.ViewBatch(proj, image_id, 2), "groco", loss_params)
        gmap = dg.backward(tape, loss)
        results.append((proj.data, np.array(float(loss.data)), *[gmap.grad(t) for pair in tensors for t in pair]))
    assert len(results[0]) == 10
    for got, chain in zip(*results):
        assert got.shape == chain.shape
        assert np.max(np.abs(got - chain)) <= 1e-13 * np.max(np.abs(chain))
    rep, plain_proj = md.forward(params, views)
    assert np.array_equal(rep, chain_rep.data)
    assert np.array_equal(plain_proj, results[0][0])


def test_train_ablation_flags_complete():
    ds = _tiny_dataset()
    for kw in (dict(stop_grad=False), dict(preorder=False), dict(random_negatives=True),
               dict(loss_kind="infonce", infonce_top_n=True)):
        result = md.train(ds, _tiny_config(epochs=1, warmup_epochs=0, **kw))
        assert all(np.isfinite(v) for v in result.step_losses)


def test_one_small_step_decreases_fixed_batch_loss():
    # line-search sanity: analytic gradients point downhill on the same batch
    import groco.batchpipe as bp
    import groco.diffgrad as dg

    ds = _tiny_dataset()
    cfg = _tiny_config()
    rng = np.random.default_rng(0)
    params = md.init_params(ds.dim, cfg.encoder_widths, cfg.projection_widths, seed=1)
    rows = ds.vectors[rng.permutation(ds.count)[: cfg.batch_size]].astype(np.float64)
    views = np.repeat(rows, cfg.views, axis=0) + 0.3 * rng.standard_normal(
        (cfg.batch_size * cfg.views, ds.dim)
    )
    image_id = np.repeat(np.arange(cfg.batch_size), cfg.views)
    loss_params = cfg.loss_params()

    def batch_value(p, tape=None):
        if tape is None:
            _, proj = md.forward(p, views)
        else:
            enc = [(tape.variable(w), tape.variable(b)) for w, b in p.encoder]
            prj = [(tape.variable(w), tape.variable(b)) for w, b in p.projection]
            _, proj = md._forward_core(enc, prj, tape.constant(views))
            return bp.batch_loss(bp.ViewBatch(proj, image_id, cfg.views), "groco", loss_params), enc, prj
        return bp.batch_loss(bp.ViewBatch(proj, image_id, cfg.views), "groco", loss_params)

    before = batch_value(params)
    tape = dg.Tape()
    loss, enc, prj = batch_value(params, tape)
    gmap = dg.backward(tape, loss)
    grads = {}
    for i, (tw, tb) in enumerate(enc):
        grads[f"enc.{i}.weight"] = gmap.grad(tw)
        grads[f"enc.{i}.bias"] = gmap.grad(tb)
    for i, (tw, tb) in enumerate(prj):
        grads[f"proj.{i}.weight"] = gmap.grad(tw)
        grads[f"proj.{i}.bias"] = gmap.grad(tb)
    state = md.init_optimizer(params, momentum=0.0, base_lr=1e-4)
    md.sgd_step(params, grads, state)
    after = batch_value(params)
    assert after < before


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)
    with pytest.raises(ValueError):
        TrainConfig(views=1)
    with pytest.raises(ValueError):
        TrainConfig(lr=0.0)
    with pytest.raises(ValueError):
        TrainConfig(warmup_epochs=20, epochs=20)
    with pytest.raises(ValueError):
        TrainConfig(loss_kind="other")
    with pytest.raises(ValueError):
        TrainConfig(view_noise=-0.5)
    with pytest.raises(ValueError):
        TrainConfig(view_noise=(0.5, -0.5))
    for kind in ("groco", "infonce", "triplet"):
        with pytest.raises(ValueError, match="num_negatives"):
            TrainConfig(loss_kind=kind, num_negatives=0)


@pytest.mark.parametrize("kw, message", [
    ({"beta": -1}, "beta must be a finite positive real"),
    ({"loss_kind": "infonce", "infonce_tau": 0}, "tau must be a finite positive real"),
    ({"loss_kind": "triplet", "triplet_margin": math.nan}, "margin must be positive"),
], ids=["groco-beta", "infonce-tau", "triplet-margin"])
def test_train_config_checks_the_chosen_loss_setting(kw, message):
    # used to pass here and fail only once `train` built the loss settings
    with pytest.raises(ValueError, match=message):
        TrainConfig(**kw)


@pytest.mark.parametrize("lr", [float("nan"), float("inf"), -1.0])
def test_train_config_rejects_non_finite_or_non_positive_lr(lr):
    # nan and inf used to pass and fail one step later
    with pytest.raises(ValueError, match="need a finite lr > 0"):
        TrainConfig(lr=lr)


@pytest.mark.parametrize("loss_kind", ["groco", "infonce", "triplet"])
def test_diverging_train_raises_numeric_error_not_a_warning(loss_kind):
    # under the suite's filterwarnings = ["error"] this used to raise numpy's
    # "overflow encountered in matmul" RuntimeWarning from the MLP
    ds = _tiny_dataset()
    with pytest.raises(dg.NumericError, match="non-finite projection norm for view"):
        md.train(ds, _tiny_config(loss_kind=loss_kind, lr=1e300))


def test_no_finished_step_outlives_its_metrics_row(monkeypatch, tmp_path):
    # the loop's locals used to keep the last step's tape, activations and
    # gradients alive until the next step overwrote them
    tapes = []

    class RecordedTape(dg.Tape):
        def __init__(self):
            super().__init__()
            tapes.append(weakref.ref(self))

    rows = []
    real_append = dio.metrics_append

    def checking_append(fh, record):
        assert len(tapes) == record["step"] + 1
        assert all(ref() is None for ref in tapes), record["step"]
        rows.append(record["step"])
        real_append(fh, record)

    monkeypatch.setattr(dg, "Tape", RecordedTape)
    monkeypatch.setattr(dio, "metrics_append", checking_append)
    result = md.train(_tiny_dataset(), _tiny_config(), metrics_path=tmp_path / "metrics.csv")
    assert rows == list(range(len(result.step_losses))) and rows


def _train_peak(rows):
    ds = dio.synth_generate(dio.SynthConfig(clusters=8, dim=32, per_cluster=rows // 8, seed=6))
    config = TrainConfig(epochs=1, warmup_epochs=0, lr=0.5, seed=7, encoder_widths=(16, 16), projection_widths=(8, 8))
    tracemalloc.start()
    try:
        md.train(ds, config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_train_memory_does_not_grow_with_the_dataset():
    # measured 0.99 and 1.32 MiB at 4,000 and 40,000 rows, the shuffle order
    # (8 bytes a row) being all that grows; a float64 copy of the rows put
    # them at 2.08 and 11.20 MiB
    small, large = _train_peak(4_000), _train_peak(40_000)
    assert abs(large - small) < 2**20, (small, large)


def test_train_rejects_small_dataset():
    ds = dio.synth_generate(dio.SynthConfig(clusters=2, dim=4, per_cluster=2, seed=1))
    with pytest.raises(ValueError):
        md.train(ds, _tiny_config(batch_size=64))


def test_train_per_coordinate_view_noise_replays():
    ds = _tiny_dataset()
    sigma = (0.1, 0.1, 0.1, 1.0, 1.0, 1.0)
    r1 = md.train(ds, _tiny_config(view_noise=sigma))
    r2 = md.train(ds, _tiny_config(view_noise=list(sigma)))
    assert r1.step_losses == r2.step_losses
    assert r1.step_losses != md.train(ds, _tiny_config(view_noise=0.1)).step_losses


def test_train_scalar_and_equal_vector_view_noise_are_identical():
    ds = _tiny_dataset()
    r1 = md.train(ds, _tiny_config(view_noise=0.3))
    r2 = md.train(ds, _tiny_config(view_noise=(0.3,) * ds.dim))
    assert r1.step_losses == r2.step_losses
    for (_, a1), (_, a2) in zip(r1.params.named_arrays(), r2.params.named_arrays()):
        assert np.array_equal(a1, a2)


def test_train_rejects_wrong_length_view_noise_before_first_step(tmp_path):
    ds = _tiny_dataset()
    path = tmp_path / "metrics.csv"
    with pytest.raises(ValueError, match="data dim is 6"):
        md.train(ds, _tiny_config(view_noise=(0.5,) * 5), metrics_path=path)
    assert not path.exists()


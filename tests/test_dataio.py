import math

import numpy as np
import pytest

from groco import dataio as dio
from groco import evals as ev
from groco.dataio import Dataset, GvecFormatError, SynthConfig


def test_synth_deterministic_per_seed():
    cfg = SynthConfig(clusters=3, dim=5, per_cluster=7, seed=42)
    d1 = dio.synth_generate(cfg)
    d2 = dio.synth_generate(cfg)
    assert np.array_equal(d1.vectors, d2.vectors)
    assert np.array_equal(d1.labels, d2.labels)
    d3 = dio.synth_generate(SynthConfig(clusters=3, dim=5, per_cluster=7, seed=43))
    assert not np.array_equal(d1.vectors, d3.vectors)


def test_synth_zero_instance_noise_collapses_to_centers():
    cfg = SynthConfig(clusters=2, dim=4, per_cluster=3, inst_noise=0.0, seed=1)
    ds = dio.synth_generate(cfg)
    for c in range(2):
        block = ds.vectors[c * 3 : (c + 1) * 3]
        assert np.array_equal(block[0], block[1])
        assert np.array_equal(block[0], block[2])


def test_synth_default_config_is_knn_separable():
    ds = dio.synth_generate(SynthConfig())
    assert ds.count == 1600 and ds.dim == 32
    train, test = dio.split_dataset(ds, 0.2, seed=7)
    acc = ev.knn_accuracy(train.vectors, train.labels, test.vectors, test.labels, k=1)
    assert acc >= 0.99


def test_augment_view_zero_noise_is_identity():
    rng = np.random.default_rng(0)
    x = np.array([1.0, -2.0, 3.0])
    out = dio.augment_view(x, 0.0, rng)
    assert np.array_equal(out, x)


def test_augment_view_replay():
    x = np.zeros(4)
    v1 = dio.augment_view(x, 0.7, np.random.default_rng(5))
    v2 = dio.augment_view(x, 0.7, np.random.default_rng(5))
    assert np.array_equal(v1, v2)


def test_augment_view_empirical_std():
    rng = np.random.default_rng(6)
    sigma = 0.8
    draws = np.stack([dio.augment_view(np.zeros(10), sigma, rng) for _ in range(10_000)])
    measured = draws.std()
    assert abs(measured - sigma) / sigma < 0.02


def test_augment_view_per_coordinate_replay():
    x = np.zeros(4)
    sigma = [0.1, 0.0, 2.0, 0.7]
    v1 = dio.augment_view(x, sigma, np.random.default_rng(5))
    v2 = dio.augment_view(x, sigma, np.random.default_rng(5))
    assert np.array_equal(v1, v2)
    assert v1[1] == 0.0  # a zero entry leaves its coordinate untouched


def test_augment_view_per_coordinate_empirical_std():
    rng = np.random.default_rng(6)
    sigma = np.array([0.1, 0.5, 2.0, 0.8])
    draws = np.stack([dio.augment_view(np.zeros(4), sigma, rng) for _ in range(10_000)])
    measured = draws.std(axis=0)
    assert np.all(np.abs(measured - sigma) / sigma < 0.03)


def test_augment_view_scalar_and_equal_vector_are_identical():
    x = np.array([1.0, -2.0, 3.0, 0.5])
    scalar = dio.augment_view(x, 0.7, np.random.default_rng(8))
    vector = dio.augment_view(x, [0.7] * 4, np.random.default_rng(8))
    assert np.array_equal(scalar, vector)


def test_augment_view_block_equals_row_by_row_calls():
    rng = np.random.default_rng(9)
    block = rng.normal(size=(6, 4))
    for sigma in (0.7, [0.1, 0.0, 2.0, 0.7]):
        whole = dio.augment_view(block, sigma, np.random.default_rng(10))
        stream = np.random.default_rng(10)
        rows = np.stack([dio.augment_view(row, sigma, stream) for row in block])
        assert np.array_equal(whole, rows)


def test_augment_view_rejects_negative_noise():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        dio.augment_view(np.zeros(3), -0.1, rng)
    with pytest.raises(ValueError):
        dio.augment_view(np.zeros(3), [0.5, -0.1, 0.5], rng)


def test_augment_view_rejects_wrong_length_noise():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="entries"):
        dio.augment_view(np.zeros(3), [0.5, 0.5], rng)
    with pytest.raises(ValueError):
        dio.augment_view(np.zeros(3), [[0.5, 0.5, 0.5]], rng)


def test_gvec_roundtrip(tmp_path):
    ds = dio.synth_generate(SynthConfig(clusters=2, dim=3, per_cluster=4, seed=9))
    path = tmp_path / "data.gvec"
    dio.gvec_write(ds, path)
    back = dio.gvec_read(path)
    assert np.array_equal(back.vectors, ds.vectors)
    assert np.array_equal(back.labels, ds.labels)


def test_gvec_roundtrip_edge_sizes(tmp_path):
    ds = Dataset(np.array([[1.5]], dtype=np.float32), np.array([0], dtype=np.uint32))
    path = tmp_path / "one.gvec"
    dio.gvec_write(ds, path)
    back = dio.gvec_read(path)
    assert back.count == 1 and back.dim == 1
    assert back.vectors[0, 0] == np.float32(1.5)


def test_gvec_unlabeled(tmp_path):
    ds = Dataset(np.ones((3, 2), dtype=np.float32))
    path = tmp_path / "nolabels.gvec"
    dio.gvec_write(ds, path)
    back = dio.gvec_read(path)
    assert back.labels is None
    assert np.array_equal(back.vectors, ds.vectors)


def test_gvec_bad_magic(tmp_path):
    path = tmp_path / "bad.gvec"
    path.write_bytes(b"XVEC" + b"\x00" * 30)
    with pytest.raises(GvecFormatError, match="magic"):
        dio.gvec_read(path)


def test_gvec_truncation(tmp_path):
    ds = dio.synth_generate(SynthConfig(clusters=2, dim=3, per_cluster=4, seed=9))
    path = tmp_path / "data.gvec"
    dio.gvec_write(ds, path)
    blob = path.read_bytes()
    for cut in (3, 20, len(blob) - 2):
        short = tmp_path / f"cut{cut}.gvec"
        short.write_bytes(blob[:cut])
        with pytest.raises(GvecFormatError, match="offset"):
            dio.gvec_read(short)


def test_gvec_trailing_bytes(tmp_path):
    ds = Dataset(np.ones((2, 2), dtype=np.float32))
    path = tmp_path / "data.gvec"
    dio.gvec_write(ds, path)
    path.write_bytes(path.read_bytes() + b"!")
    with pytest.raises(GvecFormatError, match="trailing"):
        dio.gvec_read(path)


def _append_rows(path, *records):
    with open(path, "a", newline="") as fh:
        for record in records:
            dio.metrics_append(fh, record)


def test_metrics_append_header_and_rows(tmp_path):
    path = tmp_path / "metrics.csv"
    _append_rows(
        path,
        {"epoch": 0, "step": 0, "loss": np.log(2.0), "lr": 0.1},
        {"epoch": 0, "step": 1, "loss": 0.5, "lr": 0.2},
    )
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "epoch,step,loss,lr"
    assert len(lines) == 3
    assert lines[1].split(",")[2] == "0.69314718056"  # >= 9 significant digits
    assert lines[1].split(",")[1] == "0"
    assert lines[2].split(",")[1] == "1"


def test_metrics_append_writes_the_header_only_into_an_empty_file(tmp_path):
    row = {"epoch": 0, "step": 0, "loss": 1.0, "lr": 0.1}
    fresh = tmp_path / "fresh.csv"
    with open(fresh, "a", newline="") as fh:
        for step in range(3):
            dio.metrics_append(fh, {**row, "step": step})
            # each row is flushed: the file holds it before the handle closes
            assert len(fresh.read_text().splitlines()) == step + 2
    assert fresh.read_text().splitlines() == ["epoch,step,loss,lr", "0,0,1,0.1", "0,1,1,0.1", "0,2,1,0.1"]
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    _append_rows(empty, row)
    assert empty.read_text().splitlines() == ["epoch,step,loss,lr", "0,0,1,0.1"]
    started = tmp_path / "started.csv"
    started.write_text("a,b\n")
    _append_rows(started, row)
    assert started.read_text().splitlines() == ["a,b", "0,0,1,0.1"]


def test_metrics_append_requires_fields(tmp_path):
    with pytest.raises(ValueError):
        _append_rows(tmp_path / "m.csv", {"epoch": 0, "loss": 1.0, "lr": 0.1})


def test_metrics_append_extra_fields_sorted(tmp_path):
    path = tmp_path / "metrics.csv"
    _append_rows(path, {"epoch": 0, "step": 0, "loss": 1.0, "lr": 0.1, "knn": 0.5, "acc": 0.2})
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "epoch,step,loss,lr,acc,knn"


def test_split_dataset_deterministic_and_disjoint():
    ds = dio.synth_generate(SynthConfig(clusters=4, dim=4, per_cluster=25, seed=3))
    tr1, te1 = dio.split_dataset(ds, 0.2, seed=5)
    tr2, te2 = dio.split_dataset(ds, 0.2, seed=5)
    assert np.array_equal(tr1.vectors, tr2.vectors)
    assert np.array_equal(te1.vectors, te2.vectors)
    assert tr1.count + te1.count == ds.count
    assert te1.count == 20


def test_dataset_validation():
    with pytest.raises(ValueError):
        Dataset(np.ones((0, 3), dtype=np.float32))
    with pytest.raises(ValueError):
        Dataset(np.ones((2, 3), dtype=np.float32), np.array([1], dtype=np.uint32))
    for bad in (np.nan, -np.inf, 1e39):  # 1e39 overflows float32
        vectors = np.ones((3, 2))
        vectors[1, 0] = bad
        with pytest.raises(ValueError, match="vectors must be finite, row 1 is not"):
            Dataset(vectors)
    for bad in (-1, 1.7, np.nan, np.inf, 2.0**32):
        with pytest.raises(ValueError, match=r"labels must be integers in 0..2\*\*32 - 1, row 1 is not"):
            Dataset(np.ones((3, 2)), np.array([2.0, bad, 0.0]))
    with pytest.raises(ValueError, match="row 0 is not"):
        Dataset(np.ones((2, 2)), np.array([-1, 2]))
    kept = Dataset(np.ones((3, 2)), np.array([2.0, 2.0**32 - 1, 0.0])).labels
    assert kept.dtype == np.uint32 and kept.tolist() == [2, 2**32 - 1, 0]


def test_synth_config_validation():
    with pytest.raises(ValueError):
        SynthConfig(clusters=0)
    with pytest.raises(ValueError):
        SynthConfig(inst_noise=-0.1)
    with pytest.raises(ValueError):
        SynthConfig(center_scale=0.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="center_scale must be finite"):
            SynthConfig(center_scale=bad)
        with pytest.raises(ValueError, match="inst_noise must be finite"):
            SynthConfig(inst_noise=bad)
        for view_noise in (bad, [0.5, bad]):
            with pytest.raises(ValueError, match="view_noise entries must be finite"):
                dio.check_view_noise(view_noise)

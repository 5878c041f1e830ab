import tracemalloc

import numpy as np
import pytest

from groco import evals as ev
from groco.losses import GroCoParams, InfoNCEParams

from oracles import oracle_knn_predict


def _clusters(rng, centers, n_per, noise=0.1):
    xs, ys = [], []
    for label, c in enumerate(centers):
        xs.append(c + noise * rng.standard_normal((n_per, len(c))))
        ys.append(np.full(n_per, label))
    return np.concatenate(xs), np.concatenate(ys)


def test_knn_predict_k1_is_nearest_neighbor():
    train = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
    labels = np.array([0, 1, 2])
    for tau in (0.01, 0.07, 10.0):
        assert ev.knn_predict(train, labels, [0.9, 0.1], 1, tau) == 0
        assert ev.knn_predict(train, labels, [0.1, 0.9], 1, tau) == 1


def test_knn_predict_tie_breaks_to_smaller_class():
    train = np.array([[1.0, 1.0], [1.0, 1.0]])
    labels = np.array([7, 3])
    assert ev.knn_predict(train, labels, [1.0, 1.0], 2) == 3


def test_knn_predict_matches_bruteforce_oracle():
    rng = np.random.default_rng(70)
    train = rng.normal(size=(40, 6))
    labels = rng.integers(0, 4, 40)
    for _ in range(25):
        q = rng.normal(size=6)
        k = int(rng.integers(1, 8))
        assert ev.knn_predict(train, labels, q, k) == oracle_knn_predict(train, labels, q, k, 0.07)
    # the batched accuracy, with duplicated train rows so that neighbours tie
    train[20:30] = train[:10]
    queries = np.concatenate([rng.normal(size=(30, 6)), train[:5]])
    truth = rng.integers(0, 4, 35)
    for k in (1, 4, 12):
        hits = sum(oracle_knn_predict(train, labels, q, k, 0.07) == t for q, t in zip(queries, truth))
        assert ev.knn_accuracy(train, labels, queries, truth, k) == hits / 35


def test_knn_accuracy_duplicated_train_rows_at_the_k_boundary():
    # every train row appears three times, so each query's neighbours come in
    # tied triples and k = 1, 2, 4, 5, ... cuts through a triple
    rng = np.random.default_rng(77)
    base = rng.integers(-2, 3, (12, 3)).astype(float)
    base[np.all(base == 0, axis=1)] = 1.0
    train = np.concatenate([base, base, base])
    labels = rng.integers(0, 3, train.shape[0])  # copies of a row disagree
    queries = np.concatenate([base[:6], rng.integers(-2, 3, (14, 3)).astype(float) + 0.5])
    truth = rng.integers(0, 3, queries.shape[0])
    ks = (1, 2, 3, 4, 5, 7, 8, train.shape[0] - 1, train.shape[0])
    # one neighbour search at the largest k serves every k, in any order
    together = ev.knn_accuracies(train, labels, queries, truth, ks[::-1] + (4,))
    assert list(together) == list(ks[::-1])
    for k in ks:
        hits = sum(oracle_knn_predict(train, labels, q, k, 0.07) == t for q, t in zip(queries, truth))
        assert ev.knn_accuracy(train, labels, queries, truth, k) == hits / queries.shape[0]
        assert together[k] == hits / queries.shape[0]


def test_knn_predict_validation():
    train = np.ones((3, 2))
    labels = np.array([0, 1, 2])
    with pytest.raises(ValueError):
        ev.knn_predict(train, labels, [1.0, 1.0], 0)
    with pytest.raises(ValueError):
        ev.knn_predict(train, labels, [1.0, 1.0], 4)
    with pytest.raises(ValueError):
        ev.knn_predict(np.ones((0, 2)), np.array([]), [1.0, 1.0], 1)
    with pytest.raises(ValueError):
        ev.knn_accuracies(train, labels, np.ones((2, 2)), np.zeros(2), [])
    with pytest.raises(ValueError):
        ev.knn_accuracies(train, labels, np.ones((2, 2)), np.zeros(2), [1, 4])


def test_knn_rejects_query_width_mismatch():
    train, labels = np.ones((5, 3)), np.arange(5)
    with pytest.raises(ValueError, match="width"):
        ev.knn_predict(train, labels, [1.0, 1.0], 1)
    with pytest.raises(ValueError, match="width"):
        ev.knn_accuracy(train, labels, np.ones((4, 2)), np.zeros(4), 1)


@pytest.mark.parametrize("weight_tau", [0.0, -0.07, float("nan"), float("inf")])
def test_knn_rejects_non_positive_or_non_finite_weight_tau(weight_tau):
    # each used to score: 0 and nan like argmax over nan votes, -0.07 by
    # inverted votes, inf by unweighted ones
    train, labels = np.eye(3), np.arange(3)
    with pytest.raises(ValueError, match="weight_tau must be finite and > 0"):
        ev.knn_predict(train, labels, [1.0, 0.0, 0.0], 1, weight_tau)
    with pytest.raises(ValueError, match="weight_tau must be finite and > 0"):
        ev.knn_accuracies(train, labels, train, labels, [1, 2], weight_tau)
    with pytest.raises(ValueError, match="weight_tau must be finite and > 0"):
        ev.knn_accuracy(train, labels, train, labels, 1, weight_tau)


def _dense_knn_reference(train, labels, queries, k, weight_tau):
    """The weighted vote from one full (Q, N) similarity matrix and a stable
    argsort of each row. The similarities use the library's formula,
    (q^ . t) / |t|, and a train row that equals an earlier one takes the
    lowest such row's column, so exact duplicates tie."""
    queries = queries / np.linalg.norm(queries, axis=1, keepdims=True)
    sims = (queries @ train.T) * (1.0 / np.sqrt(np.vecdot(train, train)))
    _, first, inverse = np.unique(train, axis=0, return_index=True, return_inverse=True)
    sims = sims[:, first[inverse.reshape(-1)]]
    order = np.argsort(-sims, axis=1, kind="stable")[:, :k]
    classes, label_index = np.unique(labels, return_inverse=True)
    scores = np.zeros((queries.shape[0], classes.size))
    rows = np.arange(queries.shape[0])
    for j in range(k):
        scores[rows, label_index[order[:, j]]] += np.exp(sims[rows, order[:, j]] / weight_tau)
    return classes[np.argmax(scores, axis=1)]


def _tied_triples(seed, distinct):
    """Train rows that each appear three times, with labels that disagree
    between copies, so k = 1 and k = 10 cut through a tied triple."""
    rng = np.random.default_rng(seed)
    base = rng.normal(size=(distinct, 8))
    return np.concatenate([base, base, base]), rng.integers(0, 5, 3 * distinct)


def test_blocked_knn_matches_a_dense_reference_at_block_borders():
    train, labels = _tied_triples(79, 233)
    n = train.shape[0]
    block = ev._KNN_BLOCK_ENTRIES // n
    assert block > 1  # so that block - 1 rows is a case, and 3 * block + 5 spans four blocks
    rng = np.random.default_rng(80)
    for count in (1, block - 1, block, block + 1, 3 * block + 5):
        queries = rng.normal(size=(count, 8))
        # exact copies of train rows, whose nearest triple ties at places
        # 1 to 3, on both sides of each block border
        for border in range(block, count + 1, block):
            queries[border - 1] = train[border % 233]
            if border < count:
                queries[border] = train[(border + 7) % 233]
        queries[0] = train[5]
        ks = (1, 10, n)
        predicted = ev._knn_predictions(train, labels, queries, ks, ev.KNN_WEIGHT_TAU)
        truth = rng.integers(0, 5, count)
        accuracies = ev.knn_accuracies(train, labels, queries, truth, ks)
        for k in ks:
            expect = _dense_knn_reference(train, labels, queries, k, ev.KNN_WEIGHT_TAU)
            assert np.array_equal(predicted[k], expect), (count, k)
            assert accuracies[k] == float(np.mean(expect == truth))
        if count == 1:
            assert ev.knn_predict(train, labels, queries[0], 1) == predicted[1][0]


def test_blocked_knn_tie_at_k_breaks_toward_the_lower_index():
    train, labels = _tied_triples(81, 233)
    labels[:233], labels[233:466], labels[466:] = 0, 1, 2
    block = ev._KNN_BLOCK_ENTRIES // train.shape[0]
    queries = train[[3, 4, 5, 6]].repeat(block // 2, axis=0)  # across a block border
    predicted = ev._knn_predictions(train, labels, queries, (1, 2), ev.KNN_WEIGHT_TAU)
    # the first copy wins place 1 alone and then its class ties with the
    # second copy's, and a class-score tie goes to the smaller class id
    assert np.all(predicted[1] == 0) and np.all(predicted[2] == 0)
    labels[:233] = 4
    predicted = ev._knn_predictions(train, labels, queries, (1, 2), ev.KNN_WEIGHT_TAU)
    assert np.all(predicted[1] == 4) and np.all(predicted[2] == 1)


def test_knn_accuracies_never_holds_a_dense_similarity_matrix():
    rng = np.random.default_rng(82)
    count, d = 2048, 16
    train, test = rng.normal(size=(count, d)), rng.normal(size=(count, d))
    train_labels, test_labels = rng.integers(0, 10, count), rng.integers(0, 10, count)
    dense_bytes = count * count * 8  # one (Q, N) float64 matrix: 32 MiB
    tracemalloc.start()
    try:
        ev.knn_accuracies(train, train_labels, test, test_labels, (1, 10, 20))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < dense_bytes / 4, peak


def test_knn_duplicate_train_rows_rank_after_their_first_copy():
    # BLAS rounds the last N mod 8 columns of a product apart from the rest,
    # so a copy there could outrank its earlier copies: query 266 once voted
    # for the third copy's class at k = 1
    train, labels = _tied_triples(79, 233)
    labels[:233], labels[233:466], labels[466:] = 0, 1, 2
    queries = np.random.default_rng(11).normal(size=(512, 8))
    predicted = ev._knn_predictions(train, labels, queries, (1,), ev.KNN_WEIGHT_TAU)[1]
    expect = [oracle_knn_predict(train, labels, q, 1, ev.KNN_WEIGHT_TAU) for q in queries]
    assert np.array_equal(predicted, expect)
    assert np.all(predicted == 0)


def test_duplicate_rows_name_each_rows_lowest_equal_row():
    rng = np.random.default_rng(84)
    for _ in range(200):
        base = rng.integers(-1, 2, (int(rng.integers(1, 12)), int(rng.integers(1, 4)))).astype(float)
        rows = base[rng.integers(0, base.shape[0], int(rng.integers(1, 30)))]
        rows[rng.random(rows.shape) < 0.2] = -0.0  # equal to 0.0, so still a duplicate
        expect = [
            (i, next(j for j in range(i + 1) if np.array_equal(rows[i], rows[j])))
            for i in range(rows.shape[0])
        ]
        copies, firsts = ev._duplicate_rows(rows)
        assert list(zip(copies, firsts)) == [(i, j) for i, j in expect if i != j]


def test_knn_accuracies_holds_no_copy_of_the_train_set():
    # one call at the eval shapes of the benchmark's training workload;
    # measured 1.43 MiB traced, against 2.66 MiB when the unit train rows
    # (1.25 MiB) were copied
    rng = np.random.default_rng(83)
    train, test = rng.normal(size=(1280, 128)), rng.normal(size=(320, 128))
    train_labels, test_labels = rng.integers(0, 10, 1280), rng.integers(0, 10, 320)
    before = train.copy()
    train.setflags(write=False)
    tracemalloc.start()
    try:
        ev.knn_accuracies(train, train_labels, test, test_labels, (1, 10, 20))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20, peak
    assert np.array_equal(train, before)


def test_knn_rejects_an_empty_test_set():
    # used to fail in batchpipe with "expected a non-empty 1-D distance list"
    train, labels = np.eye(3), np.arange(3)
    empty = np.ones((0, 3))
    with pytest.raises(ValueError, match="empty test set"):
        ev.knn_accuracies(train, labels, empty, np.zeros(0), [1, 2])
    with pytest.raises(ValueError, match="empty test set"):
        ev.knn_accuracy(train, labels, empty, np.zeros(0), 1)
    with pytest.raises(ValueError, match="empty test set"):
        ev.knn_predict(train, labels, empty, 1)


def test_linear_probe_rejects_an_empty_test_set():
    # used to score nan with two RuntimeWarnings
    x, y = _probe_data(78)
    with pytest.raises(ValueError, match="empty test set"):
        ev.linear_probe(x, y, x[:0], y[:0])


def test_knn_accuracy_self_train_is_perfect():
    rng = np.random.default_rng(71)
    x, y = _clusters(rng, [np.array([3.0, 0.0]), np.array([0.0, 3.0])], 20)
    assert ev.knn_accuracy(x, y, x, y, 1) == 1.0


def test_knn_accuracy_shuffled_labels_near_chance():
    # random labels on random disjoint queries: accuracy near 1/C
    rng = np.random.default_rng(72)
    x = rng.normal(size=(400, 8))
    y = np.repeat(np.arange(4), 100)
    accs = []
    for seed in range(5):
        srng = np.random.default_rng(seed)
        shuffled = srng.permutation(y)
        queries = srng.normal(size=(80, 8))
        query_labels = srng.integers(0, 4, 80)
        accs.append(ev.knn_accuracy(x, shuffled, queries, query_labels, 10))
    assert abs(np.mean(accs) - 0.25) < 0.1


def test_knn_accuracy_separated_clusters():
    rng = np.random.default_rng(73)
    centers = [np.array([4.0, 0.0, 0.0]), np.array([0.0, 4.0, 0.0])]
    x, y = _clusters(rng, centers, 100)
    xt, yt = _clusters(rng, centers, 30)
    assert ev.knn_accuracy(x, y, xt, yt, 5) >= 0.99


def test_linear_probe_separable_data():
    rng = np.random.default_rng(74)
    x, y = _clusters(rng, [np.array([2.0, 0.0]), np.array([-2.0, 0.0])], 60, noise=0.3)
    xt, yt = _clusters(rng, [np.array([2.0, 0.0]), np.array([-2.0, 0.0])], 20, noise=0.3)
    acc = ev.linear_probe(x, y, xt, yt, steps=500, lr=0.1)
    assert acc >= 0.99


def test_linear_probe_uninformative_embeddings():
    x = np.ones((90, 4))
    y = np.repeat(np.arange(3), 30)
    acc = ev.linear_probe(x, y, x, y, steps=200, lr=0.1)
    assert abs(acc - 1.0 / 3.0) < 0.05


def test_linear_probe_zero_steps_predicts_first_class():
    rng = np.random.default_rng(75)
    x = rng.normal(size=(60, 3))
    y = np.repeat(np.arange(3), 20)
    acc = ev.linear_probe(x, y, x, y, steps=0, lr=0.1)
    assert acc == pytest.approx(1.0 / 3.0)


def test_linear_probe_rejects_single_class():
    x = np.ones((10, 2))
    with pytest.raises(ValueError):
        ev.linear_probe(x, np.zeros(10), x, np.zeros(10))


def _row_major_weights(x, y, steps, lr):
    """The probe's training as a plain (n, C) loop: softmax over each row,
    fresh arrays every step. Returns the classes, weights (D, C) and bias."""
    classes = np.unique(y)
    onehot = np.zeros((x.shape[0], classes.size))
    onehot[np.arange(x.shape[0]), np.searchsorted(classes, y)] = 1.0
    w = np.zeros((x.shape[1], classes.size))
    b = np.zeros(classes.size)
    n = x.shape[0]
    for _ in range(steps):
        logits = x @ w + b
        logits -= logits.max(axis=1, keepdims=True)
        p = np.exp(logits)
        p /= p.sum(axis=1, keepdims=True)
        delta = (p - onehot) / n
        w -= lr * (x.T @ delta)
        b -= lr * delta.sum(axis=0)
    return classes, w, b


def _row_major_probe(x, y, xt, yt, steps, lr):
    classes, w, b = _row_major_weights(x, y, steps, lr)
    pred = classes[np.argmax(xt @ w + b, axis=1)]
    return float(np.mean(pred == yt))


def test_linear_probe_matches_row_major_reference():
    for seed in (80, 81, 82):
        rng = np.random.default_rng(seed)
        centers = 1.5 * rng.normal(size=(5, 6))
        x, y = _clusters(rng, centers, 40, noise=1.0)
        # test points on the segments between class centres, many of them
        # near a decision boundary
        mix = rng.uniform(0.3, 0.7, (60, 1))
        pairs = rng.integers(0, 5, (60, 2))
        xt = mix * centers[pairs[:, 0]] + (1 - mix) * centers[pairs[:, 1]]
        yt = pairs[:, 0]
        for steps, lr in ((500, 0.1), (37, 0.8)):
            expect = _row_major_probe(x, y + 10, xt, yt + 10, steps, lr)
            assert ev.linear_probe(x, y + 10, xt, yt + 10, steps=steps, lr=lr) == expect


def _read_only_layouts(x):
    """`x` as a C-ordered copy, a Fortran-ordered copy and a strided view
    into a larger array, each read-only, so that any write raises."""
    backing = np.zeros((2 * x.shape[0], 3 * x.shape[1]))
    backing[::2, ::3] = x
    layouts = [x.copy(), np.asfortranarray(x), backing[::2, ::3]]
    for layout in layouts:
        layout.flags.writeable = False
    return layouts


@pytest.mark.parametrize("dim", [64, 128])  # the projection and representation widths
def test_blocked_probe_matches_row_major_reference_across_block_edges(dim):
    block = ev._PROBE_BLOCK_ENTRIES // dim
    rng = np.random.default_rng(83 + dim)
    centers = 0.3 * rng.normal(size=(5, dim))
    for count in (block // 3, block, 2 * block + 37):  # under one block, one, and a ragged third
        y = rng.integers(0, 5, count) + 10
        x = centers[y - 10] + rng.normal(size=(count, dim))
        mix = rng.uniform(0.3, 0.7, (60, 1))
        pairs = rng.integers(0, 5, (60, 2))
        xt = mix * centers[pairs[:, 0]] + (1 - mix) * centers[pairs[:, 1]]
        yt = pairs[:, 0] + 10
        classes, label_index = np.unique(y, return_inverse=True)
        for steps in (0, 40):
            _, expect_w, expect_b = _row_major_weights(x, y, steps, 0.5)
            expect_accuracy = _row_major_probe(x, y, xt, yt, steps, 0.5)
            for layout in _read_only_layouts(x):
                w, b = ev._probe_weights(layout, label_index, classes.size, steps, 0.5)
                assert np.abs(w - expect_w.T).max() <= 1e-12 * np.abs(expect_w).max()
                assert np.abs(b[:, 0] - expect_b).max() <= 1e-12 * np.abs(expect_b).max()
                assert ev.linear_probe(layout, y, xt, yt, steps=steps, lr=0.5) == expect_accuracy
                assert np.array_equal(layout, x)


def _probe_data(seed):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(40, 3)), rng.integers(0, 2, 40)


def test_linear_probe_rejects_one_label_for_many_test_rows():
    x, y = _probe_data(78)
    with pytest.raises(ValueError, match="test embeddings/labels"):
        ev.linear_probe(x, y, x, y[:1])  # would broadcast against 40 predictions


def test_linear_probe_rejects_test_width_mismatch():
    x, y = _probe_data(78)
    with pytest.raises(ValueError, match="width"):
        ev.linear_probe(x, y, x[:, :2], y)


def test_linear_probe_rejects_negative_steps():
    x, y = _probe_data(78)
    with pytest.raises(ValueError, match="steps"):
        ev.linear_probe(x, y, x, y, steps=-3)


def test_linear_probe_rejects_nan_lr():
    x, y = _probe_data(78)
    with pytest.raises(ValueError, match="lr"):
        ev.linear_probe(x, y, x, y, lr=float("nan"))


def test_linear_probe_never_mutates_embeddings():
    rng = np.random.default_rng(76)
    x = rng.normal(size=(40, 3))
    y = rng.integers(0, 2, 40)
    x_before = x.copy()
    ev.linear_probe(x, y, x, y, steps=50, lr=0.5)
    assert np.array_equal(x, x_before)


_EMBEDDING_ARGUMENTS = [
    ("linear_probe", "train_embeds"),
    ("linear_probe", "test_embeds"),
    ("knn_predict", "train_embeds"),
    ("knn_predict", "query"),
    ("knn_accuracy", "train_embeds"),
    ("knn_accuracy", "test_embeds"),
    ("knn_accuracies", "train_embeds"),
    ("knn_accuracies", "test_embeds"),
]


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("function, argument", _EMBEDDING_ARGUMENTS)
def test_evals_reject_non_finite_embeddings(function, argument, bad):
    # a single nan used to give a silent score, and an inf numpy's "invalid
    # value encountered in matmul" warning
    x, y = _probe_data(78)
    kwargs = {"train_embeds": x, "train_labels": y}
    if function == "knn_predict":
        kwargs.update(query=x[3], k=3)
    else:
        kwargs.update(test_embeds=x, test_labels=y)
        kwargs.update({"knn_accuracy": {"k": 3}, "knn_accuracies": {"ks": [1, 3]}}.get(function, {}))
    spoiled = np.array(kwargs[argument])
    spoiled.flat[spoiled.size // 2] = bad
    kwargs[argument] = spoiled
    with pytest.raises(ValueError, match=f"{argument} contains a non-finite value"):
        getattr(ev, function)(**kwargs)


TOY_INIT = [0.0, 0.6, 0.3, 0.0, -0.3]


def test_toy_dynamics_zero_lr_constant():
    traj = ev.toy_dynamics("groco", TOY_INIT, 20, 0.0, GroCoParams(beta=2.0))
    assert np.array_equal(traj.similarities, np.tile(TOY_INIT, (21, 1)))


def test_toy_dynamics_symmetric_start_signs():
    init = [0.2, 0.2, 0.2, 0.2, 0.2]
    for kind, params in (
        ("groco", GroCoParams(beta=2.0)),
        ("infonce", InfoNCEParams(tau=0.5)),
    ):
        traj = ev.toy_dynamics(kind, init, 5, 0.05, params)
        first = traj.similarities[1] - traj.similarities[0]
        assert first[0] > 0  # positive similarity rises
        assert np.all(first[1:] < 0)  # negatives fall


def test_toy_dynamics_positive_nondecreasing_both_losses():
    tg = ev.toy_dynamics("groco", TOY_INIT, 300, 0.05, GroCoParams(beta=2.0))
    ti = ev.toy_dynamics("infonce", TOY_INIT, 300, 0.05, InfoNCEParams(tau=0.5))
    assert np.min(np.diff(tg.similarities[:, 0])) >= -1e-12
    assert np.min(np.diff(ti.similarities[:, 0])) >= -1e-12


def test_toy_dynamics_farthest_negative_moves_less_under_groco():
    tg = ev.toy_dynamics("groco", TOY_INIT, 300, 0.05, GroCoParams(beta=2.0))
    ti = ev.toy_dynamics("infonce", TOY_INIT, 300, 0.05, InfoNCEParams(tau=0.5))
    far = int(np.argmin(TOY_INIT[1:])) + 1
    move_g = abs(tg.similarities[-1, far] - tg.similarities[0, far])
    move_i = abs(ti.similarities[-1, far] - ti.similarities[0, far])
    assert move_g < move_i


def test_toy_dynamics_equal_lengths_across_losses():
    tg = ev.toy_dynamics("groco", TOY_INIT, 50, 0.05, GroCoParams(beta=2.0))
    ti = ev.toy_dynamics("infonce", TOY_INIT, 50, 0.05, InfoNCEParams(tau=0.5))
    assert tg.similarities.shape == ti.similarities.shape == (51, 5)


def test_toy_dynamics_rejects_unknown_loss():
    with pytest.raises(ValueError):
        ev.toy_dynamics("triplet", TOY_INIT, 10, 0.05, None)


def test_toy_dynamics_rejects_the_other_loss_params():
    # these used to fail at the first step with AttributeError on 'beta' or 'tau'
    with pytest.raises(ValueError, match="groco loss requires GroCoParams"):
        ev.toy_dynamics("groco", TOY_INIT, 3, 0.05, InfoNCEParams(tau=0.5))
    with pytest.raises(ValueError, match="infonce loss requires InfoNCEParams"):
        ev.toy_dynamics("infonce", TOY_INIT, 3, 0.05, GroCoParams(beta=2.0))


@pytest.mark.parametrize("lr", [-1.0, float("nan"), float("inf")])
def test_toy_dynamics_rejects_negative_or_non_finite_lr(lr):
    # a negative lr used to run gradient ascent
    for kind, params in (("groco", GroCoParams(beta=2.0)), ("infonce", InfoNCEParams(tau=0.5))):
        with pytest.raises(ValueError, match="lr must be finite and >= 0"):
            ev.toy_dynamics(kind, TOY_INIT, 3, lr, params)


def test_trajectory_csv_format(tmp_path):
    traj = ev.toy_dynamics("groco", TOY_INIT, 3, 0.05, GroCoParams(beta=2.0))
    path = tmp_path / "traj.csv"
    ev.write_trajectory_csv(traj, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "step,s_pos,s_neg1,s_neg2,s_neg3,s_neg4"
    assert len(lines) == 5  # header + init + 3 steps
    first = lines[1].split(",")
    assert first[0] == "0"
    assert float(first[1]) == 0.0 and float(first[2]) == 0.6
    # >= 9 significant digits survive the round trip
    reread = np.array([[float(v) for v in line.split(",")[1:]] for line in lines[1:]])
    assert np.max(np.abs(reread - traj.similarities)) < 1e-9

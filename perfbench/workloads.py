"""The benchmark's two workloads.

`groco-train` drives the package the way `groco train` and `groco eval` do:
`model.train` with a metrics CSV, and eval passes made of a checkpoint and
GVEC round trip, embedding, k-NN and the linear probe. `sort-supervision`
runs `sortcore.diff_sort` on a tape, `losses.sorting_supervision_loss`
against the hard permutation, and `diffgrad.backward`. Inputs come from the
seed alone; the checks in `checks.py` run after the timed phase.
"""

from __future__ import annotations

import csv
import math
import os
import resource
import statistics
import sys
import tempfile
import time
import traceback
from contextlib import ExitStack, nullcontext
from dataclasses import dataclass, field

import numpy as np

import checks
from groco import batchpipe, dataio, diffgrad, evals, losses, model, sortcore
from spans import Tracer, patched

# Class-subspace data, as in criterion 8's margin test: the class signal sits
# in 8 low-variance dims, large view noise on 24 nuisance dims.
CLASSES, PER_CLASS, CLASS_DIM, NUISANCE_DIM = 8, 200, 8, 24
VIEW_NOISE = (0.1,) * CLASS_DIM + (2.0,) * NUISANCE_DIM
TEST_FRACTION = 0.2
LEARNING_RATE = 10.0
EPOCHS_PER_CALL = 2  # the shortest schedule that keeps the recipe's warm-up epoch
KNN_K = (1, 10, 20)
PROBE_STEPS, PROBE_LR = 500, 0.1
# From the second training call on, an eval pass of the previous call's
# result runs after every EVAL_EVERY-th step, so that eval passes and steps
# sample the same stretch of the machine's time.
EVAL_EVERY = 2

SORT_BETA = 1.0
# Lists of each length in one round, so that each length takes a comparable
# share of the time (23-44 ms each per round, traced, on a 2-core x86 VM).
SORT_MIX = ((4, 20), (8, 14), (16, 8), (32, 4), (64, 1))
SORT_POOL_ROUNDS = 16  # distinct rounds of training lists, reused in turn
SORT_EVAL_ROUNDS = 25  # held-out rounds; one is sorted untaped after each training round


@dataclass
class Report:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    end_to_end: dict[str, float] = field(default_factory=dict)
    per_layer: dict[str, float] = field(default_factory=dict)
    tracer: Tracer | None = None

    def check(self, fn, *args, **kwargs) -> None:
        try:
            fn(*args, **kwargs)
        except checks.CheckFailed as e:
            self.problems.append(f"{fn.__name__}: {e}")


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # Linux reports KiB


def make_inputs(workload: str, seed: int):
    """Everything the workload feeds the program, generated from the seed."""
    if workload == "sort-supervision":
        rng = np.random.default_rng(seed)
        return sort_rounds(rng, SORT_POOL_ROUNDS), sort_rounds(rng, SORT_EVAL_ROUNDS)
    return class_subspace_data(seed)


def run(workload: str, inputs, seed: int, seconds: float, trace: bool, results_dir: str, pause) -> Report:
    """`pause()` is called between timed operations, at least every
    second or so; the time it takes is left out of every timing."""
    tracer = Tracer() if trace else None
    with tempfile.TemporaryDirectory(prefix="work-", dir=results_dir) as work_dir:
        if workload == "sort-supervision":
            report = sort_supervision(inputs, seed, seconds, tracer, pause)
        else:
            report = training(inputs, seed, seconds, tracer, work_dir, pause)
    report.tracer = tracer
    return report


# ---------------------------------------------------------------------------
# training workloads


def class_subspace_data(seed: int):
    rng = np.random.default_rng(seed)
    count = CLASSES * PER_CLASS
    centers = rng.standard_normal((CLASSES, CLASS_DIM))
    signal = np.repeat(centers, PER_CLASS, axis=0) + 0.3 * rng.standard_normal((count, CLASS_DIM))
    nuisance = 2.0 * rng.standard_normal((count, NUISANCE_DIM))
    labels = np.repeat(np.arange(CLASSES, dtype=np.uint32), PER_CLASS)
    dataset = dataio.Dataset(np.hstack([signal, nuisance]), labels, f"class-subspace(seed={seed})")
    return dataset, *dataio.split_dataset(dataset, TEST_FRACTION, seed)


class StepCapture:
    """Keeps the last step of every training call as seen at the
    `batch_loss` boundary: projections, image ids, the loss, and the
    gradient that `backward` returns for the projections."""

    def __init__(self, steps_per_call: int):
        self.steps_per_call = steps_per_call
        self.calls = 0
        self.step = None
        self.loss = self.projections = self.image_id = self.grad = None
        self._tensor = None

    def batch_loss(self, original):
        def capturing(batch, *args, **kwargs):
            loss = original(batch, *args, **kwargs)
            step = self.calls % self.steps_per_call
            self.calls += 1
            if step == self.steps_per_call - 1:
                self.step, self.loss = step, float(loss.data)
                self.projections = batch.projections.data.copy()
                self.image_id = batch.image_id.copy()
                self._tensor = batch.projections
            return loss

        return capturing

    def backward(self, original):
        def capturing(tape, loss):
            grads = original(tape, loss)
            if self._tensor is not None:
                self.grad = grads.grad(self._tensor).copy()
                self._tensor = None
            return grads

        return capturing


def _trace_training(tracer: Tracer) -> None:
    tracer.wrap(batchpipe, "batch_loss", "batchpipe.batch_loss")
    tracer.wrap(losses, "groco_loss", "losses.anchor_loss")
    tracer.wrap(diffgrad, "backward", "diffgrad.backward",
                count=lambda tape, loss: ("diffgrad.tape_nodes", len(tape.nodes)))
    tracer.wrap(dataio, "augment_view", "dataio.augment_view")
    tracer.wrap(dataio, "metrics_append", "dataio.metrics_append")
    tracer.wrap(model, "sgd_step", "model.sgd_step")


def _csv_loss(path: str, step: int) -> float:
    """The loss in the metrics row of `step`, or NaN when there is none."""
    with open(path, newline="") as fh:
        return next((float(row["loss"]) for row in csv.DictReader(fh) if int(row["step"]) == step), math.nan)


@dataclass
class EvalOutput:
    params: model.ModelParams
    train_ds: dataio.Dataset
    test_ds: dataio.Dataset
    rep_train: np.ndarray
    rep_test: np.ndarray
    knn: dict
    probe: float


def eval_pass(result, dataset, seed: int, work_dir: str, span) -> EvalOutput:
    """`groco train --save-data` writes, then `groco eval` reads back."""
    ckpt, data = os.path.join(work_dir, "model.ckpt"), os.path.join(work_dir, "data.gvec")
    with span("model.checkpoint_save"):
        model.checkpoint_save(result.params, result.opt_state, ckpt)
    with span("dataio.gvec_write"):
        dataio.gvec_write(dataset, data)
    with span("model.checkpoint_load"):
        params, _ = model.checkpoint_load(ckpt)
    with span("dataio.gvec_read"):
        loaded = dataio.gvec_read(data)
    train_ds, test_ds = dataio.split_dataset(loaded, TEST_FRACTION, seed)
    with span("model.forward"):
        rep_train, _ = model.forward(params, train_ds.vectors.astype(np.float64))
    with span("model.forward"):
        rep_test, _ = model.forward(params, test_ds.vectors.astype(np.float64))
    knn = {}
    for k in KNN_K:
        with span("evals.knn_accuracy"):
            knn[k] = evals.knn_accuracy(rep_train, train_ds.labels, rep_test, test_ds.labels, k)
    with span("evals.linear_probe"):
        probe = evals.linear_probe(
            rep_train, train_ds.labels, rep_test, test_ds.labels, steps=PROBE_STEPS, lr=PROBE_LR
        )
    return EvalOutput(params, train_ds, test_ds, rep_train, rep_test, knn, probe)


def training(inputs, seed: int, seconds: float, tracer: Tracer | None, work_dir: str, pause) -> Report:
    dataset, train_ds, test_ds = inputs
    config = model.TrainConfig(
        epochs=EPOCHS_PER_CALL, loss_kind="groco", lr=LEARNING_RATE, view_noise=VIEW_NOISE, seed=seed
    )
    steps_per_call = config.epochs * (train_ds.count // config.batch_size)
    views_per_step = config.views * config.batch_size
    metrics_csv = os.path.join(work_dir, "metrics.csv")
    span = tracer.span if tracer else lambda name: nullcontext()
    report = Report()
    capture = StepCapture(steps_per_call)
    step_s: list[float] = []
    eval_s: list[float] = []
    step_start = 0.0
    result = outputs = None

    def evaluate() -> None:
        nonlocal outputs
        report.attempted += 1
        start = time.perf_counter()
        try:
            with span("eval_pass"):
                outputs = eval_pass(result, dataset, seed, work_dir, span)
        except Exception:
            traceback.print_exc()
            report.failed += 1
            return
        eval_s.append(time.perf_counter() - start)

    def step_ended(original):
        """Times each step up to its metrics row, the call `model.train`
        makes once per step, and runs the interleaved eval passes."""

        def stamped(*args, **kwargs):
            nonlocal step_start
            out = original(*args, **kwargs)
            step_s.append(time.perf_counter() - step_start)
            if result is not None and len(step_s) % EVAL_EVERY == 0:
                evaluate()
            pause()
            step_start = time.perf_counter()
            return out

        return stamped

    with ExitStack() as stack:
        stack.enter_context(patched(batchpipe, "batch_loss", capture.batch_loss))
        stack.enter_context(patched(diffgrad, "backward", capture.backward))
        if tracer:
            _trace_training(tracer)
            stack.callback(tracer.unwrap_all)
        # Outside the traced `metrics_append`, so that eval spans are not its children.
        stack.enter_context(patched(dataio, "metrics_append", step_ended))
        # Repeat the same seeded training call while the next one, judged by
        # the last, ends nearer the requested time than stopping now does.
        window_start = time.perf_counter()
        while True:
            if os.path.exists(metrics_csv):
                os.remove(metrics_csv)  # like `groco train`: the CSV describes one run
            done = len(step_s)
            call_start = step_start = time.perf_counter()
            report.attempted += steps_per_call
            try:
                with span("model.train"):
                    result = model.train(train_ds, config, metrics_path=metrics_csv)
            except Exception:  # a failed step: count the steps it cost and stop
                traceback.print_exc()
                report.failed += steps_per_call - (len(step_s) - done)
                result = None
                break
            now = time.perf_counter()
            if now - window_start + (now - call_start) / 2 >= seconds:
                break
    if result is not None:
        evaluate()  # of the last call's result, whose outputs are checked
    peak_mb = _peak_rss_mb()

    if result is not None and outputs is not None:
        print(f"perfbench: groco k-NN {outputs.knn} probe {outputs.probe}", file=sys.stderr)
        _check_training(report, config, seed, capture, metrics_csv, result, outputs)
    else:
        report.problems.append("training or evaluation failed; nothing to check")

    if not (step_s and eval_s):
        return report  # nothing was timed: no metrics
    items_per_s = views_per_step * len(step_s) / sum(step_s)
    if tracer:
        report.per_layer = _training_layers(tracer, len(step_s), len(eval_s), items_per_s)
    else:
        report.end_to_end = {
            "items_per_s": items_per_s,
            "step_ms_p50": 1e3 * statistics.median(step_s),
            "eval_s": statistics.median(eval_s),
            "peak_rss_mb": peak_mb,
        }
    return report


def _check_training(report, config, seed, capture, metrics_csv, result, out) -> None:
    spec = checks.LossSpec(beta=config.beta, num_negatives=config.num_negatives)
    csv_loss = _csv_loss(metrics_csv, capture.step)
    report.check(checks.check_step_loss, capture.projections, capture.image_id, spec, capture.loss, csv_loss)
    report.check(
        checks.check_step_gradient, capture.projections, capture.image_id, spec, capture.grad,
        np.random.default_rng(seed),
    )
    report.check(checks.check_checkpoint, dict(result.params.named_arrays()), dict(out.params.named_arrays()))
    report.check(checks.check_representation, out.params.encoder, out.train_ds.vectors, out.rep_train)
    report.check(checks.check_representation, out.params.encoder, out.test_ds.vectors, out.rep_test)
    for k, accuracy in out.knn.items():
        report.check(
            checks.check_knn, out.rep_train, out.train_ds.labels, out.rep_test, out.test_ds.labels, k, accuracy,
            evals.KNN_WEIGHT_TAU,
        )
    report.check(
        checks.check_probe, out.rep_train, out.train_ds.labels, out.rep_test, out.test_ds.labels, out.probe,
        PROBE_STEPS, PROBE_LR,
    )


def _training_layers(tracer: Tracer, steps: int, passes: int, items_per_s: float) -> dict[str, float]:
    per_step = {
        "batchpipe.batch_loss.ms_per_step": tracer.total_ms("batchpipe.batch_loss"),
        "batchpipe.batch_loss.self_ms_per_step": tracer.self_ms("batchpipe.batch_loss"),
        "losses.anchor_loss.ms_per_step": tracer.total_ms("losses.anchor_loss"),
        "losses.anchor_loss.calls_per_step": tracer.calls("losses.anchor_loss"),
        "diffgrad.backward.ms_per_step": tracer.total_ms("diffgrad.backward"),
        "diffgrad.tape_nodes_per_step": tracer.counts["diffgrad.tape_nodes"],
        "dataio.augment_view.ms_per_step": tracer.total_ms("dataio.augment_view"),
        "dataio.augment_view.calls_per_step": tracer.calls("dataio.augment_view"),
        "dataio.metrics_append.ms_per_step": tracer.total_ms("dataio.metrics_append"),
        "model.sgd_step.ms_per_step": tracer.total_ms("model.sgd_step"),
        "model.step_other.ms_per_step": tracer.self_ms("model.train"),
    }
    layers = {name: value / steps for name, value in per_step.items()}
    for name in ("model.checkpoint_save", "model.checkpoint_load", "dataio.gvec_write", "dataio.gvec_read",
                 "model.forward", "evals.knn_accuracy", "evals.linear_probe"):
        layers[name + ".ms"] = tracer.total_ms(name) / passes
    layers["trace.items_per_s"] = items_per_s
    return layers


# ---------------------------------------------------------------------------
# sorting supervision


def sort_rounds(rng, rounds: int):
    """Rounds of (values, Q) lists in the SORT_MIX proportions; Q is the 0/1
    matrix that sorts the values ascending (rows: output positions)."""
    out = []
    for _ in range(rounds):
        lists = []
        for n, count in SORT_MIX:
            for _ in range(count):
                values = rng.uniform(0.0, float(n), n)
                q = np.zeros((n, n))
                q[np.arange(n), np.argsort(values, kind="stable")] = 1.0
                lists.append((values, q))
        out.append(lists)
    return out


def _plain_supervision_loss(values, q) -> float:
    return losses.sorting_supervision_loss(sortcore.diff_sort(values, SORT_BETA)[1], q)


def sort_eval_pass(lists):
    """Untaped relaxed sort of one held-out round, each list scored against its Q."""
    out = []
    for values, q in lists:
        soft, perm = sortcore.diff_sort(values, SORT_BETA)
        out.append((values, q, soft, perm.entries, losses.sorting_supervision_loss(perm, q)))
    return out


def sort_supervision(inputs, seed: int, seconds: float, tracer: Tracer | None, pause) -> Report:
    pool, held_out = inputs
    span = tracer.span if tracer else lambda name: nullcontext()
    report = Report()
    first_round = []
    evaluated = []
    round_s: list[float] = []
    eval_s: list[float] = []
    lists_done = 0
    window_start = time.perf_counter()
    while time.perf_counter() - window_start < seconds:
        r = len(round_s)
        start = time.perf_counter()
        for values, q in pool[r % len(pool)]:
            n = values.size
            report.attempted += 1
            try:
                tape = diffgrad.Tape()
                x = tape.variable(values)
                with span(f"sortcore.diff_sort.n{n}"):
                    soft, p = sortcore.diff_sort(x, SORT_BETA)
                with span(f"losses.sorting_supervision_loss.n{n}"):
                    loss = losses.sorting_supervision_loss(p, q)
                if tracer:
                    tracer.count(f"diffgrad.tape_nodes.n{n}", len(tape.nodes))
                with span(f"diffgrad.backward.n{n}"):
                    grad = diffgrad.backward(tape, loss).grad(x)
            except Exception:
                traceback.print_exc()
                report.failed += 1
                continue
            lists_done += 1
            if r == 0:
                first_round.append((values, q, soft.data, p.data, float(loss.data), grad))
        round_s.append(time.perf_counter() - start)

        # One held-out round after every training round, so that the eval
        # passes sample the same stretch of the machine's time.
        report.attempted += 1
        start = time.perf_counter()
        try:
            outputs = sort_eval_pass(held_out[r % len(held_out)])
        except Exception:
            traceback.print_exc()
            report.failed += 1
            continue
        eval_s.append(time.perf_counter() - start)
        if r < len(held_out):
            evaluated += outputs
        pause()
    peak_mb = _peak_rss_mb()

    rng = np.random.default_rng(seed)
    gradient_checked = set()
    for values, q, soft, p, loss, grad in first_round:
        report.check(checks.check_permutation, values, SORT_BETA, soft, p)
        report.check(checks.check_supervision_loss, p, q, loss)
        if values.size not in gradient_checked:
            gradient_checked.add(values.size)
            report.check(checks.check_value_gradient, values, q, SORT_BETA, grad, rng, _plain_supervision_loss)
    for i, (values, q, soft, p, loss) in enumerate(evaluated):
        if i < len(held_out[0]):
            report.check(checks.check_permutation, values, SORT_BETA, soft, p)
        report.check(checks.check_supervision_loss, p, q, loss)
    if not (first_round and evaluated):
        report.problems.append("no sorted list or eval pass succeeded; nothing to check")

    if not (lists_done and eval_s):
        return report  # nothing was timed: no metrics
    sort_s = sum(round_s)
    if tracer:
        layers = {"trace.items_per_s": lists_done / sort_s}
        for n, _ in SORT_MIX:
            lists_n = tracer.calls(f"diffgrad.backward.n{n}")
            for name in ("sortcore.diff_sort", "losses.sorting_supervision_loss", "diffgrad.backward"):
                layers[f"{name}.ms.n{n}"] = tracer.total_ms(f"{name}.n{n}") / lists_n
            layers[f"diffgrad.tape_nodes.n{n}"] = tracer.counts[f"diffgrad.tape_nodes.n{n}"] / lists_n
        report.per_layer = layers
    else:
        report.end_to_end = {
            "items_per_s": lists_done / sort_s,
            "step_ms_p50": 1e3 * statistics.median(round_s),
            "eval_s": statistics.median(eval_s),
            "peak_rss_mb": peak_mb,
        }
    return report

"""Desk-scale encoder + projection head, SGD trainer, and checkpointing.

The encoder is a small ReLU MLP; its last affine output is the
representation used for evaluation. The projection head is a second ReLU MLP
whose output is the space where training distances live. The encoder's last
layer has no ReLU, so it and the head's first layer are one affine map: the
projection is computed through that map, and training, which needs only the
projection, never forms the representation. Training keeps all math in
float64; checkpoints store float32 on disk.
"""

from __future__ import annotations

import contextlib
import math
import struct
from dataclasses import dataclass, field

import numpy as np

from . import batchpipe, dataio
from . import diffgrad as dg
from .dataio import Dataset
from .losses import GroCoParams, InfoNCEParams, TripletParams

__all__ = [
    "ModelParams",
    "OptimizerState",
    "TrainConfig",
    "TrainResult",
    "TrainingDiverged",
    "CheckpointFormatError",
    "init_params",
    "forward",
    "cosine_warmup_lr",
    "init_optimizer",
    "sgd_step",
    "checkpoint_save",
    "checkpoint_load",
    "train",
]


class CheckpointFormatError(ValueError):
    """Raised when a checkpoint file is malformed; messages carry the byte
    offset of the first inconsistency."""


class TrainingDiverged(ArithmeticError):
    def __init__(self, step: int, value: float):
        super().__init__(f"non-finite loss {value} at step {step}")
        self.step = step


@dataclass
class ModelParams:
    """Affine (weight, bias) stacks for the encoder and the projection head.
    Weights are (fan_in, fan_out); ReLU sits between layers of each stack."""

    encoder: list[tuple[np.ndarray, np.ndarray]]
    projection: list[tuple[np.ndarray, np.ndarray]]

    @property
    def input_dim(self) -> int:
        return self.encoder[0][0].shape[0]

    def named_arrays(self):
        for i, (w, b) in enumerate(self.encoder):
            yield f"enc.{i}.weight", w
            yield f"enc.{i}.bias", b
        for i, (w, b) in enumerate(self.projection):
            yield f"proj.{i}.weight", w
            yield f"proj.{i}.bias", b


def init_params(
    input_dim: int,
    encoder_widths=(128, 128),
    projection_widths=(64, 64),
    seed: int = 0,
) -> ModelParams:
    """Xavier-uniform weights (bound sqrt(6/(fan_in+fan_out))), zero biases,
    deterministic per seed."""
    dims = [int(input_dim), *map(int, encoder_widths), *map(int, projection_widths)]
    if any(d <= 0 for d in dims):
        raise ValueError(f"all layer dims must be positive, got {dims}")
    if not encoder_widths or not projection_widths:
        raise ValueError("encoder and projection need at least one layer each")
    rng = np.random.default_rng(seed)
    layers = []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        bound = math.sqrt(6.0 / (fan_in + fan_out))
        w = rng.uniform(-bound, bound, size=(fan_in, fan_out))
        layers.append((w, np.zeros(fan_out, dtype=np.float64)))
    n_enc = len(encoder_widths)
    return ModelParams(encoder=layers[:n_enc], projection=layers[n_enc:])


def _forward_core(encoder, projection, x):
    """Shared forward of training and `forward`, over plain arrays or tape
    tensors; returns (h, projection) for the output h of the encoder's
    hidden layers. Each hidden layer is one `affine` op with ReLU. The
    encoder's last layer and the head's first are one `affine_pair` op, and
    the head's other layers `affine` ops, with ReLU on all but the last. The
    representation, `affine(h, *encoder[-1], relu=False)`, is left to the
    caller that needs it, so training never forms it. A plain `x` gets no
    gradient."""
    h = x
    for w, b in encoder[:-1]:
        h = dg.affine(h, w, b, relu=True)
    out = dg.affine_pair(h, *encoder[-1], *projection[0], relu=len(projection) > 1)
    for i, (w, b) in enumerate(projection[1:], start=1):
        out = dg.affine(out, w, b, relu=i < len(projection) - 1)
    return h, out


def forward(params: ModelParams, x):
    """Map inputs to (representation, projection). Accepts a single vector or
    a (n, D_in) batch; the representation is the encoder output before the
    projection head."""
    arr = np.asarray(x, dtype=np.float64)
    single = arr.ndim == 1
    if single:
        arr = arr[None, :]
    if arr.ndim != 2 or arr.shape[1] != params.input_dim:
        raise ValueError(f"expected input dim {params.input_dim}, got shape {np.shape(x)}")
    h, proj = _forward_core(params.encoder, params.projection, arr)
    rep = dg.affine(h, *params.encoder[-1], relu=False)
    if single:
        return rep[0], proj[0]
    return rep, proj


def cosine_warmup_lr(step: int, total_steps: int, warmup_steps: int, base_lr: float) -> float:
    """Linear ramp 0 -> base_lr over the warmup, then a single cosine decay
    (no restarts) over the remaining steps."""
    if not (0 <= step < total_steps):
        raise ValueError(f"step must be in [0, {total_steps}), got {step}")
    if not (0 <= warmup_steps < total_steps):
        raise ValueError(f"warmup_steps must be in [0, {total_steps}), got {warmup_steps}")
    if step < warmup_steps:
        return base_lr * step / warmup_steps
    t = (step - warmup_steps) / (total_steps - warmup_steps)
    return base_lr * 0.5 * (1.0 + math.cos(math.pi * t))


@dataclass
class OptimizerState:
    velocity: dict[str, np.ndarray]
    step_count: int
    momentum: float
    base_lr: float


def init_optimizer(params: ModelParams, momentum: float = 0.9, base_lr: float = 10.0) -> OptimizerState:
    velocity = {name: np.zeros_like(arr) for name, arr in params.named_arrays()}
    return OptimizerState(velocity=velocity, step_count=0, momentum=momentum, base_lr=base_lr)


def sgd_step(
    params: ModelParams,
    grads: dict[str, np.ndarray],
    state: OptimizerState,
    lr: float | None = None,
) -> tuple[ModelParams, OptimizerState]:
    """v <- momentum*v + g; p <- p - lr*v (in place). `lr` defaults to the
    state's base learning rate so schedules can pass the current value."""
    if lr is None:
        lr = state.base_lr
    for name, arr in params.named_arrays():
        g = grads[name]
        if g.shape != arr.shape:
            raise ValueError(f"gradient shape {g.shape} != param shape {arr.shape} for {name}")
        v = state.velocity[name]
        v *= state.momentum
        v += g
        arr -= lr * v
    state.step_count += 1
    return params, state


# ---------------------------------------------------------------------------
# checkpoint file format: little-endian, magic "GRCO", version u32=1,
# tensor count u32; per tensor: name length u16, UTF-8 name, ndim u8,
# each dim u32, float32 data row-major. Optimizer entries use "opt." names.

_MAGIC = b"GRCO"
_VERSION = 1


def checkpoint_save(params: ModelParams, state: OptimizerState, path) -> None:
    tensors: list[tuple[str, np.ndarray]] = list(params.named_arrays())
    tensors += [(f"opt.v.{name}", v) for name, v in state.velocity.items()]
    tensors += [
        ("opt.step", np.array([state.step_count], dtype=np.float64)),
        ("opt.momentum", np.array([state.momentum], dtype=np.float64)),
        ("opt.base_lr", np.array([state.base_lr], dtype=np.float64)),
    ]
    chunks = [struct.pack("<4sII", _MAGIC, _VERSION, len(tensors))]
    for name, arr in tensors:
        name_b = name.encode("utf-8")
        chunks.append(struct.pack("<H", len(name_b)))
        chunks.append(name_b)
        chunks.append(struct.pack("<B", arr.ndim))
        chunks.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        chunks.append(np.ascontiguousarray(arr, dtype="<f4").tobytes())
    with open(path, "wb") as fh:
        fh.write(b"".join(chunks))


class _Reader:
    def __init__(self, blob: bytes):
        self.blob = blob
        self.offset = 0

    def take(self, count: int, what: str) -> bytes:
        if self.offset + count > len(self.blob):
            raise CheckpointFormatError(
                f"truncated checkpoint: needed {count} bytes for {what} at offset {self.offset}"
            )
        piece = self.blob[self.offset : self.offset + count]
        self.offset += count
        return piece


def checkpoint_load(path) -> tuple[ModelParams, OptimizerState]:
    with open(path, "rb") as fh:
        blob = fh.read()
    r = _Reader(blob)
    magic, version, count = struct.unpack("<4sII", r.take(12, "header"))
    if magic != _MAGIC:
        raise CheckpointFormatError(f"bad magic {magic!r} at offset 0")
    if version != _VERSION:
        raise CheckpointFormatError(f"unsupported version {version} at offset 4")
    tensors: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = struct.unpack("<H", r.take(2, "name length"))
        name = r.take(name_len, "name").decode("utf-8")
        (ndim,) = struct.unpack("<B", r.take(1, "ndim"))
        shape = struct.unpack(f"<{ndim}I", r.take(4 * ndim, "dims"))
        size = int(np.prod(shape, dtype=np.int64)) if ndim else 1
        data = np.frombuffer(r.take(4 * size, f"data of {name}"), dtype="<f4")
        if name in tensors:
            raise CheckpointFormatError(f"tensor {name!r} given twice, again at offset {r.offset}")
        tensors[name] = data.astype(np.float64).reshape(shape)
    if r.offset != len(blob):
        raise CheckpointFormatError(f"trailing bytes at offset {r.offset}")

    def tensor(name: str) -> np.ndarray:
        if name not in tensors:
            raise CheckpointFormatError(f"missing tensor {name!r}")
        return tensors[name]

    def scalar(name: str) -> float:
        value = tensor(name)
        if value.size != 1:
            raise CheckpointFormatError(f"tensor {name!r} must hold one value, got shape {value.shape}")
        return float(value.flat[0])

    def layer_stack(prefix: str) -> list[tuple[np.ndarray, np.ndarray]]:
        stack = []
        i = 0
        while f"{prefix}.{i}.weight" in tensors:
            stack.append((tensors[f"{prefix}.{i}.weight"], tensor(f"{prefix}.{i}.bias")))
            i += 1
        if not stack:
            raise CheckpointFormatError(f"no '{prefix}.*' tensors in checkpoint")
        return stack

    params = ModelParams(encoder=layer_stack("enc"), projection=layer_stack("proj"))
    state = OptimizerState(
        velocity={name: tensor(f"opt.v.{name}") for name, _ in params.named_arrays()},
        step_count=int(scalar("opt.step")),
        momentum=scalar("opt.momentum"),
        base_lr=scalar("opt.base_lr"),
    )
    return params, state


# ---------------------------------------------------------------------------
# training


@dataclass
class TrainConfig:
    """Full configuration of one training run; the seed fixes every random
    draw (shuffling, view noise, weight init, negative sampling)."""

    epochs: int = 20
    batch_size: int = 128
    views: int = 2
    loss_kind: str = "groco"
    beta: float = 1.0
    num_negatives: int = 10
    infonce_tau: float = 0.1
    triplet_margin: float = 0.8
    stop_grad: bool = True
    preorder: bool = True
    random_negatives: bool = False
    infonce_top_n: bool = False
    lr: float = 10.0
    momentum: float = 0.9
    warmup_epochs: int = 1
    seed: int = 0
    view_noise: float | tuple[float, ...] = 0.5  # scalar or one std per input coordinate
    encoder_widths: tuple[int, ...] = (128, 128)
    projection_widths: tuple[int, ...] = (64, 64)

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 2 or self.views < 2:
            raise ValueError("need epochs >= 1, batch_size >= 2, views >= 2")
        if self.loss_kind not in batchpipe.LOSS_KINDS:
            raise ValueError(f"unknown loss_kind {self.loss_kind!r}")
        if self.num_negatives < 1:
            raise ValueError(f"num_negatives must be >= 1, got {self.num_negatives}")
        if not (math.isfinite(self.lr) and self.lr > 0) or not (0 <= self.momentum < 1):
            raise ValueError(f"need a finite lr > 0 and 0 <= momentum < 1, got lr {self.lr}, momentum {self.momentum}")
        if self.warmup_epochs < 0 or self.warmup_epochs >= self.epochs:
            raise ValueError("need 0 <= warmup_epochs < epochs")
        dataio.check_view_noise(self.view_noise)

    def loss_params(self):
        if self.loss_kind == "groco":
            return GroCoParams(beta=self.beta)
        if self.loss_kind == "infonce":
            return InfoNCEParams(tau=self.infonce_tau)
        return TripletParams(margin=self.triplet_margin)

    def as_flat_dict(self) -> dict[str, object]:
        d = dict(self.__dict__)
        d["encoder_widths"] = ",".join(str(w) for w in self.encoder_widths)
        d["projection_widths"] = ",".join(str(w) for w in self.projection_widths)
        return d


@dataclass
class TrainResult:
    params: ModelParams
    opt_state: OptimizerState
    step_losses: list[float] = field(repr=False)
    steps_per_epoch: int = 0


def train(dataset: Dataset, config: TrainConfig, metrics_path=None) -> TrainResult:
    """Single-threaded training loop; bitwise reproducible for a fixed seed.

    Each step: draw a batch of images, make `views` noisy views per image,
    run them through the model on a fresh tape, average the per-anchor loss,
    backprop, and apply one scheduled SGD step. Raises `TrainingDiverged`
    (with the step number) on a non-finite loss and `NumericError` (naming
    the view) on a non-finite projection; numpy's overflow and invalid-value
    warnings are silenced inside a step, so these are what a run sees.
    """
    count = dataset.vectors.shape[0]
    if count < config.batch_size:
        raise ValueError(f"dataset of {count} samples is smaller than one batch")
    steps_per_epoch = count // config.batch_size
    total_steps = config.epochs * steps_per_epoch
    warmup_steps = config.warmup_epochs * steps_per_epoch
    view_noise = dataio.check_view_noise(config.view_noise, dataset.dim)

    init_seed, shuffle_seed, augment_seed, negative_seed = np.random.SeedSequence(
        config.seed
    ).generate_state(4)
    params = init_params(
        dataset.vectors.shape[1],
        config.encoder_widths,
        config.projection_widths,
        seed=init_seed,
    )
    state = init_optimizer(params, momentum=config.momentum, base_lr=config.lr)
    rng_shuffle = np.random.default_rng(shuffle_seed)
    rng_augment = np.random.default_rng(augment_seed)
    rng_negative = np.random.default_rng(negative_seed)

    loss_params = config.loss_params()
    vectors = dataset.vectors.astype(np.float64)
    m, bsz = config.views, config.batch_size
    step_losses: list[float] = []
    step = 0
    # one handle per run, closed also when a step raises
    with contextlib.nullcontext() if metrics_path is None else open(metrics_path, "a", newline="") as metrics:
        for epoch in range(config.epochs):
            order = rng_shuffle.permutation(count)
            for batch_index in range(steps_per_epoch):
                image_rows = order[batch_index * bsz : (batch_index + 1) * bsz]
                # row i * m + v is view v of image i, drawn in that order
                views = dataio.augment_view(np.repeat(vectors[image_rows], m, axis=0), view_noise, rng_augment)
                image_id = np.repeat(np.arange(bsz), m)

                lr = cosine_warmup_lr(step, total_steps, warmup_steps, config.lr)
                # overflow and invalid values run on silently; the step's own checks
                # then name the failure (NumericError or TrainingDiverged)
                with np.errstate(over="ignore", invalid="ignore"):
                    tape = dg.Tape()
                    enc_t = [(tape.variable(w), tape.variable(b)) for w, b in params.encoder]
                    proj_t = [(tape.variable(w), tape.variable(b)) for w, b in params.projection]
                    _, projections = _forward_core(enc_t, proj_t, views)
                    batch = batchpipe.ViewBatch(projections, image_id, m)
                    loss = batchpipe.batch_loss(
                        batch,
                        config.loss_kind,
                        loss_params,
                        num_negatives=config.num_negatives,
                        stop_grad=config.stop_grad,
                        preorder=config.preorder,
                        random_negatives=config.random_negatives,
                        infonce_top_n=config.infonce_top_n,
                        rng=rng_negative,
                    )
                    loss_value = float(loss.data)
                    if not math.isfinite(loss_value):
                        raise TrainingDiverged(step, loss_value)
                    gmap = dg.backward(tape, loss)
                    tensor_by_name = {}
                    for i, (tw, tb) in enumerate(enc_t):
                        tensor_by_name[f"enc.{i}.weight"] = tw
                        tensor_by_name[f"enc.{i}.bias"] = tb
                    for i, (tw, tb) in enumerate(proj_t):
                        tensor_by_name[f"proj.{i}.weight"] = tw
                        tensor_by_name[f"proj.{i}.bias"] = tb
                    grads = {name: gmap.grad(tensor_by_name[name]) for name, _ in params.named_arrays()}
                    sgd_step(params, grads, state, lr=lr)
                step_losses.append(loss_value)
                if metrics is not None:
                    dataio.metrics_append(metrics, {"epoch": epoch, "step": step, "loss": loss_value, "lr": lr})
                step += 1
    return TrainResult(params=params, opt_state=state, step_losses=step_losses, steps_per_epoch=steps_per_epoch)

"""Command-line entry point: sort / train / eval / toy / gradcheck.

Exit codes are a stable contract for scripting: 0 success, 1 check failure,
2 usage or input error, 3 numeric failure. The environment variable
GROCO_SEED overrides the default --seed.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from . import dataio, diffgrad, evals, losses, model
from .dataio import Dataset, GvecFormatError, SynthConfig
from .losses import GroCoParams, InfoNCEParams
from .model import CheckpointFormatError, TrainConfig, TrainingDiverged
from .sortcore import diff_sort, hard_sort, permutation_matrix

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3


def _default_seed() -> int:
    raw = os.environ.get("GROCO_SEED", "0")
    try:
        return int(raw)
    except ValueError as e:
        raise ValueError(f"GROCO_SEED must be an integer, got {raw!r}") from e


def _parse_floats(text: str, what: str) -> list[float]:
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError as e:
        raise ValueError(f"could not parse {what} {text!r} as comma-separated reals") from e
    if not values:
        raise ValueError(f"{what} is empty")
    return values


def _fmt_row(row) -> str:
    return " ".join(f"{v:.9g}" for v in row)


# ---------------------------------------------------------------------------
# subcommands


def cmd_sort(args) -> int:
    values = _parse_floats(args.values, "--values")
    if args.hard:
        ordered, perm = hard_sort(values)
        matrix = permutation_matrix(perm)
    else:
        ordered, relaxed = diff_sort(values, args.beta)
        matrix = relaxed.entries
    print(_fmt_row(ordered))
    for row in matrix:
        print(_fmt_row(row))
    return EXIT_OK


def _load_training_data(args) -> Dataset:
    if args.data is not None:
        return dataio.gvec_read(args.data)
    if args.synth:
        cfg = SynthConfig(
            clusters=args.clusters,
            dim=args.dim,
            per_cluster=args.per_cluster,
            center_scale=args.center_scale,
            inst_noise=args.inst_noise,
            seed=args.seed,
        )
        return dataio.synth_generate(cfg)
    raise ValueError("no training data: pass --data FILE.gvec or --synth")


def _train_config(args) -> TrainConfig:
    return TrainConfig(
        epochs=args.epochs,
        batch_size=args.batch_size,
        views=args.views,
        loss_kind=args.loss,
        beta=args.beta,
        num_negatives=args.neg,
        infonce_tau=args.tau,
        triplet_margin=float("inf") if args.margin == "inf" else float(args.margin),
        stop_grad=args.stopgrad,
        preorder=args.preorder,
        random_negatives=args.random_negatives,
        infonce_top_n=args.infonce_top_n,
        lr=args.lr,
        momentum=args.momentum,
        warmup_epochs=args.warmup_epochs,
        seed=args.seed,
        view_noise=args.view_noise,
    )


def cmd_train(args) -> int:
    args.seed = _default_seed() if args.seed is None else args.seed
    dataset = _load_training_data(args)
    config = _train_config(args)
    if args.dump_config:
        for key, value in sorted(config.as_flat_dict().items()):
            print(f"{key}={value}")
        print(f"data={dataset.provenance}")
    if args.save_data is not None:
        dataio.gvec_write(dataset, args.save_data)
    if os.path.exists(args.metrics):
        os.remove(args.metrics)  # metrics describe exactly this run
    result = model.train(dataset, config, metrics_path=args.metrics)
    model.checkpoint_save(result.params, result.opt_state, args.ckpt)
    first = np.mean(result.step_losses[: result.steps_per_epoch])
    last = np.mean(result.step_losses[-result.steps_per_epoch :])
    print(f"trained {config.epochs} epochs, {len(result.step_losses)} steps")
    print(f"mean epoch loss: first={first:.6g} last={last:.6g}")
    print(f"checkpoint={args.ckpt} metrics={args.metrics}")
    return EXIT_OK


def _embed(params, dataset: Dataset, space: str) -> np.ndarray:
    rep, proj = model.forward(params, dataset.vectors.astype(np.float64))
    return rep if space == "representation" else proj


def cmd_eval(args) -> int:
    args.seed = _default_seed() if args.seed is None else args.seed
    params, _ = model.checkpoint_load(args.ckpt)
    dataset = dataio.gvec_read(args.data)
    if dataset.labels is None:
        raise ValueError("evaluation requires a labeled dataset")
    train_ds, test_ds = dataio.split_dataset(dataset, args.split, args.seed)
    train_embeds = _embed(params, train_ds, args.space)
    test_embeds = _embed(params, test_ds, args.space)
    knn, linear = {}, None
    if args.mode == "knn":
        ks = _parse_floats(args.k, "--k")
        if not all(k.is_integer() for k in ks):
            raise ValueError(f"--k must be comma-separated integers, got {args.k!r}")
        ks = [int(k) for k in ks]
        knn = evals.knn_accuracies(train_embeds, train_ds.labels, test_embeds, test_ds.labels, ks, args.weight_tau)
        for k in ks:
            print(f"knn k={k} space={args.space} accuracy={knn[k]:.6f}")
    else:
        linear = evals.linear_probe(
            train_embeds,
            train_ds.labels,
            test_embeds,
            test_ds.labels,
            steps=args.probe_steps,
            lr=args.probe_lr,
        )
        print(f"linear_probe space={args.space} accuracy={linear:.6f}")
    if args.out is not None:
        with open(args.out, "w") as fh:
            fh.write("metric,k,accuracy\n")
            for k, acc in knn.items():
                fh.write(f"knn,{k},{acc:.12g}\n")
            if linear is not None:
                fh.write(f"linear,,{linear:.12g}\n")
    return EXIT_OK


def cmd_toy(args) -> int:
    init = _parse_floats(args.init, "--init")
    if args.loss == "groco":
        params = GroCoParams(beta=args.beta)
    else:
        params = InfoNCEParams(tau=args.tau)
    trajectory = evals.toy_dynamics(args.loss, init, args.steps, args.lr, params)
    evals.write_trajectory_csv(trajectory, args.out)
    print(f"wrote {trajectory.steps + 1} rows to {args.out}")
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    args.seed = _default_seed() if args.seed is None else args.seed
    betas = _parse_floats(args.betas, "--betas")
    if args.kmax < 1 or args.nmax < 1:
        raise ValueError(f"--kmax and --nmax must be >= 1, got {args.kmax} and {args.nmax}")
    for name, value in (("--h", args.h), ("--tol", args.tol)):
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be a finite positive real, got {value}")
    rng = np.random.default_rng(args.seed)
    worst = (-1.0, None)  # (max rel error, description)
    all_pass = True
    for beta in betas:
        for k in range(1, args.kmax + 1):
            for n in range(1, args.nmax + 1):
                point = _separated_point(rng, k + n)
                fn = lambda tape, x, k=k, beta=beta: losses.groco_from_raw_distances(x, k, beta)
                report = diffgrad.grad_check(fn, point, h=args.h, tol=args.tol)
                if report.max_rel_error > worst[0]:
                    worst = (
                        report.max_rel_error,
                        f"positives={k} negatives={n} beta={beta:g} coordinate={report.worst_index}",
                    )
                if not report.passed:
                    all_pass = False
        print(f"beta={beta:g}: checked positives<= {args.kmax}, negatives<= {args.nmax}")
    status = "pass" if all_pass else "FAIL"
    print(f"gradcheck {status}: worst relative error {worst[0]:.3e} at {worst[1]}")
    return EXIT_OK if all_pass else EXIT_CHECK_FAILED


def _separated_point(rng: np.random.Generator, size: int, min_gap: float = 1e-3) -> np.ndarray:
    """Random distances whose pairwise gaps exceed `min_gap`, drawn from a
    moderate range: the hard pre-ordering then stays on one branch under the
    +-h probes, and no coordinate's gradient degenerates below what a central
    difference can certify at the default tolerance."""
    while True:
        x = rng.uniform(-0.4, 0.4, size)
        if size == 1 or np.min(np.diff(np.sort(x))) >= min_gap:
            return x


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="groco",
        description="Differentiable sorting networks and group-ordering losses (desk scale).",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    fmt = argparse.ArgumentDefaultsHelpFormatter

    p = sub.add_parser("sort", help="sort values and print the permutation matrix", formatter_class=fmt)
    p.add_argument("--values", required=True, help="comma-separated reals to sort")
    p.add_argument("--beta", type=float, default=1.0, help="inverse temperature of the relaxed swap")
    p.add_argument("--hard", action="store_true", help="use the discrete network and a 0/1 matrix")
    p.set_defaults(func=cmd_sort)

    p = sub.add_parser("train", help="train the encoder + projection head", formatter_class=fmt)
    p.add_argument("--data", default=None, help="GVEC dataset path")
    p.add_argument("--synth", action="store_true", help="generate the synthetic clustered dataset")
    p.add_argument("--clusters", type=int, default=8, help="synthetic: number of clusters")
    p.add_argument("--dim", type=int, default=32, help="synthetic: vector dimension")
    p.add_argument("--per-cluster", type=int, default=200, help="synthetic: samples per cluster")
    p.add_argument("--center-scale", type=float, default=4.0, help="synthetic: cluster center scale")
    p.add_argument("--inst-noise", type=float, default=0.5, help="synthetic: instance noise sigma")
    p.add_argument("--save-data", default=None, help="also write the dataset to this GVEC path")
    p.add_argument("--epochs", type=int, default=20, help="training epochs")
    p.add_argument("--batch-size", type=int, default=128, help="images per batch")
    p.add_argument("--views", type=int, default=2, help="augmented views per image (>= 2)")
    p.add_argument("--loss", choices=["groco", "infonce", "triplet"], default="groco", help="training loss")
    p.add_argument("--beta", type=float, default=1.0, help="group-ordering inverse temperature (method default)")
    p.add_argument("--neg", type=int, default=10, help="top-N strongest negatives kept (method default)")
    p.add_argument("--tau", type=float, default=0.1, help="contrastive temperature")
    p.add_argument("--margin", default="0.8", help="triplet margin, or 'inf' for the unbounded mode")
    p.add_argument("--stopgrad", action=argparse.BooleanOptionalAction, default=True,
                   help="detach non-anchor projections in distances (method default: on)")
    p.add_argument("--preorder", action=argparse.BooleanOptionalAction, default=True,
                   help="sort groups ascending before the network (method default: on)")
    p.add_argument("--random-negatives", action="store_true",
                   help="sample N random negatives instead of the strongest")
    p.add_argument("--infonce-top-n", action="store_true",
                   help="restrict the contrastive loss to the top-N negatives")
    p.add_argument("--lr", type=float, default=10.0, help="base learning rate (desk-scale default)")
    p.add_argument("--momentum", type=float, default=0.9, help="SGD momentum")
    p.add_argument("--warmup-epochs", type=int, default=1, help="linear warmup epochs (method default)")
    p.add_argument("--view-noise", type=float, default=0.5, help="Gaussian view augmentation sigma")
    p.add_argument("--seed", type=int, default=None, help="run seed (default: GROCO_SEED env or 0)")
    p.add_argument("--ckpt", default="groco_model.ckpt", help="checkpoint output path")
    p.add_argument("--metrics", default="groco_metrics.csv", help="per-step metrics CSV path")
    p.add_argument("--dump-config", action="store_true", help="print the resolved config as key=value lines")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint with k-NN or a linear probe", formatter_class=fmt)
    p.add_argument("--ckpt", required=True, help="checkpoint path")
    p.add_argument("--data", required=True, help="labeled GVEC dataset path")
    p.add_argument("--mode", choices=["knn", "linear"], default="knn", help="evaluation protocol")
    p.add_argument("--k", default="1,10,20", help="comma-separated k values for k-NN")
    p.add_argument("--weight-tau", type=float, default=evals.KNN_WEIGHT_TAU, help="k-NN vote temperature")
    p.add_argument("--space", choices=["representation", "projection"], default="representation",
                   help="embedding space to evaluate (method default: representation)")
    p.add_argument("--split", type=float, default=0.2, help="held-out fraction for queries/probe test")
    p.add_argument("--probe-steps", type=int, default=500, help="linear probe gradient steps")
    p.add_argument("--probe-lr", type=float, default=0.1, help="linear probe learning rate")
    p.add_argument("--seed", type=int, default=None, help="split seed (default: GROCO_SEED env or 0)")
    p.add_argument("--out", default=None, help="optional CSV output path for the report")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("toy", help="five-variable optimization-dynamics experiment", formatter_class=fmt)
    p.add_argument("--loss", choices=["groco", "infonce"], default="groco", help="loss to optimize")
    p.add_argument("--init", default="0,0.6,0.3,0,-0.3",
                   help="initial similarities: positive first, then negatives")
    p.add_argument("--steps", type=int, default=300, help="gradient steps")
    p.add_argument("--lr", type=float, default=0.05, help="learning rate")
    p.add_argument("--beta", type=float, default=2.0, help="group-ordering inverse temperature")
    p.add_argument("--tau", type=float, default=0.5, help="contrastive temperature")
    p.add_argument("--out", default="toy_trajectory.csv", help="trajectory CSV path")
    p.set_defaults(func=cmd_toy)

    p = sub.add_parser("gradcheck", help="central-difference check of the full loss path", formatter_class=fmt)
    p.add_argument("--kmax", type=int, default=4, help="max positive group size")
    p.add_argument("--nmax", type=int, default=10, help="max negative group size")
    p.add_argument("--betas", default="0.5,1,2", help="comma-separated inverse temperatures")
    p.add_argument("--h", type=float, default=1e-6, help="central-difference step")
    p.add_argument("--tol", type=float, default=1e-5, help="max relative error allowed")
    p.add_argument("--seed", type=int, default=None, help="point seed (default: GROCO_SEED env or 0)")
    p.set_defaults(func=cmd_gradcheck)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except TrainingDiverged as e:
        print(f"numeric failure at step {e.step}: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    except diffgrad.NumericError as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    except (GvecFormatError, CheckpointFormatError) as e:
        print(f"input error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        print(parser.format_usage(), file=sys.stderr, end="")
        return EXIT_USAGE


def console_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())

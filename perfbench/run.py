"""Benchmark of groco: GroCo training and sorting supervision.

Run from the root of a checkout:

    python3 perfbench/run.py --workload groco-train --seed 1 --seconds 50 --trace 0

The package is imported from the checkout's `src/`, with one BLAS thread.
Progress goes to standard error. The last line of standard output is one
JSON object: `correct`, `attempted`, `failed` and `metrics`, where the
metrics are the `end_to_end` ones of BENCHMARK.json with `--trace 0` and
the `per_layer` ones with `--trace 1`. A copy of that object, and with
`--trace 1` the recorded spans, are written under `perfbench/results/`.
See perfbench/README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("groco-train", "sort-supervision")
SETUP_SAMPLES = 9  # set-up processes timed per run, spread over its timed phase


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int, help="seed of every generated input")
    parser.add_argument("--seconds", required=True, type=float, help="length of the timed phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer metrics from spans")
    parser.add_argument("--setup-only", action="store_true",
                        help="import and generate the inputs, print 'ready' and exit")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


class SetupSampler:
    """Times the set-up in fresh processes: the wall time from spawning
    `run.py --setup-only` to its line saying that the imports and the inputs
    are ready. The workload calls the sampler at pauses in its timed phase;
    a process is started at the first pause and then at the first pause
    after each `interval` seconds, so that the samples are spread over the
    run. Each process is waited for before the workload goes on."""

    def __init__(self, args, interval: float):
        self.command = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
                        "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"]
        self.interval = interval
        self.due = 0.0
        self.times: list[float] = []

    def sample(self) -> None:
        start = time.perf_counter()
        with subprocess.Popen(self.command, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            self.times.append(time.perf_counter() - start)
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up process exited with {proc.returncode} after printing {line!r}")
        self.due = time.perf_counter() + self.interval

    def __call__(self) -> None:
        if time.perf_counter() >= self.due:
            self.sample()

    def median(self) -> float:
        while len(self.times) < SETUP_SAMPLES:  # a phase with too few pauses
            self.sample()
        return statistics.median(self.times)


def main(argv=None) -> int:
    args = parse_args(argv)
    missing = [p for p in ("src/groco/__init__.py", "tests/oracles.py", "BENCHMARK.json")
               if not os.path.isfile(os.path.join(ROOT, p))]
    if missing:
        print(f"perfbench: not a groco checkout, missing {missing} under {ROOT}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]

    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import workloads  # noqa: E402 - needs the thread settings and the path above

    inputs = workloads.make_inputs(args.workload, args.seed)
    if args.setup_only:
        print("ready", flush=True)
        return 0
    setup = None if args.trace else SetupSampler(args, args.seconds / SETUP_SAMPLES)
    results_dir = os.path.join(HERE, "results")
    os.makedirs(results_dir, exist_ok=True)
    report = workloads.run(args.workload, inputs, args.seed, args.seconds, bool(args.trace), results_dir,
                           pause=(lambda: None) if setup is None else setup)

    for problem in report.problems:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    measured = dict(report.per_layer if args.trace else report.end_to_end)
    if not measured:
        print("perfbench: no operation succeeded, so nothing was measured", file=sys.stderr)
        return 1
    if not args.trace:
        measured["setup_s"] = setup.median()
    names = {m["name"] for m in declared}
    if set(measured) - names or (not args.trace and names - set(measured)):
        # A layer the workload never runs reads 0; every end-to-end metric is measured.
        raise RuntimeError(f"measured {sorted(measured)} but BENCHMARK.json declares {sorted(names)}")
    result = {
        "correct": not report.problems,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": {m["name"]: {"value": float(measured.get(m["name"], 0.0)), "unit": m["unit"]} for m in declared},
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(results_dir, stem + ".json"), "w") as fh:
        json.dump(result, fh, indent=1)
    if report.tracer is not None:
        report.tracer.dump(os.path.join(results_dir, stem + ".spans.jsonl"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

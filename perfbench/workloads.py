"""The benchmark's workloads, each run in its own process by ``run.py``.

    python3 perfbench/workloads.py --workload toy_train --seed 1 --seconds 30 --trace 0

needs ``src`` on ``PYTHONPATH`` and the BLAS thread variables set before
numpy loads, which ``run.py`` does. Prints a readable report and, as its
last line, one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``. With ``--trace 0`` the metrics are the end-to-end ones,
measured with only the step and evaluation calls timed; with
``--trace 1`` they are the per-layer ones of a traced pass, which also
repeats the untraced measurement to report the tracing overhead.

Why these workloads:

* ``toy_train`` is the ablation acceptance shape. Python and tape
  overhead bound it and BLAS work is negligible, so fewer forward passes
  per step and a leaner tape show here, while Adam and large-matmul
  changes should not move it.
* ``paper_train`` trains at the paper's widths (5000-dim bag of words,
  hidden 1000 and 500) with 2 domains, so that it fits a 7 GB machine.
  BLAS and memory bound it: Adam and the dense first-layer gradients
  dominate, and Python overhead is noise.
* ``paper_eval`` scores held-out rows with the 4-domain paper-width
  model: evaluation, the unseen-domain path and the discriminator. It is
  forward only, so a forward-path change shows here while backward and
  Adam changes should not move it.

End-to-end metrics (``--trace 0``), reported on every workload:

* ``setup_s``: median over several set-ups of loading or generating the
  inputs through ``cral.data``, splitting them, ``init_model`` and the
  optimizers' construction (paper_eval builds none).
* ``step_ms.p50``: median wall time of one step: a ``train_step`` on the
  training workloads, one evaluation round on paper_eval.
* ``eval_rows_per_s``: rows scored per second by the median evaluation
  call: the per-epoch test evaluation on toy_train, held-out evaluation
  between paper_train's steps, the evaluation round on paper_eval.
* ``peak_rss_mb``: the process's peak RSS after ``RSS_AFTER`` steps.

The report also prints, outside the result, toy_train's ``step_ms.p95``,
``epoch_s`` and ``test_acc`` (the other workloads lack the samples or a
trained model for them) and ``failed_frac``. Every operation that
raises, and every correctness check that fails, counts in ``failed``
instead of stopping the run.
"""

import argparse
import ctypes
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np

import cral
from cral import data, losses, model as cmodel, nn, trainer

from inputs import BOW_DIM, bag_of_words, reference_forward
from spans import Tracer, median_over

ROOT = Path(__file__).resolve().parent.parent
OUTPUT_DIR = ROOT / ".bench_build" / "perfbench"

TOY_DATA = dict(num_domains=4, feature_dim=40, labeled_per_domain=200,
                unlabeled_per_domain=400, class_separation=3.0,
                domain_shift=3.0, label_noise=0.1)
TOY_MODEL = cral.ModelConfig(num_domains=4, input_dim=40, shared_dim=16,
                             specific_dim=8, extractor_hidden=(),
                             dropout_rate=0.2)
TOY_WEIGHTS = cral.LossWeights(lambda_adv=1.0, lambda_d=1.5, lambda_div=1e-4,
                               lambda_uvt=0.02, lambda_lvt=0.02)
TOY_EPOCHS = 20
TOY_LR = 1e-3
# test_acc over seeds 1-15 at this commit ranged 0.776-0.823 (median
# 0.807, quartiles 0.03 apart); a correct program stays above this floor.
TOY_ACC_FLOOR = 0.70

PAPER_WIDTHS = dict(input_dim=BOW_DIM, shared_dim=128, specific_dim=64,
                    extractor_hidden=(1000, 500), dropout_rate=0.4)
PAPER_TRAIN_MODEL = cral.ModelConfig(num_domains=2, **PAPER_WIDTHS)
PAPER_EVAL_MODEL = cral.ModelConfig(num_domains=4, **PAPER_WIDTHS)
# Pools stay small: dense rows cost 40 KB each.
PAPER_TRAIN_POOL = dict(labeled=64, unlabeled=32)    # half of labeled is held out
PAPER_EVAL_POOL = dict(labeled=128, unlabeled=16)
# RSS of paper_train at this commit grew to 5.26 GB by its 10th step and
# held there to the 12th: 19.7x the 267 MB of float64 parameters. The
# preflight asks for 22x.
MEMORY_FACTOR = 22
EVALS_PER_STEP = 3  # timed held-out evaluations after each paper_train step
REFERENCE_ROWS = 8
REFERENCE_TOL = 1e-10

BATCH = 8
SETUP_REPEATS = {"toy_train": 21, "paper_train": 5, "paper_eval": 5}
# peak_rss_mb is read after this many timed steps or rounds (after the
# first training on toy_train), not at the end: paper_train's RSS still
# grows with allocator fragmentation over its first 10 steps, and a
# faster program must not read as a heavier one.
RSS_AFTER = 5


class Outcome:
    """Attempted and failed operations plus the metrics of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.metrics = {}
        self.samples = {}
        self.rss_mb = None

    def note_rss(self, units_done: int) -> None:
        if units_done >= RSS_AFTER and self.rss_mb is None:
            self.rss_mb = peak_rss_mb()

    def check(self, ok: bool, message: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"  CHECK FAILED: {message}")
        return ok

    def attempt(self, what: str, fn, *args, **kwargs):
        """Run one program operation; a raise counts as a failure."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception:
            self.failed += 1
            print(f"  FAILED: {what}\n" + traceback.format_exc())
            return None

    def metric(self, name: str, value: float, unit: str, samples: int = 1) -> None:
        self.metrics[name] = {"value": float(value), "unit": unit}
        self.samples[name] = samples


# ---------------------------------------------------------------------------
# Environment record and memory.
# ---------------------------------------------------------------------------


def blas_threads():
    """Threads OpenBLAS will use, asked of the loaded library itself."""
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          env={**os.environ, "GIT_DIR": str(ROOT / ".git")},
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or "unknown"


def environment(args) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0], "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(), "git_commit": git_commit(),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def available_bytes():
    with open("/proc/meminfo") as fh:
        for line in fh:
            if line.startswith("MemAvailable:"):
                return int(line.split()[1]) * 1024
    return None


def parameter_count(config: cral.ModelConfig) -> int:
    """Float64 parameters of ``init_model(config)``, counted from the dims."""
    def mlp(*dims):
        return sum(a * b + b for a, b in zip(dims, dims[1:]))
    hidden = config.extractor_hidden
    clf_in = config.shared_dim + config.specific_dim
    per_branch = (mlp(config.input_dim, *hidden, config.shared_dim)
                  + config.num_domains * mlp(config.input_dim, *hidden, config.specific_dim)
                  + mlp(config.shared_dim, config.shared_dim, config.num_domains)
                  + mlp(clf_in, clf_in, config.num_classes))
    return 2 * per_branch


def param_mb(model) -> float:
    return sum(p.value.nbytes for p in model.params()) / 1e6


def array_mb(obj) -> float:
    """MB of the numpy arrays an object holds directly or in lists."""
    total = 0
    for value in vars(obj).values():
        items = value if isinstance(value, (list, tuple)) else [value]
        total += sum(a.nbytes for a in items if isinstance(a, np.ndarray))
    return total / 1e6


# ---------------------------------------------------------------------------
# Tracing: where each layer's functions are looked up by their callers.
# ---------------------------------------------------------------------------

LOSS_TERMS = {
    "classification_loss": "losses.classification",
    "adversarial_loss": "losses.adversarial",
    "entropy_loss": "losses.entropy",
    "disagreement_loss": "losses.disagreement",
    "diversity_loss": "losses.diversity",
}


def install_setup_spans(tracer: Tracer) -> None:
    tracer.spanned(data, "generate_synthetic", "data.load")
    tracer.spanned(data, "load_sparse_dataset", "data.load")
    tracer.spanned(data, "split_labeled", "data.split")
    tracer.spanned(cmodel, "init_params", "nn.init")


def install_step_spans(tracer: Tracer) -> None:
    """Spans and counters at every layer boundary of a step or evaluation."""
    def sampler(fn):
        def call(*args, **kwargs):
            tracer.begin_step()
            tracer.phase = "sample"
            return tracer.span("trainer.sample", fn, *args, **kwargs)
        return call

    def phase_name(suffix):
        return lambda args, kwargs: f"trainer.phase{tracer.phase}.{suffix}"

    tracer.patch(trainer.BatchSampler, "next_batch", sampler)
    tracer.spanned(trainer, "train_step", "trainer.step")
    tracer.spanned(trainer, "discriminator_objective", "trainer.phase1.forward", phase=1)
    tracer.spanned(trainer, "total_objective", "trainer.phase2.forward", phase=2)
    tracer.counted(trainer, "backward", lambda args, kwargs: {
        f"tensor.tape_nodes.phase{tracer.phase}": len(args[0].tape)})
    tracer.spanned(trainer, "backward", phase_name("backward"))
    tracer.spanned(nn.Adam, "step", phase_name("adam"))
    for name in ("evaluate_mdtc", "evaluate_msuda", "discriminator_accuracy"):
        tracer.spanned(trainer, name, "trainer.eval", phase="eval")
    for name in ("predict_ensemble", "predict_domain"):
        tracer.spanned(trainer, name, "model.predict")

    for name, label in LOSS_TERMS.items():
        tracer.spanned(losses, name, label)
    tracer.spanned(losses, "vat_loss", lambda args, kwargs: (
        "losses.vat_labeled" if kwargs["labeled"] else "losses.vat_unlabeled"))
    tracer.spanned(losses, "vat_perturbation", "losses.vat_probe")

    # The loss terms reach the model through their own imports, and the
    # prediction API through the model module's globals: count both.
    for module in (losses, cmodel):
        tracer.counted(module, "shared_features", lambda args, kwargs: {
            "model.shared_rows": args[3].shape[0]})
        tracer.counted(module, "class_probs", lambda args, kwargs: {
            "model.class_probs_calls": 1})
        tracer.counted(module, "domain_probs", lambda args, kwargs: {
            "model.domain_probs_calls": 1})
    tracer.timed(cmodel, "mlp_forward", "nn.mlp_forward")
    tracer.timed(nn, "matmul", "tensor.matmul", count=lambda args, kwargs: {
        "tensor.matmul_gflop": 2e-9 * args[0].shape[0] * args[0].shape[1]
        * args[1].shape[1]})


def layer_metrics(out: Outcome, tracer: Tracer, training: bool,
                  params_mb: float, adam_mb: float) -> None:
    """Per-layer metrics, as medians over steps (or evaluation rounds)."""
    inclusive = tracer.span_totals()
    own = tracer.span_totals(use_self_time=True)
    eval_rounds = sorted(inclusive["trainer.eval"])
    units = sorted(inclusive["trainer.step"]) if training else eval_rounds
    phases = (1, 2) if training else ("eval",)
    counts = tracer.per_step(phases)
    by_phase = {p: tracer.per_step((p,)) for p in (1, 2)}
    n = len(units)

    step_name = "trainer.step" if training else "trainer.eval"
    out.metric("trainer.step_ms", median_over(units, inclusive[step_name]), "ms", n)
    for p in (1, 2):
        for part in ("forward", "backward", "adam"):
            name = f"trainer.phase{p}.{part}"
            out.metric(name + "_ms", median_over(units, inclusive[name]), "ms", n)
    if training:
        phases_ms = sum(out.metrics[f"trainer.phase{p}.{part}_ms"]["value"]
                        for p in (1, 2) for part in ("forward", "backward", "adam"))
        print(f"  the six trainer.phase* medians sum to {phases_ms:.6g} ms of a "
              f"{out.metrics['trainer.step_ms']['value']:.6g} ms traced step")
    out.metric("trainer.sample_ms", median_over(units, inclusive["trainer.sample"]), "ms", n)
    out.metric("trainer.eval_ms", median_over(eval_rounds, inclusive["trainer.eval"]),
               "ms", len(eval_rounds))
    for label in (*LOSS_TERMS.values(), "losses.vat_unlabeled", "losses.vat_labeled"):
        out.metric(label + "_ms", median_over(units, own[label]), "ms", n)
    out.metric("losses.vat_probe_ms", median_over(units, inclusive["losses.vat_probe"]), "ms", n)

    counters = {}
    for p in (1, 2):
        counters[f"model.shared_rows.phase{p}"] = by_phase[p]["model.shared_rows"]
        counters[f"tensor.tape_nodes.phase{p}"] = by_phase[p][f"tensor.tape_nodes.phase{p}"]
    for name in ("model.class_probs_calls", "model.domain_probs_calls",
                 "nn.mlp_forward_calls", "tensor.matmul_calls"):
        counters[name] = counts[name]
    for name, by_step in counters.items():
        out.metric(name, median_over(units, by_step), "count", n)
        # Counts must repeat exactly: every step (or round) has the same shapes.
        seen = {by_step.get(u, 0.0) for u in units}
        out.check(len(seen) <= 1, f"{name} differs between steps: {sorted(seen)}")
    out.metric("model.predict_ms", median_over(eval_rounds, inclusive["model.predict"]),
               "ms", len(eval_rounds))
    out.metric("nn.mlp_forward_ms", median_over(units, counts["nn.mlp_forward_ms"]), "ms", n)
    out.metric("nn.param_mb", params_mb, "MB")
    out.metric("nn.adam_state_mb", adam_mb, "MB")
    out.metric("tensor.matmul_gflop", median_over(units, counts["tensor.matmul_gflop"]),
               "GFLOP", n)
    out.metric("tensor.matmul_ms", median_over(units, counts["tensor.matmul_ms"]), "ms", n)

    setup = {}
    for s in tracer.spans:
        if isinstance(s.phase, str) and s.phase.startswith("setup"):
            key = (s.name, s.phase)
            setup[key] = setup.get(key, 0.0) + (s.end - s.start)
    rounds = sorted({phase for _, phase in setup})
    for name, metric in (("nn.init", "nn.init_s"), ("data.load", "data.load_s"),
                         ("data.split", "data.split_s")):
        values = [setup.get((name, r), 0.0) for r in rounds]
        out.metric(metric, statistics.median(values), "s", len(values))


def write_spans(tracer: Tracer, workload: str, seed: int) -> Path:
    OUTPUT_DIR.mkdir(parents=True, exist_ok=True)
    path = OUTPUT_DIR / f"spans-{workload}-seed{seed}.jsonl"
    with open(path, "w") as fh:
        for s in tracer.spans:
            fh.write(json.dumps(s.as_dict()) + "\n")
    return path


# ---------------------------------------------------------------------------
# Shared pieces.
# ---------------------------------------------------------------------------


def timed_setups(out: Outcome, workload: str, build, tracer=None):
    """Build the workload's state several times; setup_s is the median."""
    durations, state = [], None
    for r in range(SETUP_REPEATS[workload]):
        state = None    # free the previous copy before building the next
        if tracer is not None:
            tracer.phase = f"setup{r}"
        started = time.perf_counter()
        state = out.attempt("set-up", build)
        durations.append(time.perf_counter() - started)
        if state is None:
            return None
    if tracer is not None:
        tracer.phase = "run"    # later init_model calls are not set-up
    out.metric("setup_s", statistics.median(durations), "s", len(durations))
    return state


def finite_terms(out: Outcome, terms, where: str) -> None:
    if terms is not None:
        bad = {k: v for k, v in terms.items() if not math.isfinite(v)}
        out.check(not bad, f"non-finite loss terms at {where}: {bad}")


def durations_ms(tracer: Tracer, name: str) -> list:
    return [1000.0 * (s.end - s.start) for s in tracer.spans if s.name == name]


def write_bow_files(directory: Path, seed: int, domains: int, labeled: int,
                    unlabeled: int) -> list:
    paths = []
    for d in range(domains):
        lx, ly, ux = bag_of_words(seed, d, labeled, unlabeled)
        path = directory / f"domain{d}.txt"
        data.save_sparse_dataset(path, cral.DomainDataset(f"domain{d}", lx, ly, ux))
        paths.append(path)
    return paths


def split_halves(datasets, seed: int) -> tuple:
    """Each domain's labeled rows split 50/50 into (fit, held); the fit
    half keeps the domain's unlabeled pool."""
    fit, held = [], []
    for ds in datasets:
        first, second = data.split_labeled(ds, fractions=[0.5, 0.5], seed=seed)
        fit.append(cral.DomainDataset(ds.name, first.labeled_x, first.labeled_y,
                                      ds.unlabeled_x))
        held.append(second)
    return fit, held


def load_split(paths: list, seed: int) -> tuple:
    return split_halves([data.load_sparse_dataset(path, BOW_DIM, name=f"domain{d}")
                         for d, path in enumerate(paths)], seed)


# ---------------------------------------------------------------------------
# toy_train
# ---------------------------------------------------------------------------


def toy_build(seed: int):
    fit, held = split_halves(
        data.generate_synthetic(cral.SyntheticSpec(seed=seed, **TOY_DATA)), seed)
    model = cmodel.init_model(TOY_MODEL, seed)
    opts = (nn.Adam(model.discriminator_params(), lr=TOY_LR),
            nn.Adam(model.main_params(), lr=TOY_LR))
    return fit, held, model, opts


def toy_training(seed: int, fit: list, held: list):
    """One ``run_training`` from a fresh model; returns (result, seconds)."""
    model = cmodel.init_model(TOY_MODEL, seed)
    config = trainer.TrainConfig(epochs=TOY_EPOCHS, batch_size=BATCH, seed=seed,
                                 weights=TOY_WEIGHTS, eval_cadence=1,
                                 learning_rate=TOY_LR)
    started = time.perf_counter()
    result = trainer.run_training(model, fit, config, test_sets=held)
    return result, time.perf_counter() - started


def toy_train(args, out: Outcome) -> None:
    tracer = Tracer() if args.trace else None
    if tracer:
        install_setup_spans(tracer)
    state = timed_setups(out, "toy_train", lambda: toy_build(args.seed), tracer)
    if state is None:
        return
    fit, held, model, opts = state
    # Warm-up: one short training, so lazy imports and caches are settled.
    out.attempt("warm-up", trainer.run_training, cmodel.init_model(TOY_MODEL, args.seed),
                fit, trainer.TrainConfig(epochs=1, seed=args.seed, weights=TOY_WEIGHTS,
                                         learning_rate=TOY_LR), test_sets=held)

    timer = Tracer()
    timer.spanned(trainer, "train_step", "trainer.step")
    timer.spanned(trainer, "evaluate_mdtc", "trainer.eval")
    runs, started = [], time.perf_counter()
    try:
        while True:
            outcome = out.attempt("toy training", toy_training, args.seed, fit, held)
            if outcome is None:
                break
            runs.append(outcome)
            out.note_rss(RSS_AFTER)
            if args.trace or time.perf_counter() - started >= args.seconds:
                break
    finally:
        timer.restore()
    if not runs:
        return
    steps = durations_ms(timer, "trainer.step")
    evals = durations_ms(timer, "trainer.eval")
    out.attempted += len(steps)
    first = runs[0][0]
    for record in first.records:
        finite_terms(out, record.terms, f"iteration {record.iteration}")
    for result, _ in runs[1:]:
        out.check([r.terms for r in result.records] == [r.terms for r in first.records],
                  "two trainings from the same seed differ")
    out.check(first.test_average >= TOY_ACC_FLOOR,
              f"test_acc {first.test_average:.4f} below the floor {TOY_ACC_FLOOR}")

    if not args.trace:
        rows = sum(ds.num_labeled for ds in held)
        out.metric("step_ms.p50", statistics.median(steps), "ms", len(steps))
        out.metric("step_ms.p95", float(np.percentile(steps, 95)), "ms", len(steps))
        out.metric("epoch_s", statistics.median(s / TOY_EPOCHS for _, s in runs), "s",
                   len(runs) * TOY_EPOCHS)
        out.metric("eval_rows_per_s", rows / (statistics.median(evals) / 1000.0), "1/s",
                   len(evals))
        out.metric("test_acc", first.test_average, "fraction", rows)
        return

    install_step_spans(tracer)
    try:
        traced = out.attempt("traced toy training", toy_training, args.seed, fit, held)
    finally:
        tracer.restore()
    if traced is None:
        return
    out.check([r.terms for r in traced[0].records] == [r.terms for r in first.records],
              "traced loss terms differ from the untraced run")
    out.check(traced[0].test_average == first.test_average,
              "traced test accuracy differs from the untraced run")
    layer_metrics(out, tracer, True, param_mb(model),
                  sum(array_mb(o) for o in opts))
    traced_p50 = statistics.median(durations_ms(tracer, "trainer.step"))
    out.metric("trace.overhead_ms", traced_p50 - statistics.median(steps), "ms", len(steps))
    print(f"  spans written to {write_spans(tracer, args.workload, args.seed)}")


# ---------------------------------------------------------------------------
# paper_train
# ---------------------------------------------------------------------------


def paper_train(args, out: Outcome) -> None:
    need = (MEMORY_FACTOR * 8 * parameter_count(PAPER_TRAIN_MODEL)
            + 200_000_000)    # interpreter, numpy and inputs
    have = available_bytes()
    if not out.check(have is None or have >= need,
                     f"paper_train needs about {need / 1e9:.2f} GB ({MEMORY_FACTOR} x the "
                     f"{parameter_count(PAPER_TRAIN_MODEL) / 1e6:.1f} M float64 parameters "
                     f"+ 0.2 GB); /proc/meminfo reports {(have or 0) / 1e9:.2f} GB "
                     f"available, so the workload was not started"):
        return

    tracer = Tracer() if args.trace else None
    if tracer:
        install_setup_spans(tracer)
    OUTPUT_DIR.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUTPUT_DIR) as tmp:
        paths = write_bow_files(Path(tmp), args.seed, 2, **PAPER_TRAIN_POOL)

        def build():
            fit, held = load_split(paths, args.seed)
            model = cmodel.init_model(PAPER_TRAIN_MODEL, args.seed)
            return fit, held, model, (nn.Adam(model.discriminator_params()),
                                      nn.Adam(model.main_params()))

        state = timed_setups(out, "paper_train", build, tracer)
    if state is None:
        return
    fit, held, model, (opt_disc, opt_main) = state
    config = trainer.TrainConfig(batch_size=BATCH, seed=args.seed)
    sampler = trainer.BatchSampler(fit, BATCH, cral.derive_rng(args.seed, "train/sampler"))
    rng = cral.derive_rng(args.seed, "train/dropout")

    def step(timer, evaluations):
        terms = timer.span("step", trainer.train_step, model, sampler.next_batch(),
                           config, opt_disc, opt_main, rng)
        done = len(durations_ms(timer, "step"))
        finite_terms(out, terms, f"step {done}")
        if timer is not tracer:
            out.note_rss(done)
        # Held-out evaluation between steps, like a training run's dev
        # evaluation; spread over the run, it is timed under the same
        # machine conditions as the steps.
        for _ in range(evaluations):
            timer.span("eval", trainer.evaluate_mdtc, model, held)
        return terms

    def steps_for(seconds, timer, evaluations):
        started = time.perf_counter()
        while (out.attempt("train_step", step, timer, evaluations) is not None
               and time.perf_counter() - started < seconds):
            pass

    steps_for(0.0, Tracer(), 1)     # warm-up: the first step faults in Adam state
    untraced = Tracer()
    steps_for(args.seconds / 2 if args.trace else args.seconds, untraced,
              0 if args.trace else EVALS_PER_STEP)
    steps = durations_ms(untraced, "step")
    if args.trace:
        install_step_spans(tracer)
        try:
            steps_for(args.seconds / 2, tracer, 1)
        finally:
            tracer.restore()
        layer_metrics(out, tracer, True, param_mb(model),
                      array_mb(opt_disc) + array_mb(opt_main))
        out.metric("trace.overhead_ms",
                   statistics.median(durations_ms(tracer, "step")) - statistics.median(steps),
                   "ms", len(steps))
        print(f"  spans written to {write_spans(tracer, args.workload, args.seed)}")
        return

    evals = durations_ms(untraced, "eval")
    rows = sum(ds.num_labeled for ds in held)
    out.metric("step_ms.p50", statistics.median(steps), "ms", len(steps))
    out.metric("eval_rows_per_s", rows / (statistics.median(evals) / 1000.0), "1/s",
               len(evals))


# ---------------------------------------------------------------------------
# paper_eval
# ---------------------------------------------------------------------------


def paper_eval(args, out: Outcome) -> None:
    tracer = Tracer() if args.trace else None
    if tracer:
        install_setup_spans(tracer)
    OUTPUT_DIR.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUTPUT_DIR) as tmp:
        # Domains 0-3 are the model's; domain 4 is the unseen target.
        paths = write_bow_files(Path(tmp), args.seed, 5, **PAPER_EVAL_POOL)

        def build():
            fit, held = load_split(paths, args.seed)
            sources = [cral.DomainDataset(h.name, h.labeled_x, h.labeled_y, f.unlabeled_x)
                       for f, h in zip(fit[:4], held[:4])]
            return sources, held[4], cmodel.init_model(PAPER_EVAL_MODEL, args.seed)

        state = timed_setups(out, "paper_eval", build, tracer)
    if state is None:
        return
    sources, target, model = state
    rows = (sum(ds.num_labeled for ds in sources) + target.num_labeled
            + sum(ds.num_labeled + ds.num_unlabeled for ds in sources))

    def evaluation_round():
        trainer.evaluate_mdtc(model, sources)
        trainer.evaluate_msuda(model, target)
        return trainer.discriminator_accuracy(model, sources, include_unlabeled=True)

    def rounds_for(seconds, timer):
        started = time.perf_counter()
        while True:
            timer.begin_step()
            done = out.attempt("evaluation round", timer.span, "round", evaluation_round)
            if timer is not tracer:
                out.note_rss(timer.step)
            if done is None or time.perf_counter() - started >= seconds:
                return

    rounds_for(0.0, Tracer())    # warm-up
    untraced = Tracer()
    rounds_for(args.seconds / 2 if args.trace else args.seconds, untraced)
    times = durations_ms(untraced, "round")

    state = model.state_dict()
    for i, ds in enumerate([*sources, target]):
        x = ds.labeled_x[:REFERENCE_ROWS]
        domain = i if i < len(sources) else None
        want = 0.5 * (reference_forward(state, 1, x, domain)
                      + reference_forward(state, 2, x, domain))
        got = out.attempt("predict_ensemble", cmodel.predict_ensemble, model, x,
                          i=domain, msuda=domain is None)
        if got is not None:
            error = float(np.max(np.abs(got - want)))
            out.check(error <= REFERENCE_TOL,
                      f"predict_ensemble on {ds.name} (msuda={domain is None}) is "
                      f"{error:.3g} from the numpy reference")

    if args.trace:
        install_step_spans(tracer)
        try:
            rounds_for(args.seconds / 2, tracer)
        finally:
            tracer.restore()
        layer_metrics(out, tracer, False, param_mb(model), 0.0)
        out.metric("trace.overhead_ms",
                   statistics.median(durations_ms(tracer, "round")) - statistics.median(times),
                   "ms", len(times))
        print(f"  spans written to {write_spans(tracer, args.workload, args.seed)}")
        return

    out.metric("step_ms.p50", statistics.median(times), "ms", len(times))
    out.metric("eval_rows_per_s", rows / (statistics.median(times) / 1000.0), "1/s",
               len(times))


WORKLOADS = {"toy_train": toy_train, "paper_train": paper_train, "paper_eval": paper_eval}
END_TO_END = ("setup_s", "step_ms.p50", "eval_rows_per_s", "peak_rss_mb")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    print(f"perfbench {args.workload}: {json.dumps(environment(args), sort_keys=True)}")
    out = Outcome()
    WORKLOADS[args.workload](args, out)
    if not args.trace:
        out.metric("peak_rss_mb", out.rss_mb or peak_rss_mb(), "MB")
    metrics = {k: v for k, v in out.metrics.items()
               if (k in END_TO_END) != bool(args.trace)}
    for name, m in out.metrics.items():
        print(f"  {name:28s} {m['value']:14.6g} {m['unit']:8s} (n={out.samples[name]})")
    print(f"  {'failed_frac':28s} {out.failed / max(out.attempted, 1):14.6g} "
          f"{'fraction':8s} (n={out.attempted})")
    print(json.dumps({"correct": out.failed == 0, "attempted": max(out.attempted, 1),
                      "failed": out.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

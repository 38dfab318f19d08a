"""Training loop and evaluation protocols.

One iteration runs one forward pass of the sampled batch, and both of
its alternating phases read that pass: phase 1 steps only the two
discriminators on the weighted adversarial losses, with the pass's shared
features held as constants; phase 2 steps every other parameter group on
the main objective, reading the discriminators as phase 1 left them.
Each domain's labeled and unlabeled pools are sampled as independent
shuffled streams that recycle on exhaustion, so small domains cycle
faster. An epoch is one pass over the largest domain's labeled pool.

Evaluation uses the two-branch ensemble. Multi-domain accuracy is the
unweighted mean of per-domain accuracies. Model selection, when a dev
split is supplied, keeps the parameters of the epoch with the best dev
average and restores them after the last epoch.

Metric records hold no timing data, so two runs with the same seed,
config, and data emit byte-identical streams.
"""

from __future__ import annotations

import dataclasses
import json
import math
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from .data import DomainDataset, merge_labeled, one_hot, split_labeled
from .errors import ConfigError, DataError, TrainingError
from .losses import (
    ForwardPass,
    LossWeights,
    MultiDomainBatch,
    discriminator_objective,
    total_objective,
)
from .model import (
    CralModel,
    ModelConfig,
    init_model,
    predict_domain,
    predict_ensemble,
    predicted_labels,
)
from .nn import Adam
from .seeding import derive_rng, derive_seed
from .tensor import Tape, backward

SWEEPABLE = ("lambda_d", "lambda_div", "lambda_uvt", "lambda_lvt")
ABLATION_VARIANTS = (
    ("full", frozenset()),
    ("wo_l_d", frozenset({"l_d"})),
    ("wo_l_div", frozenset({"l_div"})),
    ("wo_l_uvt", frozenset({"l_uvt"})),
    ("wo_l_lvt", frozenset({"l_lvt"})),
)


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 50
    batch_size: int = 8
    seed: int = 0
    weights: LossWeights = field(default_factory=LossWeights)
    eval_cadence: int = 1
    learning_rate: float = 1e-4
    adversarial_sign: str = "standard"
    disabled: frozenset = frozenset()

    def __post_init__(self):
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if self.eval_cadence < 1:
            raise ConfigError("eval_cadence must be >= 1")
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")


@dataclass
class MetricsRecord:
    iteration: int
    epoch: int
    terms: dict
    dev_accuracy: Optional[list] = None
    dev_average: Optional[float] = None
    test_accuracy: Optional[list] = None
    test_average: Optional[float] = None
    disc_accuracy: Optional[float] = None

    def stream_json(self) -> str:
        """Deterministic line serialization."""
        return json.dumps(dataclasses.asdict(self), sort_keys=True)


class _Stream:
    """Shuffled index stream over one pool; reshuffles when exhausted."""

    def __init__(self, count: int, rng: np.random.Generator):
        self.count = count
        self.rng = rng
        self.order = rng.permutation(count)
        self.pos = 0

    def take(self, want: int) -> np.ndarray:
        chunks = []
        while want > 0:
            if self.pos == self.count:
                self.order = self.rng.permutation(self.count)
                self.pos = 0
            grab = min(want, self.count - self.pos)
            chunks.append(self.order[self.pos:self.pos + grab])
            self.pos += grab
            want -= grab
        return np.concatenate(chunks)


class BatchSampler:
    """Per-domain labeled and unlabeled streams with independent cycling."""

    def __init__(self, datasets: list, batch_size: int, rng: np.random.Generator):
        if not datasets:
            raise DataError("no domains to sample from")
        for ds in datasets:
            if ds.num_labeled == 0 or ds.num_unlabeled == 0:
                raise DataError(
                    f"{ds.name}: sampling needs labeled and unlabeled data")
        self.datasets = datasets
        self.batch_size = batch_size
        smallest = min(min(ds.num_labeled, ds.num_unlabeled) for ds in datasets)
        if smallest < batch_size:
            warnings.warn(
                f"smallest pool has {smallest} samples; batches shrink below "
                f"{batch_size} for those domains")
        self.labeled = [_Stream(ds.num_labeled, rng) for ds in datasets]
        self.unlabeled = [_Stream(ds.num_unlabeled, rng) for ds in datasets]

    @property
    def steps_per_epoch(self) -> int:
        largest = max(ds.num_labeled for ds in self.datasets)
        return max(1, math.ceil(largest / self.batch_size))

    def next_batch(self) -> MultiDomainBatch:
        labeled_x, labeled_y, unlabeled_x = [], [], []
        for ds, ls, us in zip(self.datasets, self.labeled, self.unlabeled):
            li = ls.take(min(self.batch_size, ds.num_labeled))
            ui = us.take(min(self.batch_size, ds.num_unlabeled))
            labeled_x.append(ds.labeled_x[li])
            labeled_y.append(one_hot(ds.labeled_y[li]))
            unlabeled_x.append(ds.unlabeled_x[ui])
        return MultiDomainBatch(labeled_x, labeled_y, unlabeled_x)


def _check_finite_terms(terms: dict) -> None:
    for name, value in terms.items():
        if not math.isfinite(value):
            raise TrainingError(f"non-finite loss term {name}: {value}")


def _setup(model: CralModel, train_sets: list, config: TrainConfig) -> tuple:
    """Batch sampler, dropout generator and discriminator optimizer of a run."""
    sampler = BatchSampler(train_sets, config.batch_size,
                           derive_rng(config.seed, "train/sampler"))
    loss_rng = derive_rng(config.seed, "train/dropout")
    opt_disc = Adam(model.discriminator_params(), lr=config.learning_rate)
    return sampler, loss_rng, opt_disc


def _discriminator_step(fp: ForwardPass, config: TrainConfig, opt_disc: Adam) -> dict:
    """Phase-1 update; returns its objective and per-branch NLLs."""
    objective, phase1 = discriminator_objective(fp, config.weights,
                                                config.adversarial_sign)
    terms = {**phase1, "disc_phase": objective.item()}
    _check_finite_terms(terms)
    opt_disc.step(backward(objective))
    return terms


def train_step(model: CralModel, batch: MultiDomainBatch, config: TrainConfig,
               opt_disc: Adam, opt_main: Adam,
               rng: np.random.Generator) -> dict:
    """One alternating update; returns the loss-term breakdown."""
    fp = ForwardPass(Tape(), model, batch, mode="train", rng=rng)
    terms = {"disc_phase": 0.0}
    if config.weights.lambda_adv > 0.0:
        terms = _discriminator_step(fp, config, opt_disc)

    result = total_objective(fp, config.weights, config.adversarial_sign,
                             config.disabled)
    terms.update(result.breakdown)
    _check_finite_terms(terms)
    opt_main.step(backward(result.main))
    return terms


def evaluate_mdtc(model: CralModel, test_sets: list) -> tuple:
    """Per-domain ensemble accuracy and its unweighted mean."""
    if len(test_sets) != model.config.num_domains:
        raise DataError(
            f"expected {model.config.num_domains} test sets, got {len(test_sets)}")
    accuracies = []
    for i, ds in enumerate(test_sets):
        if ds.num_labeled == 0:
            raise DataError(f"{ds.name}: empty test set")
        probs = predict_ensemble(model, ds.labeled_x, i=i)
        accuracies.append(float(np.mean(predicted_labels(probs) == ds.labeled_y)))
    return accuracies, float(np.mean(accuracies))


def evaluate_msuda(model: CralModel, target: DomainDataset) -> float:
    """Accuracy on an unseen domain with the private pathway zeroed."""
    if target.num_labeled == 0:
        raise DataError(f"{target.name}: empty target set")
    probs = predict_ensemble(model, target.labeled_x, msuda=True)
    return float(np.mean(predicted_labels(probs) == target.labeled_y))


def discriminator_accuracy(model: CralModel, datasets: list,
                           include_unlabeled: bool = False) -> float:
    """Pooled accuracy of the branch-averaged discriminator."""
    hits, total = 0, 0
    for i, ds in enumerate(datasets):
        x = ds.labeled_x
        if include_unlabeled and ds.num_unlabeled:
            x = np.concatenate([x, ds.unlabeled_x], axis=0)
        if x.shape[0] == 0:
            raise DataError(f"{ds.name}: nothing to score")
        probs = 0.5 * (predict_domain(model, 1, x) + predict_domain(model, 2, x))
        hits += int(np.sum(np.argmax(probs, axis=1) == i))
        total += x.shape[0]
    return hits / total


@dataclass
class TrainingResult:
    records: list
    best_epoch: Optional[int] = None
    best_dev_average: Optional[float] = None
    test_accuracy: Optional[list] = None
    test_average: Optional[float] = None

    def stream(self) -> str:
        return "\n".join(r.stream_json() for r in self.records) + "\n"


def run_training(model: CralModel, train_sets: list, config: TrainConfig,
                 dev_sets: Optional[list] = None,
                 test_sets: Optional[list] = None) -> TrainingResult:
    """Alternating training with optional dev-based snapshot selection."""
    sampler, loss_rng, opt_disc = _setup(model, train_sets, config)
    opt_main = Adam(model.main_params(), lr=config.learning_rate)

    records = []
    best_dev, best_epoch, best_state = None, None, None
    iteration = 0
    for epoch in range(1, config.epochs + 1):
        for _ in range(sampler.steps_per_epoch):
            iteration += 1
            terms = train_step(model, sampler.next_batch(), config,
                               opt_disc, opt_main, loss_rng)
            records.append(MetricsRecord(iteration=iteration, epoch=epoch,
                                         terms=terms))
        if epoch % config.eval_cadence == 0 or epoch == config.epochs:
            record = records[-1]
            if dev_sets is not None:
                record.dev_accuracy, record.dev_average = evaluate_mdtc(
                    model, dev_sets)
                record.disc_accuracy = discriminator_accuracy(model, dev_sets)
                if best_dev is None or record.dev_average > best_dev:
                    best_dev, best_epoch = record.dev_average, epoch
                    best_state = {k: v.copy()
                                  for k, v in model.state_dict().items()}
            if test_sets is not None:
                record.test_accuracy, record.test_average = evaluate_mdtc(
                    model, test_sets)

    if best_state is not None:
        model.load_state_dict(best_state)
    result = TrainingResult(records=records, best_epoch=best_epoch,
                            best_dev_average=best_dev)
    if test_sets is not None:
        result.test_accuracy, result.test_average = evaluate_mdtc(model, test_sets)
    return result


def train_discriminator_only(model: CralModel, train_sets: list,
                             config: TrainConfig, steps: int) -> list:
    """Phase-1 updates only; extractors and classifiers stay frozen."""
    sampler, loss_rng, opt_disc = _setup(model, train_sets, config)
    records = []
    for iteration in range(1, steps + 1):
        fp = ForwardPass(Tape(), model, sampler.next_batch(), mode="train",
                         rng=loss_rng)
        terms = _discriminator_step(fp, config, opt_disc)
        records.append(MetricsRecord(iteration=iteration, epoch=1, terms=terms))
    return records


def _write_subrun(out_dir, name: str, result: TrainingResult,
                  model: CralModel) -> None:
    """Per-sub-run artifacts in a disjoint subdirectory, when requested."""
    if out_dir is None:
        return
    sub = Path(out_dir) / name
    sub.mkdir(parents=True, exist_ok=True)
    (sub / "metrics.jsonl").write_text(result.stream())
    model.save(sub / "model.ckpt")


def run_kfold(datasets: list, model_config: ModelConfig, config: TrainConfig,
              k: int = 5, out_dir=None) -> dict:
    """k rotations of train/validation/test over stratified labeled folds.

    Rotation r tests on fold r, validates on fold (r+1) mod k, and trains
    on the remaining folds plus each domain's full unlabeled pool.
    """
    folds_per_domain = [split_labeled(ds, k=k, seed=config.seed)
                        for ds in datasets]
    rotations = []
    for r in range(k):
        val_index = (r + 1) % k
        train_sets, dev_sets, test_sets = [], [], []
        for ds, folds in zip(datasets, folds_per_domain):
            train_parts = [folds[j] for j in range(k) if j not in (r, val_index)]
            train_sets.append(merge_labeled(train_parts, ds.name, ds.unlabeled_x))
            test_sets.append(folds[r])
            dev_sets.append(folds[val_index])
        model = init_model(model_config, derive_seed(config.seed, f"kfold/rot{r}"))
        rotation_config = dataclasses.replace(
            config, seed=derive_seed(config.seed, f"kfold/run{r}"))
        result = run_training(model, train_sets, rotation_config,
                              dev_sets=dev_sets, test_sets=test_sets)
        _write_subrun(out_dir, f"rot{r}", result, model)
        rotations.append({
            "rotation": r,
            "test_average": result.test_average,
            "test_accuracy": result.test_accuracy,
            "best_epoch": result.best_epoch,
        })
    return {
        "rotations": rotations,
        "mean_test_average": float(np.mean([r["test_average"]
                                            for r in rotations])),
    }


def run_ablation(train_sets: list, test_sets: list, model_config: ModelConfig,
                 config: TrainConfig, dev_sets: Optional[list] = None,
                 out_dir=None) -> list:
    """Five runs differing only in one disabled term; same seeds throughout."""
    rows = []
    for name, disabled in ABLATION_VARIANTS:
        variant_config = dataclasses.replace(config, disabled=disabled)
        model = init_model(model_config, derive_seed(config.seed, "ablation/init"))
        result = run_training(model, train_sets, variant_config,
                              dev_sets=dev_sets, test_sets=test_sets)
        _write_subrun(out_dir, name, result, model)
        rows.append({"variant": name, "test_average": result.test_average})
    return rows


def run_sweep(train_sets: list, test_sets: list, model_config: ModelConfig,
              config: TrainConfig, parameter: str, grid: list,
              dev_sets: Optional[list] = None, out_dir=None) -> list:
    """One run per grid value; every other weight stays at its default."""
    if parameter not in SWEEPABLE:
        raise ConfigError(
            f"unknown sweep parameter {parameter!r}; pick one of {SWEEPABLE}")
    rows = []
    for value in grid:
        weights = dataclasses.replace(config.weights, **{parameter: float(value)})
        variant_config = dataclasses.replace(config, weights=weights)
        model = init_model(model_config, derive_seed(config.seed, "sweep/init"))
        result = run_training(model, train_sets, variant_config,
                              dev_sets=dev_sets, test_sets=test_sets)
        _write_subrun(out_dir, f"{parameter}={float(value)!r}", result, model)
        rows.append({parameter: float(value), "test_average": result.test_average})
    return rows

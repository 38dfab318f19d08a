"""Acceptance gates: one test per required behavior, at desk scale.

Each test drives the public API end to end with fixed seeds, asserts the
stated tolerance, and enforces its runtime budget. Empirical settings
(learning rates, epochs, weight mixes) were calibrated once and are
frozen here; the asserted thresholds come from the properties themselves.
"""

import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

from cral.cli import main
from cral.data import (
    DomainDataset,
    SyntheticSpec,
    generate_synthetic,
    load_sparse_dataset,
    one_hot,
    save_sparse_dataset,
    split_labeled,
)
from cral.gradcheck import run_suite
from cral.losses import (
    ForwardPass,
    LossWeights,
    MultiDomainBatch,
    disagreement_loss,
    diversity_loss,
    entropy_loss,
    kl_divergence,
    vat_loss,
    vat_perturbation,
)
from cral.model import (
    ModelConfig,
    init_model,
    predict_class,
    predict_domain,
)
from cral.seeding import derive_rng, derive_seed
from cral.tensor import Tape, Tensor
from cral.trainer import (
    TrainConfig,
    discriminator_accuracy,
    evaluate_msuda,
    run_ablation,
    run_training,
    train_discriminator_only,
)


def make_splits(spec: SyntheticSpec, fractions, seed: int):
    """Per-domain splits; slot 0 keeps each domain's unlabeled pool."""
    groups = [[] for _ in fractions]
    for ds in generate_synthetic(spec):
        parts = split_labeled(ds, fractions=list(fractions), seed=seed)
        groups[0].append(DomainDataset(
            ds.name, parts[0].labeled_x, parts[0].labeled_y, ds.unlabeled_x))
        for slot, part in enumerate(parts[1:], start=1):
            groups[slot].append(part)
    return groups


# ---------------------------------------------------------------------------
# Gradients
# ---------------------------------------------------------------------------


def test_primary_gradient_suite_matches_finite_differences():
    # every objective term on the small fixed model: analytic vs central
    # differences, rel. error < 1e-4 on at least 99% of parameters
    started = time.monotonic()
    report = run_suite(seed=0)
    assert len(report) == 12
    for name, entry in report.items():
        assert entry["checked"] > 0, name
        assert entry["fraction_ok"] >= 0.99, (name, entry)
    assert time.monotonic() - started < 60.0


# ---------------------------------------------------------------------------
# Loss bounds
# ---------------------------------------------------------------------------


def test_primary_loss_bounds_hold_over_1000_draws():
    violations = []
    for t in range(1000):
        rng = derive_rng(9000, f"bounds/{t}")
        m = int(rng.integers(2, 5))
        dim = int(rng.integers(3, 11))
        config = ModelConfig(
            num_domains=m, input_dim=dim,
            shared_dim=int(rng.integers(2, 7)),
            specific_dim=int(rng.integers(2, 6)),
            extractor_hidden=() if rng.random() < 0.5
            else (int(rng.integers(3, 8)),),
            dropout_rate=float(rng.uniform(0.0, 0.6)))
        model = init_model(config, int(rng.integers(0, 2 ** 31)))
        scale = float(rng.uniform(0.1, 3.0))
        n_l, n_u = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        batch = MultiDomainBatch(
            [scale * rng.standard_normal((n_l, dim)) for _ in range(m)],
            [one_hot(rng.integers(0, 2, n_l)) for _ in range(m)],
            [scale * rng.standard_normal((n_u, dim)) for _ in range(m)])
        gamma = float(rng.uniform(0.5, 10.0))
        mode = "train" if t % 2 else "eval"
        mode_rng = derive_rng(9001, f"mode/{t}")
        weights = LossWeights(vat_epsilon=float(rng.uniform(0.05, 2.0)))
        b = 1 + t % 2
        fp = ForwardPass(Tape(), model, batch, mode=mode, rng=mode_rng)
        l_d = disagreement_loss(fp).item()
        l_div = diversity_loss(fp, gamma).item()
        l_e = entropy_loss(fp).data[b - 1]
        l_uvt = vat_loss(fp, labeled=False, weights=weights).data[b - 1]
        l_lvt = vat_loss(fp, labeled=True, weights=weights).data[b - 1]
        p = predict_class(model, 1, 0, batch.labeled_x[0])
        q = predict_class(model, 2, m - 1, batch.labeled_x[0])
        kl = kl_divergence(Tensor(p), Tensor(q)).item()
        sums = np.concatenate([
            p.sum(axis=1), q.sum(axis=1),
            predict_domain(model, b, batch.unlabeled_x[0]).sum(axis=1)])
        for label, ok in (
            ("l_d range", 0.0 <= l_d <= 2.0 * m),
            ("l_div range", 0.0 <= l_div <= gamma),
            ("l_e range", 0.0 <= l_e <= m * math.log(2.0) + 1e-12),
            ("kl >= 0", kl >= 0.0),
            ("l_uvt >= 0", l_uvt >= 0.0),
            ("l_lvt >= 0", l_lvt >= 0.0),
            ("rows sum to 1", bool(np.all(np.abs(sums - 1.0) <= 1e-9))),
        ):
            if not ok:
                violations.append((t, label))
    assert violations == []


# ---------------------------------------------------------------------------
# VAT adversariality
# ---------------------------------------------------------------------------


def test_primary_vat_direction_beats_random_directions():
    # the KL comparison probes the local sensitivity property, so the
    # radius stays small relative to the unit input scale
    config = ModelConfig(num_domains=2, input_dim=6, shared_dim=4,
                         specific_dim=3, extractor_hidden=(), dropout_rate=0.4)
    model = init_model(config, 0)
    rng = derive_rng(0, "acceptance/vat-trials")
    epsilon, trials, wins = 0.25, 200, 0
    for t in range(trials):
        i = t % 2
        x = rng.standard_normal((1, 6))
        clean = predict_class(model, None, i, x)
        reference = Tensor(clean[0])
        # Branch 1's probe; branch 2 probes along the same direction draw.
        directions = np.broadcast_to(rng.standard_normal(x.shape), (2,) + x.shape)
        r = vat_perturbation(model, i, x, clean, epsilon=epsilon, xi=1e-6,
                             directions=directions)[0]
        kl_vat = kl_divergence(
            reference, Tensor(predict_class(model, 1, i, x + r))).item()
        random_kls = []
        for _ in range(100):
            d = rng.standard_normal(x.shape)
            d *= epsilon / np.linalg.norm(d, axis=1, keepdims=True)
            random_kls.append(kl_divergence(
                reference, Tensor(predict_class(model, 1, i, x + d))).item())
        wins += kl_vat > np.mean(random_kls)
    assert wins >= 0.95 * trials, f"{wins}/{trials}"


def test_primary_vat_zero_radius_is_exactly_zero():
    config = ModelConfig(num_domains=2, input_dim=6, shared_dim=4,
                         specific_dim=3, extractor_hidden=(), dropout_rate=0.4)
    model = init_model(config, 0)
    rng = derive_rng(0, "acceptance/vat-zero")
    batch = MultiDomainBatch(
        [rng.standard_normal((3, 6)) for _ in range(2)],
        [one_hot(rng.integers(0, 2, 3)) for _ in range(2)],
        [rng.standard_normal((3, 6)) for _ in range(2)])
    weights = LossWeights(vat_epsilon=0.0)
    for labeled in (False, True):
        value = vat_loss(ForwardPass(Tape(), model, batch, rng=rng),
                         labeled=labeled, weights=weights).data
        assert list(value) == [0.0, 0.0]


# ---------------------------------------------------------------------------
# Adversarial equilibrium
# ---------------------------------------------------------------------------


def test_primary_equilibrium_indistinguishable_domains_reach_chance():
    # with zero domain shift the four domains are identical distributions;
    # after adversarial training a held-out discriminator probe must sit
    # at chance level 1/M within 0.1
    started = time.monotonic()
    spec = SyntheticSpec(num_domains=4, feature_dim=12, labeled_per_domain=40,
                         unlabeled_per_domain=40, class_separation=4.0,
                         domain_shift=0.0, label_noise=0.0, seed=0)
    train_sets, test_sets = make_splits(spec, (0.75, 0.25), seed=0)
    config = ModelConfig(num_domains=4, input_dim=12, shared_dim=16,
                         specific_dim=8, extractor_hidden=(), dropout_rate=0.4)
    weights = LossWeights(lambda_adv=1.0, lambda_d=0.01, lambda_div=1e-4,
                          lambda_uvt=0.0, lambda_lvt=0.0)
    model = init_model(config, derive_seed(0, "acceptance/equilibrium"))
    run_training(model, train_sets,
                 TrainConfig(epochs=10, batch_size=8, seed=0, weights=weights,
                             eval_cadence=10, learning_rate=1e-3),
                 test_sets=test_sets)
    accuracy = discriminator_accuracy(model, test_sets)
    assert 0.25 - 0.1 <= accuracy <= 0.25 + 0.1, accuracy
    assert time.monotonic() - started < 600.0


def test_primary_equilibrium_shifted_domains_are_discriminable():
    # with shift 6 and frozen random extractors, discriminator-only
    # training must exceed 0.9 held-out accuracy
    started = time.monotonic()
    spec = SyntheticSpec(num_domains=4, feature_dim=12, labeled_per_domain=40,
                         unlabeled_per_domain=40, class_separation=4.0,
                         domain_shift=6.0, label_noise=0.0, seed=1)
    train_sets, test_sets = make_splits(spec, (0.75, 0.25), seed=1)
    config = ModelConfig(num_domains=4, input_dim=12, shared_dim=16,
                         specific_dim=8, extractor_hidden=(), dropout_rate=0.4)
    model = init_model(config, derive_seed(1, "acceptance/frozen"))
    train_config = TrainConfig(epochs=1, batch_size=8, seed=1,
                               weights=LossWeights(), learning_rate=1e-2)
    train_discriminator_only(model, train_sets, train_config, steps=150)
    accuracy = discriminator_accuracy(model, test_sets)
    assert accuracy > 0.9, accuracy
    assert time.monotonic() - started < 600.0


# ---------------------------------------------------------------------------
# Supervised sanity
# ---------------------------------------------------------------------------


def test_primary_supervised_sanity_on_separable_data():
    spec = SyntheticSpec(num_domains=2, feature_dim=12, labeled_per_domain=80,
                         unlabeled_per_domain=8, class_separation=6.0,
                         domain_shift=2.0, label_noise=0.0, seed=0)
    train_sets, test_sets = make_splits(spec, (0.75, 0.25), seed=0)
    weights = LossWeights(lambda_adv=0.0, lambda_d=0.0, lambda_div=0.0,
                          lambda_uvt=0.0, lambda_lvt=0.0)
    config = ModelConfig(num_domains=2, input_dim=12, shared_dim=16,
                         specific_dim=8, extractor_hidden=(), dropout_rate=0.4)
    model = init_model(config, derive_seed(0, "acceptance/supervised"))
    result = run_training(
        model, train_sets,
        TrainConfig(epochs=50, batch_size=8, seed=0, weights=weights,
                    eval_cadence=50, learning_rate=1e-3),
        test_sets=test_sets)
    assert result.test_average >= 0.95, result.test_average


# ---------------------------------------------------------------------------
# Ablation direction
# ---------------------------------------------------------------------------

ABLATION_DATA = dict(num_domains=4, feature_dim=40, labeled_per_domain=200,
                     unlabeled_per_domain=400, class_separation=3.0,
                     domain_shift=3.0, label_noise=0.1)
ABLATION_WEIGHTS = LossWeights(lambda_adv=1.0, lambda_d=1.5, lambda_div=1e-4,
                               lambda_uvt=0.02, lambda_lvt=0.02)
ABLATION_MODEL = ModelConfig(num_domains=4, input_dim=40, shared_dim=16,
                             specific_dim=8, extractor_hidden=(),
                             dropout_rate=0.2)
ABLATION_EPOCHS = 40
ABLATION_TEST_FRACTION = 0.5


def test_primary_ablation_disagreement_term_matters_most():
    # directional check: dropping the disagreement term hurts the most,
    # on average and per-seed-majority
    started = time.monotonic()
    gaps_by_seed = []
    for seed in range(5):
        spec = SyntheticSpec(seed=seed, **ABLATION_DATA)
        train_sets, test_sets = make_splits(
            spec, (1.0 - ABLATION_TEST_FRACTION, ABLATION_TEST_FRACTION),
            seed=seed)
        config = TrainConfig(epochs=ABLATION_EPOCHS, batch_size=8, seed=seed,
                             weights=ABLATION_WEIGHTS,
                             eval_cadence=ABLATION_EPOCHS, learning_rate=1e-3)
        rows = run_ablation(train_sets, test_sets, ABLATION_MODEL, config)
        accs = {row["variant"]: row["test_average"] for row in rows}
        gaps_by_seed.append(
            {name: accs["full"] - acc for name, acc in accs.items()
             if name != "full"})
    mean_gap_d = np.mean([gaps["wo_l_d"] for gaps in gaps_by_seed])
    assert mean_gap_d >= 0.0, gaps_by_seed  # full >= w/o-L_d on average
    largest = sum(
        gaps["wo_l_d"] > max(v for k, v in gaps.items() if k != "wo_l_d")
        for gaps in gaps_by_seed)
    assert largest >= 3, gaps_by_seed
    assert time.monotonic() - started < 1800.0


# ---------------------------------------------------------------------------
# MS-UDA
# ---------------------------------------------------------------------------


def test_primary_msuda_beats_majority_baseline():
    margins = []
    for seed in range(5):
        spec = SyntheticSpec(num_domains=4, feature_dim=16,
                             labeled_per_domain=80, unlabeled_per_domain=40,
                             class_separation=4.0, domain_shift=2.0,
                             label_noise=0.0, seed=seed)
        data = generate_synthetic(spec)
        target, sources = data[3], data[:3]
        train_sets, dev_sets = [], []
        for ds in sources:
            train_part, dev_part = split_labeled(
                ds, fractions=[0.8, 0.2], seed=seed)
            train_sets.append(DomainDataset(
                ds.name, train_part.labeled_x, train_part.labeled_y,
                ds.unlabeled_x))
            dev_sets.append(dev_part)
        config = ModelConfig(num_domains=3, input_dim=16, shared_dim=16,
                             specific_dim=8, extractor_hidden=(),
                             dropout_rate=0.4)
        weights = LossWeights(lambda_adv=0.5, lambda_d=0.01, lambda_div=1e-4,
                              lambda_uvt=0.0, lambda_lvt=0.0)
        model = init_model(config, derive_seed(seed, "acceptance/msuda"))
        run_training(model, train_sets,
                     TrainConfig(epochs=15, batch_size=8, seed=seed,
                                 weights=weights, eval_cadence=5,
                                 learning_rate=1e-3),
                     dev_sets=dev_sets)
        accuracy = evaluate_msuda(model, target)
        counts = np.bincount(target.labeled_y, minlength=2)
        margins.append(accuracy - counts.max() / counts.sum())
    assert np.mean(margins) >= 0.1, margins


# ---------------------------------------------------------------------------
# Determinism
# ---------------------------------------------------------------------------


def test_primary_identical_runs_emit_byte_identical_streams():
    spec = SyntheticSpec(num_domains=2, feature_dim=8, labeled_per_domain=24,
                         unlabeled_per_domain=16, class_separation=3.0,
                         domain_shift=2.0, label_noise=0.1, seed=5)
    train_sets, test_sets = make_splits(spec, (0.75, 0.25), seed=5)
    config = TrainConfig(epochs=3, batch_size=8, seed=5,
                         weights=LossWeights(lambda_adv=0.5, lambda_d=0.1),
                         eval_cadence=1, learning_rate=1e-3)
    model_config = ModelConfig(num_domains=2, input_dim=8, shared_dim=6,
                               specific_dim=4, extractor_hidden=(),
                               dropout_rate=0.4)
    streams = []
    for _ in range(2):
        model = init_model(model_config, derive_seed(5, "acceptance/determinism"))
        result = run_training(model, train_sets, config,
                              dev_sets=test_sets, test_sets=test_sets)
        streams.append(result.stream().encode())
    assert streams[0] == streams[1]


# ---------------------------------------------------------------------------
# Data round-trip and folds
# ---------------------------------------------------------------------------


def test_primary_sparse_round_trip_is_exact(tmp_path):
    rng = derive_rng(0, "acceptance/roundtrip")
    dim = 30
    labeled_x = rng.standard_normal((40, dim))
    labeled_x[rng.random((40, dim)) < 0.6] = 0.0
    labeled_x[0, :] = 0.0  # all-zero row must survive
    labeled_x[1, 5] = 1e-300
    labeled_x[2, 7] = -1e300
    labeled_x[3, 9] = 0.1 + 0.2  # classic non-representable decimal
    unlabeled_x = rng.standard_normal((16, dim))
    unlabeled_x[rng.random((16, dim)) < 0.6] = 0.0
    dataset = DomainDataset("books", labeled_x,
                            rng.integers(0, 2, 40), unlabeled_x)
    path = tmp_path / "books.txt"
    save_sparse_dataset(path, dataset)
    loaded = load_sparse_dataset(path, feature_dim=dim)
    assert np.array_equal(loaded.labeled_x, dataset.labeled_x)
    assert np.array_equal(loaded.labeled_y, dataset.labeled_y)
    assert np.array_equal(loaded.unlabeled_x, dataset.unlabeled_x)


def test_primary_five_fold_partitions_are_stratified():
    rng = derive_rng(1, "acceptance/folds")
    labels = rng.integers(0, 2, 83)
    dataset = DomainDataset("d", rng.standard_normal((83, 4)), labels,
                            np.zeros((0, 4)))
    folds = split_labeled(dataset, k=5, seed=3)
    sizes = [fold.num_labeled for fold in folds]
    assert sum(sizes) == 83  # exhaustive
    rows = {tuple(row) for fold in folds for row in fold.labeled_x}
    assert len(rows) == 83  # disjoint (rows are distinct reals)
    for cls in (0, 1):
        counts = [int(np.sum(fold.labeled_y == cls)) for fold in folds]
        assert max(counts) - min(counts) <= 1, (cls, counts)


# ---------------------------------------------------------------------------
# Optional high-dimensional pipeline (not gated on user data)
# ---------------------------------------------------------------------------


def test_optional_5000_dim_five_fold_pipeline(tmp_path):
    # CRAL_DATA_DIR may point at real 5000-dim sparse files; without it a
    # synthetic stand-in exercises the same path end to end
    data_dir = os.environ.get("CRAL_DATA_DIR")
    if data_dir:
        paths = sorted(str(p) for p in Path(data_dir).glob("*.txt"))
        assert len(paths) >= 2, "need at least two domain files"
    else:
        spec = SyntheticSpec(num_domains=2, feature_dim=5000,
                             labeled_per_domain=40, unlabeled_per_domain=20,
                             class_separation=4.0, domain_shift=2.0,
                             label_noise=0.0, seed=0)
        paths = []
        for i, ds in enumerate(generate_synthetic(spec)):
            path = tmp_path / f"domain{i}.txt"
            save_sparse_dataset(path, ds)
            paths.append(str(path))
    out = tmp_path / "kfold_run"
    code = main([
        "kfold", "--out", str(out),
        "--set", f"data_paths={','.join(paths)}",
        "--set", "feature_dim=5000",
        "--set", "shared_dim=32", "--set", "specific_dim=8",
        "--set", "extractor_hidden=", "--set", "epochs=1",
        "--set", "folds=5",
        "--set", "lambda_uvt=0", "--set", "lambda_lvt=0",
    ])
    assert code == 0
    lines = (out / "summary.tsv").read_text().splitlines()
    assert lines[0].startswith("rotation")
    assert lines[-1].startswith("MEAN")  # per-rotation rows plus the average

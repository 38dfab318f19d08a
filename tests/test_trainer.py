"""Sampler, alternating-update, evaluation, and experiment-harness tests."""

import dataclasses
import gc
import json
import tracemalloc
import weakref

import numpy as np
import pytest

import cral.tensor as tt
import cral.trainer as trainer
from cral.data import DomainDataset, SyntheticSpec, generate_synthetic
from cral.errors import ConfigError, DataError, TrainingError
from cral.losses import ForwardPass, LossWeights, discriminator_objective, total_objective
from cral.model import ModelConfig, init_model
from cral.nn import Adam
from cral.trainer import (
    BatchSampler,
    MetricsRecord,
    TrainConfig,
    discriminator_accuracy,
    evaluate_mdtc,
    evaluate_msuda,
    run_ablation,
    run_kfold,
    run_sweep,
    run_training,
    train_discriminator_only,
    train_step,
)

TOY_MODEL = ModelConfig(num_domains=2, input_dim=6, shared_dim=4, specific_dim=3,
                        extractor_hidden=(), dropout_rate=0.4)

ZERO_WEIGHTS = LossWeights(lambda_adv=0.0, lambda_d=0.0, lambda_div=0.0,
                           lambda_uvt=0.0, lambda_lvt=0.0)

FAST_WEIGHTS = LossWeights(lambda_adv=0.1, lambda_d=0.01, lambda_div=1e-4,
                           lambda_uvt=0.0, lambda_lvt=0.0)


def toy_data(m=2, labeled=20, unlabeled=20, dim=6, seed=0, separation=4.0):
    return generate_synthetic(SyntheticSpec(
        num_domains=m, feature_dim=dim, labeled_per_domain=labeled,
        unlabeled_per_domain=unlabeled, class_separation=separation,
        domain_shift=1.0, seed=seed))


def indexed_dataset(name, n_labeled, n_unlabeled, dim=6):
    """Features encode the sample index so batches can be traced."""
    lx = np.zeros((n_labeled, dim))
    lx[:, 0] = np.arange(n_labeled)
    ux = np.zeros((n_unlabeled, dim))
    ux[:, 0] = np.arange(n_unlabeled)
    y = np.arange(n_labeled) % 2
    return DomainDataset(name, lx, y, ux)


class TestSampler:
    def test_batch_shapes_m4(self):
        sampler = BatchSampler(toy_data(m=4), 8, np.random.default_rng(0))
        batch = sampler.next_batch()
        assert sum(x.shape[0] for x in batch.labeled_x) == 32
        assert sum(x.shape[0] for x in batch.unlabeled_x) == 32

    def test_same_seed_identical_sequence(self):
        data = toy_data()
        runs = []
        for _ in range(2):
            sampler = BatchSampler(data, 8, np.random.default_rng(5))
            runs.append([sampler.next_batch() for _ in range(4)])
        for ba, bb in zip(*runs):
            for xa, xb in zip(ba.labeled_x, bb.labeled_x):
                np.testing.assert_array_equal(xa, xb)
            for xa, xb in zip(ba.unlabeled_x, bb.unlabeled_x):
                np.testing.assert_array_equal(xa, xb)

    def test_ten_samples_recycle_after_two_steps(self):
        data = [indexed_dataset("a", 16, 10), indexed_dataset("b", 16, 16)]
        sampler = BatchSampler(data, 8, np.random.default_rng(7))
        step1 = sampler.next_batch().unlabeled_x[0][:, 0]
        step2 = sampler.next_batch().unlabeled_x[0][:, 0]
        assert len(set(step1)) == 8
        # The two leftovers come first, completing one full pass before
        # a fresh shuffle fills the rest of step 2.
        assert set(step1) | set(step2[:2]) == set(range(10))

    def test_small_domain_shrinks_with_warning(self):
        data = [indexed_dataset("tiny", 6, 6), indexed_dataset("big", 20, 20)]
        with pytest.warns(UserWarning, match="shrink"):
            sampler = BatchSampler(data, 8, np.random.default_rng(9))
        batch = sampler.next_batch()
        assert batch.labeled_x[0].shape[0] == 6
        assert batch.labeled_x[1].shape[0] == 8

    def test_steps_per_epoch_rounds_up(self):
        data = [indexed_dataset("a", 17, 20), indexed_dataset("b", 9, 20)]
        sampler = BatchSampler(data, 8, np.random.default_rng(11))
        assert sampler.steps_per_epoch == 3  # ceil(17 / 8)

    def test_empty_domain_rejected(self):
        bad = DomainDataset("empty", np.zeros((0, 6)), np.zeros(0), np.zeros((3, 6)))
        with pytest.raises(DataError, match="empty"):
            BatchSampler([bad], 8, np.random.default_rng(0))


class TestTrainStep:
    def make(self, weights, seed=0):
        model = init_model(TOY_MODEL, seed)
        config = TrainConfig(epochs=1, seed=seed, weights=weights,
                             learning_rate=1e-3)
        sampler = BatchSampler(toy_data(seed=seed), config.batch_size,
                               np.random.default_rng(seed))
        return model, config, sampler.next_batch()

    def snapshot(self, params):
        return {p.name: p.value.copy() for p in params}

    def changed(self, params, before):
        return {p.name for p in params
                if not np.array_equal(p.value, before[p.name])}

    def test_update_partition_across_phases(self):
        model, config, batch = self.make(LossWeights(lambda_uvt=0.0,
                                                     lambda_lvt=0.0))
        rng = np.random.default_rng(1)
        opt_disc = Adam(model.discriminator_params(), lr=1e-3)
        opt_main = Adam(model.main_params(), lr=1e-3)

        before = self.snapshot(model.params())
        fp = ForwardPass(tt.Tape(), model, batch, mode="train", rng=rng)
        objective, _ = discriminator_objective(fp, config.weights)
        opt_disc.step(tt.backward(objective))
        disc_names = {p.name for p in model.discriminator_params()}
        assert self.changed(model.params(), before) == disc_names

        after_phase1 = self.snapshot(model.params())
        objective, _ = total_objective(fp, config.weights)
        opt_main.step(tt.backward(objective))
        changed = self.changed(model.params(), after_phase1)
        assert changed.isdisjoint(disc_names)
        assert changed  # the main phase did move the rest

    def test_lambda_adv_zero_keeps_discriminator_frozen(self):
        model, config, batch = self.make(ZERO_WEIGHTS)
        opt_disc = Adam(model.discriminator_params(), lr=1e-3)
        opt_main = Adam(model.main_params(), lr=1e-3)
        before = self.snapshot(model.discriminator_params())
        terms = train_step(model, batch, config, opt_disc, opt_main,
                           np.random.default_rng(2))
        assert terms["disc_phase"] == 0.0
        assert not self.changed(model.discriminator_params(), before)

    def test_disabled_terms_zero_in_breakdown(self):
        model, config, batch = self.make(LossWeights(lambda_d=0.0, lambda_uvt=0.0,
                                                     lambda_lvt=0.0))
        terms = train_step(model, batch, config,
                           Adam(model.discriminator_params()),
                           Adam(model.main_params()),
                           np.random.default_rng(3))
        assert terms["l_d"] == 0.0
        assert terms["l_div"] != 0.0

    def test_non_finite_loss_aborts_with_term_name(self):
        model, config, batch = self.make(FAST_WEIGHTS)
        model.shared.layers[0].weight.value[0] = np.nan
        with pytest.raises(TrainingError, match="non-finite loss term"):
            train_step(model, batch, config,
                       Adam(model.discriminator_params()),
                       Adam(model.main_params()),
                       np.random.default_rng(4))

    def test_run_training_error_names_iteration_and_epoch(self):
        model, config, _ = self.make(FAST_WEIGHTS)
        model.shared.layers[0].weight.value[0] = np.nan
        with pytest.raises(TrainingError, match=r"^iteration 1 \(epoch 1\): "
                                                "non-finite loss term") as info:
            run_training(model, toy_data(), config)
        assert isinstance(info.value.__cause__, TrainingError)

    def test_run_training_error_names_a_later_iteration(self, monkeypatch):
        # 20 labeled rows per domain in batches of 8: 3 iterations per epoch.
        calls, step = [], trainer.train_step

        def failing_step(*args):
            calls.append(None)
            if len(calls) == 5:
                raise TrainingError("non-finite gradient for parameter w")
            return step(*args)

        monkeypatch.setattr(trainer, "train_step", failing_step)
        model, config, _ = self.make(FAST_WEIGHTS)
        with pytest.raises(TrainingError, match=r"^iteration 5 \(epoch 2\): non-finite "
                                                "gradient for parameter w$"):
            run_training(model, toy_data(), dataclasses.replace(config, epochs=3))

    def test_discriminator_only_error_names_iteration(self, monkeypatch):
        calls, step = [], trainer._discriminator_step

        def failing_step(*args):
            calls.append(None)
            if len(calls) == 2:
                raise TrainingError("non-finite loss term l_adv_b1: nan")
            return step(*args)

        monkeypatch.setattr(trainer, "_discriminator_step", failing_step)
        model, config, _ = self.make(FAST_WEIGHTS)
        with pytest.raises(TrainingError, match=r"^iteration 2: non-finite loss term l_adv_b1"):
            train_discriminator_only(model, toy_data(), config, steps=3)

    def test_step_tapes_die_without_cyclic_collector(self, monkeypatch):
        model, config, batch = self.make(LossWeights())
        opt_disc = Adam(model.discriminator_params(), lr=1e-3)
        opt_main = Adam(model.main_params(), lr=1e-3)
        tapes = []
        init = tt.Tape.__init__

        def tracked_init(tape):
            init(tape)
            tapes.append(weakref.ref(tape))

        monkeypatch.setattr(tt.Tape, "__init__", tracked_init)
        gc.collect()
        gc.disable()
        try:
            train_step(model, batch, config, opt_disc, opt_main,
                       np.random.default_rng(5))
            alive = sum(ref() is not None for ref in tapes)
            collected = gc.collect()
        finally:
            gc.enable()
        assert len(tapes) > 2  # the pass, phase 1 and the VAT probes
        assert alive == 0
        assert collected == 0


class TestEvaluation:
    def rigged_model(self, bias):
        model = init_model(TOY_MODEL, 0)
        model.classifier.layers[-1].weight.value[:] = 0.0  # both branches
        model.classifier.layers[-1].bias.value[:] = bias
        return model

    def dataset(self, labels):
        labels = np.asarray(labels)
        x = np.random.default_rng(0).standard_normal((labels.size, 6))
        return DomainDataset("d", x, labels, np.zeros((0, 6)))

    def test_always_class_zero_on_balanced_set(self):
        model = self.rigged_model([50.0, -50.0])
        sets = [self.dataset([0, 0, 1, 1]), self.dataset([0, 1, 0, 1])]
        per_domain, average = evaluate_mdtc(model, sets)
        assert per_domain == [0.5, 0.5]
        assert average == 0.5

    def test_perfect_oracle(self):
        model = self.rigged_model([-50.0, 50.0])  # always class 1
        sets = [self.dataset([1, 1, 1]), self.dataset([1, 1, 1])]
        assert evaluate_mdtc(model, sets)[1] == 1.0

    def test_hand_built_fraction(self):
        model = self.rigged_model([50.0, -50.0])  # always class 0
        sets = [self.dataset([0, 0, 0, 1]), self.dataset([0, 1, 1, 1])]
        per_domain, average = evaluate_mdtc(model, sets)
        assert per_domain == [0.75, 0.25]
        assert average == 0.5

    def test_empty_test_set_rejected(self):
        model = self.rigged_model([0.0, 0.0])
        empty = DomainDataset("e", np.zeros((0, 6)), np.zeros(0), np.zeros((0, 6)))
        with pytest.raises(DataError):
            evaluate_mdtc(model, [self.dataset([0, 1]), empty])

    def test_msuda_near_chance_at_init(self):
        # Classes identically distributed, so an untrained ensemble sits
        # at the balanced-guess rate.
        target = generate_synthetic(SyntheticSpec(
            num_domains=2, feature_dim=6, labeled_per_domain=1000,
            unlabeled_per_domain=2, class_separation=0.0, domain_shift=0.0,
            seed=21))[0]
        model = init_model(TOY_MODEL, 3)
        acc = evaluate_msuda(model, target)
        assert abs(acc - 0.5) <= 0.05
        assert acc == evaluate_msuda(model, target)  # deterministic

    def test_discriminator_accuracy_range(self):
        model = init_model(TOY_MODEL, 5)
        acc = discriminator_accuracy(model, toy_data(seed=2))
        assert 0.0 <= acc <= 1.0

    def test_discriminator_accuracy_needs_one_set_per_domain(self):
        model = init_model(TOY_MODEL, 5)
        with pytest.raises(DataError, match="expected 2 domain sets, got 3"):
            discriminator_accuracy(model, toy_data(m=3, seed=2))


class TestRunTraining:
    def test_metric_stream_byte_identical(self):
        data = toy_data(seed=3)
        streams = []
        for _ in range(2):
            model = init_model(TOY_MODEL, 7)
            config = TrainConfig(epochs=2, seed=11, weights=FAST_WEIGHTS,
                                 learning_rate=1e-3)
            result = run_training(model, data, config, dev_sets=data,
                                  test_sets=data)
            streams.append(result.stream())
        assert streams[0].encode() == streams[1].encode()

    def test_stream_has_no_wall_clock(self):
        record = MetricsRecord(iteration=1, epoch=1, terms={"main": 0.5})
        payload = json.loads(record.stream_json())
        assert set(payload) == {
            "iteration", "epoch", "terms", "dev_accuracy", "dev_average",
            "test_accuracy", "test_average", "disc_accuracy"}
        assert payload["terms"]["main"] == 0.5

    def test_supervised_loss_decreases(self):
        data = toy_data(seed=4, labeled=40, separation=6.0)
        model = init_model(TOY_MODEL, 9)
        config = TrainConfig(epochs=40, seed=13, weights=ZERO_WEIGHTS,
                             learning_rate=1e-2)
        result = run_training(model, data, config)
        first = result.records[0].terms["l_c_b1"]
        last = result.records[-1].terms["l_c_b1"]
        assert last < 0.1 < first

    def test_best_epoch_snapshot_restored(self):
        data = toy_data(seed=5, labeled=30, separation=6.0)
        model = init_model(TOY_MODEL, 15)
        config = TrainConfig(epochs=5, seed=17, weights=ZERO_WEIGHTS,
                             learning_rate=1e-2)
        result = run_training(model, data, config, dev_sets=data, test_sets=data)
        assert result.best_epoch is not None
        assert result.best_dev_average is not None
        best = max(r.dev_average for r in result.records
                   if r.dev_average is not None)
        assert result.best_dev_average == best

    # A run whose dev average improves at epochs 1, 2 and 3 of 5: 11.4 MB
    # of parameters, next to which a batch of 2 rows' activations is small.
    SNAPSHOT_MODEL = ModelConfig(num_domains=2, input_dim=20, extractor_hidden=(600, 300))
    SNAPSHOT_CONFIG = TrainConfig(epochs=5, batch_size=2, seed=2, learning_rate=1e-3)
    SNAPSHOT_DATA = SyntheticSpec(num_domains=2, feature_dim=20, labeled_per_domain=8,
                                  unlabeled_per_domain=8, class_separation=1.0,
                                  domain_shift=1.0, seed=2)

    def test_best_dev_run_holds_one_snapshot(self):
        data = generate_synthetic(self.SNAPSHOT_DATA)
        model = init_model(self.SNAPSHOT_MODEL, 2)
        size = sum(p.value.nbytes for p in model.params())
        tracemalloc.start()
        try:
            result = run_training(model, data, self.SNAPSHOT_CONFIG, dev_sets=data)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        devs = [r.dev_average for r in result.records if r.dev_average is not None]
        improved = [d > max(devs[:e], default=0.0) for e, d in enumerate(devs)]
        assert improved == [True, True, True, False, False]
        # Adam's two moments and one snapshot, plus half a snapshot of slack
        # for the step's arrays; a second snapshot made while the first is
        # alive would add a whole one.
        assert peak <= 3 * size + size // 2

    def test_restored_parameters_are_the_best_epochs_bit_for_bit(self):
        data = generate_synthetic(self.SNAPSHOT_DATA)
        model = init_model(self.SNAPSHOT_MODEL, 2)
        result = run_training(model, data, self.SNAPSHOT_CONFIG, dev_sets=data)
        assert result.best_epoch == 3 < self.SNAPSHOT_CONFIG.epochs
        # The same run stopped after the best epoch: evaluation draws no
        # randomness, so its parameters are those of the best epoch.
        best = init_model(self.SNAPSHOT_MODEL, 2)
        run_training(best, data, dataclasses.replace(self.SNAPSHOT_CONFIG, epochs=3))
        want = best.state_dict()
        for name, value in model.state_dict().items():
            np.testing.assert_array_equal(value, want[name], err_msg=name)

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            TrainConfig(batch_size=0)
        with pytest.raises(ConfigError):
            TrainConfig(eval_cadence=0)

    def test_discriminator_only_training_learns_domains(self):
        data = generate_synthetic(SyntheticSpec(
            num_domains=2, feature_dim=6, labeled_per_domain=40,
            unlabeled_per_domain=40, class_separation=4.0, domain_shift=6.0,
            seed=6))
        model = init_model(TOY_MODEL, 19)
        before = discriminator_accuracy(model, data)
        config = TrainConfig(epochs=1, seed=19, learning_rate=1e-2)
        records = train_discriminator_only(model, data, config, steps=100)
        assert len(records) == 100
        after = discriminator_accuracy(model, data)
        assert after > 0.9 > before + 0.3

    def test_discriminator_only_runs_shared_extractors_and_discriminators(
            self, monkeypatch):
        import cral.model

        ran = []
        original = cral.model.mlp_forward

        def recording(tape, mlp, *args, **kwargs):
            ran.append(mlp)
            return original(tape, mlp, *args, **kwargs)

        monkeypatch.setattr(cral.model, "mlp_forward", recording)
        model = init_model(TOY_MODEL, 23)
        train_discriminator_only(model, toy_data(seed=23), TrainConfig(seed=23), steps=2)
        allowed = [model.shared, model.discriminator]  # each holds both branches
        assert ran and all(any(mlp is a for a in allowed) for mlp in ran)
        assert {id(mlp) for mlp in ran} == {id(mlp) for mlp in allowed}


class TestHarnesses:
    def quick_config(self, **kw):
        base = dict(epochs=1, seed=23, weights=FAST_WEIGHTS, learning_rate=1e-3)
        base.update(kw)
        return TrainConfig(**base)

    def test_kfold_structure(self):
        data = toy_data(labeled=20, unlabeled=10, seed=7)
        result = run_kfold(data, TOY_MODEL, self.quick_config(), k=4)
        assert len(result["rotations"]) == 4
        tested = [r["rotation"] for r in result["rotations"]]
        assert tested == [0, 1, 2, 3]
        assert 0.0 <= result["mean_test_average"] <= 1.0

    def test_kfold_needs_a_training_fold(self):
        data = toy_data(labeled=20, unlabeled=10, seed=7)
        with pytest.raises(DataError, match="k=2"):
            run_kfold(data, TOY_MODEL, self.quick_config(), k=2)

    def test_ablation_emits_five_rows(self):
        data = toy_data(labeled=16, unlabeled=8, seed=8)
        rows = run_ablation(data, data, TOY_MODEL, self.quick_config())
        assert [r["variant"] for r in rows] == [
            "full", "wo_l_d", "wo_l_div", "wo_l_uvt", "wo_l_lvt"]
        assert all(0.0 <= r["test_average"] <= 1.0 for r in rows)

    def test_sweep_rows_and_determinism(self):
        data = toy_data(labeled=16, unlabeled=8, seed=9)
        grid = [1e-3, 1e-2, 1e-1]
        a = run_sweep(data, data, TOY_MODEL, self.quick_config(),
                      "lambda_d", grid)
        b = run_sweep(data, data, TOY_MODEL, self.quick_config(),
                      "lambda_d", grid)
        assert [row["lambda_d"] for row in a] == grid
        assert a == b

    def test_sweep_unknown_parameter(self):
        with pytest.raises(ConfigError, match="lamda_d"):
            run_sweep([], [], TOY_MODEL, self.quick_config(), "lamda_d", [0.1])

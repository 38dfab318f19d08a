"""Architecture wiring, prediction API, and snapshot round-trip tests."""

import dataclasses
import hashlib

import numpy as np
import pytest
from oracles import DenseGradients

import cral.model
import cral.nn
from cral.errors import ContractError, SpecError
from cral.model import (
    CralModel,
    ModelConfig,
    init_model,
    predict_class,
    predict_domain,
    predict_ensemble,
    predicted_labels,
)
from cral.nn import Adam, save_checkpoint

SMALL = ModelConfig(num_domains=4, input_dim=10, shared_dim=8, specific_dim=5,
                    extractor_hidden=(16,), dropout_rate=0.4)


def small_model(seed=0):
    return init_model(SMALL, seed)


def swapped_branches(model):
    """A new model holding branch 2's arrays as branch 1's and the reverse."""
    swapped = init_model(model.config, 0)
    swapped.load_state_dict({f"branch{3 - int(name[6])}{name[7:]}": value
                             for name, value in model.state_dict().items()})
    return swapped


class TestConstruction:
    def test_default_widths(self):
        config = ModelConfig(num_domains=2, input_dim=20)
        model = init_model(config, seed=1)
        assert model.shared.spec.output_dim == 128
        assert model.specific[0].spec.output_dim == 64
        assert model.classifier.spec.input_dim == 192
        assert model.classifier.spec.hidden_dims == (192,)
        assert model.discriminator.spec.input_dim == 128
        assert model.discriminator.spec.hidden_dims == (128,)
        assert model.discriminator.spec.output_dim == 2

    def test_too_few_domains_rejected(self):
        with pytest.raises(SpecError):
            ModelConfig(num_domains=1, input_dim=5)

    def test_branches_differ_at_init(self):
        model = small_model()
        x = np.random.default_rng(0).standard_normal((4, 10))
        f1 = predict_class(model, 1, 0, x)
        f2 = predict_class(model, 2, 0, x)
        assert not np.allclose(f1, f2)

    def test_invalid_branch(self):
        with pytest.raises(ContractError):
            predict_class(small_model(), 3, 0, np.zeros((1, 10)))

    def test_param_partition(self):
        model = small_model()
        main = {name for p in model.main_params() for name in p.part_names()}
        disc = {name for p in model.discriminator_params() for name in p.part_names()}
        assert main.isdisjoint(disc)
        assert main | disc == set(model.state_dict())
        assert all(name.split("/")[1] == "disc" for name in disc)

    def test_init_deterministic(self):
        a, b = small_model(7), small_model(7)
        for name, value in a.state_dict().items():
            np.testing.assert_array_equal(value, b.state_dict()[name])


class TestPredictions:
    def test_domain_probs_shape_and_rows(self):
        model = small_model()
        x = np.random.default_rng(1).standard_normal((6, 10))
        probs = predict_domain(model, 1, x)
        assert probs.shape == (6, 4)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(probs > 0) and np.all(probs < 1)

    def test_class_probs_rows(self):
        model = small_model()
        x = np.random.default_rng(2).standard_normal((6, 10))
        for b in (1, 2):
            for i in range(4):
                probs = predict_class(model, b, i, x)
                assert probs.shape == (6, 2)
                np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)

    def test_invalid_domain_index(self):
        model = small_model()
        x = np.zeros((1, 10))
        with pytest.raises(ContractError):
            predict_class(model, 1, 4, x)
        with pytest.raises(ContractError):
            predict_class(model, 1, None, x)

    def test_eval_mode_deterministic(self):
        model = small_model()
        x = np.random.default_rng(3).standard_normal((5, 10))
        np.testing.assert_array_equal(predict_class(model, 1, 2, x),
                                      predict_class(model, 1, 2, x))

    def test_untrained_domain_predictions_near_uniform(self):
        # No class is preferred in expectation at init: average the mean
        # prediction over independently seeded models (single draws can
        # tilt by the luck of the output weights).
        x = np.random.default_rng(4).standard_normal((50, 10))
        mean = np.mean(
            [predict_domain(small_model(seed), 1, x).mean(axis=0)
             for seed in range(20)],
            axis=0,
        )
        assert np.all(np.abs(mean - 0.25) < 0.1)


class TestMsuda:
    def test_invariant_to_specific_parameters(self):
        model = small_model()
        x = np.random.default_rng(5).standard_normal((7, 10))
        before = predict_class(model, 1, None, x, msuda=True)
        for mlp in model.specific:
            for p in mlp.params():
                p.value = p.value + 1.0
        after = predict_class(model, 1, None, x, msuda=True)
        np.testing.assert_array_equal(before, after)

    def test_msuda_rows_sum_to_one(self):
        model = small_model()
        x = np.random.default_rng(6).standard_normal((5, 10))
        probs = predict_ensemble(model, x, msuda=True)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)


class TestEnsemble:
    def test_mean_and_argmax(self):
        mean = 0.5 * (np.array([[0.9, 0.1]]) + np.array([[0.7, 0.3]]))
        np.testing.assert_allclose(mean, [[0.8, 0.2]])
        assert predicted_labels(mean)[0] == 0

    def test_tie_breaks_to_class_zero(self):
        assert predicted_labels(np.array([[0.5, 0.5]]))[0] == 0

    def test_identical_branches_idempotent(self):
        model = small_model()
        # Copy branch-1 values onto branch-2.
        for p in model.params():
            p.value[1] = p.value[0]
        x = np.random.default_rng(7).standard_normal((4, 10))
        np.testing.assert_allclose(predict_ensemble(model, x, i=1),
                                   predict_class(model, 1, 1, x), atol=1e-12)

    def test_argmax_invariant_under_branch_swap(self):
        model = small_model(13)
        swapped = swapped_branches(model)
        x = np.random.default_rng(8).standard_normal((50, 10))
        np.testing.assert_array_equal(
            predicted_labels(predict_ensemble(model, x, i=0)),
            predicted_labels(predict_ensemble(swapped, x, i=0)),
        )


class TestSnapshot:
    def test_save_load_roundtrip(self, tmp_path):
        model = small_model(17)
        path = tmp_path / "model.ckpt"
        model.save(path)
        loaded = CralModel.load(path)
        assert loaded.config == model.config
        x = np.random.default_rng(9).standard_normal((5, 10))
        np.testing.assert_array_equal(predict_ensemble(loaded, x, i=3),
                                      predict_ensemble(model, x, i=3))

    def test_checkpoint_bytes_and_predictions_match_per_branch_storage(self, tmp_path):
        # sha256 digests taken when each branch's arrays were parameters of
        # their own: stacking changed neither the file nor the predictions.
        config = ModelConfig(num_domains=3, input_dim=7, shared_dim=4, specific_dim=3,
                             extractor_hidden=(6, 5), dropout_rate=0.3)
        model = init_model(config, 11)
        path = tmp_path / "model.ckpt"
        model.save(path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "a0b5b1dcd1116f4130a1402caa4fd54ad0e016bce552cb70303a63e6c059d662")
        loaded = CralModel.load(path)
        x = np.random.default_rng(12).standard_normal((5, 7))
        for m in (model, loaded):
            digest = hashlib.sha256()
            for b in (1, 2):
                for i in (0, 1, 2, None):
                    digest.update(predict_class(m, b, i, x, msuda=i is None).tobytes())
            assert digest.hexdigest() == (
                "7a3f1386f4dd8334bf714dff401e3ac60375fa38ac951c17d72156fa8b30ebaa")

    def test_load_checks_metadata_keys(self, tmp_path):
        model = small_model(3)
        path = tmp_path / "model.ckpt"
        meta = dataclasses.asdict(model.config)
        del meta["num_classes"]
        save_checkpoint(path, model.state_dict(), meta)
        assert CralModel.load(path).config == model.config
        del meta["shared_dim"]
        save_checkpoint(path, model.state_dict(), meta)
        with pytest.raises(ContractError, match="shared_dim"):
            CralModel.load(path)
        meta = {**dataclasses.asdict(model.config), "bogus_key": 1}
        save_checkpoint(path, model.state_dict(), meta)
        with pytest.raises(ContractError, match="bogus_key"):
            CralModel.load(path)

    @pytest.mark.parametrize("key, value", [
        ("num_domains", "2"), ("extractor_hidden", 4), ("dropout_rate", None),
        ("shared_dim", 3.5), ("num_classes", True), ("extractor_hidden", [8, 4.0]),
    ])
    def test_load_rejects_wrongly_typed_metadata(self, tmp_path, key, value):
        model = small_model(3)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model.state_dict(),
                        {**dataclasses.asdict(model.config), key: value})
        with pytest.raises(ContractError) as info:
            CralModel.load(path)
        assert str(info.value).startswith(f"{path}: checkpoint metadata {key} = ")

    @pytest.mark.parametrize("key, value, match", [
        ("input_dim", 2 ** 40, "shape mismatch for branch1/shared/layer0/weight"),
        ("extractor_hidden", [2 ** 45], "shape mismatch for branch1/shared/layer0/weight"),
        ("shared_dim", -1, "shared_dim must be positive"),
    ], ids=["input_dim", "extractor_hidden", "shared_dim"])
    def test_load_checks_the_widths_before_allocating(self, tmp_path, key, value, match):
        # Each width would ask for terabytes, or for a negative size, if the
        # model were built before the records are compared with it.
        model = small_model(3)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model.state_dict(),
                        {**dataclasses.asdict(model.config), key: value})
        with pytest.raises(ContractError, match=match) as info:
            CralModel.load(path)
        assert str(info.value).startswith(f"{path}: ")

    def test_load_builds_the_model_from_the_checkpoint_without_drawing(
            self, tmp_path, monkeypatch):
        model = small_model(18)
        path = tmp_path / "model.ckpt"
        model.save(path)

        def no_draw(*args, **kwargs):
            raise AssertionError("CralModel.load drew initial weights")

        monkeypatch.setattr(cral.model, "init_params", no_draw)
        monkeypatch.setattr(cral.nn, "glorot_uniform", no_draw)
        loaded = CralModel.load(path)
        assert [p.name for p in loaded.params()] == [p.name for p in model.params()]
        x = np.random.default_rng(10).standard_normal((5, 10))
        np.testing.assert_array_equal(predict_ensemble(loaded, x, i=1),
                                      predict_ensemble(model, x, i=1))
        np.testing.assert_array_equal(predict_ensemble(loaded, x, msuda=True),
                                      predict_ensemble(model, x, msuda=True))
        for p in loaded.params():
            assert p.value.dtype == np.float64 and p.value.flags.c_contiguous
            assert p.value.flags.writeable

    @pytest.mark.parametrize("edit,match", [
        (lambda state: state.pop("branch2/clf/layer1/bias"), "parameter names do not match"),
        (lambda state: state.update({"bogus/param": np.zeros(3)}), "bogus/param"),
        (lambda state: state.update({"branch1/disc/layer0/weight": np.zeros((8, 9))}),
         "shape mismatch for branch1/disc/layer0/weight"),
    ], ids=["missing", "extra", "shape"])
    def test_load_checks_the_checkpoint_names_and_shapes(self, tmp_path, edit, match):
        model = small_model(19)
        state = dict(model.state_dict())
        edit(state)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, state, dataclasses.asdict(model.config))
        with pytest.raises(ContractError, match=match):
            CralModel.load(path)

    def test_load_rejects_wrong_names(self, tmp_path):
        model = small_model()
        state = model.state_dict()
        state["bogus/param"] = np.zeros(3)
        with pytest.raises(ContractError, match="bogus/param"):
            model.load_state_dict(state)

    def test_load_state_dict_writes_into_the_existing_arrays(self):
        source, model = small_model(1), small_model(2)
        arrays = [p.value for p in model.params()]
        model.load_state_dict(source.state_dict())
        for p, array, want in zip(model.params(), arrays, source.params()):
            assert p.value is array
            np.testing.assert_array_equal(p.value, want.value)

    def test_loaded_model_shares_no_array_with_its_source(self):
        source, model = small_model(1), small_model(2)
        before = {name: value.copy() for name, value in source.state_dict().items()}
        model.load_state_dict(source.state_dict())
        ones = DenseGradients(lambda p: np.ones_like(p.value))
        Adam(model.params(), lr=0.1).step(ones)
        for name, value in source.state_dict().items():
            np.testing.assert_array_equal(value, before[name])
        assert not np.array_equal(model.params()[0].value, source.params()[0].value)

    def test_bad_shape_leaves_the_model_untouched(self):
        source, model = small_model(1), small_model(2)
        before = {name: value.copy() for name, value in model.state_dict().items()}
        state = source.state_dict()
        last = model.params()[-1].part_names()[-1]
        state[last] = np.zeros(state[last].size + 1)
        with pytest.raises(ContractError, match=f"shape mismatch for {last}"):
            model.load_state_dict(state)
        for name, value in model.state_dict().items():
            np.testing.assert_array_equal(value, before[name])

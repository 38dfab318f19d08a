"""Objective-term tests: frozen scalar oracles, bounds, and FD gradients."""

import math

import numpy as np
import pytest
from oracles import fd_grad, rel_err

import cral.tensor as tt
from cral.errors import ContractError, SpecError
from cral.losses import (
    ROW_SETS,
    SPLITS,
    ForwardPass,
    LossWeights,
    MultiDomainBatch,
    _nll,
    adversarial_loss,
    classification_loss,
    disagreement_loss,
    discriminator_objective,
    diversity_loss,
    entropy_loss,
    kl_divergence,
    total_objective,
    vat_loss,
    vat_perturbation,
)
from cral.model import (ModelConfig, class_probs, init_model, predict_class, predict_domain,
                        shared_features)
from cral.nn import Adam
from cral.trainer import TrainConfig, train_step


def toy_model(seed=0, m=2, input_dim=6):
    config = ModelConfig(num_domains=m, input_dim=input_dim, shared_dim=4,
                         specific_dim=3, extractor_hidden=(), dropout_rate=0.4)
    return init_model(config, seed)


def toy_batch(seed=0, m=2, n_labeled=2, n_unlabeled=2, dim=6):
    rng = np.random.default_rng(seed)
    labeled_x, labeled_y, unlabeled_x = [], [], []
    for _ in range(m):
        labeled_x.append(rng.standard_normal((n_labeled, dim)))
        labels = rng.integers(0, 2, n_labeled)
        y = np.zeros((n_labeled, 2))
        y[np.arange(n_labeled), labels] = 1.0
        labeled_y.append(y)
        unlabeled_x.append(rng.standard_normal((n_unlabeled, dim)))
    return MultiDomainBatch(labeled_x, labeled_y, unlabeled_x)


def emptied(batch, split, i):
    """The batch with domain i's split emptied (batches are immutable)."""
    labeled_x, labeled_y, unlabeled_x = map(list, (batch.labeled_x, batch.labeled_y,
                                                  batch.unlabeled_x))
    if split == "labeled":
        labeled_x[i], labeled_y[i] = labeled_x[i][:0], labeled_y[i][:0]
    else:
        unlabeled_x[i] = unlabeled_x[i][:0]
    return MultiDomainBatch(labeled_x, labeled_y, unlabeled_x)


def rig_constant_output(mlp, bias, branches=(1, 2)):
    """Zero the final layer's weights and pin its bias, fixing the output of
    the given branches."""
    for b in branches:
        mlp.layers[-1].weight.value[b - 1] = 0.0
        mlp.layers[-1].bias.value[b - 1] = bias


def copy_branch1_to_branch2(model):
    for p in model.params():
        p.value[1] = p.value[0]


def swapped_branches(model):
    """A new model holding branch 2's arrays as branch 1's and the reverse."""
    swapped = init_model(model.config, 0)
    swapped.load_state_dict({f"branch{3 - int(name[6])}{name[7:]}": value
                             for name, value in model.state_dict().items()})
    return swapped


class TestBatchValidation:
    def test_rejects_non_one_hot(self):
        with pytest.raises(ContractError, match="one-hot"):
            MultiDomainBatch([np.zeros((1, 3))], [np.array([[0.5, 0.5]])],
                             [np.zeros((0, 3))])

    def test_rejects_mismatched_lists(self):
        with pytest.raises(ContractError):
            MultiDomainBatch([np.zeros((1, 3))], [], [])

    def test_rejects_inconsistent_dims(self):
        with pytest.raises(Exception):
            MultiDomainBatch(
                [np.zeros((1, 3)), np.zeros((1, 4))],
                [np.array([[1.0, 0.0]]), np.array([[1.0, 0.0]])],
                [np.zeros((0, 3)), np.zeros((0, 4))],
            )

    def test_rejects_label_rows_of_different_widths(self):
        with pytest.raises(ContractError, match="domain 1: .*one-hot, 3 wide"):
            MultiDomainBatch([np.zeros((1, 3))] * 2,
                             [np.array([[0.0, 0.0, 1.0]]), np.array([[1.0, 0.0]])],
                             [np.zeros((0, 3))] * 2)

    def test_label_width_must_match_the_model_classes(self):
        batch = MultiDomainBatch([np.zeros((1, 6))] * 2, [np.array([[0.0, 1.0, 0.0]])] * 2,
                                 [np.zeros((1, 6))] * 2)
        with pytest.raises(ContractError, match="3 wide, model has 2 classes"):
            ForwardPass(tt.Tape(), toy_model(), batch)


class TestClassification:
    def test_perfect_predictions_zero(self):
        probs = tt.Tensor([[1.0, 0.0], [0.0, 1.0]])
        assert _nll(probs, np.array([[1.0, 0.0], [0.0, 1.0]]), np.full(2, 0.5)).item() == 0.0

    def test_frozen_two_sample_value(self):
        probs = tt.Tensor([[0.9, 0.1], [0.2, 0.8]])
        got = _nll(probs, np.array([[1.0, 0.0], [0.0, 1.0]]), np.full(2, 0.5)).item()
        want = (-math.log(0.9) - math.log(0.8)) / 2.0  # = 0.16425203...
        assert got == pytest.approx(want, rel=1e-12)
        assert got == pytest.approx(0.164252033, abs=1e-9)

    def test_uniform_predictions_sum_m_ln2(self):
        model = toy_model(m=4)
        rig_constant_output(model.classifier, np.zeros(2))
        batch = toy_batch(m=4)
        got = classification_loss(ForwardPass(tt.Tape(), model, batch)).data[0]
        assert got == pytest.approx(4.0 * math.log(2.0), rel=1e-12)

    def test_matches_numpy_recomputation(self):
        model = toy_model(1)
        batch = toy_batch(1)
        got = classification_loss(ForwardPass(tt.Tape(), model, batch)).data[1]
        want = 0.0
        for i in range(2):
            probs = predict_class(model, 2, i, batch.labeled_x[i])
            picked = (probs * batch.labeled_y[i]).sum(axis=1)
            want += float(np.mean(-np.log(picked)))
        assert got == pytest.approx(want, rel=1e-12)

    def test_empty_domain_rejected(self):
        model = toy_model()
        batch = emptied(toy_batch(), "labeled", 1)
        with pytest.raises(ContractError, match="domain 1"):
            classification_loss(ForwardPass(tt.Tape(), model, batch))


class TestAdversarial:
    def test_frozen_single_sample_value(self):
        probs = tt.Tensor([[0.7, 0.1, 0.1, 0.1]])
        got = _nll(probs, np.array([[1.0, 0.0, 0.0, 0.0]]), np.ones(1)).item()
        assert got == pytest.approx(-math.log(0.7), rel=1e-12)
        assert got == pytest.approx(0.356674944, abs=1e-9)

    def test_uniform_discriminator_m_ln_m(self):
        model = toy_model(m=4)
        rig_constant_output(model.discriminator, np.zeros(4), branches=(1,))
        batch = toy_batch(m=4)
        got = adversarial_loss(ForwardPass(tt.Tape(), model, batch)).data[0]
        assert got == pytest.approx(4.0 * math.log(4.0), rel=1e-12)

    def test_exactly_correct_discriminator_zero(self):
        probs = tt.Tensor(np.eye(4)[:2])
        one_hot = np.eye(4)[:2]
        assert _nll(probs, one_hot, np.full(2, 0.5)).item() == 0.0

    def test_uses_labeled_and_unlabeled(self):
        model = toy_model(3)
        full = toy_batch(3)
        labeled_only = MultiDomainBatch(
            full.labeled_x, full.labeled_y,
            [np.zeros((0, 6)) for _ in range(2)],
        )
        a = adversarial_loss(ForwardPass(tt.Tape(), model, full)).data[0]
        b = adversarial_loss(ForwardPass(tt.Tape(), model, labeled_only)).data[0]
        assert a != b


@pytest.fixture
def shared_rows(monkeypatch):
    """Rows passed through each branch's shared extractor, through the losses'
    and the model's lookups of shared_features."""
    import cral.losses
    import cral.model

    rows = []
    original = cral.model.shared_features

    def counting(tape, model, masks, x, *args, **kwargs):
        rows.append(2 * x.shape[-2])  # one stacked call runs both branches
        return original(tape, model, masks, x, *args, **kwargs)

    for module in (cral.losses, cral.model):
        monkeypatch.setattr(module, "shared_features", counting)
    return rows


class TestForwardPass:
    def test_each_row_goes_through_each_shared_extractor_once(self, shared_rows):
        model = toy_model(41, m=3)
        batch = toy_batch(41, m=3, n_labeled=2, n_unlabeled=3)
        weights = LossWeights(lambda_d=0.3, lambda_div=0.2, lambda_uvt=0.0,
                              lambda_lvt=0.0)
        fp = ForwardPass(tt.Tape(), model, batch, mode="train",
                         rng=np.random.default_rng(11))
        _, bd = total_objective(fp, weights)
        assert bd["l_adv_b1"] > 0.0 and bd["l_d"] > 0.0
        assert sum(shared_rows) == 2 * (3 * 2 + 3 * 3)

    def test_whole_step_sends_each_row_through_each_shared_extractor_once(
            self, shared_rows):
        # Phase 1 reads the pass's shared features instead of running its own.
        model = toy_model(47, m=3)
        batch = toy_batch(47, m=3, n_labeled=2, n_unlabeled=3)
        config = TrainConfig(weights=LossWeights(lambda_adv=0.5, lambda_uvt=0.0,
                                                 lambda_lvt=0.0))
        terms = train_step(model, batch, config, Adam(model.discriminator_params()),
                           Adam(model.main_params()), np.random.default_rng(12))
        assert terms["disc_phase"] > 0.0
        assert sum(shared_rows) == 2 * (3 * 2 + 3 * 3)

    def test_main_phase_reads_discriminators_after_phase_one_step(self):
        model = toy_model(53)
        batch = toy_batch(53)
        weights = LossWeights(lambda_uvt=0.0, lambda_lvt=0.0)
        fp = ForwardPass(tt.Tape(), model, batch)
        before = adversarial_loss(ForwardPass(tt.Tape(), model, batch)).data[0]
        disc, _ = discriminator_objective(fp, weights)
        Adam(model.discriminator_params(), lr=0.1).step(tt.backward(disc))
        after = adversarial_loss(ForwardPass(tt.Tape(), model, batch)).data[0]
        assert after != pytest.approx(before, rel=1e-6)
        got = total_objective(fp, weights)[1]["l_adv_b1"]
        assert got == pytest.approx(after, rel=1e-12)

    def test_adversarial_matches_own_forward_in_eval_mode(self):
        model = toy_model(43)
        full = toy_batch(43)
        labeled_only = MultiDomainBatch(full.labeled_x, full.labeled_y,
                                        [np.zeros((0, 6)) for _ in range(2)])
        for batch in (full, labeled_only):
            on_pass = adversarial_loss(ForwardPass(tt.Tape(), model, batch)).data[1]
            own = 0.0
            for i in range(2):
                x = np.concatenate([batch.labeled_x[i], batch.unlabeled_x[i]])
                own += float(np.mean(-np.log(predict_domain(model, 2, x)[:, i])))
            assert on_pass == pytest.approx(own, rel=1e-12)

    def test_adversarial_term_runs_only_its_shared_extractor_and_discriminator(self):
        model = toy_model(44)
        fp = ForwardPass(tt.Tape(), model, toy_batch(44))
        adversarial_loss(fp)
        assert fp.tape.bound() == model.shared.params() + model.discriminator.params()

    def test_diversity_term_runs_only_the_shared_extractors(self):
        model = toy_model(45)
        fp = ForwardPass(tt.Tape(), model, toy_batch(45), mode="train",
                         rng=np.random.default_rng(46))
        diversity_loss(fp, gamma=10.0)
        assert fp.tape.bound() == model.shared.params()

    def test_bad_mode_rejected(self):
        with pytest.raises(ContractError, match="mode must be one of"):
            ForwardPass(tt.Tape(), toy_model(8), toy_batch(8), mode="test")

    def test_train_without_rng_rejected(self):
        with pytest.raises(ContractError, match="needs an rng"):
            ForwardPass(tt.Tape(), toy_model(8), toy_batch(8), mode="train")

    def test_masks_follow_documented_rng_order(self):
        self.replay_documented_rng_order(empty_split=True)

    def test_whole_step_follows_documented_rng_order(self):
        self.replay_documented_rng_order(empty_split=False)

    def replay_documented_rng_order(self, empty_split):
        # Replays the order at the top of cral.losses on a second generator.
        config = ModelConfig(num_domains=3, input_dim=6, shared_dim=4, specific_dim=3,
                             extractor_hidden=(5,), dropout_rate=0.3)
        model = init_model(config, 59)
        batch = toy_batch(59, m=3, n_labeled=2, n_unlabeled=3)
        weights = LossWeights(lambda_d=0.5)
        if empty_split:
            batch = emptied(batch, "unlabeled", 1)  # an empty split draws nothing
            weights = LossWeights(lambda_uvt=0.0, lambda_d=0.0)  # and no term reads it
        fp = ForwardPass(tt.Tape(), model, batch, mode="train",
                         rng=np.random.default_rng(61))
        replay = np.random.default_rng(61)
        order = [(i, split) for i in range(3) for split, xs in (
            ("labeled", batch.labeled_x), ("unlabeled", batch.unlabeled_x))
            if xs[i].shape[0]]
        assert list(batch.rows) == order  # the stacking order
        n = batch.x.shape[0]
        domain_rows = [batch.labeled_x[i].shape[0] + batch.unlabeled_x[i].shape[0]
                       for i in range(3)]
        assert [(i, r.stop - r.start) for i, r in fp.row_map] == list(enumerate(domain_rows))

        def replay_masks(rows, width):  # both branches' masks of one hidden layer
            return (replay.random((2, rows, width)) >= 0.3).astype(np.float64) / (1.0 - 0.3)

        want = {"shared": replay_masks(n, 5),
                "specific": {i: replay_masks(rows, 5) for i, rows in enumerate(domain_rows)},
                "classifier": replay_masks(n, 4 + 3)}
        for part in ("shared", "classifier"):
            assert len(fp.masks[part]) == 1
            np.testing.assert_array_equal(fp.masks[part][0], want[part])
        for i in range(3):
            assert len(fp.masks["specific"][i]) == 1
            np.testing.assert_array_equal(fp.masks["specific"][i][0], want["specific"][i])

        discriminator_objective(fp, weights)
        replay_masks(n, 4)  # the discriminator's
        assert fp.rng.bit_generator.state == replay.bit_generator.state

        total_objective(fp, weights)
        replay_masks(n, 4)  # the adversarial term's discriminator masks
        replay.standard_normal((2,) + batch.x.shape)  # the probe directions
        assert fp.rng.bit_generator.state == replay.bit_generator.state

    def test_toy_train_step_draws_each_network_once_and_the_probe_once(self):
        class Counting:
            """The pass's generator, recording each call and its shape."""

            def __init__(self, rng):
                self.rng, self.calls = rng, []

            def random(self, shape):
                self.calls.append(("random", shape))
                return self.rng.random(shape)

            def standard_normal(self, shape):
                self.calls.append(("standard_normal", shape))
                return self.rng.standard_normal(shape)

        model = init_model(ModelConfig(num_domains=3, input_dim=6, shared_dim=4,
                                       specific_dim=3, extractor_hidden=(5,),
                                       dropout_rate=0.3), 107)
        batch = toy_batch(107, m=3, n_labeled=2, n_unlabeled=3)
        opts = Adam(model.discriminator_params()), Adam(model.main_params())
        rng = Counting(np.random.default_rng(109))
        train_step(model, batch, TrainConfig(weights=LossWeights(lambda_d=0.5)), *opts, rng)
        n = batch.x.shape[0]
        # One mask call per hidden layer of each network, both branches at
        # once: the pass's shared extractor, private extractors and
        # classifier, then the discriminator in each phase; then one probe.
        assert rng.calls == [("random", (2, n, 5))] + [("random", (2, 5, 5))] * 3 + [
            ("random", (2, n, 7)), ("random", (2, n, 4)), ("random", (2, n, 4)),
            ("standard_normal", (2, n, 6))]

    @pytest.mark.parametrize("empty_split", [False, True])
    def test_clean_terms_match_per_domain_numpy(self, empty_split):
        model = init_model(ModelConfig(num_domains=3, input_dim=6, shared_dim=4,
                                       specific_dim=3, extractor_hidden=(5,)), 73)
        batch = toy_batch(73, m=3, n_labeled=2, n_unlabeled=3)
        if empty_split:
            batch = emptied(batch, "unlabeled", 1)
        lab, unl, y = batch.labeled_x, batch.unlabeled_x, batch.labeled_y
        fp = ForwardPass(tt.Tape(), model, batch)

        def close(value, want):
            assert value == pytest.approx(want, rel=1e-12, abs=0.0)

        def shared(b, x):
            return shared_features(tt.Tape(), model, None, tt.Tensor(x)).data[b - 1]

        for b in (1, 2):
            close(classification_loss(fp).data[b - 1], sum(
                np.mean(-np.log((predict_class(model, b, i, lab[i]) * y[i]).sum(axis=1)))
                for i in range(3)))
            close(adversarial_loss(fp).data[b - 1], sum(
                np.mean(-np.log(predict_domain(model, b, np.concatenate([lab[i], unl[i]]))[:, i]))
                for i in range(3)))
        gap = sum(np.mean(shared(1, lab[i]) - shared(2, lab[i]), axis=0) for i in range(3)) / 3
        close(diversity_loss(fp, 10.0).item(), min(float(np.sum(gap * gap)), 10.0))
        needs_unlabeled = [lambda: entropy_loss(fp), lambda: disagreement_loss(fp),
                           lambda: vat_loss(fp, labeled=False, weights=LossWeights())]
        if empty_split:
            for term in needs_unlabeled:
                with pytest.raises(ContractError, match="empty unlabeled batch for domain 1"):
                    term()
            return
        p = {b: [predict_class(model, b, i, unl[i]) for i in range(3)] for b in (1, 2)}
        close(entropy_loss(fp).data[1],
              sum(np.mean(-np.sum(q * np.log(q), axis=1)) for q in p[2]))
        close(disagreement_loss(fp).item(), sum(np.mean(np.sum(np.abs(p1 - p2), axis=1))
                                         for p1, p2 in zip(p[1], p[2])))

    @pytest.mark.parametrize("lambda_uvt", [1.0, 0.0])
    def test_vat_terms_match_per_domain_probes(self, lambda_uvt):
        # One probe and one perturbed pass, each over both branches, serve
        # both VAT terms; per domain and branch, they must give what a probe
        # of that domain alone gives with that domain's rows of the one
        # direction draw.
        model = init_model(ModelConfig(num_domains=3, input_dim=6, shared_dim=4,
                                       specific_dim=3, extractor_hidden=(5,)), 79)
        batch = toy_batch(79, m=3, n_labeled=2, n_unlabeled=3)
        weights = LossWeights(vat_epsilon=0.7, lambda_uvt=lambda_uvt)
        fp = ForwardPass(tt.Tape(), model, batch, rng=np.random.default_rng(83))
        replay = np.random.default_rng(83)
        terms = [(True, "labeled")]
        if lambda_uvt > 0.0:
            terms.insert(0, (False, "unlabeled"))
        got = {labeled: vat_loss(fp, labeled=labeled, weights=weights).data
               for labeled, _ in terms}
        directions = replay.standard_normal((2,) + batch.x.shape)
        for b in (1, 2):
            for labeled, split in terms:
                want = 0.0
                for i in range(3):
                    rows = batch.rows[i, split]
                    x = batch.x[rows]
                    clean = predict_class(model, None, i, x)
                    r = vat_perturbation(model, i, x, clean, epsilon=0.7, xi=weights.vat_xi,
                                         directions=directions[:, rows])
                    want += kl_divergence(
                        tt.Tensor(clean[b - 1]),
                        tt.Tensor(predict_class(model, b, i, x + r[b - 1]))).item()
                # The probe differentiates at x + xi d with xi = 1e-6, so r
                # carries about ten significant digits.
                assert got[labeled][b - 1] == pytest.approx(want, rel=1e-6)
        assert fp.rng.bit_generator.state == replay.bit_generator.state

    def test_whole_step_runs_each_first_layer_once_per_pass(self, monkeypatch):
        import cral.nn

        calls = []
        original = cral.nn.linear

        def recording(x, w, b):
            calls.append((x.tape or w.tape, w.data, x.shape[-2]))
            return original(x, w, b)

        class MarkedTape(tt.Tape):
            """The tapes `losses` makes: the VAT probes' and the discriminator phase's."""

        monkeypatch.setattr(cral.nn, "linear", recording)
        monkeypatch.setattr(cral.losses, "Tape", MarkedTape)
        model = init_model(ModelConfig(num_domains=3, input_dim=6, shared_dim=4,
                                       specific_dim=3, extractor_hidden=(5,),
                                       dropout_rate=0.3), 89)
        batch = toy_batch(89, m=3, n_labeled=2, n_unlabeled=3)
        # Adam packs the small parameters into its own array when it is built.
        opts = Adam(model.discriminator_params()), Adam(model.main_params())
        firsts = [mlp.layers[0].weight.value for mlp in (model.shared, *model.specific)]
        config = TrainConfig(weights=LossWeights(lambda_d=0.5, lambda_div=0.1))
        train_step(model, batch, config, *opts, np.random.default_rng(97))
        # The discriminator phase runs no first layer, so marked tapes that
        # run one are the probes'.
        probes = {id(tape) for tape, data, _ in calls if isinstance(tape, MarkedTape)
                  and any(data is w for w in firsts)}
        assert len(probes) == 1  # one probe serves both branches and VAT terms
        for k, w in enumerate(firsts):
            uses = [(tape, n) for tape, data, n in calls if data is w]
            main = [n for tape, n in uses if not isinstance(tape, MarkedTape)]
            probe = [n for tape, n in uses if isinstance(tape, MarkedTape)]
            # the clean pass and the one perturbed pass, each over all rows
            assert main == [15, 15] if k == 0 else main == [5, 5]
            assert probe == [15] if k == 0 else probe == [5]

    def test_row_weights_built_once_per_batch(self, monkeypatch):
        import cral.losses

        reads = []  # (tape, row weights) of each weighted reduction
        xlogy_rows, weighted_sum = cral.losses.xlogy_rows, cral.losses._weighted_sum

        def xlogy_recording(a, p, row_weights):
            reads.append((p.tape, row_weights))
            return xlogy_rows(a, p, row_weights)

        def weighted_recording(t, row_weights, axis=None):
            reads.append((t.tape, row_weights))
            return weighted_sum(t, row_weights, axis)

        monkeypatch.setattr(cral.losses, "xlogy_rows", xlogy_recording)
        monkeypatch.setattr(cral.losses, "_weighted_sum", weighted_recording)
        base = toy_batch(31, m=3, n_labeled=3, n_unlabeled=4)
        batch = MultiDomainBatch([x[:k] for x, k in zip(base.labeled_x, (3, 1, 2))],
                                 [y[:k] for y, k in zip(base.labeled_y, (3, 1, 2))],
                                 [x[:k] for x, k in zip(base.unlabeled_x, (4, 2, 3))])
        model, weights = toy_model(31, m=3), LossWeights(lambda_d=0.5, lambda_div=0.1)
        passes = [ForwardPass(tt.Tape(), model, batch, mode="train",
                              rng=np.random.default_rng(seed)) for seed in (1, 2)]
        for fp in passes:
            for _ in range(2):
                total_objective(fp, weights)
        built = {rows: batch.row_weights(rows) for rows in ROW_SETS}
        assert all(batch.row_weights(rows) is built[rows] for rows in ROW_SETS)
        # The passes' own reductions; each VAT probe runs on a tape of its own.
        got = [w for tape, w in reads if any(tape is fp.tape for fp in passes)]
        assert len(got) == 2 * 2 * 7  # l_c, l_adv, l_e, l_uvt, l_lvt, l_d, l_div
        assert {id(w) for w in got} == {id(w) for w in built.values()}
        spans = {split: {i: batch.rows[i, split] for i in range(3)} for split in SPLITS}
        spans["combined"] = dict(batch.row_map)
        for rows, w in built.items():
            want = np.zeros(len(batch.x))
            for span in spans[rows].values():
                want[span] = 1.0 / (span.stop - span.start)
            np.testing.assert_array_equal(w, want)
            assert w.sum() == pytest.approx(3.0, rel=1e-12)

    def test_empty_split_named_by_the_term_that_needs_it(self):
        model = toy_model()
        batch = emptied(toy_batch(), "unlabeled", 1)
        fp = ForwardPass(tt.Tape(), model, batch)
        assert classification_loss(fp).data[0] > 0.0
        with pytest.raises(ContractError, match="empty unlabeled batch for domain 1"):
            entropy_loss(fp)


class TestDisagreement:
    def test_identical_branches_zero(self):
        model = toy_model(5)
        copy_branch1_to_branch2(model)
        got = disagreement_loss(ForwardPass(tt.Tape(), model, toy_batch(5))).item()
        assert got == 0.0

    def test_forced_arithmetic(self):
        diff = tt.sub(tt.Tensor([[0.8, 0.2]]), tt.Tensor([[0.6, 0.4]]))
        assert tt.sum(tt.l1_norm(diff, axis=1)).item() == pytest.approx(0.4)

    def test_branch_swap_symmetric(self):
        model = toy_model(7)
        swapped = swapped_branches(model)
        batch = toy_batch(7)
        a = disagreement_loss(ForwardPass(tt.Tape(), model, batch)).item()
        b = disagreement_loss(ForwardPass(tt.Tape(), swapped, batch)).item()
        assert a == pytest.approx(b, rel=1e-12)

    def test_bounded_by_simplex_diameter(self):
        model = toy_model(9)
        got = disagreement_loss(ForwardPass(tt.Tape(), model, toy_batch(9))).item()
        assert 0.0 <= got <= 2.0 * 2


class TestDiversity:
    def linear_shared_model(self):
        # Shared extractors with no hidden layer so F_s is exactly linear.
        config = ModelConfig(num_domains=2, input_dim=2, shared_dim=2,
                             specific_dim=2, extractor_hidden=())
        model = init_model(config, seed=0)
        layer = model.shared.layers[0]
        layer.weight.value[0] = np.eye(2)
        layer.weight.value[1] = np.zeros((2, 2))
        layer.bias.value[:] = 0.0
        return model

    def batch_with_means(self, mean0, mean1):
        labeled_x = [
            np.array([2.0 * np.asarray(mean0), [0.0, 0.0]]),
            np.array([2.0 * np.asarray(mean1), [0.0, 0.0]]),
        ]
        labeled_y = [np.array([[1.0, 0.0], [0.0, 1.0]])] * 2
        unlabeled_x = [np.zeros((1, 2))] * 2
        return MultiDomainBatch(labeled_x, labeled_y, unlabeled_x)

    def test_identical_branches_zero(self):
        model = toy_model(3)
        copy_branch1_to_branch2(model)
        got = diversity_loss(ForwardPass(tt.Tape(), model, toy_batch(3)), gamma=10.0).item()
        assert got == 0.0

    def test_hand_computed_half(self):
        # Per-domain gaps [1,0] and [0,1] average to [.5,.5]; norm^2 = 0.5.
        model = self.linear_shared_model()
        batch = self.batch_with_means([1.0, 0.0], [0.0, 1.0])
        got = diversity_loss(ForwardPass(tt.Tape(), model, batch), gamma=10.0).item()
        assert got == pytest.approx(0.5, rel=1e-12)

    def test_clamp_value_and_zero_gradient(self):
        model = self.linear_shared_model()
        # Gap [5,0] in both domains -> squared norm 25, clamped at 10.
        batch = self.batch_with_means([5.0, 0.0], [5.0, 0.0])
        tape = tt.Tape()
        loss = diversity_loss(ForwardPass(tape, model, batch), gamma=10.0)
        assert loss.item() == 10.0
        grads = tt.backward(loss)
        w = model.shared.layers[0].weight
        np.testing.assert_array_equal(grads.wrt_key(w, w.value)[0], 0.0)

    def test_below_clamp_nonzero_gradient(self):
        model = self.linear_shared_model()
        batch = self.batch_with_means([1.0, 0.0], [0.0, 1.0])
        tape = tt.Tape()
        grads = tt.backward(diversity_loss(ForwardPass(tape, model, batch), gamma=10.0))
        w = model.shared.layers[0].weight
        assert np.any(grads.wrt_key(w, w.value)[0] != 0.0)


class TestEntropy:
    def test_one_hot_zero(self):
        model = toy_model()
        rig_constant_output(model.classifier, [50.0, -50.0])
        got = entropy_loss(ForwardPass(tt.Tape(), model, toy_batch())).data[0]
        assert got == pytest.approx(0.0, abs=1e-12)

    def test_uniform_ln2_per_domain(self):
        model = toy_model(m=4)
        rig_constant_output(model.classifier, np.zeros(2), branches=(1,))
        got = entropy_loss(ForwardPass(tt.Tape(), model, toy_batch(m=4))).data[0]
        assert got == pytest.approx(4.0 * math.log(2.0), rel=1e-12)

    def test_frozen_skewed_value(self):
        model = toy_model()
        rig_constant_output(model.classifier, [math.log(0.9), math.log(0.1)], branches=(1,))
        got = entropy_loss(ForwardPass(tt.Tape(), model, toy_batch())).data[0]
        # Two domains, each -(0.9 ln 0.9 + 0.1 ln 0.1) = 0.32508297...
        assert got == pytest.approx(2 * 0.3250829733914482, rel=1e-9)


class TestKl:
    def test_identical_zero(self):
        p = tt.Tensor([[0.3, 0.7], [0.5, 0.5]])
        assert kl_divergence(p, tt.Tensor(p.data.copy())).item() == 0.0

    def test_one_hot_vs_uniform_ln2(self):
        p = tt.Tensor([[1.0, 0.0]])
        q = tt.Tensor([[0.5, 0.5]])
        assert kl_divergence(p, q).item() == pytest.approx(math.log(2.0), rel=1e-12)

    def test_frozen_value(self):
        p = tt.Tensor([[0.5, 0.5]])
        q = tt.Tensor([[0.9, 0.1]])
        got = kl_divergence(p, q).item()
        assert got == pytest.approx(0.5108256237659907, rel=1e-12)

    def test_non_probability_rejected(self):
        good = tt.Tensor([[0.5, 0.5]])
        with pytest.raises(ContractError):
            kl_divergence(tt.Tensor([[0.5, 0.6]]), good)
        with pytest.raises(ContractError):
            kl_divergence(good, tt.Tensor([[-0.1, 1.1]]))

    def test_nonnegative_random(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            logits = rng.standard_normal((4, 2)) * 3
            p = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
            logits2 = rng.standard_normal((4, 2)) * 3
            q = np.exp(logits2) / np.exp(logits2).sum(axis=1, keepdims=True)
            assert kl_divergence(tt.Tensor(p), tt.Tensor(q)).item() >= 0.0


class TestVat:
    def test_epsilon_zero_gives_zero_perturbation_and_loss(self):
        model = toy_model()
        x = np.random.default_rng(1).standard_normal((3, 6))
        r = vat_perturbation(model, 0, x, predict_class(model, None, 0, x),
                             epsilon=0.0, xi=1e-6,
                             directions=np.random.default_rng(2).standard_normal((2, 3, 6)))
        np.testing.assert_array_equal(r, 0.0)
        weights = LossWeights(vat_epsilon=0.0)
        fp = ForwardPass(tt.Tape(), model, toy_batch(), rng=np.random.default_rng(3))
        got = vat_loss(fp, labeled=False, weights=weights).data
        assert list(got) == [0.0, 0.0]

    def test_eval_pass_without_rng_named_by_the_vat_term(self):
        model = toy_model(71)
        fp = ForwardPass(tt.Tape(), model, toy_batch(71))
        for labeled, name in ((False, "l_uvt"), (True, "l_lvt")):
            split = "labeled" if labeled else "unlabeled"
            with pytest.raises(ContractError, match=f"{name}: the {split} VAT term "
                               ".*needs an rng"):
                vat_loss(fp, labeled=labeled, weights=LossWeights())
        with pytest.raises(ContractError, match="l_uvt: .*needs an rng"):
            total_objective(fp, LossWeights())
        zero = LossWeights(vat_epsilon=0.0)
        assert list(vat_loss(fp, labeled=True, weights=zero).data) == [0.0, 0.0]
        assert np.isfinite(total_objective(fp, zero)[0].item())

    def test_perturbation_norm_equals_epsilon(self):
        model = toy_model(11)
        x = np.random.default_rng(4).standard_normal((5, 6))
        for eps in (0.5, 1.0, 3.0):
            r = vat_perturbation(model, 1, x, predict_class(model, None, 1, x),
                                 epsilon=eps, xi=1e-6,
                                 directions=np.random.default_rng(5).standard_normal((2, 5, 6)))
            np.testing.assert_allclose(np.linalg.norm(r, axis=-1), eps, atol=1e-9)

    def test_probe_backward_holds_the_probe_gradient_only(self, monkeypatch):
        formed = []  # (has a product, shape) of every gradient the probe sweep forms
        original = tt.form_gradient

        def recording(dense, g, x, like=None, out=None):
            grad = original(dense, g, x, like=like, out=out)
            formed.append((g is not None, grad.shape))
            return grad

        monkeypatch.setattr(tt, "form_gradient", recording)
        model = init_model(ModelConfig(num_domains=2, input_dim=6, shared_dim=4,
                                       specific_dim=3, extractor_hidden=(5,)), 67)
        x = np.random.default_rng(68).standard_normal((3, 6))
        r = vat_perturbation(model, 1, x, predict_class(model, None, 1, x),
                             epsilon=1.0, xi=1e-6,
                             directions=np.random.default_rng(69).standard_normal((2, 3, 6)))
        assert np.all(np.linalg.norm(r, axis=-1) > 0.0)
        # One gradient, the probe's: no weight product.
        assert formed == [(False, (2,) + x.shape)]

    def test_loss_nonnegative_and_seed_deterministic(self):
        model = toy_model(13)
        batch = toy_batch(13)
        vals = [
            vat_loss(ForwardPass(tt.Tape(), model, batch, mode="train",
                                 rng=np.random.default_rng(6)),
                     labeled=True, weights=LossWeights()).data[1]
            for _ in range(2)
        ]
        assert vals[0] == vals[1]
        assert vals[0] >= 0.0

    def test_outer_gradient_matches_fd_with_frozen_r(self):
        model = toy_model(17)
        x = np.random.default_rng(7).standard_normal((2, 6))
        p_ref = predict_class(model, None, 0, x)
        r = vat_perturbation(model, 0, x, p_ref, epsilon=1.0, xi=1e-6,
                             directions=np.random.default_rng(8).standard_normal((2, 2, 6)))
        clf_params = model.classifier.params()
        arrays = [p.value for p in clf_params]

        def f(arrs):
            for p, a in zip(clf_params, arrs):
                p.value = a
            tape = tt.Tape()
            q = class_probs(tape, model, 0, tt.Tensor(x + r))
            return tt.sum(kl_divergence(tt.Tensor(p_ref), q)).item()

        tape = tt.Tape()
        clean = class_probs(tape, model, 0, tt.Tensor(x))
        q = class_probs(tape, model, 0, tt.Tensor(x + r))
        grads = tt.backward(tt.sum(kl_divergence(tt.stop_gradient(clean), q)))
        for k, p in enumerate(clf_params):
            analytic = grads.wrt_key(p, p.value)
            numeric = fd_grad(f, arrays, k)
            assert rel_err(analytic, numeric) < 1e-4


class TestTotalObjective:
    def zero_weights(self, **kw):
        base = dict(gamma=10.0, lambda_adv=0.0, lambda_d=0.0, lambda_div=0.0,
                    lambda_uvt=0.0, lambda_lvt=0.0)
        base.update(kw)
        return LossWeights(**base)

    def test_classification_only_when_all_lambdas_zero(self):
        model = toy_model(19)
        batch = toy_batch(19)
        fp = ForwardPass(tt.Tape(), model, batch)
        main, bd = total_objective(fp, self.zero_weights())
        disc, _ = discriminator_objective(fp, self.zero_weights())
        l_c = classification_loss(ForwardPass(tt.Tape(), model, batch)).data
        want = l_c[0] + l_c[1]
        assert main.item() == pytest.approx(want, rel=1e-12)
        assert disc.item() == 0.0
        for key in ("l_adv_b1", "l_e_b2", "l_uvt_b1", "l_lvt_b2", "l_d", "l_div"):
            assert bd[key] == 0.0

    def test_breakdown_recombines(self):
        model = toy_model(23)
        batch = toy_batch(23)
        w = LossWeights(lambda_d=0.3, lambda_div=0.2, lambda_uvt=0.7,
                        lambda_lvt=0.4, lambda_adv=1.5)
        fp = ForwardPass(tt.Tape(), model, batch, rng=np.random.default_rng(9))
        main, bd = total_objective(fp, w)
        disc, disc_parts = discriminator_objective(fp, w)
        want = 0.0
        for b in (1, 2):
            want += (bd[f"l_c_b{b}"] - w.lambda_adv * bd[f"l_adv_b{b}"]
                     + w.lambda_uvt * (bd[f"l_e_b{b}"] + bd[f"l_uvt_b{b}"])
                     + w.lambda_lvt * bd[f"l_lvt_b{b}"])
        want += w.lambda_d * bd["l_d"] - w.lambda_div * bd["l_div"]
        assert abs(main.item() - want) < 1e-10
        assert disc_parts == {k: bd[k] for k in ("l_adv_b1", "l_adv_b2")}
        disc_want = w.lambda_adv * (bd["l_adv_b1"] + bd["l_adv_b2"])
        assert abs(disc.item() - disc_want) < 1e-10

    def test_gradient_reversal_identity(self):
        # With only the adversarial weight active, the two phases' gradients
        # cancel on the discriminators; phase 1 holds the shared features
        # constant, and the main phase reverses the adversarial gradient
        # into the shared extractors.
        model = toy_model(29)
        batch = toy_batch(29)
        weights = self.zero_weights(lambda_adv=1.0)
        fp = ForwardPass(tt.Tape(), model, batch)
        main, _ = total_objective(fp, weights)
        disc, _ = discriminator_objective(fp, weights)
        g_main = tt.backward(main)
        g_disc = tt.backward(disc)
        g_cls = tt.backward(tt.sum(classification_loss(fp)))
        g_adv = tt.backward(tt.sum(adversarial_loss(fp)))
        for p in model.discriminator_params():
            combined = g_main.wrt_key(p, p.value) + g_disc.wrt_key(p, p.value)
            np.testing.assert_allclose(combined, 0.0, atol=1e-12)
            assert np.any(g_disc.wrt_key(p, p.value) != 0.0)
        for p in model.shared.params():  # both branches' arrays
            np.testing.assert_array_equal(g_disc.wrt_key(p, p.value), 0.0)
            np.testing.assert_allclose(
                g_main.wrt_key(p, p.value),
                g_cls.wrt_key(p, p.value) - g_adv.wrt_key(p, p.value), atol=1e-12)

    def test_disabled_terms_report_zero(self):
        model = toy_model(37)
        batch = toy_batch(37)
        fp = ForwardPass(tt.Tape(), model, batch, rng=np.random.default_rng(10))
        _, bd = total_objective(fp, LossWeights(lambda_d=0.0, lambda_uvt=0.0))
        assert bd["l_d"] == 0.0
        for b in (1, 2):
            assert bd[f"l_uvt_b{b}"] == 0.0
            assert bd[f"l_e_b{b}"] == 0.0  # entropy rides lambda_uvt
            assert bd[f"l_lvt_b{b}"] != 0.0

    def test_disabling_lvt_keeps_the_draws_and_the_unlabeled_vat_terms(self):
        # The one probe draws a direction for every row and branch whichever
        # VAT terms are in force.
        model = init_model(ModelConfig(num_domains=3, input_dim=6, shared_dim=4,
                                       specific_dim=3, extractor_hidden=(5,),
                                       dropout_rate=0.3), 101)
        batch = toy_batch(101, m=3, n_labeled=2, n_unlabeled=3)
        runs = []
        for weights in (LossWeights(), LossWeights(lambda_lvt=0.0)):
            fp = ForwardPass(tt.Tape(), model, batch, mode="train",
                             rng=np.random.default_rng(103))
            _, bd = total_objective(fp, weights)
            runs.append((fp.rng.bit_generator.state, bd["l_uvt_b1"], bd["l_uvt_b2"]))
        assert runs[0] == runs[1]
        assert runs[0][1] > 0.0 and runs[0][2] > 0.0


class TestBounds:
    def test_random_draws_respect_bounds(self):
        rng = np.random.default_rng(99)
        weights = LossWeights()
        for trial in range(30):
            m = int(rng.integers(2, 5))
            model = toy_model(seed=int(rng.integers(1 << 30)), m=m)
            batch = toy_batch(seed=int(rng.integers(1 << 30)), m=m,
                              n_labeled=int(rng.integers(1, 4)),
                              n_unlabeled=int(rng.integers(1, 4)))
            tape = tt.Tape()
            fp = ForwardPass(tape, model, batch)
            l_d = disagreement_loss(fp).item()
            l_div = diversity_loss(fp, weights.gamma).item()
            l_e = entropy_loss(fp).data[0]
            l_c = classification_loss(fp).data[0]
            l_adv = adversarial_loss(fp).data[1]
            assert 0.0 <= l_d <= 2.0 * m
            assert 0.0 <= l_div <= weights.gamma
            assert 0.0 <= l_e <= m * math.log(2.0) + 1e-12
            assert l_c >= 0.0 and l_adv >= 0.0

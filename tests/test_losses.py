"""Objective-term tests: frozen scalar oracles, bounds, and FD gradients."""

import math

import numpy as np
import pytest
from oracles import fd_grad, rel_err

import cral.tensor as tt
from cral.errors import ContractError, SpecError
from cral.losses import (
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
from cral.model import ModelConfig, init_model, predict_class, predict_domain, class_probs
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


def rig_constant_output(mlp, bias):
    """Zero the final layer's weights and pin its bias, fixing the output."""
    mlp.layers[-1].weight.value = np.zeros_like(mlp.layers[-1].weight.value)
    mlp.layers[-1].bias.value = np.asarray(bias, dtype=np.float64)


def copy_branch1_to_branch2(model):
    for p1, p2 in zip(model.branches[0].params(), model.branches[1].params()):
        p2.value = p1.value.copy()


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


class TestClassification:
    def test_perfect_predictions_zero(self):
        probs = tt.Tensor([[1.0, 0.0], [0.0, 1.0]])
        assert _nll(probs, np.array([[1.0, 0.0], [0.0, 1.0]])).item() == 0.0

    def test_frozen_two_sample_value(self):
        probs = tt.Tensor([[0.9, 0.1], [0.2, 0.8]])
        got = _nll(probs, np.array([[1.0, 0.0], [0.0, 1.0]])).item()
        want = (-math.log(0.9) - math.log(0.8)) / 2.0  # = 0.16425203...
        assert got == pytest.approx(want, rel=1e-12)
        assert got == pytest.approx(0.164252033, abs=1e-9)

    def test_uniform_predictions_sum_m_ln2(self):
        model = toy_model(m=4)
        for branch in model.branches:
            rig_constant_output(branch.classifier, np.zeros(2))
        batch = toy_batch(m=4)
        got = classification_loss(ForwardPass(tt.Tape(), model, batch), 1).item()
        assert got == pytest.approx(4.0 * math.log(2.0), rel=1e-12)

    def test_matches_numpy_recomputation(self):
        model = toy_model(1)
        batch = toy_batch(1)
        got = classification_loss(ForwardPass(tt.Tape(), model, batch), 2).item()
        want = 0.0
        for i in range(2):
            probs = predict_class(model, 2, i, batch.labeled_x[i])
            picked = (probs * batch.labeled_y[i]).sum(axis=1)
            want += float(np.mean(-np.log(picked)))
        assert got == pytest.approx(want, rel=1e-12)

    def test_empty_domain_rejected(self):
        model = toy_model()
        batch = toy_batch()
        batch.labeled_x[1] = np.zeros((0, 6))
        batch.labeled_y[1] = np.zeros((0, 2))
        with pytest.raises(ContractError, match="domain 1"):
            classification_loss(ForwardPass(tt.Tape(), model, batch), 1)


class TestAdversarial:
    def test_frozen_single_sample_value(self):
        probs = tt.Tensor([[0.7, 0.1, 0.1, 0.1]])
        got = _nll(probs, np.array([[1.0, 0.0, 0.0, 0.0]])).item()
        assert got == pytest.approx(-math.log(0.7), rel=1e-12)
        assert got == pytest.approx(0.356674944, abs=1e-9)

    def test_uniform_discriminator_m_ln_m(self):
        model = toy_model(m=4)
        rig_constant_output(model.branch(1).discriminator, np.zeros(4))
        batch = toy_batch(m=4)
        got = adversarial_loss(ForwardPass(tt.Tape(), model, batch), 1).item()
        assert got == pytest.approx(4.0 * math.log(4.0), rel=1e-12)

    def test_exactly_correct_discriminator_zero(self):
        probs = tt.Tensor(np.eye(4)[:2])
        one_hot = np.eye(4)[:2]
        assert _nll(probs, one_hot).item() == 0.0

    def test_uses_labeled_and_unlabeled(self):
        model = toy_model(3)
        full = toy_batch(3)
        labeled_only = MultiDomainBatch(
            full.labeled_x, full.labeled_y,
            [np.zeros((0, 6)) for _ in range(2)],
        )
        a = adversarial_loss(ForwardPass(tt.Tape(), model, full), 1).item()
        b = adversarial_loss(ForwardPass(tt.Tape(), model, labeled_only), 1).item()
        assert a != b


@pytest.fixture
def shared_rows(monkeypatch):
    """Rows passed to shared_features, through the losses' and the model's lookups."""
    import cral.losses
    import cral.model

    rows = []
    original = cral.model.shared_features

    def counting(tape, model, b, x, *args, **kwargs):
        rows.append(x.shape[0])
        return original(tape, model, b, x, *args, **kwargs)

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
        result = total_objective(fp, weights)
        assert result.breakdown["l_adv_b1"] > 0.0 and result.breakdown["l_d"] > 0.0
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
        before = adversarial_loss(ForwardPass(tt.Tape(), model, batch), 1).item()
        disc, _ = discriminator_objective(fp, weights)
        Adam(model.discriminator_params(), lr=0.1).step(tt.backward(disc))
        after = adversarial_loss(ForwardPass(tt.Tape(), model, batch), 1).item()
        assert after != pytest.approx(before, rel=1e-6)
        got = total_objective(fp, weights).breakdown["l_adv_b1"]
        assert got == pytest.approx(after, rel=1e-12)

    def test_adversarial_matches_own_forward_in_eval_mode(self):
        model = toy_model(43)
        full = toy_batch(43)
        labeled_only = MultiDomainBatch(full.labeled_x, full.labeled_y,
                                        [np.zeros((0, 6)) for _ in range(2)])
        for batch in (full, labeled_only):
            on_pass = adversarial_loss(ForwardPass(tt.Tape(), model, batch), 2).item()
            own = 0.0
            for i in range(2):
                x = np.concatenate([batch.labeled_x[i], batch.unlabeled_x[i]])
                own += float(np.mean(-np.log(predict_domain(model, 2, x)[:, i])))
            assert on_pass == pytest.approx(own, rel=1e-12)

    def test_empty_split_named_by_the_term_that_needs_it(self):
        model = toy_model()
        batch = toy_batch()
        batch.unlabeled_x[1] = np.zeros((0, 6))
        fp = ForwardPass(tt.Tape(), model, batch)
        assert classification_loss(fp, 1).item() > 0.0
        with pytest.raises(ContractError, match="empty unlabeled batch for domain 1"):
            entropy_loss(fp, 1)


class TestDisagreement:
    def test_identical_branches_zero(self):
        model = toy_model(5)
        copy_branch1_to_branch2(model)
        got = disagreement_loss(ForwardPass(tt.Tape(), model, toy_batch(5))).item()
        assert got == 0.0

    def test_forced_arithmetic(self):
        diff = tt.sub(tt.Tensor([[0.8, 0.2]]), tt.Tensor([[0.6, 0.4]]))
        assert tt.mean(tt.l1_norm(diff, axis=1)).item() == pytest.approx(0.4)

    def test_branch_swap_symmetric(self):
        from cral.model import CralModel

        model = toy_model(7)
        swapped = CralModel(model.config, (model.branches[1], model.branches[0]))
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
        s1 = model.branch(1).shared.layers[0]
        s1.weight.value = np.eye(2)
        s1.bias.value = np.zeros(2)
        s2 = model.branch(2).shared.layers[0]
        s2.weight.value = np.zeros((2, 2))
        s2.bias.value = np.zeros(2)
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
        w = model.branch(1).shared.layers[0].weight
        np.testing.assert_array_equal(grads.wrt_key(w, w.value), 0.0)

    def test_below_clamp_nonzero_gradient(self):
        model = self.linear_shared_model()
        batch = self.batch_with_means([1.0, 0.0], [0.0, 1.0])
        tape = tt.Tape()
        grads = tt.backward(diversity_loss(ForwardPass(tape, model, batch), gamma=10.0))
        w = model.branch(1).shared.layers[0].weight
        assert np.any(grads.wrt_key(w, w.value) != 0.0)


class TestEntropy:
    def test_one_hot_zero(self):
        model = toy_model()
        for branch in model.branches:
            rig_constant_output(branch.classifier, [50.0, -50.0])
        got = entropy_loss(ForwardPass(tt.Tape(), model, toy_batch()), 1).item()
        assert got == pytest.approx(0.0, abs=1e-12)

    def test_uniform_ln2_per_domain(self):
        model = toy_model(m=4)
        rig_constant_output(model.branch(1).classifier, np.zeros(2))
        got = entropy_loss(ForwardPass(tt.Tape(), model, toy_batch(m=4)), 1).item()
        assert got == pytest.approx(4.0 * math.log(2.0), rel=1e-12)

    def test_frozen_skewed_value(self):
        model = toy_model()
        rig_constant_output(model.branch(1).classifier,
                            [math.log(0.9), math.log(0.1)])
        got = entropy_loss(ForwardPass(tt.Tape(), model, toy_batch()), 1).item()
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
        r = vat_perturbation(model, 1, 0, x, predict_class(model, 1, 0, x),
                             epsilon=0.0, xi=1e-6, rng=np.random.default_rng(2))
        np.testing.assert_array_equal(r, 0.0)
        weights = LossWeights(vat_epsilon=0.0)
        fp = ForwardPass(tt.Tape(), model, toy_batch(), rng=np.random.default_rng(3))
        got = vat_loss(fp, 1, labeled=False, weights=weights).item()
        assert got == 0.0

    def test_perturbation_norm_equals_epsilon(self):
        model = toy_model(11)
        x = np.random.default_rng(4).standard_normal((5, 6))
        for eps in (0.5, 1.0, 3.0):
            r = vat_perturbation(model, 1, 1, x, predict_class(model, 1, 1, x),
                                 epsilon=eps, xi=1e-6, rng=np.random.default_rng(5))
            np.testing.assert_allclose(np.linalg.norm(r, axis=1), eps, atol=1e-9)

    def test_loss_nonnegative_and_seed_deterministic(self):
        model = toy_model(13)
        batch = toy_batch(13)
        vals = [
            vat_loss(ForwardPass(tt.Tape(), model, batch, mode="train",
                                 rng=np.random.default_rng(6)),
                     2, labeled=True, weights=LossWeights()).item()
            for _ in range(2)
        ]
        assert vals[0] == vals[1]
        assert vals[0] >= 0.0

    def test_outer_gradient_matches_fd_with_frozen_r(self):
        model = toy_model(17)
        x = np.random.default_rng(7).standard_normal((2, 6))
        p_ref = predict_class(model, 1, 0, x)
        r = vat_perturbation(model, 1, 0, x, p_ref, epsilon=1.0, xi=1e-6,
                             rng=np.random.default_rng(8))
        clf_params = model.branch(1).classifier.params()
        arrays = [p.value for p in clf_params]

        def f(arrs):
            for p, a in zip(clf_params, arrs):
                p.value = a
            tape = tt.Tape()
            q, _ = class_probs(tape, model, 1, 0, tt.Tensor(x + r))
            return kl_divergence(tt.Tensor(p_ref), q).item()

        tape = tt.Tape()
        clean, _ = class_probs(tape, model, 1, 0, tt.Tensor(x))
        q, _ = class_probs(tape, model, 1, 0, tt.Tensor(x + r))
        grads = tt.backward(kl_divergence(tt.stop_gradient(clean), q))
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
        result = total_objective(fp, self.zero_weights())
        disc, _ = discriminator_objective(fp, self.zero_weights())
        want = (classification_loss(ForwardPass(tt.Tape(), model, batch), 1).item()
                + classification_loss(ForwardPass(tt.Tape(), model, batch), 2).item())
        assert result.main.item() == pytest.approx(want, rel=1e-12)
        assert disc.item() == 0.0
        for key in ("l_adv_b1", "l_e_b2", "l_uvt_b1", "l_lvt_b2", "l_d", "l_div"):
            assert result.breakdown[key] == 0.0

    def test_breakdown_recombines(self):
        model = toy_model(23)
        batch = toy_batch(23)
        w = LossWeights(lambda_d=0.3, lambda_div=0.2, lambda_uvt=0.7,
                        lambda_lvt=0.4, lambda_adv=1.5)
        fp = ForwardPass(tt.Tape(), model, batch, rng=np.random.default_rng(9))
        result = total_objective(fp, w)
        disc, disc_parts = discriminator_objective(fp, w)
        bd = result.breakdown
        want = 0.0
        for b in (1, 2):
            want += (bd[f"l_c_b{b}"] - w.lambda_adv * bd[f"l_adv_b{b}"]
                     + w.lambda_uvt * (bd[f"l_e_b{b}"] + bd[f"l_uvt_b{b}"])
                     + w.lambda_lvt * bd[f"l_lvt_b{b}"])
        want += w.lambda_d * bd["l_d"] - w.lambda_div * bd["l_div"]
        assert abs(result.main.item() - want) < 1e-10
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
        result = total_objective(fp, weights)
        disc, _ = discriminator_objective(fp, weights)
        g_main = tt.backward(result.main)
        g_disc = tt.backward(disc)
        g_cls = tt.backward(tt.add(classification_loss(fp, 1), classification_loss(fp, 2)))
        g_adv = tt.backward(tt.add(adversarial_loss(fp, 1), adversarial_loss(fp, 2)))
        for p in model.discriminator_params():
            combined = g_main.wrt_key(p, p.value) + g_disc.wrt_key(p, p.value)
            np.testing.assert_allclose(combined, 0.0, atol=1e-12)
            assert np.any(g_disc.wrt_key(p, p.value) != 0.0)
        for b in (1, 2):
            for p in model.branch(b).shared.params():
                np.testing.assert_array_equal(g_disc.wrt_key(p, p.value), 0.0)
                np.testing.assert_allclose(
                    g_main.wrt_key(p, p.value),
                    g_cls.wrt_key(p, p.value) - g_adv.wrt_key(p, p.value), atol=1e-12)

    def test_literal_sign_flag_flips_both(self):
        model = toy_model(31)
        batch = toy_batch(31)
        weights = self.zero_weights(lambda_adv=1.0)
        fp = ForwardPass(tt.Tape(), model, batch)
        std = total_objective(fp, weights)
        lit = total_objective(fp, weights, adversarial_sign="literal")
        std_disc, _ = discriminator_objective(fp, weights)
        lit_disc, _ = discriminator_objective(fp, weights, adversarial_sign="literal")
        assert lit_disc.item() == pytest.approx(-std_disc.item(), rel=1e-12)
        adv_total = std.breakdown["l_adv_b1"] + std.breakdown["l_adv_b2"]
        assert lit.main.item() - std.main.item() == pytest.approx(
            2.0 * adv_total, rel=1e-9)

    def test_disabled_terms_report_zero(self):
        model = toy_model(37)
        batch = toy_batch(37)
        fp = ForwardPass(tt.Tape(), model, batch, rng=np.random.default_rng(10))
        result = total_objective(fp, LossWeights(),
                                 disabled=frozenset({"l_d", "l_uvt"}))
        assert result.breakdown["l_d"] == 0.0
        assert result.breakdown["l_uvt_b1"] == 0.0
        assert result.breakdown["l_e_b1"] == 0.0  # entropy rides lambda_uvt
        assert result.breakdown["l_lvt_b1"] != 0.0

    def test_unknown_switch_rejected(self):
        with pytest.raises(ContractError, match="l_dd"):
            total_objective(ForwardPass(tt.Tape(), toy_model(), toy_batch()),
                            LossWeights(), disabled=frozenset({"l_dd"}))

    def test_bad_sign_flag_rejected(self):
        with pytest.raises(ContractError):
            total_objective(ForwardPass(tt.Tape(), toy_model(), toy_batch()),
                            LossWeights(), adversarial_sign="flipped")


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
            l_e = entropy_loss(fp, 1).item()
            l_c = classification_loss(fp, 1).item()
            l_adv = adversarial_loss(fp, 2).item()
            assert 0.0 <= l_d <= 2.0 * m
            assert 0.0 <= l_div <= weights.gamma
            assert 0.0 <= l_e <= m * math.log(2.0) + 1e-12
            assert l_c >= 0.0 and l_adv >= 0.0

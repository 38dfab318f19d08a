"""Unsupervised transfer to an unseen domain.

Train on three source domains, then classify a fourth domain the model
never saw. At prediction time the domain-specific pathway is replaced by
zeros, so only the adversarially aligned shared features carry signal;
both branches' probabilities are averaged as usual.
"""

import numpy as np

from cral.data import DomainDataset, SyntheticSpec, generate_synthetic, split_labeled
from cral.losses import LossWeights
from cral.model import ModelConfig, init_model, predict_ensemble
from cral.seeding import derive_seed
from cral.trainer import TrainConfig, evaluate_msuda, run_training

spec = SyntheticSpec(num_domains=4, feature_dim=16, labeled_per_domain=80,
                     unlabeled_per_domain=40, class_separation=4.0,
                     domain_shift=2.0, label_noise=0.0, seed=0)
domains = generate_synthetic(spec)
target, sources = domains[3], domains[:3]
print(f"sources: {[ds.name for ds in sources]}, target: {target.name}")

train_sets, dev_sets = [], []
for ds in sources:
    train, dev = split_labeled(ds, fractions=[0.8, 0.2], seed=0)
    train_sets.append(DomainDataset(ds.name, train.labeled_x, train.labeled_y,
                                    ds.unlabeled_x))
    dev_sets.append(dev)

model_config = ModelConfig(num_domains=3, input_dim=16, shared_dim=16,
                           specific_dim=8, extractor_hidden=(),
                           dropout_rate=0.4)
weights = LossWeights(lambda_adv=0.5, lambda_d=0.01, lambda_div=1e-4,
                      lambda_uvt=0.0, lambda_lvt=0.0)
model = init_model(model_config, derive_seed(0, "demo/msuda"))
run_training(model, train_sets,
             TrainConfig(epochs=15, batch_size=8, seed=0, weights=weights,
                         eval_cadence=5, learning_rate=1e-3),
             dev_sets=dev_sets)

accuracy = evaluate_msuda(model, target)
counts = np.bincount(target.labeled_y, minlength=2)
baseline = counts.max() / counts.sum()
print(f"\ntarget accuracy {accuracy:.3f} vs majority baseline {baseline:.3f}"
      f"  (margin {accuracy - baseline:+.3f})")

# the zero pathway makes the prediction independent of every
# domain-specific extractor: perturbing them changes nothing
probs_before = predict_ensemble(model, target.labeled_x[:5], msuda=True)
for mlp in model.specific:  # each private extractor holds both branches
    for p in mlp.params():
        p.value += 100.0
probs_after = predict_ensemble(model, target.labeled_x[:5], msuda=True)
print("invariant to domain-specific parameters:",
      bool(np.array_equal(probs_before, probs_after)))

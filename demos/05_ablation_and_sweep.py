"""Ablation table and a weight sweep on one synthetic problem.

Five paired runs share the same init and data order: the full objective,
then each co-regularization weight set to 0 in turn. The disagreement term
needs room to matter, so this uses a wider input (dim 40), a 50/50
train/test split that leaves the classifiers able to overfit, and a
disagreement weight large enough to couple the branches. At smaller
scales the per-seed gaps are within one test sample of zero, and any
ordering claim has to be read as a mean over seeds, not one draw.

Takes about two minutes end to end.
"""

from cral.data import DomainDataset, SyntheticSpec, generate_synthetic, split_labeled
from cral.losses import LossWeights
from cral.model import ModelConfig
from cral.trainer import TrainConfig, run_ablation, run_sweep

SEED = 4

spec = SyntheticSpec(num_domains=4, feature_dim=40, labeled_per_domain=200,
                     unlabeled_per_domain=400, class_separation=3.0,
                     domain_shift=3.0, label_noise=0.1, seed=SEED)
train_sets, test_sets = [], []
for ds in generate_synthetic(spec):
    train, test = split_labeled(ds, fractions=[0.5, 0.5], seed=SEED)
    train_sets.append(DomainDataset(ds.name, train.labeled_x, train.labeled_y,
                                    ds.unlabeled_x))
    test_sets.append(test)

model_config = ModelConfig(num_domains=4, input_dim=40, shared_dim=16,
                           specific_dim=8, extractor_hidden=(),
                           dropout_rate=0.2)
weights = LossWeights(lambda_adv=1.0, lambda_d=1.5, lambda_div=1e-4,
                      lambda_uvt=0.02, lambda_lvt=0.02)
config = TrainConfig(epochs=40, batch_size=8, seed=SEED, weights=weights,
                     eval_cadence=40, learning_rate=1e-3)

print("ablation (same init and batches for every variant):")
rows = run_ablation(train_sets, test_sets, model_config, config)
full = rows[0]["test_average"]
for row in rows:
    delta = full - row["test_average"]
    print(f"  {row['variant']:9s} test avg {row['test_average']:.4f}"
          f"  gap {delta:+.4f}")
print("  (positive gap = the full objective beats the ablated run)")

print("\nsweep over the disagreement weight:")
grid = [0.0, 0.1, 0.5, 1.5]
for row in run_sweep(train_sets, test_sets, model_config, config,
                     "lambda_d", grid):
    print(f"  lambda_d={row['lambda_d']:<6g} test avg {row['test_average']:.4f}")

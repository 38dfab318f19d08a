"""Co-regularized adversarial learning for multi-domain text classification.

Two adversarially trained branches, each with a shared and per-domain
feature extractor, are coupled by a prediction-disagreement penalty and
a clamped diversity reward, with virtual adversarial training and
entropy minimization on unlabeled text. Everything runs on a small
tape-based reverse-mode autodiff core over numpy float64.
"""

from .data import (
    DomainDataset,
    SyntheticSpec,
    generate_synthetic,
    load_sparse_dataset,
    merge_labeled,
    one_hot,
    save_sparse_dataset,
    split_labeled,
)
from .errors import (
    ConfigError,
    ContractError,
    CralError,
    DataError,
    DimensionError,
    ParseError,
    SpecError,
    TrainingError,
)
from .losses import (
    ForwardPass,
    LossWeights,
    MultiDomainBatch,
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
from .model import (
    CralModel,
    ModelConfig,
    init_model,
    predict_class,
    predict_domain,
    predict_ensemble,
    predicted_labels,
)
from .nn import Adam, Mlp, MlpSpec, init_params, load_checkpoint, mlp_forward, save_checkpoint
from .seeding import derive_rng, derive_seed
from .tensor import Gradients, Tape, Tensor, backward
from .trainer import (
    MetricsRecord,
    TrainConfig,
    TrainingResult,
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

__version__ = "0.1.0"

"""Two-branch shared/private architecture.

Each branch b in {1, 2} owns a shared feature extractor (domain
invariant), one private extractor per domain, an M-way domain
discriminator reading only the shared features, and a binary classifier
reading the concatenation [shared, private]. The composite per-domain
predictor feeds that concatenation through the classifier and a row
softmax. `ModelConfig` defines every width's default.

Domains are indexed 0..M-1 throughout. Branches are addressed as 1 and 2.

With the msuda flag the private part is replaced by a zero block of the
same width, so predictions are structurally independent of every
domain-specific parameter; this is the unseen-target evaluation path.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from typing import Optional

import numpy as np

from .errors import ContractError, SpecError
from .nn import (Mlp, MlpSpec, init_params, load_checkpoint, mlp_forward, mlp_params,
                 save_checkpoint)
from .seeding import derive_rng
from .tensor import Tape, Tensor, concat_cols, concat_rows, slice_rows, softmax_rows

BRANCHES = (1, 2)


@dataclass(frozen=True)
class ModelConfig:
    num_domains: int
    input_dim: int
    shared_dim: int = 128
    specific_dim: int = 64
    extractor_hidden: tuple = (1000, 500)
    dropout_rate: float = 0.4
    num_classes: int = 2

    def __post_init__(self):
        if self.num_domains < 2:
            raise SpecError(f"need at least 2 domains, got {self.num_domains}")
        object.__setattr__(self, "extractor_hidden", tuple(self.extractor_hidden))
        self.mlp_specs()  # MlpSpec rejects each bad width or dropout rate

    def mlp_specs(self) -> dict:
        """Shape of each of a branch's MLPs (one "specific" per domain)."""
        extractor = lambda out_dim: MlpSpec(
            self.input_dim, self.extractor_hidden, out_dim, self.dropout_rate
        )
        clf_in = self.shared_dim + self.specific_dim
        # Discriminator and classifier use one hidden layer as wide as their input.
        return {
            "shared": extractor(self.shared_dim),
            "specific": extractor(self.specific_dim),
            "disc": MlpSpec(self.shared_dim, (self.shared_dim,), self.num_domains,
                            self.dropout_rate),
            "clf": MlpSpec(clf_in, (clf_in,), self.num_classes, self.dropout_rate),
        }


class BranchParams:
    """Parameter groups of one branch."""

    def __init__(self, shared: Mlp, specific: list, discriminator: Mlp, classifier: Mlp):
        self.shared = shared
        self.specific = specific
        self.discriminator = discriminator
        self.classifier = classifier

    def params(self) -> list:
        out = list(self.shared.params())
        for mlp in self.specific:
            out.extend(mlp.params())
        out.extend(self.discriminator.params())
        out.extend(self.classifier.params())
        return out


class CralModel:
    def __init__(self, config: ModelConfig, branches: tuple):
        self.config = config
        self.branches = branches

    def branch(self, b: int) -> BranchParams:
        if b not in BRANCHES:
            raise ContractError(f"branch must be 1 or 2, got {b}")
        return self.branches[b - 1]

    def params(self) -> list:
        return self.branches[0].params() + self.branches[1].params()

    def discriminator_params(self) -> list:
        return (self.branches[0].discriminator.params()
                + self.branches[1].discriminator.params())

    def main_params(self) -> list:
        """Everything Algorithm-style phase 2 updates: all but the discriminators."""
        disc = set(id(p) for p in self.discriminator_params())
        return [p for p in self.params() if id(p) not in disc]

    def state_dict(self) -> dict:
        """Name -> the parameter's live array; copy it to keep a snapshot."""
        return {p.name: p.value for p in self.params()}

    def load_state_dict(self, arrays: dict) -> None:
        """Copy each array into its parameter's own; checks every one first."""
        own = {p.name: p for p in self.params()}
        if set(own) != set(arrays):
            missing = sorted(set(own) - set(arrays))
            extra = sorted(set(arrays) - set(own))
            raise ContractError(
                f"parameter names do not match (missing {missing[:3]}, extra {extra[:3]})"
            )
        for name, param in own.items():
            shape = np.shape(arrays[name])
            if shape != param.value.shape:
                raise ContractError(
                    f"shape mismatch for {name}: {shape} vs {param.value.shape}")
        for name, param in own.items():
            np.copyto(param.value, arrays[name])

    def save(self, path) -> None:
        save_checkpoint(path, self.state_dict(), asdict(self.config))

    @classmethod
    def load(cls, path) -> "CralModel":
        meta, arrays = load_checkpoint(path)
        keys = {f.name for f in fields(ModelConfig)}
        # Headers without num_classes come from binary models.
        missing = sorted(keys - set(meta) - {"num_classes"})
        unknown = sorted(set(meta) - keys)
        if missing or unknown:
            raise ContractError(
                f"{path}: checkpoint metadata has missing keys {missing} "
                f"and unknown keys {unknown}")
        # Nothing is drawn: the checkpoint fills every array.
        model = _build(ModelConfig(**meta), lambda spec, name: mlp_params(
            spec, name, lambda fan_out, fan_in: np.empty((fan_out, fan_in)), np.empty))
        model.load_state_dict(arrays)
        return model


def init_model(config: ModelConfig, seed: int) -> CralModel:
    """Both branches share the architecture; weights differ only by seed."""
    return _build(config, lambda spec, name: init_params(
        spec, derive_rng(seed, f"model/{name}"), name=name))


def _build(config: ModelConfig, mlp) -> CralModel:
    """The model's layout, with ``mlp(spec, name)`` making each named MLP."""
    specs = config.mlp_specs()
    return CralModel(config, tuple(
        BranchParams(mlp(specs["shared"], f"branch{b}/shared"),
                     [mlp(specs["specific"], f"branch{b}/specific{i}")
                      for i in range(config.num_domains)],
                     mlp(specs["disc"], f"branch{b}/disc"),
                     mlp(specs["clf"], f"branch{b}/clf"))
        for b in BRANCHES))


# ---------------------------------------------------------------------------
# Tape-level forward passes. Each returns one Tensor. The heads run on given
# shared features, so one shared forward can feed several heads. Dropout
# masks are data, drawn by `losses.ForwardPass`: each forward applies the
# masks it is given (see nn.mlp_forward) and runs without dropout when given
# none, so passing the same masks again replays the same stochastic pass.
# The class path takes a dict from "shared" and "classifier" to those MLPs'
# masks and from "specific" to a dict from domain to its private
# extractor's masks.
# ---------------------------------------------------------------------------


def _check_domain(model: CralModel, i: int) -> None:
    if not 0 <= i < model.config.num_domains:
        raise ContractError(
            f"domain index {i} outside 0..{model.config.num_domains - 1}"
        )


def shared_features(tape: Tape, model: CralModel, b: int, x: Tensor,
                    masks: Optional[list] = None) -> Tensor:
    return mlp_forward(tape, model.branch(b).shared, x, masks)


def domain_head(tape: Tape, model: CralModel, b: int, feats: Tensor,
                masks: Optional[list] = None) -> Tensor:
    """Discriminator distribution over domains from given shared features."""
    return softmax_rows(mlp_forward(tape, model.branch(b).discriminator, feats, masks))


def domain_probs(tape: Tape, model: CralModel, b: int, x: Tensor) -> Tensor:
    """Discriminator distribution over domains from shared features only."""
    return domain_head(tape, model, b, shared_features(tape, model, b, x))


def class_head(tape: Tape, model: CralModel, b: int, i, feats: Tensor,
               x: Tensor, msuda: bool = False, masks: Optional[dict] = None) -> Tensor:
    """Classifier over [given shared features, private features of x].

    `i` is a row map: (domain, slice) pairs whose slices tile x's rows in
    order, so each listed domain's private extractor runs once over its own
    rows. A domain index i stands for the one-entry map [(i, all rows)].
    """
    branch = model.branch(b)
    masks = masks or {}
    if msuda:
        private = Tensor(np.zeros((x.shape[0], model.config.specific_dim)))
    else:
        if i is None:
            raise ContractError("domain index required unless msuda is set")
        row_map = [(i, slice(0, x.shape[0]))] if isinstance(i, (int, np.integer)) else i
        bounds = [0] + [rows.stop for _, rows in row_map]
        if [rows.start for _, rows in row_map] != bounds[:-1] or bounds[-1] != x.shape[0]:
            raise ContractError(f"row map {row_map} does not tile {x.shape[0]} rows")
        specific = masks.get("specific") or {}
        parts = []
        for d, rows in row_map:
            _check_domain(model, d)
            rows_x = x if len(row_map) == 1 else slice_rows(x, rows)
            parts.append(mlp_forward(tape, branch.specific[d], rows_x, specific.get(d)))
        private = concat_rows(*parts)
    logits = mlp_forward(tape, branch.classifier, concat_cols(feats, private),
                         masks.get("classifier"))
    return softmax_rows(logits)


def class_probs(tape: Tape, model: CralModel, b: int, i, x: Tensor,
                msuda: bool = False, masks: Optional[dict] = None) -> Tensor:
    """Composite per-domain predictor: classifier over [shared, private]."""
    masks = masks or {}
    feats = shared_features(tape, model, b, x, masks.get("shared"))
    return class_head(tape, model, b, i, feats, x, msuda=msuda, masks=masks)


# ---------------------------------------------------------------------------
# Array-level prediction API (fresh tape, eval mode).
# ---------------------------------------------------------------------------


def predict_domain(model: CralModel, b: int, x: np.ndarray) -> np.ndarray:
    tape = Tape()
    return domain_probs(tape, model, b, tape.leaf(x)).data


def predict_class(model: CralModel, b: int, i: Optional[int], x: np.ndarray,
                  msuda: bool = False) -> np.ndarray:
    tape = Tape()
    return class_probs(tape, model, b, i, tape.leaf(x), msuda=msuda).data


def predict_ensemble(model: CralModel, x: np.ndarray, i: Optional[int] = None,
                     msuda: bool = False) -> np.ndarray:
    """Mean of the two branches' class probabilities (eval mode)."""
    p1 = predict_class(model, 1, i, x, msuda=msuda)
    p2 = predict_class(model, 2, i, x, msuda=msuda)
    return 0.5 * (p1 + p2)


def predicted_labels(probs: np.ndarray) -> np.ndarray:
    # argmax takes the first maximum, which is the declared tie-break
    # toward the lower class index.
    return np.argmax(probs, axis=1)

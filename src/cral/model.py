"""Two-branch shared/private architecture.

Each branch b in {1, 2} owns a shared feature extractor (domain
invariant), one private extractor per domain, an M-way domain
discriminator reading only the shared features, and a binary classifier
reading the concatenation [shared, private]. The composite per-domain
predictor feeds that concatenation through the classifier and a row
softmax. `ModelConfig` defines every width's default.

The branches share the architecture, so the model stores them stacked:
each network is one stacked MLP (see `nn`) whose parameters hold branch
1's array and then branch 2's along a leading axis, and every forward
runs both branches at once. Its outputs are stacked alike, (2, n, ...),
and branch b's is index b - 1. Input rows are one (n, d) matrix both
branches read, or one per branch, (2, n, d). `state_dict` names each
branch's array "branch{b}/...", so checkpoints hold one record per branch
and network.

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
            raise SpecError(f"num_domains must be at least 2, got {self.num_domains}")
        object.__setattr__(self, "extractor_hidden", tuple(self.extractor_hidden))
        for key, widths in asdict(self).items():
            if key != "dropout_rate" and (np.ravel(widths) <= 0).any():
                raise SpecError(f"{key} must be positive, got {widths}")
        self.mlp_specs()  # MlpSpec rejects a bad dropout rate

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


class CralModel:
    """Both branches' networks, each a stacked MLP: the shared extractor,
    one private extractor per domain, the discriminator and the classifier."""

    def __init__(self, config: ModelConfig, shared: Mlp, specific: list,
                 discriminator: Mlp, classifier: Mlp):
        self.config = config
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

    def discriminator_params(self) -> list:
        return self.discriminator.params()

    def main_params(self) -> list:
        """Everything Algorithm-style phase 2 updates: all but the discriminators."""
        disc = set(id(p) for p in self.discriminator_params())
        return [p for p in self.params() if id(p) not in disc]

    def state_dict(self) -> dict:
        """Name -> a live view of one branch's array ("branch{b}/..."), branch 1's
        first; copy it to keep a snapshot."""
        params = self.params()
        return {p.part_names()[k]: p.value[k] for k in range(len(BRANCHES)) for p in params}

    def load_state_dict(self, arrays: dict) -> None:
        """Copy each array into its parameter's own; checks every one first."""
        for name, (param, k) in self._check_state(arrays).items():
            np.copyto(param.value[k], arrays[name])

    def _check_state(self, arrays: dict) -> dict:
        """Name -> (parameter, branch index) of each array, once every name
        and shape of ``arrays`` is checked against the model's."""
        own = {name: (p, k) for p in self.params() for k, name in enumerate(p.part_names())}
        if set(own) != set(arrays):
            missing = sorted(set(own) - set(arrays))
            extra = sorted(set(arrays) - set(own))
            raise ContractError(
                f"parameter names do not match (missing {missing[:3]}, extra {extra[:3]})"
            )
        for name, (param, k) in own.items():
            shape = np.shape(arrays[name])
            if shape != param.value[k].shape:
                raise ContractError(
                    f"shape mismatch for {name}: {shape} vs {param.value[k].shape}")
        return own

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
        for key, value in meta.items():
            if key == "extractor_hidden":
                typed = isinstance(value, list) and all(type(d) is int for d in value)
            else:  # type(), not isinstance: a bool is an int
                typed = type(value) is int or key == "dropout_rate" and type(value) is float
            if not typed:
                raise ContractError(f"{path}: checkpoint metadata {key} = {value!r} "
                                    "has the wrong type")

        def build(array):  # the model, array(shape) making each stacked parameter
            made = lambda *shape: array((len(BRANCHES), *shape))
            return _build(config, lambda spec, name: mlp_params(spec, name, made, made,
                                                                stacked=True))

        # The header's widths meet the records' shapes before anything is
        # allocated: zero-stride arrays hold no memory. Nothing is drawn:
        # the checkpoint fills every array.
        try:
            config = ModelConfig(**meta)
            build(lambda shape: np.broadcast_to(0.0, shape))._check_state(arrays)
        except ValueError as exc:  # a SpecError, a ContractError, or widths past numpy's limit
            raise ContractError(f"{path}: {exc}") from None
        model = build(np.empty)
        model.load_state_dict(arrays)
        return model


def init_model(config: ModelConfig, seed: int) -> CralModel:
    """Both branches share the architecture; weights differ only by seed.

    Branch b's arrays of network "name" are drawn from the generator of
    "model/branch{b}/name".
    """
    return _build(config, lambda spec, name: init_params(
        spec, [derive_rng(seed, f"model/branch{b}/{name}") for b in BRANCHES], name=name))


def _build(config: ModelConfig, mlp) -> CralModel:
    """The model's layout, with ``mlp(spec, name)`` making each named stacked MLP."""
    specs = config.mlp_specs()
    return CralModel(config, mlp(specs["shared"], "shared"),
                     [mlp(specs["specific"], f"specific{i}")
                      for i in range(config.num_domains)],
                     mlp(specs["disc"], "disc"), mlp(specs["clf"], "clf"))


# ---------------------------------------------------------------------------
# Tape-level forward passes. Each returns one Tensor, stacked over the
# branches. The heads run on given shared features, so one shared forward
# can feed several heads. Dropout masks are data, drawn by
# `losses.ForwardPass` for both branches at once (`nn.draw_dropout_masks`):
# each forward applies the masks it is given (see nn.mlp_forward) and runs
# without dropout when given none, so passing the same masks again replays
# the same stochastic pass. The class path takes a dict from "shared" and
# "classifier" to those MLPs' masks and from "specific" to a dict from
# domain to its private extractor's masks.
# ---------------------------------------------------------------------------


def _check_domain(model: CralModel, i: int) -> None:
    if not 0 <= i < model.config.num_domains:
        raise ContractError(
            f"domain index {i} outside 0..{model.config.num_domains - 1}"
        )


def shared_features(tape: Tape, model: CralModel, masks: Optional[list],
                    x: Tensor) -> Tensor:
    """Both branches' shared features of x; x is the fourth argument, where
    perfbench's row counter reads it."""
    return mlp_forward(tape, model.shared, x, masks)


def domain_head(tape: Tape, model: CralModel, feats: Tensor,
                masks: Optional[list] = None) -> Tensor:
    """Discriminator distribution over domains from given shared features."""
    return softmax_rows(mlp_forward(tape, model.discriminator, feats, masks))


def domain_probs(tape: Tape, model: CralModel, x: Tensor) -> Tensor:
    """Discriminator distribution over domains from shared features only."""
    return domain_head(tape, model, shared_features(tape, model, None, x))


def class_head(tape: Tape, model: CralModel, i, feats: Tensor,
               x: Tensor, msuda: bool = False, masks: Optional[dict] = None) -> Tensor:
    """Classifier over [given shared features, private features of x].

    `i` is a row map: (domain, slice) pairs whose slices tile x's rows in
    order, so each listed domain's private extractor runs once over its own
    rows. A domain index i stands for the one-entry map [(i, all rows)].
    """
    masks = masks or {}
    n = x.shape[-2]
    if msuda:
        private = Tensor(np.zeros(feats.shape[:-1] + (model.config.specific_dim,)))
    else:
        if i is None:
            raise ContractError("domain index required unless msuda is set")
        row_map = [(i, slice(0, n))] if isinstance(i, (int, np.integer)) else i
        bounds = [0] + [rows.stop for _, rows in row_map]
        if [rows.start for _, rows in row_map] != bounds[:-1] or bounds[-1] != n:
            raise ContractError(f"row map {row_map} does not tile {n} rows")
        specific = masks.get("specific") or {}
        parts = []
        for d, rows in row_map:
            _check_domain(model, d)
            rows_x = x if len(row_map) == 1 else slice_rows(x, rows)
            parts.append(mlp_forward(tape, model.specific[d], rows_x, specific.get(d)))
        private = concat_rows(*parts)
    logits = mlp_forward(tape, model.classifier, concat_cols(feats, private),
                         masks.get("classifier"))
    return softmax_rows(logits)


def class_probs(tape: Tape, model: CralModel, i, x: Tensor,
                msuda: bool = False, masks: Optional[dict] = None) -> Tensor:
    """Composite per-domain predictor: classifier over [shared, private]."""
    masks = masks or {}
    feats = shared_features(tape, model, masks.get("shared"), x)
    return class_head(tape, model, i, feats, x, msuda=msuda, masks=masks)


# ---------------------------------------------------------------------------
# Array-level prediction API (fresh tape, eval mode). One stacked pass runs
# both branches; given a branch b, the result is that branch's slice.
# ---------------------------------------------------------------------------


def _branch(probs: np.ndarray, b: Optional[int]) -> np.ndarray:
    if b is None:
        return probs
    if b not in BRANCHES:
        raise ContractError(f"branch must be 1 or 2, got {b}")
    return probs[b - 1]


def predict_domain(model: CralModel, b: Optional[int], x: np.ndarray) -> np.ndarray:
    """Branch b's discriminator distribution; b = None gives both, stacked."""
    tape = Tape()
    return _branch(domain_probs(tape, model, tape.leaf(x)).data, b)


def predict_class(model: CralModel, b: Optional[int], i: Optional[int], x: np.ndarray,
                  msuda: bool = False) -> np.ndarray:
    """Branch b's class probabilities; b = None gives both, stacked."""
    tape = Tape()
    return _branch(class_probs(tape, model, i, tape.leaf(x), msuda=msuda).data, b)


def predict_ensemble(model: CralModel, x: np.ndarray, i: Optional[int] = None,
                     msuda: bool = False) -> np.ndarray:
    """Mean of the two branches' class probabilities (eval mode)."""
    p1, p2 = predict_class(model, None, i, x, msuda=msuda)
    return 0.5 * (p1 + p2)


def predicted_labels(probs: np.ndarray) -> np.ndarray:
    # argmax takes the first maximum, which is the declared tie-break
    # toward the lower class index.
    return np.argmax(probs, axis=1)

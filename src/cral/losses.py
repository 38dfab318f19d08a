"""Objective terms over a multi-domain mini-batch.

Every term of both phases is a reduction over one `ForwardPass`. The
pass stacks the batch's rows domain by domain, each domain's labeled
rows before its unlabeled ones, and maps each (domain, split) to its
slice of the stack. It runs a network only when a term first reads it,
and at most once: the shared extractor and classifier over all rows and
each private extractor over its domain's rows, so each weight sees all
of its rows in one product. Each network runs both branches at once (see
`model`), so a per-branch term computes both branches' values, stacked,
and the objective reads branch b's at index b - 1. The pass keeps the
outputs and the dropout masks, so all terms share one dropout mask per
row and step.
Terms reduce the stacked outputs with the row weights the batch builds
once (`MultiDomainBatch.row_weights`), so a weighted row sum is the sum
over domains of per-domain mini-batch means. The discriminator phase
holds the pass's shared features as constants and records on its own
tape, so its gradient reaches only the discriminators. Each NLL and
entropy is one `tensor.xlogy_rows` node, each KL a difference of two;
the op clamps p at 1e-12.

Adversarial sign convention (MAN's standard game): the discriminator
phase descends +lambda_adv * NLL, so the discriminators learn to tell
domains apart, and the main objective carries -lambda_adv * NLL, so the
extractors make domains indistinguishable. A term is dropped by setting
its weight to 0.

Virtual adversarial terms take the clean prediction and its dropout
masks from the pass and reuse the masks for the power-iteration probe
and the perturbed pass, so the perturbation competes only against the
input direction and not against mask resampling. One probe and one
perturbed pass, each over both branches, cover the rows of both VAT
terms. The probe runs on its own tape, and reading only its input's
gradient forms no weight product (weight gradients are formed when
read; see `tensor`). The perturbation itself is a constant in the outer
gradient.

RNG discipline: the caller's generator is consumed in a fixed order, so
a run is reproducible from its seed. Every dropout mask is drawn by
`ForwardPass.dropout`, in train mode only, and no mask at rate 0; each
draw covers all the rows its network serves and both branches, one call
per hidden layer. First the pass, when it is built and whichever
networks its terms go on to read, draws the shared extractor's masks
over all stacked rows, each domain's private-extractor masks over that
domain's rows (in row-map order), and the classifier's masks over all
rows. Then the discriminator phase draws the discriminator's masks over
all rows. Then the main phase's terms draw as they first run, in table
order: the adversarial term's discriminator masks over all rows; then,
for the first VAT term, the probe directions: one standard-normal draw
shaped like the stacked input with a leading branch axis, whichever VAT
terms are in force. Skipped terms draw nothing.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from .errors import ContractError, DimensionError, SpecError
from .model import (
    BRANCHES,
    CralModel,
    class_head,
    class_probs,
    domain_head,
    domain_probs,  # unused here; perfbench/workloads.py counts calls through it
    shared_features,
)
from .nn import Mlp, draw_dropout_masks
from .tensor import (
    Tape,
    Tensor,
    backward as tape_backward,
    clamp_max,
    combine,
    index,
    l1_norm,
    l2_norm_sq,
    mul,
    stop_gradient,
    sub,
    sum as tsum,
    xlogy_rows,
)

SPLITS = ("labeled", "unlabeled")
ROW_SETS = SPLITS + ("combined",)  # the row sets a term can weight
MODES = ("train", "eval")


@dataclass(frozen=True)
class LossWeights:
    gamma: float = 10.0
    lambda_adv: float = 1.0
    lambda_d: float = 1e-5
    lambda_div: float = 1e-4
    lambda_uvt: float = 1.0
    lambda_lvt: float = 1.0
    vat_epsilon: float = 1.0
    vat_xi: float = 1e-6

    def __post_init__(self):
        for f in fields(self):
            value = float(getattr(self, f.name))
            if not 0.0 <= value < np.inf:
                raise SpecError(f"{f.name} must be finite and non-negative, got {value}")
        if self.gamma <= 0.0:
            raise SpecError("gamma must be positive")
        if self.vat_xi <= 0.0:
            raise SpecError("vat_xi must be positive; drop VAT with vat_epsilon = 0 "
                            "or lambda_uvt = lambda_lvt = 0")


class MultiDomainBatch:
    """Per-domain labeled inputs with one-hot labels plus unlabeled inputs.

    The inputs are kept once, stacked in `x` domain by domain, each
    domain's labeled rows before its unlabeled ones. `rows` maps each
    non-empty (domain, split) to its slice of `x`, `row_map` lists each
    domain with rows and its slice (see `model.class_head`), and the
    per-domain tuples `labeled_x` and `unlabeled_x` hold views of `x`.
    `labels` and `domains` stack the NLL targets: each row's one-hot label
    (zeros on unlabeled rows) and one-hot domain. The row weights of each
    of `ROW_SETS` are built here, once (see `row_weights`).
    """

    def __init__(self, labeled_x: list, labeled_y: list, unlabeled_x: list):
        if not len(labeled_x) == len(labeled_y) == len(unlabeled_x):
            raise ContractError("per-domain lists must have equal length")
        if len(labeled_x) == 0:
            raise ContractError("batch needs at least one domain")
        self.labeled_x = [np.asarray(x, dtype=np.float64) for x in labeled_x]
        self.labeled_y = tuple(np.asarray(y, dtype=np.float64) for y in labeled_y)
        self.unlabeled_x = [np.asarray(x, dtype=np.float64) for x in unlabeled_x]
        dims = {a.shape[1] for a in self.labeled_x + self.unlabeled_x if a.size}
        if len(dims) > 1:
            raise DimensionError(f"inconsistent feature dims in batch: {sorted(dims)}")
        width = max((y.shape[1] for y in self.labeled_y if y.size and y.ndim == 2), default=0)
        for i, (x, y) in enumerate(zip(self.labeled_x, self.labeled_y)):
            if x.shape[0] != y.shape[0]:
                raise ContractError(
                    f"domain {i}: {x.shape[0]} inputs but {y.shape[0]} label rows"
                )
            if y.size and (y.ndim != 2 or y.shape[1] != width or not np.isin(y, (0.0, 1.0)).all()
                           or not (y.sum(axis=1) == 1.0).all()):
                raise ContractError(f"domain {i}: label rows must be one-hot, {width} wide")
        parts = {(i, split): x for i in range(len(self.labeled_x))
                 for split, x in zip(SPLITS, (self.labeled_x[i], self.unlabeled_x[i]))
                 if x.shape[0]}
        if not parts:
            raise ContractError("batch has no rows")
        self.x = np.concatenate(list(parts.values()))
        self.labels = np.zeros((len(self.x), width))
        self.domains = np.zeros((len(self.x), len(self.labeled_x)))
        self._row_weights = {rows: np.zeros(len(self.x)) for rows in ROW_SETS}
        self.rows, domains, start = {}, {}, 0
        for (i, split), x in parts.items():
            rows = self.rows[i, split] = slice(start, start + x.shape[0])
            domains[i] = slice(domains.get(i, rows).start, rows.stop)
            self.domains[rows, i] = 1.0
            self._row_weights[split][rows] = 1.0 / x.shape[0]
            if split == "labeled":
                self.labeled_x[i] = self.x[rows]
                self.labels[rows] = self.labeled_y[i]
            else:
                self.unlabeled_x[i] = self.x[rows]
            start = rows.stop
        for span in domains.values():
            self._row_weights["combined"][span] = 1.0 / (span.stop - span.start)
        has = {(i, rows) for i, split in parts for rows in (split, "combined")}
        self._lacking = {rows: [i for i in range(self.num_domains) if (i, rows) not in has]
                         for rows in ROW_SETS}
        self.row_map = list(domains.items())
        self.labeled_x, self.unlabeled_x = tuple(self.labeled_x), tuple(self.unlabeled_x)

    @property
    def num_domains(self) -> int:
        return len(self.labeled_x)

    def row_weights(self, rows: str) -> np.ndarray:
        """1/n on each domain's n rows of `rows` (a split or "combined"), else 0.

        A row sum weighted by these is the sum over domains of per-domain
        means; every read returns the batch's one array. Raises if a domain
        has no such rows.
        """
        if self._lacking[rows]:
            raise ContractError(f"empty {rows} batch for domain {self._lacking[rows][0]}")
        return self._row_weights[rows]


class ForwardPass:
    """One forward of a batch's stacked rows (`MultiDomainBatch.x`) on one tape.

    The pass draws the dropout masks of its networks when it is built, in
    the module docstring's order, each network's for both branches at once.
    `shared()` and `probs()` run both branches' networks when a term first
    reads them and keep the result, so each network runs at most once per
    pass. In train mode `dropout` draws masks from `rng`, in eval mode
    every forward runs without them. `rng` also draws the VAT probe
    directions, in either mode.
    """

    def __init__(self, tape: Tape, model: CralModel, batch: MultiDomainBatch,
                 mode: str = "eval", rng: Optional[np.random.Generator] = None):
        if mode not in MODES:
            raise ContractError(f"mode must be one of {MODES}, got {mode!r}")
        if mode == "train" and rng is None:
            raise ContractError("train-mode dropout needs an rng")
        if batch.num_domains != model.config.num_domains:
            raise ContractError(f"batch has {batch.num_domains} domains, model expects "
                                f"{model.config.num_domains}")
        if batch.labels.shape[1] not in (0, model.config.num_classes):
            raise ContractError(f"label rows are {batch.labels.shape[1]} wide, model has "
                                f"{model.config.num_classes} classes")
        self.tape, self.model, self.batch = tape, model, batch
        self.mode, self.rng, self.num_domains = mode, rng, batch.num_domains
        self.x, self.row_map = batch.x, batch.row_map
        n = self.x.shape[0]
        self.masks = {"shared": self.dropout(model.shared, n),
                      "specific": {i: self.dropout(model.specific[i], rows.stop - rows.start)
                                   for i, rows in self.row_map},
                      "classifier": self.dropout(model.classifier, n)}
        self._shared = self._probs = None
        self.vat_passes = {}

    def dropout(self, mlp: Mlp, n: int) -> Optional[list]:
        """Fresh dropout masks of both branches for n rows through the stacked
        mlp in train mode, else None."""
        if self.mode == "eval":
            return None
        return draw_dropout_masks(mlp, n, self.rng)

    def shared(self) -> Tensor:
        """Both branches' shared features over the stacked rows."""
        if self._shared is None:
            self._shared = shared_features(self.tape, self.model, self.masks["shared"],
                                           Tensor(self.x))
        return self._shared

    def probs(self) -> Tensor:
        """Both branches' class probabilities over the stacked rows."""
        if self._probs is None:
            self._probs = class_head(self.tape, self.model, self.row_map,
                                     self.shared(), Tensor(self.x), masks=self.masks)
        return self._probs

    def detached(self) -> "ForwardPass":
        """This pass's shared features (run here if unread) as constants on a fresh tape.

        Terms run on the copy bind their parameters on the new tape. A bind
        on this tape would memoize the value, and the main phase must read
        the discriminators as the discriminator phase's update leaves them.
        The copy makes its own draws.
        """
        fp = copy.copy(self)
        fp.tape = Tape()
        fp._shared = stop_gradient(self.shared())
        fp._probs, fp.vat_passes = None, {}
        return fp


def _weighted_sum(t: Tensor, row_weights: np.ndarray, axis: Optional[int] = None) -> Tensor:
    """Sum of t with each row scaled by its weight (see `MultiDomainBatch.row_weights`)."""
    shape = (-1,) + (1,) * (t.data.ndim - 1)
    return tsum(mul(t, Tensor(np.broadcast_to(row_weights.reshape(shape), t.shape))),
                axis=axis)


def _nll(probs: Tensor, one_hot: np.ndarray, row_weights: np.ndarray) -> Tensor:
    """-sum(one_hot * log probs) per row, summed with the row weights."""
    return -xlogy_rows(Tensor(one_hot), probs, row_weights)


def classification_loss(fp: ForwardPass) -> Tensor:
    """Per branch, the sum over domains of mean cross-entropy on the labeled batch."""
    row_weights = fp.batch.row_weights("labeled")
    return _nll(fp.probs(), fp.batch.labels, row_weights)


def adversarial_loss(fp: ForwardPass) -> Tensor:
    """Per branch, the discriminator NLL over each domain's labeled+unlabeled
    shared features.

    Both phases read this one NLL: the main phase on its pass, the
    discriminator phase on the pass's detached copy.
    """
    row_weights = fp.batch.row_weights("combined")
    masks = fp.dropout(fp.model.discriminator, fp.x.shape[0])
    probs = domain_head(fp.tape, fp.model, fp.shared(), masks)
    return _nll(probs, fp.batch.domains, row_weights)


def disagreement_loss(fp: ForwardPass) -> Tensor:
    """L1 distance between the branches' predictions on unlabeled data."""
    row_weights = fp.batch.row_weights("unlabeled")
    p = fp.probs()
    return _weighted_sum(l1_norm(sub(index(p, 0), index(p, 1)), axis=1), row_weights)


def diversity_loss(fp: ForwardPass, gamma: float) -> Tensor:
    """Clamped squared distance between shared-feature centroids.

    Per domain, the labeled-batch mean of F_s1(x) - F_s2(x); those gaps
    are averaged over domains before the squared norm. Above gamma the
    clamp makes the gradient exactly zero.
    """
    if gamma <= 0.0:
        raise SpecError("gamma must be positive")
    row_weights = fp.batch.row_weights("labeled")
    s = fp.shared()
    gap_sum = _weighted_sum(sub(index(s, 0), index(s, 1)), row_weights, axis=0)
    centroid_gap = gap_sum * (1.0 / fp.num_domains)
    return clamp_max(l2_norm_sq(centroid_gap), gamma)


def entropy_loss(fp: ForwardPass) -> Tensor:
    """Per branch, prediction entropy on unlabeled data (0 log 0 taken as 0)."""
    row_weights = fp.batch.row_weights("unlabeled")
    p = fp.probs()
    return -xlogy_rows(p, p, row_weights)


def kl_divergence(p: Tensor, q: Tensor, row_weights: Optional[np.ndarray] = None) -> Tensor:
    """Row KL(p || q) summed with `row_weights`, by default 1/n (the row mean);
    one value per branch for stacked p and q.

    Rows must be distributions.
    """
    if p.shape != q.shape or p.data.ndim not in (2, 3):
        raise DimensionError(f"kl needs matching 2-d or stacked shapes, got {p.shape}, "
                             f"{q.shape}")
    for name, t in (("p", p), ("q", q)):
        if np.min(t.data) < -1e-6 or np.max(np.abs(t.data.sum(axis=-1) - 1.0)) > 1e-6:
            raise ContractError(f"{name} rows are not probability vectors")
    if row_weights is None:
        row_weights = np.full(p.shape[-2], 1.0 / p.shape[-2])
    return _kl(p, q, row_weights)


def _kl(p: Tensor, q: Tensor, row_weights: np.ndarray) -> Tensor:
    """`kl_divergence` without its checks, for callers that pass softmax outputs."""
    return sub(xlogy_rows(p, p, row_weights), xlogy_rows(p, q, row_weights))


def vat_perturbation(model: CralModel, i, x: np.ndarray, clean: np.ndarray,
                     epsilon: float, xi: float, directions: np.ndarray,
                     masks: Optional[dict] = None) -> np.ndarray:
    """One-step power iteration for each branch's most KL-sensitive input direction.

    `i` is a domain index or a row map (see `model.class_head`), `clean`
    both branches' predictions on x under `masks`, the dropout masks the
    probe replays, and `directions` one standard-normal draw per entry of
    x and branch, stacked. Rows and branches pass through the networks
    independently, so the probe gradient of the summed row-averaged KLs
    gives each row of each branch its own direction. Returns r, stacked,
    with per-sample L2 norm epsilon (zero rows where the probe gradient
    vanishes). Runs on its own tape and reads only the probe's gradient,
    so no weight gradient is formed; the caller treats r as data.
    """
    if epsilon < 0.0:
        raise SpecError("epsilon must be non-negative")
    x = np.asarray(x, dtype=np.float64)
    shape = (len(BRANCHES),) + x.shape
    if epsilon == 0.0:
        return np.zeros(shape)
    if directions.shape != shape:
        raise DimensionError(f"probe directions {directions.shape} do not match x {x.shape} "
                             "stacked per branch")
    d = directions / np.maximum(np.linalg.norm(directions, axis=-1, keepdims=True), 1e-30)

    tape = Tape()
    probe = tape.leaf(x + xi * d)
    perturbed = class_probs(tape, model, i, probe, masks=masks)
    row_mean = np.full(len(x), 1.0 / len(x))
    grads = tape_backward(tsum(_kl(Tensor(clean), perturbed, row_mean)))
    g = grads.wrt(probe)
    norms = np.linalg.norm(g, axis=-1, keepdims=True)
    scale = np.where(norms < 1e-20, 0.0, epsilon / np.maximum(norms, 1e-30))
    return g * scale


def vat_inputs(fp: ForwardPass, weights: LossWeights, labeled: bool) -> np.ndarray:
    """The pass's rows plus each branch's VAT perturbation, stacked.

    Both branches' probe directions, one per row, are one draw from the
    pass's rng; without an rng, the VAT term that `labeled` picks is named.
    """
    if fp.rng is None:
        name, split = ("l_lvt", "labeled") if labeled else ("l_uvt", "unlabeled")
        raise ContractError(f"{name}: the {split} VAT term draws probe directions and "
                            "needs an rng; pass one to ForwardPass")
    directions = fp.rng.standard_normal((len(BRANCHES),) + fp.x.shape)
    r = vat_perturbation(fp.model, fp.row_map, fp.x, fp.probs().data,
                         epsilon=weights.vat_epsilon, xi=weights.vat_xi,
                         directions=directions, masks=fp.masks)
    return fp.x + r


def vat_loss(fp: ForwardPass, labeled: bool, weights: LossWeights) -> Tensor:
    """Per branch, the KL between clean and adversarially perturbed predictions.

    The clean prediction is the pass's, taken as a constant reference
    (stop-gradient); the perturbation reuses the pass's dropout masks.
    The first VAT term runs one probe and one perturbed pass over all
    rows, and the pass keeps the result for the other VAT term.
    """
    split = "labeled" if labeled else "unlabeled"
    row_weights = fp.batch.row_weights(split)
    if weights.vat_epsilon == 0.0:
        return Tensor(np.zeros(len(BRANCHES)))
    if weights not in fp.vat_passes:
        fp.vat_passes[weights] = class_probs(
            fp.tape, fp.model, fp.row_map, Tensor(vat_inputs(fp, weights, labeled)),
            masks=fp.masks)
    return _kl(Tensor(fp.probs().data), fp.vat_passes[weights], row_weights)


def discriminator_objective(fp: ForwardPass, weights: LossWeights) -> tuple:
    """Phase-1 objective: the weighted adversarial losses of both branches.

    Runs the discriminators on a fresh tape over the pass's shared
    features held as constants, so its gradient reaches the discriminators
    only. Returns (objective tensor, breakdown) where the breakdown holds
    the raw per-branch NLL values.
    """
    nll = adversarial_loss(fp.detached())
    breakdown = {f"l_adv_b{b}": float(nll.data[b - 1]) for b in BRANCHES}
    return tsum(nll) * weights.lambda_adv, breakdown


def objective_terms(weights: LossWeights) -> list:
    """(name, weight, term, b) for every main-objective term, in RNG order.

    A term is a function of one `ForwardPass`; the main objective is the
    sum of weight * term(pass) over the entries whose weight is not zero.
    A per-branch term returns both branches' values, stacked, and the entry
    reads branch b's; l_d and l_div have b = None.
    Note the published grouping ties entropy minimization to lambda_uvt,
    so lambda_uvt = 0 also drops the entropy term.
    """
    per_branch = [
        ("l_c", 1.0, classification_loss),
        ("l_adv", -weights.lambda_adv, adversarial_loss),
        ("l_e", weights.lambda_uvt, entropy_loss),
        ("l_uvt", weights.lambda_uvt, lambda fp: vat_loss(fp, labeled=False, weights=weights)),
        ("l_lvt", weights.lambda_lvt, lambda fp: vat_loss(fp, labeled=True, weights=weights)),
    ]
    return [(f"{name}_b{b}", weight, term, b) for b in BRANCHES
            for name, weight, term in per_branch] + [
        ("l_d", weights.lambda_d, disagreement_loss, None),
        ("l_div", -weights.lambda_div, lambda fp: diversity_loss(fp, weights.gamma), None),
    ]


def total_objective(fp: ForwardPass, weights: LossWeights) -> tuple:
    """(main objective tensor, per-term breakdown).

    main = sum over branches of [L_c - lambda_adv L_adv
           + lambda_uvt (L_e + L_uvt) + lambda_lvt L_lvt]
           + lambda_d L_d - lambda_div L_div

    (the discriminators' side of the game is `discriminator_objective`).
    Every term reads `fp` and records on its tape; each stacked term runs
    once for both branches, where the table first reaches it, and makes its
    draws then. One `tensor.combine` node adds the weighted terms in table
    order. Terms whose weight is zero are skipped entirely and reported as
    0.0 in the breakdown.
    """
    entries = objective_terms(weights)
    table = [entry for entry in entries if entry[1] != 0.0]
    breakdown = {name: 0.0 for name, *_ in entries}
    stacked, parts = {}, []
    for name, weight, term, b in table:
        if term not in stacked:
            stacked[term] = term(fp)
        t, k = stacked[term], None if b is None else b - 1
        breakdown[name] = float(t.data if k is None else t.data[k])
        parts.append((t, k, weight))
    main = combine(parts)
    breakdown["main"] = main.item()
    return main, breakdown

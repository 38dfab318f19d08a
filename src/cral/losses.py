"""Objective terms over a multi-domain mini-batch.

Every term of both phases is a reduction over one `ForwardPass`, which
runs each (branch, domain, split) of the batch once through the shared
extractor and the class head and keeps the shared features, class
probabilities and dropout masks, so all terms share one dropout mask per
(branch, domain, split) and step. The discriminator phase holds the
pass's shared features as constants and records on its own tape, so its
gradient reaches only the discriminators. Expectations are realized as
per-domain mini-batch means and then summed over domains. Probabilities
are clamped at 1e-12 before any log.

Adversarial sign conventions. The discriminator objective and the
adversarial contribution to the main objective are opposite in sign by
construction:

  standard  disc phase descends the discriminator NLL (D learns to
            classify domains); the main phase carries -lambda_adv * NLL
            so extractors make domains indistinguishable.
  literal   the published min/max orientation read at face value, which
            swaps both signs (D ascends its NLL). Kept switchable for
            comparison; standard is the default.

Virtual adversarial terms take the clean prediction and its dropout
masks from the pass and reuse the masks for the power-iteration probe
and the perturbed pass, so the perturbation competes only against the
input direction and not against mask resampling. The perturbation
itself is a constant in the outer gradient.

RNG discipline: the caller's generator is consumed in a fixed order, so
a run is reproducible from its seed. First the pass draws, per branch,
domain and split (labeled, then unlabeled), the shared, specific and
classifier masks. Then the discriminator phase draws, per branch and
domain, its discriminator masks. Then the main phase's terms draw in
table order (per branch: adversarial, whose discriminator masks are per
domain; unlabeled VAT, then labeled VAT, one probe direction per
domain). Skipped terms draw nothing.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import NamedTuple, Optional

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
from .tensor import (
    LOG_FLOOR,
    Tape,
    Tensor,
    add,
    backward as tape_backward,
    clamp_max,
    clamp_min,
    concat_rows,
    l1_norm,
    l2_norm_sq,
    log,
    mean,
    mul,
    stop_gradient,
    sub,
    sum as tsum,
)

SIGN_CONVENTIONS = ("standard", "literal")
ABLATABLE = ("l_d", "l_div", "l_uvt", "l_lvt")
SPLITS = ("labeled", "unlabeled")


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
        for name in ("gamma", "lambda_adv", "lambda_d", "lambda_div",
                     "lambda_uvt", "lambda_lvt", "vat_epsilon", "vat_xi"):
            if float(getattr(self, name)) < 0.0:
                raise SpecError(f"{name} must be non-negative")
        if self.gamma <= 0.0:
            raise SpecError("gamma must be positive")


class MultiDomainBatch:
    """Per-domain labeled inputs with one-hot labels plus unlabeled inputs."""

    def __init__(self, labeled_x: list, labeled_y: list, unlabeled_x: list):
        if not len(labeled_x) == len(labeled_y) == len(unlabeled_x):
            raise ContractError("per-domain lists must have equal length")
        if len(labeled_x) == 0:
            raise ContractError("batch needs at least one domain")
        self.labeled_x = [np.asarray(x, dtype=np.float64) for x in labeled_x]
        self.labeled_y = [np.asarray(y, dtype=np.float64) for y in labeled_y]
        self.unlabeled_x = [np.asarray(x, dtype=np.float64) for x in unlabeled_x]
        dims = {a.shape[1] for a in self.labeled_x + self.unlabeled_x if a.size}
        if len(dims) > 1:
            raise DimensionError(f"inconsistent feature dims in batch: {sorted(dims)}")
        for i, (x, y) in enumerate(zip(self.labeled_x, self.labeled_y)):
            if x.shape[0] != y.shape[0]:
                raise ContractError(
                    f"domain {i}: {x.shape[0]} inputs but {y.shape[0]} label rows"
                )
            if y.size and (y.ndim != 2 or not np.isin(y, (0.0, 1.0)).all()
                           or not (y.sum(axis=1) == 1.0).all()):
                raise ContractError(f"domain {i}: label rows must be one-hot")

    @property
    def num_domains(self) -> int:
        return len(self.labeled_x)


def _check_match(model: CralModel, batch: MultiDomainBatch) -> None:
    if batch.num_domains != model.config.num_domains:
        raise ContractError(
            f"batch has {batch.num_domains} domains, model expects "
            f"{model.config.num_domains}"
        )


class SplitPass(NamedTuple):
    x: np.ndarray
    shared: Tensor
    probs: Tensor
    masks: dict


class ForwardPass:
    """One forward of every (branch, domain, split) of a batch on one tape.

    Each non-empty split runs once through its branch's shared extractor
    and class head, in the order branch, domain, split; the terms read
    the kept outputs instead of running their own forward.
    """

    def __init__(self, tape: Tape, model: CralModel, batch: MultiDomainBatch,
                 mode: str = "eval", rng: Optional[np.random.Generator] = None):
        _check_match(model, batch)
        self.tape, self.model, self.batch = tape, model, batch
        self.mode, self.rng, self.num_domains = mode, rng, batch.num_domains
        self.outputs = {}
        for b in BRANCHES:
            for i in range(batch.num_domains):
                for split, x in zip(SPLITS, (batch.labeled_x[i], batch.unlabeled_x[i])):
                    if x.shape[0] == 0:
                        continue
                    feats, shared_masks = shared_features(tape, model, b, Tensor(x),
                                                          mode=mode, rng=rng)
                    probs, masks = class_head(tape, model, b, i, feats, Tensor(x),
                                              mode=mode, rng=rng)
                    self.outputs[b, i, split] = SplitPass(
                        x, feats, probs, {"shared": shared_masks, **masks})

    def get(self, b: int, i: int, split: str) -> SplitPass:
        if (b, i, split) not in self.outputs:
            raise ContractError(f"empty {split} batch for domain {i}")
        return self.outputs[b, i, split]

    def detached(self) -> "ForwardPass":
        """This pass on a fresh tape, with its outputs held as constants.

        Terms run on the copy bind their parameters on the new tape. A bind
        on this tape would memoize the value, and the main phase must read
        the discriminators as the discriminator phase's update leaves them.
        """
        fp = copy.copy(self)
        fp.tape = Tape()
        fp.outputs = {key: out._replace(shared=stop_gradient(out.shared),
                                        probs=stop_gradient(out.probs))
                      for key, out in self.outputs.items()}
        return fp


def _domain_sum(num_domains: int, term) -> Tensor:
    """term(0) + term(1) + ... in domain order."""
    total = term(0)
    for i in range(1, num_domains):
        total = add(total, term(i))
    return total


def _nll(probs: Tensor, one_hot: np.ndarray) -> Tensor:
    """Mean over rows of -sum(one_hot * log probs)."""
    picked = tsum(mul(log(clamp_min(probs, LOG_FLOOR)), Tensor(one_hot)), axis=1)
    return -mean(picked)


def classification_loss(fp: ForwardPass, b: int) -> Tensor:
    """Sum over domains of mean cross-entropy on the labeled batch."""
    return _domain_sum(fp.num_domains, lambda i: _nll(
        fp.get(b, i, "labeled").probs, fp.batch.labeled_y[i]))


def adversarial_loss(fp: ForwardPass, b: int) -> Tensor:
    """Discriminator NLL over each domain's labeled+unlabeled shared features.

    Both phases read this one NLL: the main phase on its pass, the
    discriminator phase on the pass's detached copy.
    """
    def term(i):
        parts = [fp.outputs[b, i, split].shared for split in SPLITS
                 if (b, i, split) in fp.outputs]
        if not parts:
            raise ContractError(f"empty combined batch for domain {i}")
        feats = parts[0] if len(parts) == 1 else concat_rows(*parts)
        probs = domain_head(fp.tape, fp.model, b, feats, mode=fp.mode, rng=fp.rng)
        one_hot = np.zeros((probs.shape[0], fp.num_domains))
        one_hot[:, i] = 1.0
        return _nll(probs, one_hot)
    return _domain_sum(fp.num_domains, term)


def disagreement_loss(fp: ForwardPass) -> Tensor:
    """L1 distance between the branches' predictions on unlabeled data."""
    return _domain_sum(fp.num_domains, lambda i: mean(l1_norm(sub(
        fp.get(1, i, "unlabeled").probs, fp.get(2, i, "unlabeled").probs), axis=1)))


def diversity_loss(fp: ForwardPass, gamma: float) -> Tensor:
    """Clamped squared distance between shared-feature centroids.

    Per domain, the labeled-batch mean of F_s1(x) - F_s2(x); those gaps
    are averaged over domains before the squared norm. Above gamma the
    clamp makes the gradient exactly zero.
    """
    if gamma <= 0.0:
        raise SpecError("gamma must be positive")
    gap_sum = _domain_sum(fp.num_domains, lambda i: mean(sub(
        fp.get(1, i, "labeled").shared, fp.get(2, i, "labeled").shared), axis=0))
    centroid_gap = gap_sum * (1.0 / fp.num_domains)
    return clamp_max(l2_norm_sq(centroid_gap), gamma)


def entropy_loss(fp: ForwardPass, b: int) -> Tensor:
    """Prediction entropy on unlabeled data (0 log 0 taken as 0)."""
    def term(i):
        p = fp.get(b, i, "unlabeled").probs
        return -mean(tsum(mul(p, log(clamp_min(p, LOG_FLOOR))), axis=1))
    return _domain_sum(fp.num_domains, term)


def kl_divergence(p: Tensor, q: Tensor) -> Tensor:
    """Row KL(p || q) averaged over rows; rows must be distributions."""
    if p.shape != q.shape or p.data.ndim != 2:
        raise DimensionError(f"kl needs matching 2-d shapes, got {p.shape}, {q.shape}")
    for name, t in (("p", p), ("q", q)):
        if np.min(t.data) < -1e-6 or np.max(np.abs(t.data.sum(axis=1) - 1.0)) > 1e-6:
            raise ContractError(f"{name} rows are not probability vectors")
    log_ratio = sub(log(clamp_min(p, LOG_FLOOR)), log(clamp_min(q, LOG_FLOOR)))
    return mean(tsum(mul(p, log_ratio), axis=1))


def vat_perturbation(model: CralModel, b: int, i: int, x: np.ndarray,
                     clean: np.ndarray, epsilon: float, xi: float,
                     rng: np.random.Generator, mode: str = "eval",
                     masks: Optional[dict] = None) -> np.ndarray:
    """One-step power iteration for the most KL-sensitive input direction.

    `clean` is the prediction on x under `masks`, the dropout masks the
    probe replays. Returns r with per-sample L2 norm epsilon (zero rows
    where the probe gradient vanishes). Runs on its own tape; the caller
    treats r as data.
    """
    if epsilon < 0.0:
        raise SpecError("epsilon must be non-negative")
    x = np.asarray(x, dtype=np.float64)
    if epsilon == 0.0:
        return np.zeros_like(x)
    d = rng.standard_normal(x.shape)
    d /= np.maximum(np.linalg.norm(d, axis=1, keepdims=True), 1e-30)

    tape = Tape()
    probe = tape.leaf(x + xi * d)
    perturbed, _ = class_probs(tape, model, b, i, probe, mode=mode, masks=masks)
    grads = tape_backward(kl_divergence(Tensor(clean), perturbed))
    g = grads.wrt(probe)
    norms = np.linalg.norm(g, axis=1, keepdims=True)
    scale = np.where(norms < 1e-20, 0.0, epsilon / np.maximum(norms, 1e-30))
    return g * scale


def vat_loss(fp: ForwardPass, b: int, labeled: bool, weights: LossWeights) -> Tensor:
    """KL between clean and adversarially perturbed predictions.

    The clean prediction is the pass's, taken as a constant reference
    (stop-gradient); the perturbation direction is recomputed per domain
    with the pass's dropout masks.
    """
    split = "labeled" if labeled else "unlabeled"

    def term(i):
        x, _, clean, masks = fp.get(b, i, split)
        if weights.vat_epsilon == 0.0:
            return Tensor(0.0)
        r = vat_perturbation(fp.model, b, i, x, clean.data, epsilon=weights.vat_epsilon,
                             xi=weights.vat_xi, rng=fp.rng, mode=fp.mode, masks=masks)
        perturbed, _ = class_probs(fp.tape, fp.model, b, i, Tensor(x + r),
                                   mode=fp.mode, masks=masks)
        return kl_divergence(stop_gradient(clean), perturbed)
    return _domain_sum(fp.num_domains, term)


def adversarial_sign_factor(adversarial_sign: str) -> float:
    """+1 under the standard convention, -1 under the literal one.

    The discriminator objective carries sign * lambda_adv * L_adv and the
    main objective -sign * lambda_adv * L_adv.
    """
    if adversarial_sign not in SIGN_CONVENTIONS:
        raise ContractError(
            f"adversarial_sign must be one of {SIGN_CONVENTIONS}, got {adversarial_sign!r}"
        )
    return 1.0 if adversarial_sign == "standard" else -1.0


def discriminator_objective(fp: ForwardPass, weights: LossWeights,
                            adversarial_sign: str = "standard") -> tuple:
    """Phase-1 objective: the weighted adversarial losses of both branches.

    Runs the discriminators on a fresh tape over the pass's shared
    features held as constants, so its gradient reaches the discriminators
    only. Returns (objective tensor, breakdown) where the breakdown holds
    the raw per-branch NLL values. Descending the returned objective
    trains the discriminators under the chosen sign convention.
    """
    sign = adversarial_sign_factor(adversarial_sign)
    frozen = fp.detached()
    l1, l2 = (adversarial_loss(frozen, b) for b in BRANCHES)
    breakdown = {"l_adv_b1": l1.item(), "l_adv_b2": l2.item()}
    return add(l1, l2) * (sign * weights.lambda_adv), breakdown


def objective_terms(weights: LossWeights, adversarial_sign: str = "standard",
                    disabled: frozenset = frozenset()) -> list:
    """(name, weight, term) for every main-objective term, in RNG order.

    A term is a function of one `ForwardPass`; the main objective is the
    sum of weight * term(pass) over the entries whose weight is not zero.
    Switches named in `disabled` zero their weight. Note the published
    grouping ties entropy minimization to lambda_uvt, so disabling l_uvt
    also drops the entropy term.
    """
    sign = adversarial_sign_factor(adversarial_sign)
    unknown = set(disabled) - set(ABLATABLE)
    if unknown:
        raise ContractError(f"unknown ablation switches: {sorted(unknown)}")

    def on(switch, weight):
        return 0.0 if switch in disabled else weight

    lam_uvt = on("l_uvt", weights.lambda_uvt)
    table = []
    for b in BRANCHES:
        table += [
            (f"l_c_b{b}", 1.0, lambda fp, b=b: classification_loss(fp, b)),
            (f"l_adv_b{b}", -sign * weights.lambda_adv,
             lambda fp, b=b: adversarial_loss(fp, b)),
            (f"l_e_b{b}", lam_uvt, lambda fp, b=b: entropy_loss(fp, b)),
            (f"l_uvt_b{b}", lam_uvt,
             lambda fp, b=b: vat_loss(fp, b, labeled=False, weights=weights)),
            (f"l_lvt_b{b}", on("l_lvt", weights.lambda_lvt),
             lambda fp, b=b: vat_loss(fp, b, labeled=True, weights=weights)),
        ]
    return table + [
        ("l_d", on("l_d", weights.lambda_d), disagreement_loss),
        ("l_div", -on("l_div", weights.lambda_div),
         lambda fp: diversity_loss(fp, weights.gamma)),
    ]


@dataclass
class ObjectiveResult:
    main: Tensor
    breakdown: dict


def total_objective(fp: ForwardPass, weights: LossWeights,
                    adversarial_sign: str = "standard",
                    disabled: frozenset = frozenset()) -> ObjectiveResult:
    """Main objective plus the per-term breakdown.

    main = sum over branches of [L_c - lambda_adv L_adv
           + lambda_uvt (L_e + L_uvt) + lambda_lvt L_lvt]
           + lambda_d L_d - lambda_div L_div

    (the adversarial sign flips under the literal convention; the
    discriminators' side of the game is `discriminator_objective`).
    Every term reads `fp` and records on its tape. Terms whose weight is
    zero, or that are named in `disabled`, are skipped entirely and
    reported as 0.0 in the breakdown.
    """
    table = objective_terms(weights, adversarial_sign, disabled)
    breakdown = {}
    main = None
    for name, weight, term in table:
        if weight == 0.0:
            breakdown[name] = 0.0
            continue
        value = term(fp)
        breakdown[name] = value.item()
        main = value * weight if main is None else add(main, value * weight)
    breakdown["main"] = main.item()
    return ObjectiveResult(main=main, breakdown=breakdown)

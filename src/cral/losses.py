"""Objective terms over a multi-domain mini-batch.

Every term is a pure function of (model snapshot, batch, rng) returning
a scalar on the caller's tape. Expectations are realized as per-domain
mini-batch means and then summed over domains. Probabilities are
clamped at 1e-12 before any log.

Adversarial sign conventions. The discriminator objective and the
adversarial contribution to the main objective are opposite in sign by
construction:

  standard  disc phase descends the discriminator NLL (D learns to
            classify domains); the main phase carries -lambda_adv * NLL
            so extractors make domains indistinguishable.
  literal   the published min/max orientation read at face value, which
            swaps both signs (D ascends its NLL). Kept switchable for
            comparison; standard is the default.

Virtual adversarial terms draw one set of dropout masks per domain and
reuse it for the clean pass, the power-iteration probe, and the
perturbed pass, so the perturbation competes only against the input
direction and not against mask resampling. The perturbation itself is
a constant in the outer gradient.

RNG discipline: terms consume the caller's generator in a fixed
documented order (per branch: classification, adversarial, entropy,
unlabeled VAT, labeled VAT; then disagreement, diversity), so a run is
reproducible from its seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ContractError, DimensionError, SpecError
from .model import CralModel, class_probs, domain_probs, shared_features
from .tensor import (
    LOG_FLOOR,
    Tape,
    Tensor,
    add,
    backward as tape_backward,
    clamp_max,
    clamp_min,
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


def _require(x: np.ndarray, what: str) -> np.ndarray:
    if x.shape[0] == 0:
        raise ContractError(f"empty {what}")
    return x


def _nll(probs: Tensor, one_hot: np.ndarray) -> Tensor:
    """Mean over rows of -sum(one_hot * log probs)."""
    picked = tsum(mul(log(clamp_min(probs, LOG_FLOOR)), Tensor(one_hot)), axis=1)
    return -mean(picked)


def classification_loss(tape: Tape, model: CralModel, b: int,
                        batch: MultiDomainBatch, mode: str = "eval",
                        rng: Optional[np.random.Generator] = None) -> Tensor:
    """Sum over domains of mean cross-entropy on the labeled batch."""
    _check_match(model, batch)
    total = None
    for i in range(batch.num_domains):
        x = _require(batch.labeled_x[i], f"labeled batch for domain {i}")
        probs, _ = class_probs(tape, model, b, i, Tensor(x), mode=mode, rng=rng)
        term = _nll(probs, batch.labeled_y[i])
        total = term if total is None else add(total, term)
    return total


def adversarial_loss(tape: Tape, model: CralModel, b: int,
                     batch: MultiDomainBatch, mode: str = "eval",
                     rng: Optional[np.random.Generator] = None) -> Tensor:
    """Discriminator NLL over each domain's labeled+unlabeled samples."""
    _check_match(model, batch)
    total = None
    m = batch.num_domains
    for i in range(m):
        x = np.concatenate([batch.labeled_x[i], batch.unlabeled_x[i]], axis=0)
        _require(x, f"combined batch for domain {i}")
        probs, _ = domain_probs(tape, model, b, Tensor(x), mode=mode, rng=rng)
        one_hot = np.zeros((x.shape[0], m))
        one_hot[:, i] = 1.0
        term = _nll(probs, one_hot)
        total = term if total is None else add(total, term)
    return total


def disagreement_loss(tape: Tape, model: CralModel, batch: MultiDomainBatch,
                      mode: str = "eval",
                      rng: Optional[np.random.Generator] = None) -> Tensor:
    """L1 distance between the branches' predictions on unlabeled data."""
    _check_match(model, batch)
    total = None
    for i in range(batch.num_domains):
        x = _require(batch.unlabeled_x[i], f"unlabeled batch for domain {i}")
        p1, _ = class_probs(tape, model, 1, i, Tensor(x), mode=mode, rng=rng)
        p2, _ = class_probs(tape, model, 2, i, Tensor(x), mode=mode, rng=rng)
        term = mean(l1_norm(sub(p1, p2), axis=1))
        total = term if total is None else add(total, term)
    return total


def diversity_loss(tape: Tape, model: CralModel, batch: MultiDomainBatch,
                   gamma: float, mode: str = "eval",
                   rng: Optional[np.random.Generator] = None) -> Tensor:
    """Clamped squared distance between shared-feature centroids.

    Per domain, the labeled-batch mean of F_s1(x) - F_s2(x); those gaps
    are averaged over domains before the squared norm. Above gamma the
    clamp makes the gradient exactly zero.
    """
    _check_match(model, batch)
    if gamma <= 0.0:
        raise SpecError("gamma must be positive")
    gap_sum = None
    for i in range(batch.num_domains):
        x = _require(batch.labeled_x[i], f"labeled batch for domain {i}")
        f1, _ = shared_features(tape, model, 1, Tensor(x), mode=mode, rng=rng)
        f2, _ = shared_features(tape, model, 2, Tensor(x), mode=mode, rng=rng)
        gap = mean(sub(f1, f2), axis=0)
        gap_sum = gap if gap_sum is None else add(gap_sum, gap)
    centroid_gap = gap_sum * (1.0 / batch.num_domains)
    return clamp_max(l2_norm_sq(centroid_gap), gamma)


def entropy_loss(tape: Tape, model: CralModel, b: int, batch: MultiDomainBatch,
                 mode: str = "eval",
                 rng: Optional[np.random.Generator] = None) -> Tensor:
    """Prediction entropy on unlabeled data (0 log 0 taken as 0)."""
    _check_match(model, batch)
    total = None
    for i in range(batch.num_domains):
        x = _require(batch.unlabeled_x[i], f"unlabeled batch for domain {i}")
        p, _ = class_probs(tape, model, b, i, Tensor(x), mode=mode, rng=rng)
        plogp = tsum(mul(p, log(clamp_min(p, LOG_FLOOR))), axis=1)
        term = -mean(plogp)
        total = term if total is None else add(total, term)
    return total


def kl_divergence(p: Tensor, q: Tensor) -> Tensor:
    """Row KL(p || q) averaged over rows; rows must be distributions."""
    if p.shape != q.shape or p.data.ndim != 2:
        raise DimensionError(f"kl needs matching 2-d shapes, got {p.shape}, {q.shape}")
    for name, t in (("p", p), ("q", q)):
        if np.min(t.data) < -1e-6 or np.max(np.abs(t.data.sum(axis=1) - 1.0)) > 1e-6:
            raise ContractError(f"{name} rows are not probability vectors")
    log_ratio = sub(log(clamp_min(p, LOG_FLOOR)), log(clamp_min(q, LOG_FLOOR)))
    return mean(tsum(mul(p, log_ratio), axis=1))


def vat_perturbation(model: CralModel, b: int, i: Optional[int], x: np.ndarray,
                     epsilon: float, xi: float, rng: np.random.Generator,
                     mode: str = "eval", masks: Optional[dict] = None,
                     msuda: bool = False) -> np.ndarray:
    """One-step power iteration for the most KL-sensitive input direction.

    Returns r with per-sample L2 norm epsilon (zero rows where the probe
    gradient vanishes). Runs on its own tape; the caller treats r as data.
    """
    if epsilon < 0.0:
        raise SpecError("epsilon must be non-negative")
    x = np.asarray(x, dtype=np.float64)
    if epsilon == 0.0:
        return np.zeros_like(x)
    d = rng.standard_normal(x.shape)
    d /= np.maximum(np.linalg.norm(d, axis=1, keepdims=True), 1e-30)

    tape = Tape()
    clean, masks = class_probs(tape, model, b, i, Tensor(x), mode=mode,
                               rng=rng, msuda=msuda, masks=masks)
    probe = tape.leaf(x + xi * d)
    perturbed, _ = class_probs(tape, model, b, i, probe, mode=mode,
                               msuda=msuda, masks=masks)
    grads = tape_backward(kl_divergence(stop_gradient(clean), perturbed))
    g = grads.wrt(probe)
    norms = np.linalg.norm(g, axis=1, keepdims=True)
    scale = np.where(norms < 1e-20, 0.0, epsilon / np.maximum(norms, 1e-30))
    return g * scale


def vat_loss(tape: Tape, model: CralModel, b: int, batch: MultiDomainBatch,
             labeled: bool, weights: LossWeights, mode: str = "eval",
             rng: Optional[np.random.Generator] = None) -> Tensor:
    """KL between clean and adversarially perturbed predictions.

    The clean prediction is a constant reference (stop-gradient); the
    perturbation direction is recomputed per domain with the same
    dropout masks as the outer passes.
    """
    _check_match(model, batch)
    total = None
    split = "labeled" if labeled else "unlabeled"
    for i in range(batch.num_domains):
        x = batch.labeled_x[i] if labeled else batch.unlabeled_x[i]
        _require(x, f"{split} batch for domain {i}")
        clean, masks = class_probs(tape, model, b, i, Tensor(x), mode=mode, rng=rng)
        if weights.vat_epsilon == 0.0:
            term = Tensor(0.0)
        else:
            r = vat_perturbation(model, b, i, x, epsilon=weights.vat_epsilon,
                                 xi=weights.vat_xi, rng=rng, mode=mode, masks=masks)
            perturbed, _ = class_probs(tape, model, b, i, Tensor(x + r),
                                       mode=mode, masks=masks)
            term = kl_divergence(stop_gradient(clean), perturbed)
        total = term if total is None else add(total, term)
    return total


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


def discriminator_objective(tape: Tape, model: CralModel, batch: MultiDomainBatch,
                            weights: LossWeights, mode: str = "eval",
                            rng: Optional[np.random.Generator] = None,
                            adversarial_sign: str = "standard") -> tuple:
    """Phase-1 objective: the weighted adversarial losses of both branches.

    Returns (objective tensor, breakdown) where the breakdown holds the
    raw per-branch NLL values. Descending the returned objective trains
    the discriminators under the chosen sign convention.
    """
    sign = adversarial_sign_factor(adversarial_sign)
    l1 = adversarial_loss(tape, model, 1, batch, mode=mode, rng=rng)
    l2 = adversarial_loss(tape, model, 2, batch, mode=mode, rng=rng)
    breakdown = {"l_adv_b1": l1.item(), "l_adv_b2": l2.item()}
    return add(l1, l2) * (sign * weights.lambda_adv), breakdown


@dataclass
class ObjectiveResult:
    main: Tensor
    breakdown: dict


def total_objective(tape: Tape, model: CralModel, batch: MultiDomainBatch,
                    weights: LossWeights, mode: str = "eval",
                    rng: Optional[np.random.Generator] = None,
                    adversarial_sign: str = "standard",
                    disabled: frozenset = frozenset()) -> ObjectiveResult:
    """Main objective plus the per-term breakdown.

    main = sum over branches of [L_c - lambda_adv L_adv
           + lambda_uvt (L_e + L_uvt) + lambda_lvt L_lvt]
           + lambda_d L_d - lambda_div L_div

    (the adversarial sign flips under the literal convention; the
    discriminators' side of the game is `discriminator_objective`).
    Terms whose weight is zero, or that are named in `disabled`, are
    skipped entirely and reported as 0.0 in the breakdown. Note the
    published grouping ties entropy minimization to lambda_uvt, so
    disabling l_uvt also drops the entropy term.
    """
    sign = adversarial_sign_factor(adversarial_sign)
    unknown = set(disabled) - set(ABLATABLE)
    if unknown:
        raise ContractError(f"unknown ablation switches: {sorted(unknown)}")
    _check_match(model, batch)

    lam_d = 0.0 if "l_d" in disabled else weights.lambda_d
    lam_div = 0.0 if "l_div" in disabled else weights.lambda_div
    lam_uvt = 0.0 if "l_uvt" in disabled else weights.lambda_uvt
    lam_lvt = 0.0 if "l_lvt" in disabled else weights.lambda_lvt
    lam_adv = weights.lambda_adv

    breakdown = {}
    main = None

    def accumulate(total, term):
        return term if total is None else add(total, term)

    for b in (1, 2):
        l_c = classification_loss(tape, model, b, batch, mode=mode, rng=rng)
        breakdown[f"l_c_b{b}"] = l_c.item()
        main = accumulate(main, l_c)

        if lam_adv > 0.0:
            l_adv = adversarial_loss(tape, model, b, batch, mode=mode, rng=rng)
            breakdown[f"l_adv_b{b}"] = l_adv.item()
            main = accumulate(main, l_adv * (-sign * lam_adv))
        else:
            breakdown[f"l_adv_b{b}"] = 0.0

        if lam_uvt > 0.0:
            l_e = entropy_loss(tape, model, b, batch, mode=mode, rng=rng)
            l_uvt = vat_loss(tape, model, b, batch, labeled=False,
                             weights=weights, mode=mode, rng=rng)
            breakdown[f"l_e_b{b}"] = l_e.item()
            breakdown[f"l_uvt_b{b}"] = l_uvt.item()
            main = accumulate(main, add(l_e, l_uvt) * lam_uvt)
        else:
            breakdown[f"l_e_b{b}"] = 0.0
            breakdown[f"l_uvt_b{b}"] = 0.0

        if lam_lvt > 0.0:
            l_lvt = vat_loss(tape, model, b, batch, labeled=True,
                             weights=weights, mode=mode, rng=rng)
            breakdown[f"l_lvt_b{b}"] = l_lvt.item()
            main = accumulate(main, l_lvt * lam_lvt)
        else:
            breakdown[f"l_lvt_b{b}"] = 0.0

    if lam_d > 0.0:
        l_d = disagreement_loss(tape, model, batch, mode=mode, rng=rng)
        breakdown["l_d"] = l_d.item()
        main = accumulate(main, l_d * lam_d)
    else:
        breakdown["l_d"] = 0.0

    if lam_div > 0.0:
        l_div = diversity_loss(tape, model, batch, weights.gamma, mode=mode, rng=rng)
        breakdown["l_div"] = l_div.item()
        main = accumulate(main, -(l_div * lam_div))
    else:
        breakdown["l_div"] = 0.0

    breakdown["main"] = main.item()
    return ObjectiveResult(main=main, breakdown=breakdown)

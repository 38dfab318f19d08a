"""Finite-difference verification of every objective term's gradient.

Runs on a small fixed model (input 6, shared 4, specific 3, two domains,
two samples per split) in eval mode, comparing tape gradients against
central differences for each parameter the term binds on its tape.

Scope notes, so the checks test what the training loop actually uses:

* Virtual adversarial terms are checked with the perturbation r and the
  reference distribution frozen at their current values, because that is
  exactly how they enter the outer gradient (both are constants there).
  Differencing through the power iteration would measure a different
  function.
* Known non-smooth points (relu and |.| kinks, the diversity clamp
  boundary) have subgradients; random inputs hit them with probability
  zero, but entries whose finite-difference step straddles a kink can
  disagree, which is why the pass bar is a fraction of parameters rather
  than all of them.
"""

from __future__ import annotations

import numpy as np

from .data import one_hot
from .losses import (
    ForwardPass,
    LossWeights,
    MultiDomainBatch,
    kl_divergence,
    objective_terms,
    vat_inputs,
)
from .model import CralModel, ModelConfig, class_probs, init_model
from .seeding import derive_rng
from .tensor import Tape, Tensor, backward, index

TOY_CONFIG = ModelConfig(num_domains=2, input_dim=6, shared_dim=4,
                         specific_dim=3, extractor_hidden=(), dropout_rate=0.4)
DEFAULT_THRESHOLD = 1e-4
DEFAULT_FRACTION = 0.99


def toy_setup(seed: int = 0, batch_size: int = 2):
    model = init_model(TOY_CONFIG, seed)
    rng = derive_rng(seed, "gradcheck/batch")
    labeled_x, labeled_y, unlabeled_x = [], [], []
    for _ in range(TOY_CONFIG.num_domains):
        labeled_x.append(rng.standard_normal((batch_size, TOY_CONFIG.input_dim)))
        labeled_y.append(one_hot(rng.integers(0, 2, batch_size)))
        unlabeled_x.append(rng.standard_normal((batch_size, TOY_CONFIG.input_dim)))
    return model, MultiDomainBatch(labeled_x, labeled_y, unlabeled_x)


def _frozen_vat_builder(model: CralModel, batch: MultiDomainBatch, labeled: bool,
                        seed: int):
    """Framework for the outer VAT objective with (r, reference) pinned.

    Like the trainer's VAT term, one perturbed pass covers every domain
    and both branches, and the builder returns both branches' values.
    """
    split = "labeled" if labeled else "unlabeled"
    fp = ForwardPass(Tape(), model, batch, rng=derive_rng(seed, f"gradcheck/vat/{labeled}"))
    perturbed_x = vat_inputs(fp, LossWeights(), labeled)
    reference, row_weights = fp.probs().data, batch.row_weights(split)

    def build(tape: Tape) -> Tensor:
        q = class_probs(tape, model, fp.row_map, Tensor(perturbed_x))
        return kl_divergence(Tensor(reference), q, row_weights)

    return build


def build_terms(model: CralModel, batch: MultiDomainBatch, seed: int = 0) -> list:
    """(name, loss builder, b), in objective order.

    Each builder runs the trainer's term on a fresh `ForwardPass` of the
    batch, which runs only the networks the term reads, except the VAT
    terms, whose builders pin r and the reference. A per-branch term's
    builder reads branch b's value of the stacked term; b is None for l_d
    and l_div, which read both branches.
    """
    frozen_vat = {kind: _frozen_vat_builder(model, batch, kind == "lvt", seed)
                  for kind in ("uvt", "lvt")}

    def builder(name, term, b):
        stacked = (frozen_vat.get(name.split("_")[1])  # "l_uvt_b1" -> "uvt"
                   or (lambda tape: term(ForwardPass(tape, model, batch))))
        return stacked if b is None else lambda tape: index(stacked(tape), b - 1)

    return [(name, builder(name, term, b), b)
            for name, _, term, b in objective_terms(LossWeights())]


def _entry_rel_errors(analytic: np.ndarray, numeric: np.ndarray,
                      floor: float = 1e-6) -> np.ndarray:
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), floor)
    return (np.abs(analytic - numeric) / denom).ravel()


def check_term(builder, b=None, h: float = 1e-5) -> dict:
    """Compare tape gradients to central differences, entry by entry.

    Differences every parameter the term binds on its own tape, in bind
    order, so the term's tape says which parameters it touches; of a
    stacked parameter, only branch b's array when b is given.
    """
    tape = Tape()
    grads = backward(builder(tape))
    errors = []
    for p in tape.bound():
        k = b - 1 if b is not None and p.stacked else ...
        value, analytic = p.value[k], grads.wrt_key(p, p.value)[k]
        numeric = np.zeros_like(value)
        it = np.nditer(value, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            saved = value[idx]
            value[idx] = saved + h
            plus = builder(Tape()).item()
            value[idx] = saved - h
            minus = builder(Tape()).item()
            value[idx] = saved
            numeric[idx] = (plus - minus) / (2.0 * h)
        errors.append(_entry_rel_errors(analytic, numeric))
    pooled = np.concatenate(errors)
    return {
        "checked": int(pooled.size),
        "max_rel_err": float(pooled.max()),
        "fraction_ok": float(np.mean(pooled < DEFAULT_THRESHOLD)),
    }


def run_suite(seed: int = 0, h: float = 1e-5) -> dict:
    """Per-term finite-difference report on the fixed toy problem."""
    model, batch = toy_setup(seed)
    report = {}
    for name, builder, b in build_terms(model, batch, seed):
        report[name] = check_term(builder, b, h=h)
    return report


def suite_passes(report: dict, fraction: float = DEFAULT_FRACTION) -> bool:
    return all(entry["fraction_ok"] >= fraction for entry in report.values())

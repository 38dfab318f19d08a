"""The benchmark's tracing hooks still find every name they patch.

`perfbench/workloads.py` wraps cral functions where their callers look
them up, so a refactor that drops or renames a hooked name, or moves an
argument the counters read, would otherwise only show in a traced
benchmark run (`perfbench/run.py --trace 1`).
"""

import sys
from pathlib import Path

import numpy as np

from cral import data, model as cmodel, trainer
from cral.data import SyntheticSpec
from cral.losses import LossWeights
from cral.model import ModelConfig
from cral.nn import ADAM_CHUNK, Adam

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
if str(PERFBENCH) not in sys.path:
    sys.path.insert(0, str(PERFBENCH))

import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

MODEL = ModelConfig(num_domains=2, input_dim=6, shared_dim=4, specific_dim=3,
                    extractor_hidden=(5,), dropout_rate=0.4)


def test_step_and_evaluation_run_under_perfbench_hooks():
    tracer = Tracer()
    originals = {}
    try:
        workloads.install_setup_spans(tracer)
        sets = data.generate_synthetic(SyntheticSpec(
            num_domains=2, feature_dim=6, labeled_per_domain=8,
            unlabeled_per_domain=8, class_separation=2.0, domain_shift=1.0, seed=1))
        model = cmodel.init_model(MODEL, 1)
        config = trainer.TrainConfig(batch_size=4, weights=LossWeights(lambda_d=0.5))
        sampler = trainer.BatchSampler(sets, 4, np.random.default_rng(2))
        opts = (Adam(model.discriminator_params()), Adam(model.main_params()))

        workloads.install_step_spans(tracer)
        for owner, attr, original in tracer._patches:
            originals.setdefault((owner, attr), original)
        terms = trainer.train_step(model, sampler.next_batch(), config, *opts,
                                   np.random.default_rng(3))
        trainer.evaluate_mdtc(model, sets)
    finally:
        tracer.restore()

    assert np.isfinite(list(terms.values())).all()
    assert originals
    for (owner, attr), original in originals.items():
        assert getattr(owner, attr) is original, f"{attr} left patched"

    by_phase = {p: tracer.per_step((p,)) for p in (1, 2, "eval")}
    step_counters = {
        # The discriminator phase is the first to read the pass's shared features.
        1: ("tensor.tape_nodes.phase1", "model.shared_rows"),
        2: ("tensor.tape_nodes.phase2", "model.shared_rows", "model.class_probs_calls",
            "nn.mlp_forward_calls"),
        "eval": ("model.class_probs_calls", "nn.mlp_forward_calls"),
    }
    for phase, names in step_counters.items():
        for name in names:
            assert by_phase[phase][name].get(1, 0.0) > 0.0, (phase, name)

    spans = {s.name for s in tracer.spans}
    assert {"data.load", "nn.init", "trainer.sample", "trainer.step",
            "trainer.phase1.forward", "trainer.phase2.forward",
            "trainer.phase1.backward", "trainer.phase2.adam",
            *workloads.LOSS_TERMS.values(), "losses.vat_unlabeled",
            "losses.vat_labeled", "losses.vat_probe", "trainer.eval",
            "model.predict"} <= spans


def test_toy_train_step_tape_node_counts(monkeypatch):
    # perfbench reports these as tensor.tape_nodes.phase1 and .phase2.
    fit, _, model, opts = workloads.toy_build(1)
    config = trainer.TrainConfig(batch_size=workloads.BATCH, weights=workloads.TOY_WEIGHTS)
    sampler = trainer.BatchSampler(fit, workloads.BATCH, np.random.default_rng(2))
    nodes, backward = [], trainer.backward
    monkeypatch.setattr(trainer, "backward",
                        lambda loss: nodes.append(len(loss.tape)) or backward(loss))
    trainer.train_step(model, sampler.next_batch(), config, *opts, np.random.default_rng(3))
    assert len(nodes) == 2
    # Both branches run as one stacked network and the main objective is
    # one node: 13 and 72 nodes, down from 24 and 147 when each branch ran
    # on its own.
    assert nodes[0] <= 13, f"phase 1 records {nodes[0]} tape nodes"
    assert nodes[1] <= 72, f"phase 2 records {nodes[1]} tape nodes"


def test_toy_train_main_group_runs_one_update_sequence_per_block():
    # perfbench's trainer.phase2.adam_ms times this update.
    fit, _, model, (opt_disc, opt_main) = workloads.toy_build(1)
    config = trainer.TrainConfig(batch_size=workloads.BATCH, weights=workloads.TOY_WEIGHTS)
    sampler = trainer.BatchSampler(fit, workloads.BATCH, np.random.default_rng(2))
    blocks, update = [], Adam._update
    opt_main._update = lambda g, *rest: blocks.append(g.size) or update(g, *rest)
    trainer.train_step(model, sampler.next_batch(), config, opt_disc, opt_main,
                       np.random.default_rng(3))
    sizes = [p.value.size for p in model.main_params()]
    # 14 stacked parameters hold the two branches' 28 arrays, 5,236 elements.
    assert len(sizes) == 14 and sum(sizes) == 5236 and max(sizes) <= ADAM_CHUNK
    assert blocks == [sum(sizes)]  # one sequence for all 14 parameters

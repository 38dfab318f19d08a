"""Command-line entry point: ``cral <command> --config <path> [--set k=v] --out <dir>``.

Commands
--------
train       one multi-domain run; splits labeled data into train/dev/test
kfold       rotated cross-validation over stratified labeled folds
msuda       train on all domains except ``target_domain``, evaluate the
            held-out domain with the private pathway zeroed
ablate      five runs: full objective, then each co-regularization weight
            (lambda_d, lambda_div, lambda_uvt, lambda_lvt) set to 0 in turn
sweep       one run per ``sweep_grid`` value of ``sweep_parameter``
gen-data    write the configured synthetic domains as sparse text files
grad-check  finite-difference audit of every objective term's gradient

Every invocation writes ``config.resolved`` (re-parseable resolved config),
``metrics.jsonl`` (line-delimited records), and ``summary.tsv`` (tab table
with a header row) into ``--out``; commands that train a single model add
``model.ckpt``, and multi-run commands store per-run streams/checkpoints
in disjoint subdirectories.  Exit status is 0 iff no error was raised.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional

import numpy as np

from .config import (
    RunConfig,
    load_datasets,
    model_config,
    parse_config,
    resolved_text,
    synthetic_spec,
)
from .data import generate_synthetic, merge_labeled, save_sparse_dataset, split_labeled
from .errors import CralError
from .gradcheck import DEFAULT_THRESHOLD, run_suite, suite_passes
from .model import init_model
from .nn import replacing
from .seeding import derive_seed
from .trainer import (
    evaluate_msuda,
    run_ablation,
    run_kfold,
    run_sweep,
    run_training,
    write_run,
)

def _write_summary(out: Path, header: list, rows: list) -> None:
    lines = ["\t".join(str(cell) for cell in row) for row in [header] + rows]
    with replacing(out / "summary.tsv", "w") as fh:
        fh.write("\n".join(lines) + "\n")
    for line in lines:
        print(line)


def _write_records(out: Path, rows: list) -> None:
    lines = [json.dumps(row, sort_keys=True) for row in rows]
    with replacing(out / "metrics.jsonl", "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _split_three(datasets: list, config: RunConfig) -> tuple:
    """Per-domain train/dev/test; the unlabeled pool stays with train."""
    dev, test = config.dev_fraction, config.test_fraction
    slots = [("train", 1.0 - dev - test)]
    if dev > 0.0:
        slots.append(("dev", dev))
    if test > 0.0:
        slots.append(("test", test))
    if len(slots) == 1:
        return list(datasets), None, None
    train_sets, dev_sets, test_sets = [], [], []
    for ds in datasets:
        parts = split_labeled(ds, fractions=[f for _, f in slots],
                              seed=config.train.seed)
        by_slot = {name: part for (name, _), part in zip(slots, parts)}
        train_sets.append(merge_labeled([by_slot["train"]], ds.name,
                                        ds.unlabeled_x))
        dev_sets.append(by_slot.get("dev"))
        test_sets.append(by_slot.get("test"))
    return (train_sets,
            dev_sets if dev > 0.0 else None,
            test_sets if test > 0.0 else None)


def _accuracy_summary(out: Path, datasets: list, result) -> None:
    rows = []
    if result.test_accuracy is not None:
        rows = [[ds.name, f"{acc:.4f}"]
                for ds, acc in zip(datasets, result.test_accuracy)]
        rows.append(["AVG", f"{result.test_average:.4f}"])
    else:
        rows.append(["AVG", "n/a (test_fraction = 0)"])
    _write_summary(out, ["domain", "test_accuracy"], rows)


def cmd_train(config: RunConfig, out: Path) -> int:
    datasets = load_datasets(config)
    mc = model_config(config, len(datasets), datasets[0].feature_dim)
    train_sets, dev_sets, test_sets = _split_three(datasets, config)
    model = init_model(mc, derive_seed(config.train.seed, "cli/train/init"))
    result = run_training(model, train_sets, config.train,
                          dev_sets=dev_sets, test_sets=test_sets)
    write_run(out, result, model)
    _accuracy_summary(out, datasets, result)
    return 0


def cmd_kfold(config: RunConfig, out: Path) -> int:
    datasets = load_datasets(config)
    mc = model_config(config, len(datasets), datasets[0].feature_dim)
    result = run_kfold(datasets, mc, config.train,
                       k=config.folds, out_dir=out)
    _write_records(out, result["rotations"])
    rows = [[r["rotation"], f"{r['test_average']:.4f}", r["best_epoch"]]
            for r in result["rotations"]]
    rows.append(["MEAN", f"{result['mean_test_average']:.4f}", ""])
    _write_summary(out, ["rotation", "test_average", "best_epoch"], rows)
    return 0


def cmd_msuda(config: RunConfig, out: Path) -> int:
    datasets = load_datasets(config)
    target = datasets[config.target_domain]
    sources = [ds for i, ds in enumerate(datasets) if i != config.target_domain]
    mc = model_config(config, len(sources), datasets[0].feature_dim)
    # dev split guides snapshot selection; sources keep their test share out
    train_sets, dev_sets, _ = _split_three(sources, config)
    model = init_model(mc, derive_seed(config.train.seed, "cli/msuda/init"))
    result = run_training(model, train_sets, config.train,
                          dev_sets=dev_sets)
    accuracy = evaluate_msuda(model, target)
    counts = np.bincount(target.labeled_y, minlength=2)
    baseline = float(counts.max() / counts.sum())
    write_run(out, result, model)
    _write_summary(
        out,
        ["target", "accuracy", "majority_baseline", "margin"],
        [[target.name, f"{accuracy:.4f}", f"{baseline:.4f}",
          f"{accuracy - baseline:+.4f}"]],
    )
    return 0


def cmd_ablate(config: RunConfig, out: Path) -> int:
    datasets = load_datasets(config)
    mc = model_config(config, len(datasets), datasets[0].feature_dim)
    train_sets, dev_sets, test_sets = _split_three(datasets, config)
    rows = run_ablation(train_sets, test_sets, mc, config.train,
                        dev_sets=dev_sets, out_dir=out)
    _write_records(out, rows)
    _write_summary(out, ["variant", "test_average"],
                   [[r["variant"], f"{r['test_average']:.4f}"] for r in rows])
    return 0


def cmd_sweep(config: RunConfig, out: Path) -> int:
    datasets = load_datasets(config)
    mc = model_config(config, len(datasets), datasets[0].feature_dim)
    train_sets, dev_sets, test_sets = _split_three(datasets, config)
    rows = run_sweep(train_sets, test_sets, mc, config.train,
                     config.sweep_parameter, list(config.sweep_grid),
                     dev_sets=dev_sets, out_dir=out)
    _write_records(out, rows)
    _write_summary(
        out, [config.sweep_parameter, "test_average"],
        [[f"{r[config.sweep_parameter]!r}", f"{r['test_average']:.4f}"]
         for r in rows])
    return 0


def cmd_gen_data(config: RunConfig, out: Path) -> int:
    datasets = generate_synthetic(synthetic_spec(config))
    rows = []
    for i, ds in enumerate(datasets):
        path = out / f"domain{i}.txt"
        save_sparse_dataset(path, ds)
        rows.append({"file": path.name, "labeled": ds.num_labeled,
                     "unlabeled": ds.num_unlabeled, "dim": ds.feature_dim})
    _write_records(out, rows)
    _write_summary(out, ["file", "labeled", "unlabeled", "dim"],
                   [[r["file"], r["labeled"], r["unlabeled"], r["dim"]]
                    for r in rows])
    return 0


def cmd_grad_check(config: RunConfig, out: Path) -> int:
    report = run_suite(seed=config.train.seed)
    rows = [{"term": name, **entry} for name, entry in report.items()]
    _write_records(out, rows)
    _write_summary(
        out, ["term", "max_rel_err", "fraction_ok", "checked"],
        [[r["term"], f"{r['max_rel_err']:.3e}", f"{r['fraction_ok']:.4f}",
          r["checked"]] for r in rows])
    if not suite_passes(report):
        print(f"error: gradient check exceeded rel. error {DEFAULT_THRESHOLD:g} "
              "on more than 1% of parameters", file=sys.stderr)
        return 1
    return 0


DISPATCH = {
    "train": cmd_train,
    "kfold": cmd_kfold,
    "msuda": cmd_msuda,
    "ablate": cmd_ablate,
    "sweep": cmd_sweep,
    "gen-data": cmd_gen_data,
    "grad-check": cmd_grad_check,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cral",
        description="Co-regularized adversarial multi-domain text classification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in DISPATCH:
        p = sub.add_parser(name, help=f"run the {name} workflow")
        p.add_argument("--config", default=None, help="flat key=value file")
        p.add_argument("--set", dest="overrides", action="append", default=[],
                       metavar="KEY=VALUE", help="override a config key")
        p.add_argument("--out", required=True, help="run directory")
    return parser


def main(argv: Optional[list] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = parse_config(args.config, tuple(args.overrides),
                              command=args.command, out_dir=args.out)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        with replacing(out / "config.resolved", "w") as fh:
            fh.write(resolved_text(config))
        return DISPATCH[args.command](config, out)
    except CralError as error:
        print(f"error: {type(error).__module__}.{type(error).__name__}: {error}",
              file=sys.stderr)
        return 1
    except OSError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

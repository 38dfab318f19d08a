"""Run configuration: a flat key=value text file plus command-line overrides.

Schema
------
Each line is ``key = value`` (whitespace optional); blank lines and lines
starting with ``#`` are skipped.  Keys are checked against the registry
below and unknown keys are fatal, so a typo in a weight name cannot
silently fall back to a default.  ``--set key=value`` flags are applied
after the file and win on conflict.

The trainer's, the objective's and the model's keys are the fields of
``TrainConfig``, ``LossWeights`` and ``ModelConfig``: their defaults are
declared there only, and each key's caster follows the type of its
default.

Seed labels
-----------
Every random choice in a run derives from the single ``seed`` key: each
consumer fans out through ``derive_rng`` or ``derive_seed`` with its own
label, so sub-runs are reproducible independently. A resume has to
restore each of these generators. The labels, ``{}`` fields filled in at
run time (``tests/test_seed_labels.py`` checks the list against the code)::

    cli/train/init            the model of ``cral train``
    cli/msuda/init            the model of ``cral msuda``
    kfold/rot{r}              the model of kfold rotation r
    kfold/run{r}              the seed of kfold rotation r's training run
    ablation/init             the model of every ablation variant
    sweep/init                the model of every sweep value
    train/sampler             a training run's batch sampler
    train/dropout             a training run's dropout masks and VAT probes
    model/branch{b}/{name}    branch b's initial weights of network name
    split/{name}              the stratified split or folds of domain name
    data/class-axis           the synthetic class direction
    data/domain{i}            synthetic domain i
    gradcheck/batch           the grad-check batch
    gradcheck/vat/{labeled}   the grad-check VAT probes of one labeled flag

Data comes either from ``data_paths`` (comma-separated sparse files, one
domain each, requiring ``feature_dim``) or, when ``data_paths`` is empty,
from the ``synthetic_*`` keys.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import MISSING, dataclass, field, fields, replace
from pathlib import Path
from typing import Optional

from .data import SyntheticSpec, generate_synthetic, load_sparse_dataset, non_utf8_line
from .errors import ConfigError
from .losses import LossWeights
from .model import ModelConfig
from .trainer import MIN_FOLDS, TrainConfig, sweep_values


def _model_keys() -> dict:
    """ModelConfig's settable keys at their defaults. The data fixes
    num_domains and input_dim, and the binary labels fix num_classes."""
    return {f.name: f.default for f in fields(ModelConfig)
            if f.default is not MISSING and f.name != "num_classes"}


@dataclass
class RunConfig:
    """One run's keys. The trainer's and the model's keys keep the defaults
    their library dataclasses declare; this class declares only the keys
    the command-line workflows read themselves."""

    command: str = "train"
    out_dir: str = ""
    train: TrainConfig = field(default_factory=TrainConfig)
    # ModelConfig keys; a ModelConfig needs the data's shape too
    model: dict = field(default_factory=_model_keys)
    # data source: files ...
    data_paths: tuple = ()
    feature_dim: int = 0
    # ... or synthetic generation
    synthetic_domains: int = 4
    synthetic_dim: int = 20
    synthetic_labeled: int = 200
    synthetic_unlabeled: int = 400
    synthetic_separation: float = 3.0
    synthetic_shift: float = 3.0
    synthetic_noise: float = 0.1
    # protocol knobs
    dev_fraction: float = 0.2
    test_fraction: float = 0.2
    folds: int = 5
    target_domain: int = 0
    sweep_parameter: str = "lambda_d"
    sweep_grid: tuple = (1e-6, 1e-5, 1e-4, 1e-3, 1e-2)


def _fields_of(instance, skip: tuple = ()) -> dict:
    return {f.name: getattr(instance, f.name) for f in fields(instance)
            if f.name not in skip}


def _sections(config: RunConfig) -> dict:
    """Every config key with its value, grouped by the object holding it."""
    return {
        "weights": _fields_of(config.train.weights),
        "train": _fields_of(config.train, skip=("weights",)),
        "model": dict(config.model),
        "run": _fields_of(config, skip=("command", "out_dir", "train", "model")),
    }


def _int(key: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"config key '{key}': expected an integer, got {raw!r}")


def _float(key: str, raw: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"config key '{key}': expected a number, got {raw!r}")


def _split(raw: str) -> list:
    return [piece.strip() for piece in raw.split(",") if piece.strip()]


def _str_list(key: str, raw: str) -> tuple:
    return tuple(_split(raw))


_SCALARS = {int: _int, float: _float, str: lambda key, raw: raw}
_EXPLICIT = {"data_paths": _str_list}


def _inferred(default):
    """An int, float or str caster, or a comma-list caster for a tuple default."""
    if isinstance(default, tuple):
        item = _SCALARS[type(default[0])]
        return lambda key, raw: tuple(item(key, piece) for piece in _split(raw))
    return _SCALARS[type(default)]


# key -> (section, caster)
REGISTRY = {
    key: (section, _EXPLICIT.get(key) or _inferred(default))
    for section, defaults in _sections(RunConfig()).items()
    for key, default in defaults.items()
}


def _apply(values: dict, key: str, raw: str) -> None:
    if key not in REGISTRY:
        raise ConfigError(f"unknown config key '{key}'")
    section, caster = REGISTRY[key]
    values[section][key] = caster(key, raw)


def _read_file(path, values: dict) -> None:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError:
        raise ConfigError(f"{path}:{non_utf8_line(path)}: not UTF-8 text") from None
    for line_number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(
                f"{path}:{line_number}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        _apply(values, key.strip(), value.strip())


def _validate(config: RunConfig) -> None:
    for key in ("dev_fraction", "test_fraction"):
        if not 0.0 <= getattr(config, key) < 1.0:
            raise ConfigError(f"config key '{key}': must lie in [0, 1)")
    if config.dev_fraction + config.test_fraction >= 1.0:
        raise ConfigError(
            "config keys 'dev_fraction' + 'test_fraction' must leave a "
            "positive training share")
    if config.data_paths:
        if config.feature_dim < 1:
            raise ConfigError(
                "config key 'feature_dim' is required with 'data_paths'")
        for path in config.data_paths:
            if not Path(path).is_file():
                raise ConfigError(
                    f"config key 'data_paths': missing required path {path!r}")
        if len(config.data_paths) < 2:
            raise ConfigError("config key 'data_paths': need at least 2 domains, "
                              f"got {len(config.data_paths)}")
    if config.folds < MIN_FOLDS:
        raise ConfigError(f"config key 'folds': must be >= {MIN_FOLDS} to leave a training fold")
    if config.command in ("ablate", "sweep") and config.test_fraction == 0.0:
        raise ConfigError(f"config key 'test_fraction': {config.command} needs it > 0")
    if not config.sweep_grid:
        raise ConfigError("config key 'sweep_grid': needs at least one value")
    sweep_values(config.sweep_parameter, config.sweep_grid)
    for value in config.sweep_grid:  # fail here, not after the first sweep runs
        replace(config.train.weights, **{config.sweep_parameter: value})
    # Any valid (num_domains, input_dim) checks the model keys before data loads.
    model_config(config, 2, 1)
    if not config.data_paths:
        synthetic_spec(config)
    domains = len(config.data_paths) or config.synthetic_domains
    if not 0 <= config.target_domain < domains:
        raise ConfigError(f"config key 'target_domain': index {config.target_domain} "
                          f"outside 0..{domains - 1}")
    if config.command == "msuda" and domains < 3:
        raise ConfigError(f"msuda needs at least two source domains, got {domains - 1}")


def parse_config(path: Optional[str] = None, overrides: tuple = (),
                 command: str = "train", out_dir: str = "") -> RunConfig:
    """File first, then each override; later sources win."""
    values: dict = defaultdict(dict)
    if path is not None:
        _read_file(path, values)
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r}: expected key=value")
        key, _, value = item.partition("=")
        _apply(values, key.strip(), value.strip())
    train = TrainConfig(weights=LossWeights(**values["weights"]),
                        **values["train"])
    config = RunConfig(command=command, out_dir=out_dir, train=train,
                       model={**_model_keys(), **values["model"]},
                       **values["run"])
    _validate(config)
    return config


def resolved_text(config: RunConfig) -> str:
    """Re-parseable echo of every registry key; records what the run used."""
    lines = [f"# command = {config.command}", f"# out = {config.out_dir}"]
    values = {key: value for section in _sections(config).values()
              for key, value in section.items()}
    for key in sorted(REGISTRY):
        value = values[key]
        if isinstance(value, tuple):
            rendered = ",".join(str(v) for v in value)
        else:
            rendered = repr(value) if isinstance(value, float) else str(value)
        lines.append(f"{key} = {rendered}")
    return "\n".join(lines) + "\n"


def model_config(config: RunConfig, num_domains: int, input_dim: int) -> ModelConfig:
    return ModelConfig(num_domains, input_dim, **config.model)


def synthetic_spec(config: RunConfig) -> SyntheticSpec:
    return SyntheticSpec(
        num_domains=config.synthetic_domains,
        feature_dim=config.synthetic_dim,
        labeled_per_domain=config.synthetic_labeled,
        unlabeled_per_domain=config.synthetic_unlabeled,
        class_separation=config.synthetic_separation,
        domain_shift=config.synthetic_shift,
        label_noise=config.synthetic_noise,
        seed=config.train.seed,
    )


def load_datasets(config: RunConfig) -> list:
    """Sparse files when paths are given, otherwise generated domains."""
    if config.data_paths:
        return [
            load_sparse_dataset(path, config.feature_dim, name=Path(path).stem)
            for path in config.data_paths
        ]
    return generate_synthetic(synthetic_spec(config))


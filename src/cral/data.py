"""Datasets: controllable synthetic multi-domain data and sparse files.

The synthetic generator draws, per domain, a random offset of a given
norm (the domain shift) and places two Gaussian class clusters at
+/- separation/2 along a shared class axis, unit covariance, balanced
classes, with optional label-flip noise. Shift 0 makes all domains
identically distributed; separation controls task difficulty.

The on-disk format is sparse text, one sample per line, UTF-8:

    line  := label SP pair (SP pair)*
    label := "0" | "1" | "?"          ("?" marks an unlabeled sample)
    pair  := index ":" value          (index decimal, value float)

Indices are strictly increasing within a line. Lines whose first
non-blank character is "#" are comments; blank lines are ignored.
Values are written with repr() so write -> read round-trips exactly.
A vector with no nonzeros is written as the single pair "0:0.0" to
satisfy the one-pair minimum.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import DataError, ParseError, SpecError
from .nn import replacing
from .seeding import derive_rng

LABEL_TOKENS = {"0": 0, "1": 1}


@dataclass
class DomainDataset:
    name: str
    labeled_x: np.ndarray
    labeled_y: np.ndarray
    unlabeled_x: np.ndarray

    def __post_init__(self):
        self.labeled_x = np.asarray(self.labeled_x, dtype=np.float64)
        self.labeled_y = np.asarray(self.labeled_y, dtype=np.int64)
        self.unlabeled_x = np.asarray(self.unlabeled_x, dtype=np.float64)
        if self.labeled_x.ndim != 2 or self.unlabeled_x.ndim != 2:
            raise DataError(f"{self.name}: feature arrays must be 2-d")
        if self.labeled_x.shape[1] != self.unlabeled_x.shape[1]:
            raise DataError(f"{self.name}: labeled/unlabeled dims differ")
        if self.labeled_y.shape != (self.labeled_x.shape[0],):
            raise DataError(f"{self.name}: labels misaligned with inputs")
        if self.labeled_y.size and not np.isin(self.labeled_y, (0, 1)).all():
            raise DataError(f"{self.name}: labels must be 0 or 1")

    @property
    def feature_dim(self) -> int:
        return self.labeled_x.shape[1]

    @property
    def num_labeled(self) -> int:
        return self.labeled_x.shape[0]

    @property
    def num_unlabeled(self) -> int:
        return self.unlabeled_x.shape[0]


@dataclass(frozen=True)
class SyntheticSpec:
    num_domains: int
    feature_dim: int
    labeled_per_domain: int
    unlabeled_per_domain: int
    class_separation: float
    domain_shift: float
    label_noise: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.num_domains < 2:
            raise SpecError("need at least 2 domains")
        if self.feature_dim < 1:
            raise SpecError("feature_dim must be positive")
        for name in ("labeled_per_domain", "unlabeled_per_domain"):
            count = int(getattr(self, name))
            if count <= 0:
                raise SpecError(f"{name} must be positive")
            if count % 2:
                raise SpecError(f"{name} must be even to balance the classes")
        if not 0.0 <= self.label_noise < 0.5:
            raise SpecError("label_noise must lie in [0, 0.5)")
        for name in ("class_separation", "domain_shift"):
            if not 0.0 <= getattr(self, name) < np.inf:
                raise SpecError(f"{name} must be finite and non-negative")


def _unit_vector(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.standard_normal(dim)
    return v / max(np.linalg.norm(v), 1e-30)


def generate_synthetic(spec: SyntheticSpec) -> list:
    """Deterministic per seed, bit-for-bit."""
    axis_rng = derive_rng(spec.seed, "data/class-axis")
    class_axis = _unit_vector(axis_rng, spec.feature_dim)
    offsets = np.stack([spec.class_separation / 2.0 * s * class_axis for s in (-1.0, 1.0)])

    datasets = []
    for i in range(spec.num_domains):
        rng = derive_rng(spec.seed, f"data/domain{i}")
        if spec.domain_shift > 0:
            domain_mean = spec.domain_shift * _unit_vector(rng, spec.feature_dim)
        else:
            domain_mean = np.zeros(spec.feature_dim)

        def draw(count):
            half = count // 2
            labels = np.repeat([0, 1], half)
            x = rng.standard_normal((count, spec.feature_dim))
            x += domain_mean
            x += offsets[labels]
            return x, labels

        lx, ly = draw(spec.labeled_per_domain)
        if spec.label_noise > 0:
            flips = rng.random(ly.shape[0]) < spec.label_noise
            ly = np.where(flips, 1 - ly, ly)
        ux, _ = draw(spec.unlabeled_per_domain)
        datasets.append(DomainDataset(f"domain{i}", lx, ly, ux))
    return datasets


# ---------------------------------------------------------------------------
# Sparse file format.
# ---------------------------------------------------------------------------


def _format_line(label: str, row: np.ndarray) -> str:
    nz = np.nonzero(row)[0]
    if nz.size == 0:
        pairs = ["0:0.0"]
    else:
        pairs = [f"{int(j)}:{float(row[j])!r}" for j in nz]
    return " ".join([label, *pairs])


def save_sparse_dataset(path, dataset: DomainDataset) -> None:
    """Write the sparse text format; a failed write leaves ``path`` as it was
    (see `nn.replacing`)."""
    with replacing(path, "w") as fh:
        fh.write(f"# {dataset.name}: {dataset.num_labeled} labeled, "
                 f"{dataset.num_unlabeled} unlabeled, dim {dataset.feature_dim}\n")
        for row, label in zip(dataset.labeled_x, dataset.labeled_y):
            fh.write(_format_line(str(int(label)), row) + "\n")
        for row in dataset.unlabeled_x:
            fh.write(_format_line("?", row) + "\n")


def _parse_pair(token: str, line_number: int, feature_dim: int) -> tuple:
    head, sep, tail = token.partition(":")
    if not sep:
        raise ParseError(f"expected index:value, got {token!r}", line_number)
    if not (head.isascii() and head.isdigit()):
        raise ParseError(f"index must be a decimal integer, got {head!r}", line_number)
    index = int(head)
    if index >= feature_dim:
        raise ParseError(
            f"index {index} outside [0, {feature_dim})", line_number)
    try:
        value = float(tail)
    except ValueError:
        raise ParseError(f"bad float value {tail!r}", line_number) from None
    if not np.isfinite(value):
        raise ParseError(f"non-finite value {tail!r}", line_number)
    return index, value


def non_utf8_line(path) -> int:
    """1-based number of the first line of a file that is not UTF-8, or 0."""
    raw = Path(path).read_bytes()
    try:
        raw.decode("utf-8")
    except UnicodeDecodeError as error:
        return raw.count(b"\n", 0, error.start) + 1
    return 0


def load_sparse_dataset(path, feature_dim: int, name: Optional[str] = None) -> DomainDataset:
    """Parse the documented sparse grammar; errors name the path and line."""
    if feature_dim < 1:
        raise SpecError("feature_dim must be positive")
    labeled_rows, labels, unlabeled_rows = [], [], []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for line_number, raw in enumerate(fh, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                tokens = line.split(" ")
                if "" in tokens:
                    raise ParseError("malformed whitespace", line_number)
                label_token, pairs = tokens[0], tokens[1:]
                if label_token not in LABEL_TOKENS and label_token != "?":
                    raise ParseError(
                        f"label must be 0, 1 or ?, got {label_token!r}", line_number)
                if not pairs:
                    raise ParseError("a sample needs at least one index:value pair",
                                     line_number)
                row = np.zeros(feature_dim)
                previous = -1
                for token in pairs:
                    index, value = _parse_pair(token, line_number, feature_dim)
                    if index <= previous:
                        raise ParseError(
                            f"indices must be strictly increasing ({index} after "
                            f"{previous})", line_number)
                    previous = index
                    row[index] = value
                if label_token == "?":
                    unlabeled_rows.append(row)
                else:
                    labeled_rows.append(row)
                    labels.append(LABEL_TOKENS[label_token])
    except ParseError as err:
        raise ParseError(err.reason, err.line_number, path) from None
    except UnicodeDecodeError:
        raise ParseError("not UTF-8 text", non_utf8_line(path), path) from None
    return DomainDataset(
        name or Path(path).stem,
        np.array(labeled_rows).reshape(len(labeled_rows), feature_dim),
        np.array(labels, dtype=np.int64),
        np.array(unlabeled_rows).reshape(len(unlabeled_rows), feature_dim),
    )


# ---------------------------------------------------------------------------
# Stratified splitting.
# ---------------------------------------------------------------------------


def _deal_stratified(y: np.ndarray, bucket_of: callable, num_buckets: int,
                     rng: np.random.Generator) -> list:
    """Shuffle each label stratum and deal its indices into buckets:
    ``bucket_of(pos, n)`` maps the positions of a shuffled stratum of n
    indices, an array, to their buckets."""
    indices, buckets = [], []
    for label in (0, 1):
        stratum = np.flatnonzero(y == label)
        indices.append(stratum[rng.permutation(stratum.size)])
        buckets.append(bucket_of(np.arange(stratum.size), stratum.size))
    indices, buckets = np.concatenate(indices), np.concatenate(buckets)
    return [np.sort(indices[buckets == b]) for b in range(num_buckets)]


def split_labeled(dataset: DomainDataset, k: Optional[int] = None,
                  fractions: Optional[list] = None, seed: int = 0) -> list:
    """Stratified partition of the labeled samples.

    Exactly one of k (>= 2 folds) or fractions (summing to 1) must be
    given. Returns DomainDatasets carrying only their labeled slice;
    the unlabeled pool stays with the caller.
    """
    if (k is None) == (fractions is None):
        raise DataError("pass exactly one of k or fractions")
    y = dataset.labeled_y
    strata = [np.sum(y == 0), np.sum(y == 1)]
    rng = derive_rng(seed, f"split/{dataset.name}")

    if k is not None:
        if k < 2:
            raise DataError("k must be at least 2")
        if min(strata) < k:
            raise DataError(
                f"stratum too small for {k} folds: {strata[0]} vs {strata[1]}")
        indices = _deal_stratified(y, lambda pos, n: pos % k, k, rng)
    else:
        fractions = [float(f) for f in fractions]
        if abs(sum(fractions) - 1.0) > 1e-9 or any(f <= 0 for f in fractions):
            raise DataError("fractions must be positive and sum to 1")
        if min(strata) * min(fractions) < 1:
            raise DataError("stratum too small for the requested fractions")
        cuts = np.cumsum(fractions)

        def bucket_of(pos, n):
            return np.searchsorted(cuts - 1e-12, (pos + 0.5) / n)

        indices = _deal_stratified(y, bucket_of, len(fractions), rng)

    empty = np.zeros((0, dataset.feature_dim))
    return [
        DomainDataset(f"{dataset.name}/part{j}", dataset.labeled_x[idx],
                      dataset.labeled_y[idx], empty)
        for j, idx in enumerate(indices)
    ]


def merge_labeled(parts: list, name: str, unlabeled_x: Optional[np.ndarray] = None) -> DomainDataset:
    """Union of labeled slices, optionally reattaching an unlabeled pool."""
    if not parts:
        raise DataError("nothing to merge")
    dim = parts[0].feature_dim
    return DomainDataset(
        name,
        np.concatenate([p.labeled_x for p in parts], axis=0),
        np.concatenate([p.labeled_y for p in parts], axis=0),
        np.zeros((0, dim)) if unlabeled_x is None else unlabeled_x,
    )


def one_hot(labels: np.ndarray, num_classes: int = 2) -> np.ndarray:
    labels = np.asarray(labels, dtype=np.int64)
    out = np.zeros((labels.shape[0], num_classes))
    out[np.arange(labels.shape[0]), labels] = 1.0
    return out

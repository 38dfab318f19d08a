"""Synthetic generator, sparse format, and split tests."""

import hashlib
import math

import numpy as np
import pytest

from cral.data import (
    DomainDataset,
    SyntheticSpec,
    generate_synthetic,
    load_sparse_dataset,
    merge_labeled,
    one_hot,
    save_sparse_dataset,
    split_labeled,
)
from cral.errors import DataError, ParseError, SpecError


def spec(**kw):
    base = dict(num_domains=2, feature_dim=5, labeled_per_domain=100,
                unlabeled_per_domain=100, class_separation=2.0,
                domain_shift=1.0, label_noise=0.0, seed=0)
    base.update(kw)
    return SyntheticSpec(**base)


class TestSynthetic:
    def test_deterministic_bit_for_bit(self):
        a = generate_synthetic(spec())
        b = generate_synthetic(spec())
        for da, db in zip(a, b):
            assert da.labeled_x.tobytes() == db.labeled_x.tobytes()
            assert da.unlabeled_x.tobytes() == db.unlabeled_x.tobytes()
            np.testing.assert_array_equal(da.labeled_y, db.labeled_y)

    def test_shapes_and_balance(self):
        datasets = generate_synthetic(spec(num_domains=3, labeled_per_domain=40,
                                           unlabeled_per_domain=60))
        assert len(datasets) == 3
        for ds in datasets:
            assert ds.labeled_x.shape == (40, 5)
            assert ds.unlabeled_x.shape == (60, 5)
            assert np.sum(ds.labeled_y == 0) == np.sum(ds.labeled_y == 1) == 20

    def test_validation(self):
        with pytest.raises(SpecError):
            spec(num_domains=1)
        with pytest.raises(SpecError):
            spec(labeled_per_domain=7)  # odd breaks exact balance
        with pytest.raises(SpecError):
            spec(label_noise=0.5)
        with pytest.raises(SpecError):
            spec(domain_shift=-1.0)

    def test_shift_zero_domains_identically_distributed(self):
        datasets = generate_synthetic(spec(class_separation=0.0, domain_shift=0.0,
                                           labeled_per_domain=1000, seed=3))
        u = np.random.default_rng(123).standard_normal(5)
        u /= np.linalg.norm(u)
        a = datasets[0].labeled_x @ u
        b = datasets[1].labeled_x @ u
        n = a.size
        z = (a.mean() - b.mean()) / math.sqrt(1.0 / n + 1.0 / n)
        p_value = 2.0 * (1.0 - 0.5 * (1.0 + math.erf(abs(z) / math.sqrt(2.0))))
        assert p_value > 0.01

    def test_shift_moves_domain_means(self):
        datasets = generate_synthetic(spec(class_separation=0.0, domain_shift=6.0,
                                           labeled_per_domain=1000, seed=4))
        gap = np.linalg.norm(datasets[0].labeled_x.mean(axis=0)
                             - datasets[1].labeled_x.mean(axis=0))
        # Two independent offsets of norm 6 are typically far apart.
        assert gap > 2.0

    def test_separable_data_linear_probe(self):
        datasets = generate_synthetic(spec(feature_dim=10, class_separation=6.0,
                                           domain_shift=0.0,
                                           labeled_per_domain=200, seed=5))
        train, test = datasets
        w = (train.labeled_x[train.labeled_y == 1].mean(axis=0)
             - train.labeled_x[train.labeled_y == 0].mean(axis=0))
        midpoint = train.labeled_x.mean(axis=0)
        pred = ((test.labeled_x - midpoint) @ w > 0).astype(int)
        accuracy = float(np.mean(pred == test.labeled_y))
        assert accuracy >= 0.95

    def test_label_noise_flip_rate(self):
        clean = generate_synthetic(spec(labeled_per_domain=2000, seed=6))
        noisy = generate_synthetic(spec(labeled_per_domain=2000, seed=6,
                                        label_noise=0.3))
        flipped = np.mean(clean[0].labeled_y != noisy[0].labeled_y)
        assert abs(flipped - 0.3) < 0.05


def digest(datasets):
    h = hashlib.sha256()
    for d in datasets:
        for a in (d.labeled_x, d.labeled_y, d.unlabeled_x):
            h.update(a.tobytes())
    return h.hexdigest()


def test_data_path_output_is_pinned():
    # sha256 digests of the generated domains and of both split modes,
    # taken when the generator added each row's class offset in a Python
    # loop and the splits dealt one index at a time; uneven strata (label
    # noise) leave the folds and fractions unequal.
    datasets = generate_synthetic(spec(num_domains=3, feature_dim=6, labeled_per_domain=46,
                                       unlabeled_per_domain=24, class_separation=2.5,
                                       domain_shift=1.5, label_noise=0.2, seed=13))
    assert digest(datasets) == (
        "497a811115d76121f9fc98e759c2567023b71e4f337b6491070d06bfe5c52503")
    assert digest(split_labeled(datasets[1], k=5, seed=21)) == (
        "3d92f135400a0a0346fc1e2458b4561eab35a36d87a440c268d9b5397a94371e")
    assert digest(split_labeled(datasets[1], fractions=[0.5, 0.3, 0.2], seed=22)) == (
        "e879dfd03e0c281f156234cadf3b0c63bb3df9209851f609b1e0106359395521")


class TestSparseFormat:
    def roundtrip(self, tmp_path, dataset):
        path = tmp_path / "domain.txt"
        save_sparse_dataset(path, dataset)
        return load_sparse_dataset(path, dataset.feature_dim, name=dataset.name)

    def test_failed_save_leaves_previous_file_and_no_temporary(self, tmp_path, monkeypatch):
        import cral.data

        rng = np.random.default_rng(8)
        path = tmp_path / "domain.txt"
        save_sparse_dataset(path, DomainDataset("a", rng.standard_normal((4, 3)),
                                                np.array([0, 1, 0, 1]), np.zeros((2, 3))))
        before = path.read_bytes()
        rows, format_line = [], cral.data._format_line

        def failing(label, row):
            rows.append(row)
            if len(rows) == 3:
                raise ValueError("row 3 cannot be written")
            return format_line(label, row)

        monkeypatch.setattr(cral.data, "_format_line", failing)
        with pytest.raises(ValueError, match="row 3"):
            save_sparse_dataset(path, DomainDataset("b", rng.standard_normal((5, 3)),
                                                    np.zeros(5, dtype=int), np.zeros((0, 3))))
        assert len(rows) == 3  # two rows were written before the raise
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["domain.txt"]

    def test_documented_examples(self, tmp_path):
        path = tmp_path / "doc.txt"
        path.write_text("1 3:0.5 10:2\n? 0:1\n")
        ds = load_sparse_dataset(path, feature_dim=11)
        assert ds.num_labeled == 1 and ds.num_unlabeled == 1
        assert ds.labeled_y[0] == 1
        assert np.count_nonzero(ds.labeled_x[0]) == 2
        assert ds.labeled_x[0, 3] == 0.5 and ds.labeled_x[0, 10] == 2.0
        assert ds.unlabeled_x[0, 0] == 1.0

    def test_roundtrip_exact(self, tmp_path):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((20, 30))
        x[rng.random((20, 30)) < 0.6] = 0.0
        x[5] = 0.0  # all-zero row exercises the 0:0.0 fallback
        y = rng.integers(0, 2, 20)
        u = rng.standard_normal((10, 30)) * 1e-7  # tiny values round-trip too
        original = DomainDataset("rt", x, y, u)
        loaded = self.roundtrip(tmp_path, original)
        assert loaded.labeled_x.tobytes() == original.labeled_x.tobytes()
        assert loaded.unlabeled_x.tobytes() == original.unlabeled_x.tobytes()
        np.testing.assert_array_equal(loaded.labeled_y, original.labeled_y)

    def test_comments_and_blanks_ignored(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("# header\n\n1 0:1.5\n  # indented comment\n? 2:3\n")
        ds = load_sparse_dataset(path, feature_dim=4)
        assert ds.num_labeled == 1 and ds.num_unlabeled == 1

    @pytest.mark.parametrize("line,fragment", [
        ("2 0:1", "label"),
        ("1", "at least one"),
        ("1 0:1 0:2", "strictly increasing"),
        ("1 3:1 2:5", "strictly increasing"),
        ("1 9:1", "outside"),
        ("1 a:1", "decimal integer"),
        ("1 ²:1", "decimal integer"),
        ("1 0:x", "float"),
        ("1 0:inf", "non-finite"),
        ("1  0:1", "whitespace"),
        ("1 0=5", "index:value"),
    ])
    def test_malformed_lines_located(self, tmp_path, line, fragment):
        path = tmp_path / "bad.txt"
        path.write_text("# fine\n1 0:1\n" + line + "\n")
        with pytest.raises(ParseError, match=fragment) as info:
            load_sparse_dataset(path, feature_dim=5)
        assert "line 3" in str(info.value)
        assert info.value.line_number == 3

    def test_non_utf8_byte_located(self, tmp_path):
        path = tmp_path / "bad.txt"
        # The decoder reads ahead, so the bad byte sits past its first chunk.
        path.write_bytes(b"# fine\n1 0:1\n" * 5000 + b"? 1:2 \xff\n1 0:1\n")
        with pytest.raises(ParseError, match="not UTF-8") as info:
            load_sparse_dataset(path, feature_dim=5)
        assert info.value.line_number == 10001
        assert info.value.path == path

    def test_bad_index_names_its_file_and_line(self, tmp_path):
        path = tmp_path / "domain2.txt"
        path.write_text("1 0:1\n? 2:1\n0 7:1\n")
        with pytest.raises(ParseError) as info:
            load_sparse_dataset(path, feature_dim=5)
        assert str(info.value) == f"{path}: line 3: index 7 outside [0, 5)"
        assert (info.value.path, info.value.line_number) == (path, 3)


class TestSplits:
    def balanced_dataset(self, n=2000, dim=4, seed=8):
        rng = np.random.default_rng(seed)
        y = np.repeat([0, 1], n // 2)
        return DomainDataset("books", rng.standard_normal((n, dim)), y,
                             np.zeros((0, dim)))

    def test_five_folds_of_2000(self):
        folds = split_labeled(self.balanced_dataset(), k=5, seed=1)
        assert len(folds) == 5
        for fold in folds:
            assert fold.num_labeled == 400
            assert np.sum(fold.labeled_y == 0) == 200
            assert np.sum(fold.labeled_y == 1) == 200

    def test_partition_disjoint_exhaustive(self):
        ds = self.balanced_dataset(n=103 * 2)
        folds = split_labeled(ds, k=5, seed=2)
        sizes = [f.num_labeled for f in folds]
        assert max(sizes) - min(sizes) <= 2  # one per stratum
        rows = np.concatenate([f.labeled_x for f in folds], axis=0)
        assert rows.shape[0] == ds.num_labeled
        key = lambda arr: sorted(map(tuple, np.round(arr, 9)))
        assert key(rows) == key(ds.labeled_x)

    def test_stratification_within_one(self):
        rng = np.random.default_rng(9)
        y = (rng.random(500) < 0.37).astype(int)
        ds = DomainDataset("skewed", rng.standard_normal((500, 3)), y,
                           np.zeros((0, 3)))
        folds = split_labeled(ds, k=5, seed=3)
        for label in (0, 1):
            counts = [np.sum(f.labeled_y == label) for f in folds]
            assert max(counts) - min(counts) <= 1

    def test_same_seed_identical(self):
        ds = self.balanced_dataset()
        a = split_labeled(ds, k=5, seed=4)
        b = split_labeled(ds, k=5, seed=4)
        for fa, fb in zip(a, b):
            np.testing.assert_array_equal(fa.labeled_x, fb.labeled_x)

    def test_fraction_mode(self):
        ds = self.balanced_dataset(n=1000)
        train, val, test = split_labeled(ds, fractions=[0.6, 0.2, 0.2], seed=5)
        total = train.num_labeled + val.num_labeled + test.num_labeled
        assert total == 1000
        assert abs(train.num_labeled - 600) <= 2
        assert abs(val.num_labeled - 200) <= 2

    def test_errors(self):
        ds = self.balanced_dataset(n=10)
        with pytest.raises(DataError):
            split_labeled(ds, k=None, fractions=None)
        with pytest.raises(DataError):
            split_labeled(ds, k=5, fractions=[0.5, 0.5])
        with pytest.raises(DataError):
            split_labeled(ds, k=7, seed=0)  # stratum of 5 cannot fill 7 folds
        with pytest.raises(DataError):
            split_labeled(ds, fractions=[0.5, 0.6], seed=0)

    def test_merge_restores_counts(self):
        ds = self.balanced_dataset(n=100)
        folds = split_labeled(ds, k=5, seed=6)
        merged = merge_labeled(folds[:3], "train",
                               unlabeled_x=np.zeros((7, ds.feature_dim)))
        assert merged.num_labeled == 60
        assert merged.num_unlabeled == 7

    def test_one_hot(self):
        got = one_hot(np.array([0, 1, 1]))
        np.testing.assert_array_equal(got, [[1, 0], [0, 1], [0, 1]])

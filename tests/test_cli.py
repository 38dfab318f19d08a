"""Config parsing and command-line workflows."""

import json
import re
from pathlib import Path

import pytest

import cral.trainer
from cral.cli import main
from cral.config import REGISTRY, load_datasets, model_config, parse_config, resolved_text
from cral.data import SyntheticSpec, generate_synthetic, load_sparse_dataset, save_sparse_dataset
from cral.errors import ConfigError, SpecError
from cral.losses import LossWeights
from cral.model import CralModel, ModelConfig
from cral.trainer import TrainConfig

TINY = """
# two tiny domains, linear extractors
epochs = 2
synthetic_domains = 2
synthetic_dim = 6
synthetic_labeled = 20
synthetic_unlabeled = 8
synthetic_separation = 4.0
extractor_hidden =
shared_dim = 4
specific_dim = 3
lambda_uvt = 0
lambda_lvt = 0
"""


# (command, override, error, pattern naming the key or field in the error)
BAD_VALUES = [
    ("kfold", "folds=1", ConfigError, "'folds'"),
    ("kfold", "folds=2", ConfigError, "'folds'"),
    ("ablate", "test_fraction=0", ConfigError, "'test_fraction'"),
    ("sweep", "test_fraction=0", ConfigError, "'test_fraction'"),
    ("sweep", "sweep_grid=", ConfigError, "'sweep_grid'"),
    ("sweep", "sweep_grid=0.1,-1", SpecError, "lambda_d"),
    ("sweep", "sweep_grid=0.1,0.10", ConfigError, "'sweep_grid'"),
    ("train", "learning_rate=-0.01", ConfigError, "learning_rate"),
    ("train", "lambda_d=nan", SpecError, "lambda_d"),
    ("train", "synthetic_separation=nan", SpecError, "class_separation"),
    ("train", "synthetic_shift=inf", SpecError, "domain_shift"),
    ("msuda", "target_domain=7", ConfigError, "'target_domain'"),
    ("msuda", "target_domain=1", ConfigError, "two source domains"),
    ("train", "vat_xi=0", SpecError, "vat_xi"),
    ("train", "seed=-1", ConfigError, "seed"),
]


@pytest.fixture
def tiny_cfg(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text(TINY)
    return path


class TestParseConfig:
    def test_empty_config_gives_published_weight_defaults(self):
        config = parse_config(None)
        assert config.train.weights == LossWeights(10, 1, 1e-5, 1e-4, 1, 1)
        assert config.train == TrainConfig()
        assert model_config(config, 2, 5) == ModelConfig(2, 5)

    def test_file_values_applied(self, tiny_cfg):
        config = parse_config(tiny_cfg)
        assert config.train.epochs == 2
        assert config.synthetic_domains == 2
        assert config.model["extractor_hidden"] == ()
        assert config.train.weights.lambda_uvt == 0.0

    def test_flag_override_wins_over_file(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("lambda_uvt = 7\n")
        config = parse_config(path, overrides=("lambda_uvt=3",))
        assert config.train.weights.lambda_uvt == 3.0

    def test_unknown_key_named_in_error(self):
        with pytest.raises(ConfigError, match="lamda_d"):
            parse_config(None, overrides=("lamda_d=0.5",))

    def test_type_mismatch_names_key(self):
        with pytest.raises(ConfigError, match="'epochs'"):
            parse_config(None, overrides=("epochs=abc",))

    def test_sweep_parameter_typo_rejected_at_parse(self):
        with pytest.raises(ConfigError, match="sweep_parameter.*lamda_d"):
            parse_config(None, overrides=("sweep_parameter=lamda_d",))

    def test_missing_data_path_rejected(self):
        with pytest.raises(ConfigError, match="missing required path"):
            parse_config(None, overrides=("data_paths=/nope.txt", "feature_dim=5"))

    def test_data_paths_require_feature_dim(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("0 0:1.0\n1 1:1.0\n")
        with pytest.raises(ConfigError, match="feature_dim"):
            parse_config(None, overrides=(f"data_paths={path}",))

    def test_single_data_path_rejected_before_writing(self, tmp_path):
        path = tmp_path / "domain0.txt"
        path.write_text("0 0:1.0\n1 1:1.0\n")
        overrides = (f"data_paths={path}", "feature_dim=5")
        with pytest.raises(ConfigError, match="'data_paths'.*2 domains"):
            parse_config(None, overrides=overrides)
        out = tmp_path / "run"
        assert main(["train", "--set", overrides[0], "--set", overrides[1],
                     "--out", str(out)]) == 1
        assert not out.exists()

    def test_fractions_must_leave_training_share(self):
        with pytest.raises(ConfigError, match="fraction"):
            parse_config(None, overrides=("dev_fraction=0.5", "test_fraction=0.5"))

    def test_malformed_line_reports_location(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("epochs 5\n")
        with pytest.raises(ConfigError, match=":1:"):
            parse_config(path)

    def test_resolved_text_reparses_identically(self, tiny_cfg, tmp_path):
        config = parse_config(tiny_cfg, overrides=("seed=3", "lambda_d=0", "sweep_grid=0.5,2"))
        echo = tmp_path / "resolved.cfg"
        echo.write_text(resolved_text(config))
        assert parse_config(echo) == config

    def test_train_config_view(self, tiny_cfg):
        tc = parse_config(tiny_cfg, overrides=("lambda_d=0",)).train
        assert tc.epochs == 2
        assert tc.weights.lambda_d == 0.0
        assert tc.weights.lambda_uvt == 0.0

    def test_load_datasets_synthetic(self, tiny_cfg):
        datasets = load_datasets(parse_config(tiny_cfg))
        assert len(datasets) == 2
        assert datasets[0].feature_dim == 6

    def test_model_config_view(self, tiny_cfg):
        mc = model_config(parse_config(tiny_cfg), num_domains=2, input_dim=6)
        assert (mc.shared_dim, mc.specific_dim) == (4, 3)
        assert mc.extractor_hidden == ()

    @pytest.mark.parametrize("override", ["shared_dim=0", "dropout_rate=1.5"])
    def test_bad_model_key_rejected_before_writing(self, tmp_path, tiny_cfg, override):
        out = tmp_path / "run"
        code = main(["train", "--config", str(tiny_cfg), "--set", override,
                     "--out", str(out)])
        assert code == 1
        assert not (out / "config.resolved").exists()

    @pytest.mark.parametrize("command, override, error, pattern", BAD_VALUES,
                             ids=["-".join((c, o, k.strip("'"))) for c, o, _, k in BAD_VALUES])
    def test_bad_protocol_key_rejected_before_writing(self, tmp_path, tiny_cfg,
                                                      command, override, error, pattern):
        with pytest.raises(error, match=pattern):
            parse_config(tiny_cfg, overrides=(override,), command=command)
        out = tmp_path / "run"
        code = main([command, "--config", str(tiny_cfg), "--set", override,
                     "--out", str(out)])
        assert code == 1
        assert not out.exists()

    @pytest.mark.parametrize("override", ["disabled=l_d", "adversarial_sign=literal",
                                          "adversarial_sign=upsidedown"])
    def test_removed_key_rejected_before_writing(self, tmp_path, tiny_cfg, override):
        with pytest.raises(ConfigError, match="unknown config key"):
            parse_config(tiny_cfg, overrides=(override,))
        out = tmp_path / "run"
        assert main(["train", "--config", str(tiny_cfg), "--set", override,
                     "--out", str(out)]) == 1
        assert not (out / "config.resolved").exists()

    def test_readme_lists_every_config_key(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        table = readme.split("### Config keys", 1)[1].split("\n\n", 2)[1]
        assert set(re.findall(r"`(\w+)`", table)) == set(REGISTRY)

    def test_bad_synthetic_key_rejected_at_parse(self):
        with pytest.raises(SpecError, match="label_noise"):
            parse_config(None, overrides=("synthetic_noise=0.7",))


class TestCommands:
    def run(self, tmp_path, tiny_cfg, command, *extra):
        out = tmp_path / f"run_{command}_{len(extra)}"
        code = main([command, "--config", str(tiny_cfg), "--out", str(out),
                     *extra])
        return code, out

    def test_train_writes_all_artifacts(self, tmp_path, tiny_cfg):
        code, out = self.run(tmp_path, tiny_cfg, "train")
        assert code == 0
        for name in ("config.resolved", "metrics.jsonl", "summary.tsv",
                     "model.ckpt"):
            assert (out / name).is_file(), name
        lines = (out / "metrics.jsonl").read_text().splitlines()
        assert all(json.loads(line) for line in lines)
        header = (out / "summary.tsv").read_text().splitlines()[0]
        assert header == "domain\ttest_accuracy"
        CralModel.load(out / "model.ckpt")  # checkpoint is readable

    def test_train_metrics_stream_deterministic(self, tmp_path, tiny_cfg):
        _, first = self.run(tmp_path, tiny_cfg, "train")
        second = tmp_path / "again"
        code = main(["train", "--config", str(tiny_cfg), "--out", str(second)])
        assert code == 0
        assert ((first / "metrics.jsonl").read_bytes()
                == (second / "metrics.jsonl").read_bytes())

    @pytest.mark.parametrize("command,extra,checkpoints", [
        ("msuda", ("--set", "synthetic_domains=3"), 1),
        ("kfold", ("--set", "folds=3"), 3),
        ("ablate", (), 5),
        ("sweep", ("--set", "sweep_grid=0.001,0.01"), 2),
        ("gen-data", (), 0),
        ("grad-check", (), 0),
    ])
    def test_same_seed_artifacts_byte_identical(self, tmp_path, tiny_cfg, command, extra,
                                                checkpoints):
        runs = []
        for name in ("first", "again"):
            out = tmp_path / name
            assert main([command, "--config", str(tiny_cfg), "--out", str(out),
                         "--set", "epochs=1", *extra]) == 0
            runs.append({path.relative_to(out): path.read_bytes() for path in out.rglob("*")
                         if path.name in ("metrics.jsonl", "model.ckpt", "summary.tsv")
                         or path.match("domain*.txt")})
        assert runs[0] == runs[1]
        assert sum(path.name == "summary.tsv" for path in runs[0]) >= 1
        assert sum(path.match("domain*.txt") for path in runs[0]) == 2 * (command == "gen-data")
        # the sub-runs' streams and checkpoints are among them
        assert sum(path.name == "model.ckpt" for path in runs[0]) == checkpoints
        assert sum(path.name == "metrics.jsonl" for path in runs[0]) >= checkpoints

    def test_gen_data_round_trips(self, tmp_path, tiny_cfg):
        code, out = self.run(tmp_path, tiny_cfg, "gen-data")
        assert code == 0
        files = sorted(out.glob("domain*.txt"))
        assert len(files) == 2
        for path in files:
            ds = load_sparse_dataset(path, feature_dim=6)
            assert ds.num_labeled == 20
            assert ds.num_unlabeled == 8

    def test_ablate_emits_five_row_summary(self, tmp_path, tiny_cfg):
        code, out = self.run(tmp_path, tiny_cfg, "ablate", "--set", "epochs=1")
        assert code == 0
        lines = (out / "summary.tsv").read_text().splitlines()
        assert lines[0] == "variant\ttest_average"
        assert len(lines) == 6
        assert [l.split("\t")[0] for l in lines[1:]] == [
            "full", "wo_l_d", "wo_l_div", "wo_l_uvt", "wo_l_lvt"]
        assert (out / "full" / "model.ckpt").is_file()

    def test_kfold_summary_and_subruns(self, tmp_path, tiny_cfg):
        code, out = self.run(tmp_path, tiny_cfg, "kfold", "--set", "folds=3",
                             "--set", "epochs=1")
        assert code == 0
        lines = (out / "summary.tsv").read_text().splitlines()
        assert len(lines) == 5  # header + 3 rotations + mean
        for r in range(3):
            assert (out / f"rot{r}" / "metrics.jsonl").is_file()

    def test_msuda_reports_margin_over_baseline(self, tmp_path, tiny_cfg):
        code, out = self.run(tmp_path, tiny_cfg, "msuda",
                             "--set", "synthetic_domains=3",
                             "--set", "epochs=1")
        assert code == 0
        header, row = (out / "summary.tsv").read_text().splitlines()
        assert header.split("\t") == ["target", "accuracy",
                                      "majority_baseline", "margin"]
        assert row.split("\t")[0] == "domain0"

    def test_msuda_empty_target_exits_before_training(self, tmp_path, capsys, monkeypatch):
        steps = []
        monkeypatch.setattr(cral.trainer, "train_step", lambda *args: steps.append(args))
        sources = generate_synthetic(SyntheticSpec(
            num_domains=2, feature_dim=6, labeled_per_domain=20, unlabeled_per_domain=8,
            class_separation=4.0, domain_shift=1.0, seed=0))
        paths = [tmp_path / "target.txt"] + [tmp_path / f"{ds.name}.txt" for ds in sources]
        paths[0].write_text("? 0:1.0\n? 1:1.0\n")  # unlabeled rows only
        for path, ds in zip(paths[1:], sources):
            save_sparse_dataset(path, ds)
        out = tmp_path / "run"
        code = main(["msuda", "--set", "data_paths=" + ",".join(map(str, paths)),
                     "--set", "feature_dim=6", "--set", "epochs=1", "--out", str(out)])
        assert code == 1
        assert "target: empty target set" in capsys.readouterr().err
        assert steps == []
        assert not (out / "metrics.jsonl").exists()

    def test_sweep_row_per_grid_value(self, tmp_path, tiny_cfg):
        code, out = self.run(tmp_path, tiny_cfg, "sweep",
                             "--set", "sweep_grid=0.001,0.01",
                             "--set", "epochs=1")
        assert code == 0
        lines = (out / "summary.tsv").read_text().splitlines()
        assert lines[0] == "lambda_d\ttest_average"
        assert len(lines) == 3

    def test_grad_check_exits_zero_under_threshold(self, tmp_path, tiny_cfg):
        code, out = self.run(tmp_path, tiny_cfg, "grad-check")
        assert code == 0
        rows = [json.loads(line) for line in
                (out / "metrics.jsonl").read_text().splitlines()]
        assert all(row["max_rel_err"] < 1e-4 for row in rows)

    def test_unknown_key_exits_nonzero(self, tmp_path, tiny_cfg):
        code = main(["train", "--config", str(tiny_cfg),
                     "--set", "lamda_d=0.5", "--out", str(tmp_path / "x")])
        assert code == 1

    def test_missing_config_file_exits_nonzero(self, tmp_path):
        code = main(["train", "--config", str(tmp_path / "nope.cfg"),
                     "--out", str(tmp_path / "x")])
        assert code == 1

    @pytest.mark.parametrize("bad_file", ["config", "data"])
    def test_non_utf8_input_exits_with_its_line(self, tmp_path, capsys, bad_file):
        good = tmp_path / "domain1.txt"
        good.write_text("0 0:1.0\n1 1:1.0\n")
        data = tmp_path / "domain0.txt"
        data.write_bytes(b"0 0:1.0\n1 1:1.0\n" + (b"? 2:\xff\n" if bad_file == "data" else b""))
        config = tmp_path / "run.cfg"
        config.write_bytes(f"feature_dim = 3\ndata_paths = {data},{good}\n".encode()
                           + (b"# caf\xff\n" if bad_file == "config" else b""))
        code = main(["train", "--config", str(config), "--out", str(tmp_path / "x")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: cral.errors.")
        if bad_file == "config":
            assert f"ConfigError: {config}:3: not UTF-8 text" in err
        else:
            assert f"ParseError: {data}: line 3: not UTF-8 text" in err

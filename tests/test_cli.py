import json
import os

import numpy as np
import pytest

from driftsketch import load_embeddings, read_drift_report, read_sensitivity_report, save_image
from driftsketch.cli import main
from driftsketch.core import derive_seed, seeded_rng
from driftsketch.noiselab import salt_pepper
from driftsketch.store import load_model, load_split, read_library
from synthcorpus import corpus, uniform_noise_images


def write_corpus(directory, images, prefix="img"):
    os.makedirs(directory, exist_ok=True)
    for i, img in enumerate(images):
        save_image(img, os.path.join(directory, f"{prefix}{i:03d}.pgm"))
    return directory


@pytest.fixture
def baseline_dir(tmp_path):
    return write_corpus(str(tmp_path / "baseline"), corpus(1234, 30, "base"))


def _period_dirs(tmp_path, corrupt_from=None, n_periods=7, n_images=20):
    """Period dirs p1..pN; optionally salt-pepper 1% from a given period on."""
    dirs = []
    for k in range(1, n_periods + 1):
        imgs = corpus(9000 + k, n_images, f"p{k}")
        if corrupt_from is not None and k >= corrupt_from:
            imgs = [
                salt_pepper(im, 0.01, derive_seed(42, f"cli.{k}.{i}"))
                for i, im in enumerate(imgs)
            ]
        dirs.append(write_corpus(str(tmp_path / f"period{k}"), imgs, prefix=f"p{k}_"))
    return dirs


class TestExtract:
    def test_images_to_embedding_file(self, tmp_path, baseline_dir):
        out = str(tmp_path / "base.emb")
        assert main(["extract", baseline_dir, "--out", out]) == 0
        vecs = load_embeddings(out)
        assert len(vecs) == 30
        assert vecs[0].source_id == "img000.pgm"

    def test_single_image_input(self, tmp_path, baseline_dir):
        out = str(tmp_path / "one.emb")
        first = os.path.join(baseline_dir, "img000.pgm")
        assert main(["extract", first, "--out", out]) == 0
        assert len(load_embeddings(out)) == 1

    def test_missing_input_is_data_error(self, tmp_path):
        code = main(["extract", str(tmp_path / "nope"), "--out", str(tmp_path / "o.emb")])
        assert code == 3


class TestBuildBaselineAndGate:
    def test_gate_clean_inputs_exit_zero(self, tmp_path, baseline_dir):
        lib = str(tmp_path / "lib.dskl")
        assert main(["build-baseline", baseline_dir, "--out", lib]) == 0
        held = write_corpus(str(tmp_path / "held"), corpus(777, 10, "held"))
        out = str(tmp_path / "verdicts.jsonl")
        assert main(["gate", held, "--library", lib, "--out", out]) == 0
        lines = [json.loads(ln) for ln in open(out)]
        verdicts = [r for r in lines if "verdict" in r]
        assert len(verdicts) == 10
        assert all(r["verdict"] == "acceptable" for r in verdicts)

    def test_gate_junk_inputs_exit_one(self, tmp_path, baseline_dir):
        lib = str(tmp_path / "lib.dskl")
        main(["build-baseline", baseline_dir, "--out", lib])
        junk = write_corpus(str(tmp_path / "junk"), uniform_noise_images(5, 6))
        out = str(tmp_path / "verdicts.jsonl")
        assert main(["gate", junk, "--library", lib, "--out", out]) == 1
        lines = [json.loads(ln) for ln in open(out)]
        assert all(r["verdict"] == "anomalous" for r in lines if "verdict" in r)

    def test_gate_embeds_config(self, tmp_path, baseline_dir):
        lib = str(tmp_path / "lib.dskl")
        main(["build-baseline", baseline_dir, "--out", lib])
        out = str(tmp_path / "verdicts.jsonl")
        main(["gate", baseline_dir, "--library", lib, "--out", out])
        header = json.loads(open(out).readline())
        assert header["config"]["sketch"]["k"] == 128

    def test_gate_with_mismatched_extract_config(self, tmp_path, baseline_dir):
        lib = str(tmp_path / "lib.dskl")
        main(["build-baseline", baseline_dir, "--out", lib])
        code = main(
            ["gate", baseline_dir, "--library", lib, "--out", "-",
             "--config", _write_config(tmp_path, "extract.grid = 5")]
        )
        assert code == 3

    def test_library_records_fingerprint(self, tmp_path, baseline_dir):
        lib = str(tmp_path / "lib.dskl")
        main(["build-baseline", baseline_dir, "--out", lib])
        assert read_library(lib).extract_fingerprint != ""

    def test_gate_writes_to_stdout(self, tmp_path, baseline_dir, capsys):
        lib = str(tmp_path / "lib.dskl")
        main(["build-baseline", baseline_dir, "--out", lib])
        capsys.readouterr()
        assert main(["gate", baseline_dir, "--library", lib, "--out", "-"]) == 0
        out = capsys.readouterr().out
        lines = [json.loads(ln) for ln in out.splitlines()]
        assert sum(1 for r in lines if "verdict" in r) == 30

    def test_j_alpha_flag_tightens_gate(self, tmp_path, baseline_dir):
        lib = str(tmp_path / "lib.dskl")
        main(["build-baseline", baseline_dir, "--out", lib])
        held = write_corpus(str(tmp_path / "held2"), corpus(777, 10, "held"))
        out = str(tmp_path / "v.jsonl")
        assert main(["gate", held, "--library", lib, "--out", out]) == 0
        assert main(["gate", held, "--library", lib, "--j-alpha", "0.99", "--out", out]) == 1


def _write_config(tmp_path, text):
    path = tmp_path / "driftsketch.cfg"
    path.write_text(text + "\n")
    return str(path)


class TestDrift:
    def test_clean_periods_exit_zero(self, tmp_path, baseline_dir):
        periods = _period_dirs(tmp_path, corrupt_from=None, n_periods=3)
        out = str(tmp_path / "drift.jsonl")
        code = main(["drift", baseline_dir, *periods, "--out", out])
        assert code == 0
        report, config = read_drift_report(out)
        assert [p.period_id for p in report.periods] == ["period1", "period2", "period3"]
        assert not any(p.drift_flag for p in report.periods)
        assert all(p.ks_p == pytest.approx(1.0, abs=0.999) for p in report.periods)
        assert config["seed"] == 0

    def test_corrupt_periods_flagged_exactly(self, tmp_path, baseline_dir):
        periods = _period_dirs(tmp_path, corrupt_from=4)
        out = str(tmp_path / "drift.jsonl")
        code = main(["drift", baseline_dir, *periods, "--out", out])
        assert code == 1
        report, _ = read_drift_report(out)
        assert [p.drift_flag for p in report.periods] == [False] * 3 + [True] * 4

    def test_csv_format(self, tmp_path, baseline_dir):
        periods = _period_dirs(tmp_path, n_periods=2)
        out = str(tmp_path / "drift.csv")
        assert main(["drift", baseline_dir, *periods, "--format", "csv", "--out", out]) == 0
        report, config = read_drift_report(out)
        assert len(report.periods) == 2
        assert config is not None

    def test_byte_identical_reruns(self, tmp_path, baseline_dir):
        periods = _period_dirs(tmp_path, n_periods=2)
        out1 = str(tmp_path / "a.jsonl")
        out2 = str(tmp_path / "b.jsonl")
        main(["drift", baseline_dir, *periods, "--seed", "5", "--out", out1])
        main(["drift", baseline_dir, *periods, "--seed", "5", "--out", out2])
        assert open(out1, "rb").read() == open(out2, "rb").read()

    def test_embedding_file_baseline(self, tmp_path, baseline_dir):
        emb = str(tmp_path / "base.emb")
        main(["extract", baseline_dir, "--out", emb])
        periods = _period_dirs(tmp_path, n_periods=2)
        out = str(tmp_path / "drift.jsonl")
        assert main(["drift", emb, *periods, "--out", out]) == 0

    def test_ks_alpha_flag_loosens_flags(self, tmp_path, baseline_dir):
        periods = _period_dirs(tmp_path, n_periods=2)
        out = str(tmp_path / "drift.jsonl")
        main(["drift", baseline_dir, *periods, "--ks-alpha", "0.9999", "--out", out])
        report, config = read_drift_report(out)
        assert report.ks_alpha == 0.9999
        assert config["stats"]["ks_alpha"] == 0.9999


class TestSweep:
    def test_sensitivity_ladder(self, tmp_path, baseline_dir):
        test_dir = write_corpus(str(tmp_path / "test"), corpus(31, 15, "sweep"))
        out = str(tmp_path / "sweep.jsonl")
        code = main(
            ["sweep", baseline_dir, test_dir, "--noise", "salt-pepper",
             "--levels", "0,0.2,0.8", "--out", out]
        )
        assert code == 0
        report, config = read_sensitivity_report(out)
        assert report.noise_kind == "salt_pepper"
        assert [r.level for r in report.rows] == [0.0, 0.2, 0.8]
        assert report.rows[-1].cosine_score < report.rows[0].cosine_score
        assert config is not None

    def test_bad_levels_usage_error(self, tmp_path, baseline_dir):
        code = main(
            ["sweep", baseline_dir, baseline_dir, "--noise", "gaussian",
             "--levels", "0.5,0.1", "--out", str(tmp_path / "s.jsonl")]
        )
        assert code == 2


class TestTrainHead:
    def _labeled_embeddings(self, tmp_path):
        rng = seeded_rng(17, "cli-train")
        lines = ["driftsketch-emb v1 dim=2 count=40"]
        labels = []
        for i in range(40):
            label = i % 2
            x = rng.uniform(1.0, 3.0) * (1 if label else -1)
            y = rng.uniform(-1.0, 1.0)
            lines.append(f"s{i} {x} {y}")
            labels.append(f"s{i} {label}")
        emb = tmp_path / "train.emb"
        emb.write_text("\n".join(lines) + "\n")
        lab = tmp_path / "labels.txt"
        lab.write_text("\n".join(labels) + "\n")
        return str(emb), str(lab)

    def test_trains_and_saves_checkpoint(self, tmp_path):
        emb, lab = self._labeled_embeddings(tmp_path)
        model_path = str(tmp_path / "model.json")
        curve_path = str(tmp_path / "curve.csv")
        cfg = _write_config(tmp_path, "train.lr = 0.05\ntrain.epochs = 10")
        code = main(
            ["train-head", emb, "--labels", lab, "--config", cfg,
             "--curve", curve_path, "--out", model_path]
        )
        assert code == 0
        model = load_model(model_path)
        assert model.w.shape == (2,)
        lines = open(curve_path).read().splitlines()
        assert lines[0] == "epoch,mean_loss"
        assert len(lines) == 11

    def test_missing_label_is_data_error(self, tmp_path):
        emb, lab = self._labeled_embeddings(tmp_path)
        open(lab, "w").write("s0 1\n")
        code = main(["train-head", emb, "--labels", lab, "--out", str(tmp_path / "m.json")])
        assert code == 3


class TestSplit:
    def test_split_plan_written(self, tmp_path):
        ids_path = tmp_path / "ids.txt"
        ids_path.write_text("\n".join(f"img{i}" for i in range(23)) + "\n")
        out = str(tmp_path / "plan.json")
        assert main(["split", str(ids_path), "--groups", "7", "--out", out]) == 0
        plan = load_split(out)
        assert plan.n_groups == 7
        sizes = sorted((len(g) for g in plan.groups()), reverse=True)
        assert sizes == [4, 4, 3, 3, 3, 3, 3]

    def test_split_deterministic_under_seed(self, tmp_path):
        ids_path = tmp_path / "ids.txt"
        ids_path.write_text("\n".join(f"img{i}" for i in range(14)) + "\n")
        a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        main(["split", str(ids_path), "--groups", "7", "--seed", "3", "--out", a])
        main(["split", str(ids_path), "--groups", "7", "--seed", "3", "--out", b])
        assert load_split(a) == load_split(b)


class TestErrors:
    def test_unknown_flag_exits_two(self, baseline_dir, tmp_path, capsys):
        code = main(["extract", baseline_dir, "--out", str(tmp_path / "x"), "--bogus"])
        assert code == 2

    def test_unknown_subcommand_exits_two(self):
        assert main(["frobnicate"]) == 2

    def test_bad_config_key_exits_two(self, tmp_path, baseline_dir):
        cfg = _write_config(tmp_path, "nonsense.key = 1")
        code = main(["extract", baseline_dir, "--config", cfg, "--out", str(tmp_path / "x")])
        assert code == 2

    def test_corrupt_library_exits_three(self, tmp_path, baseline_dir):
        lib = tmp_path / "lib.dskl"
        lib.write_bytes(b"garbage")
        code = main(["gate", baseline_dir, "--library", str(lib), "--out", "-"])
        assert code == 3

    def test_out_of_range_embedding_exits_three(self, tmp_path, capsys):
        emb = tmp_path / "huge.emb"
        emb.write_text("driftsketch-emb v1 dim=2 count=2\na 0.1 0.2\nb 1e20 5\n")
        code = main(["build-baseline", str(emb), "--out", str(tmp_path / "lib.dskl")])
        assert code == 3
        assert "value-out-of-range" in capsys.readouterr().err
        assert not (tmp_path / "lib.dskl").exists()

    def test_config_flag_overrides_file(self, tmp_path, baseline_dir):
        periods = _period_dirs(tmp_path, n_periods=2)
        cfg = _write_config(tmp_path, "stats.ks_alpha = 0.2")
        out = str(tmp_path / "d.jsonl")
        main(["drift", baseline_dir, *periods, "--config", cfg, "--ks-alpha", "0.01", "--out", out])
        report, _ = read_drift_report(out)
        assert report.ks_alpha == 0.01

import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, event, example, given, settings
from hypothesis import strategies as st

import driftsketch
from driftsketch import load_embeddings, read_drift_report, read_sensitivity_report, save_image
from driftsketch import store
from driftsketch.cli import _read_labels, main
from driftsketch.core import DataError, FeatureVector, derive_seed, seeded_rng
from driftsketch.extract import ExtractConfig, extract_batch, extract_fingerprint
from driftsketch.noiselab import salt_pepper
from driftsketch.sketchlib import GateConfig, gate_check
from driftsketch.store import LIBRARY_VERSION, load_model, load_split, read_library, read_report
from synthcorpus import corpus, rgb_corpus, uniform_noise_images

import reference_path


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


V1_EMBEDDINGS = Path(__file__).parent / "data" / "embeddings_v1.emb"
# the same features as the v2 writer saved them
V2_EMBEDDINGS = Path(__file__).parent / "data" / "embeddings_v2.emb"


class TestEmbeddingFiles:
    def test_space_and_non_ascii_basenames_round_trip(self, tmp_path):
        """Ids are the basenames as given: one with a space and one outside
        ASCII go through extract, build-baseline and gate unchanged."""
        names = ["a b.pgm", "é.pgm", "plain.pgm"]
        images = tmp_path / "imgs"
        images.mkdir()
        for name, img in zip(names, corpus(31, 3, "names")):
            save_image(img, str(images / name))
        emb, lib, report = (str(tmp_path / n) for n in ("base.emb", "base.dskl", "gate.jsonl"))
        assert main(["extract", str(images), "--out", emb]) == 0
        assert [v.source_id for v in load_embeddings(emb)] == sorted(names)
        assert main(["build-baseline", emb, "--out", lib]) == 0
        assert read_library(lib).ids == tuple(sorted(names))
        assert main(["gate", str(images), "--library", lib, "--out", report]) == 0
        gate, _ = read_report(report, "gate_report")
        assert [r.source_id for r in gate.rows] == sorted(names)

    def test_v1_fixture_and_its_v2_rewrite_build_identical_libraries(self, tmp_path):
        """The v1 fixture, its v2 rewrite (the committed fixture, from the v2
        writer) and its v3 rewrite build byte-identical libraries."""
        rewrite = tmp_path / "v3.emb"
        store.write_embeddings(load_embeddings(str(V2_EMBEDDINGS)), str(rewrite))
        sources = (V1_EMBEDDINGS, V2_EMBEDDINGS, rewrite)
        libs = [tmp_path / f"from_v{i}.dskl" for i in (1, 2, 3)]
        for source, lib in zip(sources, libs):
            assert main(["build-baseline", str(source), "--out", str(lib)]) == 0
        assert libs[0].read_bytes() == libs[1].read_bytes() == libs[2].read_bytes()

    def test_v1_and_v2_inputs_give_identical_reports(self, tmp_path, baseline_dir):
        """The same features as v1 text, as v2 and as v3 give byte-identical
        gate, drift and sweep reports (each file named alike, in its own folder)."""
        images, names = store.load_images_dir(baseline_dir)
        feats = extract_batch(images, ExtractConfig(), names)
        periods = _period_dirs(tmp_path, corrupt_from=2, n_periods=2)
        outputs = []
        for version in ("v1", "v2", "v3"):
            folder = tmp_path / version
            folder.mkdir()
            emb = folder / "base.emb"
            if version == "v1":
                lines = [f"driftsketch-emb v1 dim={feats[0].dim} count={len(feats)}"]
                lines += [" ".join([v.source_id, *(f"{x:.17g}" for x in v.values)]) for v in feats]
                emb.write_text("\n".join(lines) + "\n")
            elif version == "v2":
                emb.write_bytes(reference_path.encode_embeddings_v2(feats))
            else:
                store.write_embeddings(feats, str(emb))
            assert emb.read_bytes().startswith(f"driftsketch-emb {version} ".encode())
            lib = str(folder / "base.dskl")
            assert main(["build-baseline", str(emb), "--out", lib]) == 0
            runs = [
                ["gate", str(emb), "--library", lib, "--out", str(folder / "gate.jsonl")],
                ["drift", str(emb), *periods, "--out", str(folder / "drift.jsonl")],
                ["sweep", str(emb), periods[1], "--noise", "speckle", "--levels", "0,0.2",
                 "--format", "csv", "--out", str(folder / "sweep.csv")],
            ]
            codes = [main(argv) for argv in runs]
            files = ("base.dskl", "gate.jsonl", "drift.jsonl", "sweep.csv")
            outputs.append((codes, [(folder / f).read_bytes() for f in files]))
        assert outputs[0] == outputs[1] == outputs[2]
        assert outputs[0][0] == [0, 1, 0]

    @given(data=st.data())
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_damaged_v2_file_exits_three(self, tmp_path, data):
        """A v3 file (or the v2 fixture) cut short or with any byte changed
        exits 3, never with a traceback, on each kind of subcommand that reads
        embeddings."""
        good = tmp_path / "good.emb"
        if not good.exists():
            store.write_embeddings(load_embeddings(str(V1_EMBEDDINGS)), str(good))
        raw = data.draw(st.sampled_from([good, V2_EMBEDDINGS]), label="file").read_bytes()
        pos = data.draw(st.integers(0, len(raw) - 1), label="position")
        if data.draw(st.booleans(), label="truncate"):
            bad = raw[:pos]
        else:
            bad = raw[:pos] + bytes([raw[pos] ^ data.draw(st.integers(1, 255))]) + raw[pos + 1 :]
        path = tmp_path / "bad.emb"
        path.write_bytes(bad)
        lab = tmp_path / "labels.txt"
        lab.write_text("img000.pgm 0\nx 1\n")
        out = tmp_path / "out"
        for argv in (
            ["build-baseline", str(path)],
            ["drift", str(path), str(path)],
            ["train-head", str(path), "--labels", str(lab)],
        ):
            assert _run_cli([*argv, "--out", str(out)]) == 3
            assert not out.exists()


def _count_alive_images(monkeypatch):
    """Wrap store.load_image; per call, how many images it returned are still alive."""
    decode, refs, alive = store.load_image, [], []

    def load_image(path):
        alive.append(sum(ref() is not None for ref in refs))
        img = decode(path)
        refs.append(weakref.ref(img))
        return img

    monkeypatch.setattr(store, "load_image", load_image)
    return alive


class TestStreamingInput:
    @pytest.mark.parametrize("command", ["extract", "gate"])
    def test_one_decoded_image_alive(self, tmp_path, baseline_dir, monkeypatch, command):
        lib = str(tmp_path / "lib.dskl")
        main(["build-baseline", baseline_dir, "--out", lib])
        alive = _count_alive_images(monkeypatch)
        extra = ["--library", lib] if command == "gate" else []
        assert main([command, baseline_dir, *extra, "--out", str(tmp_path / "out")]) == 0
        assert len(alive) == 30
        assert max(alive) <= 1

    def test_colliding_basenames_rejected_before_decoding(self, tmp_path, monkeypatch, capsys):
        a = write_corpus(str(tmp_path / "a"), corpus(1, 3, "a"))
        b = write_corpus(str(tmp_path / "b"), corpus(2, 2, "b"))
        alive = _count_alive_images(monkeypatch)
        out = tmp_path / "x.emb"
        assert main(["extract", a, b, "--out", str(out)]) == 3
        assert "duplicate-source-id" in capsys.readouterr().err
        assert alive == []
        assert not out.exists()

    def test_embedding_input_to_extract_rejected(self, tmp_path, baseline_dir, capsys):
        emb = str(tmp_path / "base.emb")
        main(["extract", baseline_dir, "--out", emb])
        capsys.readouterr()
        out = tmp_path / "again.emb"
        assert main(["extract", emb, "--out", str(out)]) == 3
        assert f"unsupported-format: extract expects images, got {emb}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["extract", "gate"])
    def test_truncated_last_image_leaves_no_output(self, tmp_path, baseline_dir, command):
        lib = str(tmp_path / "lib.dskl")
        main(["build-baseline", baseline_dir, "--out", lib])
        last = Path(baseline_dir) / sorted(os.listdir(baseline_dir))[-1]
        last.write_bytes(last.read_bytes()[:-10])
        extra = ["--library", lib] if command == "gate" else []
        out = tmp_path / "out"
        assert main([command, baseline_dir, *extra, "--out", str(out)]) == 3
        assert not out.exists()

    def test_extract_equals_batch_path(self, tmp_path, baseline_dir):
        out = tmp_path / "cli.emb"
        ref = tmp_path / "batch.emb"
        assert main(["extract", baseline_dir, "--out", str(out)]) == 0
        images, names = store.load_images_dir(baseline_dir)
        store.write_embeddings(extract_batch(images, ExtractConfig(), names), str(ref))
        assert out.read_bytes() == ref.read_bytes()

    def test_gate_report_equals_per_item_gate_check(self, tmp_path, baseline_dir):
        lib = str(tmp_path / "lib.dskl")
        main(["build-baseline", baseline_dir, "--out", lib])
        mixed = write_corpus(str(tmp_path / "mixed"), corpus(777, 6, "held"), prefix="held")
        write_corpus(mixed, uniform_noise_images(5, 4), prefix="junk")
        out = str(tmp_path / "verdicts.jsonl")
        assert main(["gate", mixed, "--library", lib, "--out", out]) == 1
        report, _ = read_report(out, "gate_report")
        images, names = store.load_images_dir(mixed)
        cfg = ExtractConfig()
        expected = [
            gate_check(read_library(lib), v, GateConfig(), extract_fingerprint(cfg))
            for v in extract_batch(images, cfg, names)
        ]
        assert report.rows == tuple(expected)
        assert {r.verdict for r in report.rows} == {"acceptable", "anomalous"}


class TestBuildBaselineAndGate:
    def test_gate_clean_inputs_exit_zero(self, tmp_path, baseline_dir):
        lib = str(tmp_path / "lib.dskl")
        assert main(["build-baseline", baseline_dir, "--out", lib]) == 0
        held = write_corpus(str(tmp_path / "held"), corpus(777, 10, "held"))
        out = str(tmp_path / "verdicts.jsonl")
        assert main(["gate", held, "--library", lib, "--out", out]) == 0
        lines = [json.loads(ln) for ln in Path(out).read_text().splitlines()]
        verdicts = [r for r in lines if "verdict" in r]
        assert len(verdicts) == 10
        assert all(r["verdict"] == "acceptable" for r in verdicts)

    def test_gate_junk_inputs_exit_one(self, tmp_path, baseline_dir):
        lib = str(tmp_path / "lib.dskl")
        main(["build-baseline", baseline_dir, "--out", lib])
        junk = write_corpus(str(tmp_path / "junk"), uniform_noise_images(5, 6))
        out = str(tmp_path / "verdicts.jsonl")
        assert main(["gate", junk, "--library", lib, "--out", out]) == 1
        lines = [json.loads(ln) for ln in Path(out).read_text().splitlines()]
        assert all(r["verdict"] == "anomalous" for r in lines if "verdict" in r)

    def test_gate_embeds_config(self, tmp_path, baseline_dir):
        lib = str(tmp_path / "lib.dskl")
        main(["build-baseline", baseline_dir, "--out", lib])
        out = str(tmp_path / "verdicts.jsonl")
        main(["gate", baseline_dir, "--library", lib, "--out", out])
        header = json.loads(Path(out).read_text().splitlines()[0])
        assert header["config"]["sketch"]["k"] == 128

    def test_gate_with_mismatched_extract_config(self, tmp_path, baseline_dir):
        lib = str(tmp_path / "lib.dskl")
        main(["build-baseline", baseline_dir, "--out", lib])
        code = main(
            ["gate", baseline_dir, "--library", lib, "--out", "-",
             "--config", _write_config(tmp_path, "extract.grid = 5")]
        )
        assert code == 3

    def test_gate_with_library_of_other_dimension(self, tmp_path, baseline_dir, capsys):
        emb = tmp_path / "two.emb"
        emb.write_text("driftsketch-emb v1 dim=2 count=2\na 0.5 0.25\nb 0.25 0.5\n")
        lib = str(tmp_path / "two.dskl")
        assert main(["build-baseline", str(emb), "--out", lib]) == 0
        assert read_library(lib).dim == 2
        out = tmp_path / "verdicts.jsonl"
        assert main(["gate", baseline_dir, "--library", lib, "--out", str(out)]) == 3
        assert "dimension-mismatch" in capsys.readouterr().err
        assert not out.exists()

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

    def test_gate_report_passes_checksum_verification(self, tmp_path, baseline_dir, capsys):
        lib = str(tmp_path / "lib.dskl")
        main(["build-baseline", baseline_dir, "--out", lib])
        out = tmp_path / "verdicts.jsonl"
        assert main(["gate", baseline_dir, "--library", lib, "--seed", "4", "--out", str(out)]) == 0
        report, config = read_report(str(out), "gate_report")
        assert report.library == "lib.dskl"
        assert config["seed"] == 4
        assert [r.source_id for r in report.rows] == sorted(os.listdir(baseline_dir))
        capsys.readouterr()
        main(["gate", baseline_dir, "--library", lib, "--seed", "4", "--out", "-"])
        assert capsys.readouterr().out == out.read_text()

    def test_gate_csv_format(self, tmp_path, baseline_dir, capsys):
        lib = str(tmp_path / "lib.dskl")
        main(["build-baseline", baseline_dir, "--out", lib])
        mixed = write_corpus(str(tmp_path / "mixed"), corpus(777, 3, "held"), prefix="held")
        write_corpus(mixed, uniform_noise_images(5, 2), prefix="junk")
        jsonl, csv = tmp_path / "v.jsonl", tmp_path / "v.csv"
        assert main(["gate", mixed, "--library", lib, "--out", str(jsonl)]) == 1
        assert main(["gate", mixed, "--library", lib, "--format", "csv", "--out", str(csv)]) == 1
        assert csv.read_text().splitlines()[2] == "source_id,score,verdict"
        assert read_report(str(csv), "gate_report") == read_report(str(jsonl), "gate_report")
        capsys.readouterr()
        assert main(["gate", mixed, "--library", lib, "--format", "csv"]) == 1
        assert capsys.readouterr().out == csv.read_text()

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

    def test_csv_period_id_with_newline_is_data_error(self, tmp_path, baseline_dir, capsys):
        # the CSV reader is line-based, so such a report could not be read back
        period = write_corpus(str(tmp_path / "p\n1"), corpus(9001, 4, "p1"))
        out = tmp_path / "drift.csv"
        assert main(["drift", baseline_dir, period, "--format", "csv", "--out", str(out)]) == 3
        assert "unsupported-value" in capsys.readouterr().err
        assert not out.exists()

    def test_byte_identical_reruns(self, tmp_path, baseline_dir):
        periods = _period_dirs(tmp_path, n_periods=2)
        out1 = str(tmp_path / "a.jsonl")
        out2 = str(tmp_path / "b.jsonl")
        main(["drift", baseline_dir, *periods, "--seed", "5", "--out", out1])
        main(["drift", baseline_dir, *periods, "--seed", "5", "--out", out2])
        assert Path(out1).read_bytes() == Path(out2).read_bytes()

    def test_embedding_file_baseline(self, tmp_path, baseline_dir):
        emb = str(tmp_path / "base.emb")
        main(["extract", baseline_dir, "--out", emb])
        periods = _period_dirs(tmp_path, n_periods=2)
        out = str(tmp_path / "drift.jsonl")
        assert main(["drift", emb, *periods, "--out", out]) == 0

    @pytest.mark.parametrize("scale", [1e200, 1e-320])
    def test_extreme_magnitude_embeddings(self, tmp_path, scale):
        """Finite components near the overflow or subnormal limit give a clean
        report, not out-of-range-statistic, zero-vector or a RuntimeWarning."""
        rng = seeded_rng(17, "cli-extreme")
        paths = []
        for name in ("big", "big2"):
            path = tmp_path / f"{name}.emb"
            rows = [
                f"r{i} " + " ".join(repr(float(x)) for x in rng.uniform(0.5, 1.0, 4) * scale)
                for i in range(5)
            ]
            path.write_text("driftsketch-emb v1 dim=4 count=5\n" + "\n".join(rows) + "\n")
            paths.append(str(path))
        cfg = _write_config(tmp_path, "quant.clamp_lo = -1\nquant.clamp_hi = 1")
        out = str(tmp_path / "drift.jsonl")
        assert main(["drift", *paths, "--config", cfg, "--out", out]) == 0
        report, _ = read_drift_report(out)
        assert 0.9 < report.periods[0].cosine_score <= 1.0

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

    @pytest.fixture
    def test_dir(self, tmp_path):
        return write_corpus(str(tmp_path / "test"), corpus(31, 6, "sweep"))

    def _sweep(self, baseline, test_dir, out):
        return main(
            ["sweep", baseline, test_dir, "--noise", "speckle", "--levels", "0,0.1,0.5",
             "--out", out]
        )

    def test_embedding_baseline_matches_image_baseline(self, tmp_path, baseline_dir, test_dir):
        emb = str(tmp_path / "base.emb")
        assert main(["extract", baseline_dir, "--out", emb]) == 0
        from_images, from_emb = tmp_path / "images.jsonl", tmp_path / "emb.jsonl"
        assert self._sweep(baseline_dir, test_dir, str(from_images)) == 0
        assert self._sweep(emb, test_dir, str(from_emb)) == 0
        assert from_emb.read_bytes() == from_images.read_bytes()

    def test_single_image_baseline(self, tmp_path, baseline_dir, test_dir):
        first = os.path.join(baseline_dir, "img000.pgm")
        out = str(tmp_path / "sweep.jsonl")
        assert self._sweep(first, test_dir, out) == 0
        assert len(read_sensitivity_report(out)[0].rows) == 3

    def test_embedding_baseline_of_other_dimension_is_data_error(self, tmp_path, test_dir, capsys):
        emb = tmp_path / "two.emb"
        emb.write_text("driftsketch-emb v1 dim=2 count=2\na 0.5 0.25\nb 0.25 0.5\n")
        out = tmp_path / "sweep.jsonl"
        assert self._sweep(str(emb), test_dir, str(out)) == 3
        assert "dimension-mismatch" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_levels_usage_error(self, tmp_path, baseline_dir):
        code = main(
            ["sweep", baseline_dir, baseline_dir, "--noise", "gaussian",
             "--levels", "0.5,0.1", "--out", str(tmp_path / "s.jsonl")]
        )
        assert code == 2

    def test_rung_outside_its_interval_named(self, tmp_path, baseline_dir, capsys):
        # each rung is read by its kind's rule before the rungs are compared
        out = tmp_path / "s.jsonl"
        code = main(["sweep", baseline_dir, baseline_dir, "--noise", "salt-pepper",
                     "--levels", "0,2", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "config-invalid: fraction must lie in [0, 1], got 2.0" in err
        assert not out.exists()

    def test_bad_levels_checked_before_corrupt_test_image(self, tmp_path, baseline_dir, test_dir):
        # the ladder is checked before the first test image is decoded, so
        # the usage error wins (earlier releases decoded first and exited 3)
        (Path(test_dir) / "img000.pgm").write_bytes(b"P5\n28 28\n255\n")
        out = tmp_path / "s.jsonl"
        assert self._sweep(baseline_dir, test_dir, str(out)) == 3
        code = main(
            ["sweep", baseline_dir, test_dir, "--noise", "speckle", "--levels", "0.5,0.1",
             "--out", str(out)]
        )
        assert code == 2
        assert not out.exists()

    def test_two_bad_test_images_exit_three(self, tmp_path, baseline_dir, capsys):
        # the error named first may depend on the order images and levels are
        # visited; the exit code does not
        test_dir = tmp_path / "bad"
        test_dir.mkdir()
        (test_dir / "a.pgm").write_bytes(b"P5\n2 2\n255\n" + bytes(4))  # smaller than the grid
        (test_dir / "b.pgm").write_bytes(b"P5\n8 8\n7\n" + bytes([255]) * 64)  # above maxval
        out = tmp_path / "s.jsonl"
        assert self._sweep(baseline_dir, str(test_dir), str(out)) == 3
        err = capsys.readouterr().err
        assert "image-smaller-than-grid" in err or "out-of-range-pixel" in err
        assert not out.exists()

    def test_poisson_level_below_numpy_limit_exits_two(self, tmp_path, baseline_dir, test_dir,
                                                        capsys):
        out = tmp_path / "s.jsonl"
        code = main(["sweep", baseline_dir, test_dir, "--noise", "poisson", "--levels", "0,1e-17",
                     "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "invalid-level: must be 0 or at least" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("test_input", ["empty", "missing", "file"])
    def test_unlistable_test_input_is_data_error(self, tmp_path, baseline_dir, test_input):
        path = tmp_path / "test"
        if test_input == "empty":
            path.mkdir()
        elif test_input == "file":
            path = Path(baseline_dir) / "img000.pgm"
        out = tmp_path / "s.jsonl"
        assert self._sweep(baseline_dir, str(path), str(out)) == 3
        assert not out.exists()

    def test_one_decoded_test_image_alive(self, tmp_path, baseline_dir, test_dir, monkeypatch):
        emb = str(tmp_path / "base.emb")
        assert main(["extract", baseline_dir, "--out", emb]) == 0
        alive = _count_alive_images(monkeypatch)
        assert self._sweep(emb, test_dir, str(tmp_path / "s.jsonl")) == 0
        assert len(alive) == 6
        assert max(alive) <= 1

    def test_peak_memory_does_not_grow_with_the_test_set(self, tmp_path):
        """The sweep's traced peak grows by less than 8 decoded images from 8 to 32."""
        size = 64
        image_bytes = size * size * 3 * 8  # one decoded RGB image as float64
        images = rgb_corpus(77, 32, "sweep-mem", size, size)
        base = tmp_path / "base"
        base.mkdir()
        for i, img in enumerate(images[:8]):
            save_image(img, str(base / f"b{i:03d}.ppm"))
        emb = str(tmp_path / "base.emb")
        assert main(["extract", str(base), "--out", emb]) == 0

        def sweep(n):
            test = tmp_path / f"test{n}"
            if not test.exists():
                test.mkdir()
                for i, img in enumerate(images[:n]):
                    save_image(img, str(test / f"t{i:03d}.ppm"))
            argv = ["sweep", emb, str(test), "--noise", "gaussian", "--levels",
                    "0,0.05,0.1,0.2,0.4", "--out", str(tmp_path / f"s{n}.jsonl")]
            assert main(argv) == 0

        def peak(n):
            tracemalloc.start()
            try:
                sweep(n)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        sweep(32)  # fill the process-wide token table and signature memo first
        small, large = peak(8), peak(32)
        assert large - small < 8 * image_bytes, (small, large)


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
        lines = Path(curve_path).read_text().splitlines()
        assert lines[0] == "epoch,mean_loss"
        assert len(lines) == 11

    def test_diverging_step_size_named(self, tmp_path):
        emb, lab = self._labeled_embeddings(tmp_path)
        model_path = tmp_path / "model.json"
        cfg = _write_config(tmp_path, "train.lr = 1e308")
        env = dict(
            os.environ,
            PYTHONPATH=str(Path(driftsketch.__file__).parents[1]),
            PYTHONWARNINGS="default",
        )
        proc = subprocess.run(
            [sys.executable, "-m", "driftsketch.cli", "train-head", emb, "--labels", lab,
             "--config", cfg, "--out", str(model_path)],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 3
        assert "driftsketch: non-finite-parameter: training diverged at epoch" in proc.stderr
        assert "RuntimeWarning" not in proc.stderr
        assert not model_path.exists()

    def test_missing_label_is_data_error(self, tmp_path):
        emb, lab = self._labeled_embeddings(tmp_path)
        Path(lab).write_text("s0 1\n")
        code = main(["train-head", emb, "--labels", lab, "--out", str(tmp_path / "m.json")])
        assert code == 3

    def test_label_ids_may_hold_whitespace(self, tmp_path):
        """A labels line splits on its last whitespace run only."""
        lab = tmp_path / "labels.txt"
        lab.write_text("a b.pgm 1\n  c\td.pgm\t0  \n# a b 1\n\né  f.pgm \t 1\n", encoding="utf-8")
        assert _read_labels(str(lab)) == {"a b.pgm": 1, "c\td.pgm": 0, "é  f.pgm": 1}
        lab.write_text("a b.pgm 2\n")
        with pytest.raises(DataError, match=r"malformed-file\(line 1\): expected '<id> <0\|1>'"):
            _read_labels(str(lab))

    @given(
        lines=st.lists(
            st.text(st.sampled_from(["a", "é", " ", "\t", "\xa0", "0", "1", "#"]), max_size=7)
            | st.tuples(
                st.sampled_from(["", " ", "#"]),
                st.text(st.sampled_from(["a", "é", "0", "#"]), min_size=1, max_size=3),
                st.sampled_from([" ", "\t", " \xa0"]),
                st.sampled_from(["0", "1", "2"]),
            ).map("".join),
            max_size=5,
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_labels_files_that_read_before_read_the_same(self, lines):
        """Every labels file that the two-field reader read gives the same labels."""
        with tempfile.TemporaryDirectory() as root:
            path = Path(root, "labels.txt")
            path.write_text("\n".join(lines), encoding="utf-8")
            try:
                before = reference_path.read_labels(str(path))
            except DataError:
                event("the two-field reader rejects the file")
                return
            assert _read_labels(str(path)) == before


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

    @pytest.mark.parametrize("groups", ["0", "1"])
    def test_group_count_checked_before_the_input(self, tmp_path, capsys, groups):
        """Too few groups is a usage error (exit 2) by SplitPlan's own rule,
        whether or not the input can be read."""
        out = tmp_path / "plan.json"
        argv = ["split", str(tmp_path / "missing.txt"), "--groups", groups, "--out", str(out)]
        assert main(argv) == 2
        assert f"config-invalid: n_groups must be >= 2, got {groups}" in capsys.readouterr().err
        assert not out.exists()

    def test_ids_kept_exactly_as_written(self, tmp_path):
        """Each line that is not blank is an id as it stands: spaces and tabs
        at either end stay (they were stripped before), and blank lines are
        skipped."""
        ids_path = tmp_path / "ids.txt"
        ids_path.write_text(" a\nb \n\n   \n\tc\td\t\na\n", encoding="utf-8")
        out = str(tmp_path / "plan.json")
        assert main(["split", str(ids_path), "--groups", "2", "--out", out]) == 0
        assert sorted(load_split(out).assignment) == sorted([" a", "b ", "\tc\td\t", "a"])

    @pytest.mark.parametrize("version", ["v1", "v3"])
    def test_embedding_file_ids_split_exactly(self, tmp_path, version):
        """An embedding file is split by its ids, not by its lines: the v1
        header line is no id, and a v3 file's ids hold spaces and a line break."""
        emb = tmp_path / "e.emb"
        if version == "v1":
            emb.write_text("driftsketch-emb v1 dim=1 count=3\na 0.1\nb 0.2\n\nc 0.3\n")
            ids = ["a", "b", "c"]
        else:
            ids = [" a", "b c", "d\ne", "é"]
            store.write_embeddings([FeatureVector([0.5], sid) for sid in ids], str(emb))
        out = str(tmp_path / "plan.json")
        assert main(["split", str(emb), "--groups", "2", "--out", out]) == 0
        assert sorted(load_split(out).assignment) == sorted(ids)


class TestErrors:
    def test_unknown_flag_exits_two(self, baseline_dir, tmp_path, capsys):
        code = main(["extract", baseline_dir, "--out", str(tmp_path / "x"), "--bogus"])
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [["extract", "in"], ["build-baseline", "in"], ["train-head", "e", "--labels", "l"],
         ["split", "ids"]],
        ids=lambda argv: argv[0],
    )
    def test_format_only_on_report_commands(self, tmp_path, capsys, argv):
        """Only gate, drift and sweep write reports, so only they take --format."""
        out = tmp_path / "out"
        assert main([*argv, "--format", "csv", "--out", str(out)]) == 2
        assert "unrecognized arguments: --format csv" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, flag",
        [(argv, flag)
         for argv in (["extract", "in"], ["build-baseline", "in"],
                      ["train-head", "e", "--labels", "l"], ["split", "ids"])
         for flag in ("--j-alpha", "--ks-alpha")]
        + [(["gate", "in", "--library", "l"], "--ks-alpha"),
           (["sweep", "b", "t", "--noise", "gaussian", "--levels", "0"], "--ks-alpha")],
        ids=lambda value: value if isinstance(value, str) else value[0],
    )
    def test_alpha_flags_only_where_read(self, tmp_path, capsys, argv, flag):
        """--j-alpha is taken by the subcommands that gate (gate, drift, sweep)
        and --ks-alpha by drift alone, the one whose output it changes."""
        out = tmp_path / "out"
        assert main([*argv, flag, "0.5", "--out", str(out)]) == 2
        assert f"unrecognized arguments: {flag} 0.5" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_subcommand_exits_two(self):
        assert main(["frobnicate"]) == 2

    def test_bad_config_key_exits_two(self, tmp_path, baseline_dir):
        cfg = _write_config(tmp_path, "nonsense.key = 1")
        code = main(["extract", baseline_dir, "--config", cfg, "--out", str(tmp_path / "x")])
        assert code == 2

    @pytest.mark.parametrize(
        "key", ["gate.j_alpha", "train.lr", "stats.ks_alpha", "quant.bin_width"]
    )
    def test_none_for_required_float_exits_two(self, tmp_path, baseline_dir, capsys, key):
        cfg = _write_config(tmp_path, f"{key} = none")
        code = main(["build-baseline", baseline_dir, "--config", cfg,
                     "--out", str(tmp_path / "lib.dskl")])
        assert code == 2
        err = capsys.readouterr().err
        assert "config-invalid" in err and key in err
        assert "Traceback" not in err
        assert not (tmp_path / "lib.dskl").exists()

    @pytest.mark.parametrize(
        "text",
        [
            "quant.bin_width = inf",
            "quant.origin = nan",
            "quant.clamp_lo = -inf\nquant.clamp_hi = 1",
            "quant.clamp_hi = inf\nquant.clamp_lo = 0",
            "train.lr = nan",
            "train.epsilon = nan",
        ],
        ids=lambda text: text.partition(" ")[0],
    )
    def test_non_finite_float_exits_two(self, tmp_path, baseline_dir, capsys, text):
        if text.startswith("train."):
            emb, lab = TestTrainHead()._labeled_embeddings(tmp_path)
            argv = ["train-head", emb, "--labels", lab]
        else:
            argv = ["build-baseline", baseline_dir]
        out = tmp_path / "out"
        code = main([*argv, "--config", _write_config(tmp_path, text), "--out", str(out)])
        assert code == 2
        assert "config-invalid" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "lo, hi, expected", [("none", "None", (None, None)), ("-1", "1.5", (-1.0, 1.5))]
    )
    def test_optional_clamp_parsed(self, tmp_path, baseline_dir, lo, hi, expected):
        cfg = _write_config(tmp_path, f"quant.clamp_lo = {lo}\nquant.clamp_hi = {hi}")
        lib = str(tmp_path / "lib.dskl")
        assert main(["build-baseline", baseline_dir, "--config", cfg, "--out", lib]) == 0
        quant = read_library(lib).quant_config
        assert (quant.clamp_lo, quant.clamp_hi) == expected

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

    @pytest.mark.parametrize(
        "text, flag, value",
        [("gate.j_alpha = 5", "--j-alpha", 0.5), ("stats.ks_alpha = 5", "--ks-alpha", 0.05)],
    )
    def test_flag_overrides_bad_file_value(self, tmp_path, baseline_dir, capsys, text, flag, value):
        out = tmp_path / "d.jsonl"
        argv = ["drift", baseline_dir, baseline_dir, "--config", _write_config(tmp_path, text),
                "--out", str(out)]
        assert main([*argv, flag, str(value)]) == 0
        section, _, key = text.partition(" ")[0].partition(".")
        assert read_drift_report(str(out))[1][section][key] == value
        out.unlink()
        assert main([*argv, flag, "5"]) == 2
        assert "config-invalid" in capsys.readouterr().err
        assert not out.exists()

    def test_config_flag_overrides_file(self, tmp_path, baseline_dir):
        periods = _period_dirs(tmp_path, n_periods=2)
        cfg = _write_config(tmp_path, "stats.ks_alpha = 0.2")
        out = str(tmp_path / "d.jsonl")
        main(["drift", baseline_dir, *periods, "--config", cfg, "--ks-alpha", "0.01", "--out", out])
        report, _ = read_drift_report(out)
        assert report.ks_alpha == 0.01

    @pytest.mark.parametrize(
        "key, first, last", [("gate.j_alpha", "0.5", "0.7"), ("seed", "1", "2")]
    )
    def test_repeated_config_key_exits_two(self, tmp_path, baseline_dir, capsys, key, first, last):
        """A key set twice is named with both its lines; neither value wins."""
        cfg = _write_config(tmp_path, f"{key} = {first}\n# comment\n{key} = {last}")
        out = tmp_path / "lib.dskl"
        assert main(["build-baseline", baseline_dir, "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"driftsketch: config-invalid: {cfg}:3: key {key!r} repeats line 1\n"
        )
        assert not out.exists()

    def test_unexpected_exception_is_an_internal_error(self, tmp_path, monkeypatch, capsys):
        """A fault of the program exits 3 with one named line and no traceback,
        never 1, which reads as a detection."""
        def fail(args):
            raise RuntimeError("boom")

        monkeypatch.setitem(driftsketch.cli._COMMANDS, "split", fail)
        assert main(["split", "ids.txt", "--out", str(tmp_path / "plan.json")]) == 3
        assert capsys.readouterr().err == "driftsketch: internal-error: RuntimeError: boom\n"


class TestNonUtf8Inputs:
    """A text input holding a byte that is not UTF-8 gets a named error that
    names the file: exit 2 for the config file, a usage input, else exit 3."""

    _BAD = b"\xff"

    def test_config_file_exits_two(self, tmp_path, baseline_dir, capsys):
        cfg = tmp_path / "driftsketch.cfg"
        cfg.write_bytes(b"gate.j_alpha = 0.5 # " + self._BAD + b"\n")
        out = tmp_path / "x.emb"
        assert main(["extract", baseline_dir, "--config", str(cfg), "--out", str(out)]) == 2
        assert f"config-invalid: cannot read {cfg}: not UTF-8 text" in capsys.readouterr().err
        assert not out.exists()

    def test_labels_file_exits_three(self, tmp_path, capsys):
        emb, lab = tmp_path / "train.emb", tmp_path / "labels.txt"
        emb.write_text("driftsketch-emb v1 dim=2 count=2\ns0 0.1 0.2\ns1 0.3 0.4\n")
        lab.write_bytes(b"s0 1\ns1 " + self._BAD + b"\n")
        out = tmp_path / "m.json"
        assert main(["train-head", str(emb), "--labels", str(lab), "--out", str(out)]) == 3
        assert f"io-error: cannot read {lab}: not UTF-8 text" in capsys.readouterr().err
        assert not out.exists()

    def test_split_ids_file_exits_three(self, tmp_path, capsys):
        ids = tmp_path / "ids.txt"
        ids.write_bytes(b"img0\nimg" + self._BAD + b"\n")
        out = tmp_path / "plan.json"
        assert main(["split", str(ids), "--groups", "2", "--out", str(out)]) == 3
        assert f"io-error: cannot read {ids}: not UTF-8 text" in capsys.readouterr().err
        assert not out.exists()

    def test_embedding_file_exits_three(self, tmp_path, capsys):
        emb = tmp_path / "base.emb"
        emb.write_bytes(b"driftsketch-emb v1 dim=2 count=2\na 0.1 0.2\nb" + self._BAD + b" 0.3 0.4\n")
        out = tmp_path / "lib.dskl"
        assert main(["build-baseline", str(emb), "--out", str(out)]) == 3
        assert f"malformed-file: cannot read {emb}: not UTF-8 text" in capsys.readouterr().err
        assert not out.exists()


class TestRunSeed:
    """Every subcommand checks its run seed, from the flag or the config
    file, before any work: outside [0, 2^64) it exits 2 with invalid-seed."""

    def test_gate_negative_seed_flag(self, tmp_path, baseline_dir, capsys):
        lib = str(tmp_path / "lib.dskl")
        assert main(["build-baseline", baseline_dir, "--out", lib]) == 0
        out = tmp_path / "v.jsonl"
        code = main(["gate", baseline_dir, "--library", lib, "--seed", "-1", "--out", str(out)])
        assert code == 2
        assert "invalid-seed" in capsys.readouterr().err
        assert not out.exists()

    def test_drift_seed_flag_past_64_bits(self, tmp_path, baseline_dir, capsys):
        periods = _period_dirs(tmp_path, n_periods=2, n_images=5)
        out = tmp_path / "d.jsonl"
        argv = ["drift", baseline_dir, *periods, "--out", str(out)]
        assert main([*argv, "--seed", str(2**64)]) == 2
        assert "invalid-seed" in capsys.readouterr().err
        assert not out.exists()
        assert main([*argv, "--seed", str(2**64 - 1)]) == 0

    def test_config_file_seed(self, tmp_path, baseline_dir, capsys):
        cfg = _write_config(tmp_path, "seed = -3")
        out = tmp_path / "lib.dskl"
        argv = ["build-baseline", baseline_dir, "--config", cfg, "--out", str(out)]
        assert main(argv) == 2
        assert "invalid-seed" in capsys.readouterr().err
        assert not out.exists()
        # the flag overrides the file's seed, which is then not the one in use
        assert main([*argv, "--seed", "7"]) == 0


class TestNumberText:
    """A number on the command line or in the config file is ASCII text
    without '_'. int() and float() read '1_0' as 10 and '١٢' (Arabic-Indic
    digits) as 12; each is a named config-invalid, exit 2, before any input
    is opened (none of these inputs exists)."""

    @pytest.mark.parametrize(
        "argv, name, text",
        [
            (["build-baseline", "in", "--seed"], "--seed", "1_0"),
            (["build-baseline", "in", "--seed"], "--seed", "١٢"),
            (["split", "ids", "--groups"], "--groups", "1_0"),
            (["split", "ids", "--groups"], "--groups", "١٢"),
            (["sweep", "b", "t", "--noise", "gaussian", "--levels"], "--levels", "1_0"),
            (["sweep", "b", "t", "--noise", "gaussian", "--levels"], "--levels", "٠.١"),
            (["gate", "in", "--library", "l", "--j-alpha"], "--j-alpha", "0_5"),
            (["gate", "in", "--library", "l", "--j-alpha"], "--j-alpha", "٠.٥"),
            (["drift", "b", "p", "--ks-alpha"], "--ks-alpha", "0_05"),
            (["drift", "b", "p", "--ks-alpha"], "--ks-alpha", "٠.٠٥"),
        ],
        ids=[f"{flag}-{digits}" for flag in ("seed", "groups", "levels", "j-alpha", "ks-alpha")
             for digits in ("underscore", "arabic-indic")],
    )
    def test_flag(self, tmp_path, capsys, argv, name, text):
        out = tmp_path / "out"
        value = f"0,{text}" if name == "--levels" else text
        assert main([*argv, value, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"driftsketch: config-invalid: cannot parse {name} = {text!r}\n" == err
        assert not out.exists()

    @pytest.mark.parametrize(
        "key, text", [("quant.bin_width", "0_05"), ("sketch.k", "1_28"), ("seed", "١٢")],
        ids=["bin_width-underscore", "k-underscore", "seed-arabic-indic"],
    )
    def test_config_file_value(self, tmp_path, capsys, key, text):
        out = tmp_path / "lib.dskl"
        cfg = _write_config(tmp_path, f"{key} = {text}")
        assert main(["build-baseline", "in", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"driftsketch: config-invalid: cannot parse {key} = {text!r}\n" == err
        assert not out.exists()

    @pytest.mark.parametrize(
        "text, message",
        [
            ("driftsketch-emb v1 dim=1_0 count=1\na 0.5\n", "malformed-file(line 1): "
             "non-integer dim/count in 'driftsketch-emb v1 dim=1_0 count=1'"),
            ("driftsketch-emb v1 dim=1 count=١\na 0.5\n", "malformed-file(line 1): "
             "non-integer dim/count in 'driftsketch-emb v1 dim=1 count=١'"),
            ("driftsketch-emb v1 dim=2 count=2\na 0.5 0.25\n\nb 0.5 1_0\n",
             "malformed-file(line 4): unparseable value"),
            ("driftsketch-emb v1 dim=2 count=1\na ١ 0.25\n",
             "malformed-file(line 2): unparseable value"),
        ],
        ids=["header-underscore", "header-arabic-indic", "value-underscore",
             "value-arabic-indic"],
    )
    def test_v1_embedding_file(self, tmp_path, capsys, text, message):
        """A v1 embedding file's sizes and values are ASCII number text too: a
        data error (exit 3) that names the line."""
        emb, out = tmp_path / "base.emb", tmp_path / "lib.dskl"
        emb.write_text(text, encoding="utf-8")
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            load_embeddings(str(emb))
        assert main(["build-baseline", str(emb), "--out", str(out)]) == 3
        assert f"driftsketch: {message}\n" == capsys.readouterr().err
        assert not out.exists()


_NAN, _INF = float("nan"), float("inf")

# values drawn from 0, -1, nan, inf, a string, null and a list that each library
# config field rejects; the other clamp bound stays null, so a clamp value is set alone
_FORGED_VALUES = {
    ("sketch", "k"): [0, -1, _NAN, _INF, "x", None, [1]],
    ("sketch", "hash_seed"): [-1, _NAN, _INF, "x", None, [1]],
    ("quant", "bin_width"): [0, -1, _NAN, _INF, "x", None, [1]],
    ("quant", "origin"): [_NAN, _INF, "x", None, [1]],
    ("quant", "clamp_lo"): [0, -1, _NAN, _INF, "x", [1]],
    ("quant", "clamp_hi"): [0, -1, _NAN, _INF, "x", [1]],
}
_FORGED = [(s, f, v) for (s, f), values in _FORGED_VALUES.items() for v in values]


class TestCorruptLibrary:
    @pytest.fixture
    def library_bytes(self, tmp_path, baseline_dir):
        lib = tmp_path / "lib.dskl"
        assert main(["build-baseline", baseline_dir, "--out", str(lib)]) == 0
        return lib.read_bytes()

    @settings(
        max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(forged=st.sampled_from(_FORGED))
    def test_forged_config_is_malformed_payload(
        self, tmp_path, baseline_dir, library_bytes, capsys, forged
    ):
        """A checksummed library whose sketch/quant config is invalid is bad data (exit 3)."""
        section, field, value = forged
        body = reference_path.library_body(library_bytes)
        end = 8 + int.from_bytes(body[:8], "little")
        obj = json.loads(body[8:end])
        obj[section][field] = value
        code, err = self._gate_forged(
            tmp_path, baseline_dir, capsys, json.dumps(obj).encode("utf-8"), body[end:]
        )
        assert code == 3
        assert "malformed-payload" in err
        assert "Traceback" not in err

    @staticmethod
    def _gate_forged(tmp_path, baseline_dir, capsys, header, data):
        """The exit code and stderr of gate against a library file of the
        current version holding ``header`` and ``data`` under a valid checksum."""
        body = len(header).to_bytes(8, "little") + header + data
        lib = tmp_path / "forged.dskl"
        lib.write_bytes(reference_path.seal_library(body, LIBRARY_VERSION))
        capsys.readouterr()
        query = os.path.join(baseline_dir, "img000.pgm")
        code = main(["gate", query, "--library", str(lib), "--out", "-"])
        return code, capsys.readouterr().err

    def test_deeply_nested_header_is_malformed_payload(self, tmp_path, baseline_dir, capsys):
        deep = b"[" * 200_000 + b"]" * 200_000
        code, err = self._gate_forged(tmp_path, baseline_dir, capsys, deep, b"")
        assert code == 3
        assert "malformed-payload" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("fault", ["repeated-row", "out-of-order", "unused-row", "index-at-u"])
    def test_non_canonical_rows_are_malformed_payload(
        self, tmp_path, baseline_dir, library_bytes, capsys, fault
    ):
        body = reference_path.library_body(library_bytes)
        end = 8 + int.from_bytes(body[:8], "little")
        header = json.loads(body[8:end])
        u, k = header["u"], header["k"]
        split = end + 8 * u * k
        rows = np.frombuffer(body[end:split], "<u8").reshape(u, k).copy()
        index = np.frombuffer(body[split:], "<u4").copy()
        assert u >= 2 and index[0] == 0
        if fault == "repeated-row":
            rows[-1] = rows[0]
        elif fault == "out-of-order":
            rows[[0, 1]] = rows[[1, 0]]
            index = np.where(index < 2, 1 - index, index).astype("<u4")
        elif fault == "unused-row":
            rows = np.vstack([rows, np.full(k, 2**64 - 1, np.uint64)])
            header["u"] = u + 1
        else:
            index[-1] = u
        code, err = self._gate_forged(
            tmp_path, baseline_dir, capsys, json.dumps(header).encode("utf-8"),
            rows.astype("<u8").tobytes() + index.tobytes(),
        )
        assert code == 3
        assert "malformed-payload" in err
        assert "Traceback" not in err


# ---------------------------------------------------------------------------
# whole-CLI property: gate, drift and sweep on arbitrary small inputs
# ---------------------------------------------------------------------------


# at most one defect per generated file; most files have none
_DEFECTS = st.sampled_from([None] * 6 + ["rgb", "tiny", "over-maxval", "cut", "junk"])


@st.composite
def _image_bytes(draw):
    """A small 8-bit PGM, or with one defect: RGB, smaller than the 4x4 grid,
    samples above maxval, cut short, or random bytes behind the magic."""
    defect = draw(_DEFECTS)
    magic = b"P6" if defect == "rgb" else b"P5"
    if defect == "junk":
        return magic + draw(st.binary(max_size=24))
    width = draw(st.integers(1, 3) if defect == "tiny" else st.integers(4, 9))
    height = draw(st.integers(4, 9))
    maxval = draw(st.sampled_from([7, 1] if defect == "over-maxval" else [255, 255, 7]))
    size = width * height * (3 if magic == b"P6" else 1)
    raster = draw(st.binary(min_size=size, max_size=size))
    if defect != "over-maxval":
        raster = bytes(b % (maxval + 1) for b in raster)
    data = magic + f"\n{width} {height}\n{maxval}\n".encode("ascii") + raster
    return data[: draw(st.integers(0, len(data) - 1))] if defect == "cut" else data


@st.composite
def _embedding_text(draw):
    """An embedding file of dim 1, 2 or 48 (the gray feature length), whose rows
    may have another dim or an extreme or unparseable value, and whose count
    may be off by one."""
    dim = draw(st.sampled_from([1, 2, 48]))
    rows = []
    for i in range(draw(st.integers(0, 3))):
        values = draw(st.lists(st.floats(-2.0, 2.0).map(repr), min_size=dim, max_size=dim))
        defect = draw(_DEFECTS)
        if defect in ("tiny", "cut"):
            values = values[: draw(st.integers(0, dim - 1))]
        elif defect == "rgb":
            values.append("0.5")
        elif defect is not None:
            odd = draw(st.sampled_from(["nan", "inf", "1e300", "1e-320", "-0", "x"]))
            values[draw(st.integers(0, dim - 1))] = odd
        rows.append(" ".join([f"r{i}", *values]))
    count = len(rows) + draw(st.sampled_from([0, 0, 0, 1]))
    return "\n".join([f"driftsketch-emb v1 dim={dim} count={count}", *rows]) + "\n"


@st.composite
def _embedding_binary(draw):
    """A v3 embedding file of dim 1, 2 or 48 with 0-3 rows, as the package writes
    it, or a v2 file, as the v2 writer wrote it (ids may hold spaces and
    non-ASCII), then kept, cut short at some byte, or with one byte xor-ed."""
    version = draw(st.sampled_from(["v3", "v3", "v2"]))
    dim = draw(st.sampled_from([1, 2, 48]))
    values = st.floats(-2.0, 2.0) | st.sampled_from([1e300, -0.0, 5e-324])
    rows = draw(st.lists(st.lists(values, min_size=dim, max_size=dim), max_size=3))
    ids = [draw(st.sampled_from([f"r{i}", f"é{i}", f"r {i}"])) for i in range(len(rows))]
    defect = draw(st.sampled_from([None, None, "cut", "flip"]))
    where, xor = draw(st.integers(0, 2**16)), draw(st.integers(1, 255))
    return version, dim, list(zip(ids, rows)), defect, where, xor


# an input: an image file, a directory of 0-3 image files, or an embedding file
# (v1 text, or v2 or v3 binary)
_INPUTS = st.one_of(
    st.tuples(st.just("image"), _image_bytes()),
    st.tuples(st.just("dir"), st.lists(_image_bytes(), max_size=3)),
    st.tuples(st.just("emb"), _embedding_text()),
    st.tuples(st.just("binary"), _embedding_binary()),
)


_DARK = b"P5\n4 4\n255\n" + bytes(range(16))
_BRIGHT = b"P5\n4 4\n255\n" + bytes(range(240, 256))


def _materialize(root, name, spec):
    kind, content = spec
    path = os.path.join(root, name)
    if kind == "image":
        path += ".pgm"
        Path(path).write_bytes(content)
    elif kind == "emb":
        path += ".emb"
        Path(path).write_text(content)
    elif kind == "binary":
        path += ".emb"
        version, dim, records, defect, where, xor = content
        features = [FeatureVector(v, sid) for sid, v in records]
        if version == "v2":
            Path(path).write_bytes(reference_path.encode_embeddings_v2(features, dim))
        else:
            store.write_embeddings(features, path, dim=dim)
        data = Path(path).read_bytes()
        where %= len(data)
        if defect == "cut":
            data = data[:where]
        elif defect == "flip":
            data = data[:where] + bytes([data[where] ^ xor]) + data[where + 1 :]
        Path(path).write_bytes(data)
    else:
        os.makedirs(path)
        for i, data in enumerate(content):
            Path(path, f"i{i}.pgm" if data[:2] == b"P5" else f"i{i}.ppm").write_bytes(data)
    return path


def _run_cli(argv):
    """main(argv) with every warning recorded; fails on any warning."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    assert [str(w.message) for w in caught] == []
    assert code in (0, 1, 2, 3)
    return code


# mostly no seed flag, sometimes one out of range
_SEEDS = st.sampled_from([None, None, None, 0, 2**64, -1])
_SPLIT_IDS = st.sampled_from(["a", "b", " c ", "d e", "é", "f\tg", "", "   "])


class TestWholeCliProperty:
    """Every subcommand that reads images or embeddings, on arbitrary small
    inputs. gate, drift and sweep, in both formats: every
    run exits 0-3, raises nothing, warns nothing, writes a report only when it
    exits 0 or 1, and exits 1 exactly when that report holds an anomalous
    verdict or a drift flag."""

    @given(
        command=st.sampled_from(["gate", "drift", "sweep"]),
        fmt=st.sampled_from(["jsonl", "csv"]),
        baseline=_INPUTS,
        inputs=st.lists(_INPUTS | st.just("baseline"), min_size=1, max_size=2),
        noise=st.sampled_from(["gaussian", "salt-pepper", "speckle", "poisson"]),
        levels=st.sampled_from(["0", "0,0.3", "0.5,0.1", "0,2", "nan", "0,1e-17"]),
    )
    @example(  # a dark baseline against a bright period: a drift flag and an anomaly
        command="drift", fmt="csv", baseline=("image", _DARK), inputs=[("image", _BRIGHT)],
        noise="gaussian", levels="0",
    )
    @settings(max_examples=200, deadline=None)
    def test_exit_code_matches_report(self, command, fmt, baseline, inputs, noise, levels):
        with tempfile.TemporaryDirectory() as root:
            base = _materialize(root, "base", baseline)
            paths = [
                _materialize(root, f"in{i}", baseline if spec == "baseline" else spec)
                for i, spec in enumerate(inputs)
            ]
            out = os.path.join(root, f"report.{fmt}")
            if command == "gate":
                lib = os.path.join(root, "base.dskl")
                assert _run_cli(["build-baseline", base, "--out", lib]) in (0, 3)
                argv = ["gate", paths[0], "--library", lib]
            elif command == "drift":
                argv = ["drift", base, *paths]
            else:
                argv = ["sweep", base, paths[0], "--noise", noise, "--levels", levels]
            code = _run_cli([*argv, "--format", fmt, "--out", out])
            event(f"{command} exits {code}")
            if code in (2, 3):
                assert not os.path.exists(out)
                return
            kind = {"gate": "gate", "drift": "drift", "sweep": "sensitivity"}[command]
            report, _ = read_report(out, f"{kind}_report")
            if command == "gate":
                flagged = any(r.anomalous for r in report.rows)
            elif command == "drift":
                flagged = any(p.drift_flag for p in report.periods)
            else:
                flagged = False  # a sensitivity report holds no flags
            assert (code == 1) == flagged

    @given(
        command=st.sampled_from(["extract", "build-baseline"]),
        inputs=st.lists(_INPUTS, min_size=1, max_size=2),
        seed=st.sampled_from([None, None, 0, 2**64, -1]),
    )
    @settings(max_examples=200, deadline=None)
    def test_extract_and_build_baseline_exit_codes(self, command, inputs, seed):
        """extract and build-baseline on arbitrary small inputs exit 0 with a
        readable output, 2 exactly when the seed is out of range, or 3 with no
        output; they never exit 1, which they have no verdict to report."""
        with tempfile.TemporaryDirectory() as root:
            paths = [_materialize(root, f"in{i}", spec) for i, spec in enumerate(inputs)]
            out = os.path.join(root, "out")
            argv = [command, *paths] if command == "extract" else [command, paths[0]]
            if seed is not None:
                argv += ["--seed", str(seed)]
            code = _run_cli([*argv, "--out", out])
            event(f"{command} exits {code}")
            assert code in (0, 2, 3)
            assert (code == 2) == (seed in (2**64, -1))
            assert os.path.exists(out) == (code == 0)
            if code == 0 and command == "extract":
                assert len(load_embeddings(out)) > 0
            elif code == 0:
                assert len(read_library(out)) > 0

    @given(
        embeddings=st.one_of(
            st.tuples(st.just("emb"), _embedding_text()),
            st.tuples(st.just("binary"), _embedding_binary()),
            _INPUTS,
        ),
        # every id the embedding strategies draw that a label line can name,
        # or arbitrary lines, or bytes that are not UTF-8
        labels=st.just([f"{p}{i} {i % 2}" for p in ("r", "é") for i in range(4)])
        | st.lists(
            st.sampled_from(["r0 1", "r1 0", "r2 1", "r 0 0", "é1 1", "r0 2", "# c", "", "x"]),
            max_size=5,
        )
        | st.just(b"r0 \xff"),
        config=st.sampled_from(
            ["", "", "train.epochs = 2", "train.lr = 0.5", "train.lr = 1e308", "train.lr = 0"]
        ),
        seed=_SEEDS,
        curve=st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_train_head_exit_codes(self, embeddings, labels, config, seed, curve):
        """train-head on arbitrary small inputs exits 0 with a loadable model of
        the embeddings' dimension (and a curve line per epoch when asked), 2
        exactly for an out-of-range seed or an invalid config, or 3 with no
        model; it never exits 1, which it has no verdict to report."""
        with tempfile.TemporaryDirectory() as root:
            emb = _materialize(root, "emb", embeddings)
            lab = Path(root, "labels.txt")
            if isinstance(labels, bytes):
                lab.write_bytes(labels)
            else:
                lab.write_text("\n".join(labels) + "\n", encoding="utf-8")
            cfg = Path(root, "run.cfg")
            cfg.write_text(config + "\n")
            out, curve_path = os.path.join(root, "model.json"), os.path.join(root, "curve.csv")
            argv = ["train-head", emb, "--labels", str(lab), "--config", str(cfg)]
            argv += ["--curve", curve_path] if curve else []
            argv += [] if seed is None else ["--seed", str(seed)]
            code = _run_cli([*argv, "--out", out])
            event(f"train-head exits {code}")
            assert code in (0, 2, 3)
            assert (code == 2) == (seed in (2**64, -1) or config == "train.lr = 0")
            assert os.path.exists(out) == (code == 0)
            if code == 0:
                assert load_model(out).w.shape == (load_embeddings(emb)[0].dim,)
                epochs = 2 if config == "train.epochs = 2" else 20
                assert os.path.exists(curve_path) == curve
                if curve:
                    assert len(Path(curve_path).read_text().splitlines()) == 1 + epochs

    @given(
        stems=st.lists(
            st.text(st.sampled_from(["a", "b", " ", "\t", "é", "中", "\xa0"]), max_size=4),
            min_size=2, max_size=4,
        ),
        # a first character a labels line can hold, or one that it cannot
        first=st.sampled_from(["a", "a", "a", "é", " ", "\t", "\xa0", "#", "\r", "\n"]),
        sep=st.sampled_from([" ", "\t", " \t "]),
    )
    @settings(max_examples=100, deadline=None)
    def test_extract_then_train_head_with_any_id(self, stems, first, sep):
        """Image files whose names hold spaces, tabs and non-ASCII characters
        go through extract, then split, whose plan holds the file's ids
        exactly, and a labels file naming each id, then train-head to a
        model. An id that a labels line cannot hold (leading whitespace, a
        leading '#', a line break) ends in a named error, exit 3."""
        ids = sorted(f"{first if k == 0 else 'a'}{stem}{k}.pgm" for k, stem in enumerate(stems))
        with tempfile.TemporaryDirectory() as root:
            images = Path(root, "images")
            images.mkdir()
            for k, sid in enumerate(ids):
                raster = bytes((37 * k + 7 * j) % 256 for j in range(16))
                Path(images, sid).write_bytes(b"P5\n4 4\n255\n" + raster)
            emb, lab, out = (os.path.join(root, n) for n in ("e.emb", "labels.txt", "model.json"))
            assert _run_cli(["extract", str(images), "--out", emb]) == 0
            assert [v.source_id for v in load_embeddings(emb)] == ids
            plan = os.path.join(root, "plan.json")
            assert _run_cli(["split", emb, "--groups", "2", "--out", plan]) == 0
            assert sorted(load_split(plan).assignment) == ids
            lines = [f"{sid}{sep}{i % 2}\n" for i, sid in enumerate(ids)]
            Path(lab).write_text("".join(lines), encoding="utf-8")
            stderr = io.StringIO()
            with contextlib.redirect_stderr(stderr):
                code = _run_cli(["train-head", emb, "--labels", lab, "--out", out])
            held = all(
                sid == sid.strip() and not sid.startswith("#") and not set(sid) & {"\r", "\n"}
                for sid in ids
            )
            event(f"train-head exits {code}")
            assert code == (0 if held else 3)
            assert os.path.exists(out) == held
            if held:
                assert load_model(out).w.shape == (load_embeddings(emb)[0].dim,)
            else:
                assert stderr.getvalue().startswith("driftsketch: unlabelable-id: ")

    @given(
        ids=st.lists(
            st.text(st.sampled_from(["a", "b", " ", "\t", "é", "中", "\xa0", "\u2028", "#", "\n",
                                     "\r"]), max_size=4),
            min_size=2, max_size=5, unique=True,
        ),
    )
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_any_embedding_id_through_split_and_train_head(self, ids):
        """Any ids an embedding file holds, the empty id and ids with spaces,
        tabs, line breaks and non-ASCII characters among them: split's plan
        holds them exactly, and train-head, given a labels line for each id a
        line can hold, trains a model, or names the first id no line can
        hold (unlabelable-id), exit 3."""
        features = [FeatureVector([float(i), float(-i)], sid) for i, sid in enumerate(ids)]
        with tempfile.TemporaryDirectory() as root:
            emb, lab, plan, out = (
                os.path.join(root, n) for n in ("e.emb", "labels.txt", "plan.json", "model.json")
            )
            store.write_embeddings(features, emb)
            assert _run_cli(["split", emb, "--groups", "2", "--out", plan]) == 0
            assert sorted(load_split(plan).assignment) == sorted(ids)
            held = [sid == sid.strip() != "" and sid[0] != "#" and not set(sid) & {"\r", "\n"}
                    for sid in ids]
            lines = [f"{sid} {i % 2}\n" for i, (sid, ok) in enumerate(zip(ids, held)) if ok]
            Path(lab).write_text("".join(lines), encoding="utf-8")
            stderr = io.StringIO()
            with contextlib.redirect_stderr(stderr):
                code = _run_cli(["train-head", emb, "--labels", lab, "--out", out])
            event(f"train-head exits {code}")
            assert code == (0 if all(held) else 3)
            if not all(held):
                first = ids[held.index(False)]
                error = f"driftsketch: unlabelable-id: no labels line can hold the id {first!r}\n"
                assert stderr.getvalue() == error

    @given(
        ids=st.lists(_SPLIT_IDS, max_size=8, unique_by=str.strip)
        | st.lists(_SPLIT_IDS, max_size=8)
        | st.just(b"a\nb\xff\n"),
        groups=st.sampled_from(["2", "3", "7", "1", "0", "-1", "1000000"]),
        seed=_SEEDS,
    )
    @settings(max_examples=200, deadline=None)
    def test_split_exit_codes(self, ids, groups, seed):
        """split on arbitrary small id files exits 0 with a plan that puts every
        non-blank id, exactly as written, in exactly one of the groups, 2 for an
        out-of-range seed or fewer than two groups, or 3 with no plan (unreadable
        file, duplicate ids, fewer ids than groups); never 1."""
        with tempfile.TemporaryDirectory() as root:
            path = Path(root, "ids.txt")
            if isinstance(ids, bytes):
                path.write_bytes(ids)
            else:
                path.write_text("\n".join(ids) + "\n", encoding="utf-8")
            out = os.path.join(root, "plan.json")
            argv = ["split", str(path), "--groups", groups]
            argv += [] if seed is None else ["--seed", str(seed)]
            code = _run_cli([*argv, "--out", out])
            event(f"split exits {code}")
            assert code in (0, 2, 3)
            assert os.path.exists(out) == (code == 0)
            if seed in (2**64, -1):
                assert code == 2
            elif int(groups) < 2:
                assert code in (2, 3)  # 3 only when the ids file is unreadable
            if code == 0:
                plan = load_split(out)
                expected = [x for x in ids if x.strip()]
                assert plan.n_groups == int(groups)
                assert sorted(plan.assignment) == sorted(expected)
                assert sorted(len(g) for g in plan.groups())[-1] - min(
                    len(g) for g in plan.groups()
                ) <= 1

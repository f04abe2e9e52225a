import hashlib

import numpy as np
import pytest

from driftsketch import (
    ConfigError,
    DataError,
    FeatureVector,
    ImageGrid,
    QuantConfig,
    SketchConfig,
    StoreError,
    build_library,
    load_embeddings,
    load_image,
    load_library,
    read_drift_report,
    read_sensitivity_report,
    save_image,
    save_library,
    split_dataset,
    write_embeddings,
    write_report,
)
from driftsketch.core import seeded_rng
from driftsketch.head import HeadModel, TrainConfig
from driftsketch.noiselab import SensitivityReport, SensitivityRow
from driftsketch.stats import DriftReport, PeriodStats
from driftsketch.store import (
    load_model,
    load_split,
    read_library,
    save_model,
    save_split,
    write_library,
)


class TestLoadImage:
    def test_p5_maps_bytes_to_unit_range(self, tmp_path):
        path = tmp_path / "g.pgm"
        path.write_bytes(b"P5\n2 2\n255\n" + bytes([0, 128, 255, 64]))
        img = load_image(str(path))
        assert (img.width, img.height, img.channels) == (2, 2, 1)
        np.testing.assert_allclose(img.pixels, [0, 128 / 255, 1, 64 / 255])

    def test_p6_single_pixel(self, tmp_path):
        path = tmp_path / "c.ppm"
        path.write_bytes(b"P6\n1 1\n255\n" + bytes([255, 0, 0]))
        img = load_image(str(path))
        assert img.channels == 3
        np.testing.assert_allclose(img.pixels, [1.0, 0.0, 0.0])

    def test_truncated_raster(self, tmp_path):
        path = tmp_path / "t.pgm"
        path.write_bytes(b"P5\n2 2\n255\n" + bytes([0, 1, 2]))
        with pytest.raises(StoreError, match="truncated-data"):
            load_image(str(path))

    def test_header_comments_allowed(self, tmp_path):
        path = tmp_path / "c.pgm"
        path.write_bytes(b"P5\n# a comment\n2 1 # trailing\n255\n" + bytes([10, 20]))
        img = load_image(str(path))
        assert (img.width, img.height) == (2, 1)

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "x.pgm"
        path.write_bytes(b"P3\n1 1\n255\n1 2 3\n")
        with pytest.raises(StoreError, match="unsupported-format"):
            load_image(str(path))

    def test_sixteen_bit_rejected(self, tmp_path):
        path = tmp_path / "w.pgm"
        path.write_bytes(b"P5\n1 1\n65535\n" + bytes([0, 0]))
        with pytest.raises(StoreError, match="unsupported-format"):
            load_image(str(path))

    def test_corrupt_header(self, tmp_path):
        path = tmp_path / "h.pgm"
        path.write_bytes(b"P5\nabc def\n255\n")
        with pytest.raises(StoreError, match="corrupt-header"):
            load_image(str(path))

    def test_round_trip_via_save(self, tmp_path):
        rng = seeded_rng(1, "img-rt")
        img = ImageGrid.from_array(rng.integers(0, 256, (5, 7)).astype(np.float64) / 255.0)
        path = tmp_path / "rt.pgm"
        save_image(img, str(path))
        again = load_image(str(path))
        np.testing.assert_allclose(again.pixels, img.pixels)

    def test_rgb_round_trip(self, tmp_path):
        rng = seeded_rng(2, "img-rgb")
        img = ImageGrid.from_array(rng.integers(0, 256, (4, 3, 3)).astype(np.float64) / 255.0)
        path = tmp_path / "rt.ppm"
        save_image(img, str(path))
        again = load_image(str(path))
        assert again.channels == 3
        np.testing.assert_allclose(again.pixels, img.pixels)


def _every_bit_flip_detected(path, loader, step=1):
    """Flip one bit at a sample of byte positions; the loader must raise."""
    original = open(path, "rb").read()
    rng = seeded_rng(99, "bitflip")
    for pos in range(0, len(original), step):
        bit = int(rng.integers(0, 8))
        corrupted = bytearray(original)
        corrupted[pos] ^= 1 << bit
        with open(path, "wb") as fh:
            fh.write(bytes(corrupted))
        with pytest.raises(StoreError):
            loader(path)
    with open(path, "wb") as fh:
        fh.write(original)


class TestLibraryPersistence:
    def _library(self):
        rng = seeded_rng(3, "lib-rt")
        feats = [
            FeatureVector(values=rng.uniform(0, 1, 6), source_id=f"f{i}") for i in range(5)
        ]
        return build_library(
            feats,
            QuantConfig(bin_width=0.07, origin=-0.1, clamp_lo=-1.0, clamp_hi=2.0),
            SketchConfig(k=32, hash_seed=12),
            extract_fingerprint="deadbeef01234567",
        )

    def test_round_trip_structural_equality(self):
        lib = self._library()
        again = load_library(save_library(lib))
        assert again.sketch_config == lib.sketch_config
        assert again.quant_config == lib.quant_config
        assert again.extract_fingerprint == lib.extract_fingerprint
        assert [sid for sid, _ in again.entries] == [sid for sid, _ in lib.entries]
        for (_, a), (_, b) in zip(again.entries, lib.entries):
            np.testing.assert_array_equal(a.minima, b.minima)

    def test_file_round_trip(self, tmp_path):
        lib = self._library()
        path = tmp_path / "lib.dskl"
        write_library(lib, str(path))
        again = read_library(str(path))
        assert again.sketch_config == lib.sketch_config

    def test_write_read_write_byte_identical(self, tmp_path):
        lib = self._library()
        first, second = tmp_path / "a.dskl", tmp_path / "b.dskl"
        write_library(lib, str(first))
        again = read_library(str(first))
        write_library(again, str(second))
        assert first.read_bytes() == second.read_bytes()
        assert again.ids == lib.ids
        np.testing.assert_array_equal(again.minima_matrix(), lib.minima_matrix())
        assert not again.minima_matrix().flags.writeable

    def test_negative_minimum_is_malformed(self):
        data = save_library(self._library())
        payload = data[14:-8].replace(b'"minima":[', b'"minima":[-', 1)
        forged = (
            data[:6]
            + len(payload).to_bytes(8, "little")
            + payload
            + hashlib.blake2b(payload, digest_size=8).digest()
        )
        with pytest.raises(StoreError, match="malformed-payload"):
            load_library(forged)

    def test_payload_bit_flip_detected(self):
        data = bytearray(save_library(self._library()))
        data[20] ^= 0x10
        with pytest.raises(StoreError, match="checksum-mismatch|bad-magic|version-unsupported"):
            load_library(bytes(data))

    def test_every_byte_flip_detected(self, tmp_path):
        path = tmp_path / "lib.dskl"
        write_library(self._library(), str(path))
        _every_bit_flip_detected(str(path), read_library)

    def test_empty_file_bad_magic(self):
        with pytest.raises(StoreError, match="bad-magic"):
            load_library(b"")

    def test_unknown_version(self):
        data = bytearray(save_library(self._library()))
        data[4] = 99
        with pytest.raises(StoreError, match="version-unsupported"):
            load_library(bytes(data))


class TestModelPersistence:
    def test_round_trip(self, tmp_path):
        rng = seeded_rng(4, "model-rt")
        model = HeadModel(w=rng.standard_normal(8), b=-0.25)
        path = tmp_path / "model.json"
        save_model(model, str(path), train_config=TrainConfig(lr=0.01, seed=5))
        again = load_model(str(path))
        np.testing.assert_array_equal(again.w, model.w)
        assert again.b == model.b

    def test_every_byte_flip_detected(self, tmp_path):
        model = HeadModel(w=[0.5, -1.5, 2.0], b=0.125)
        path = tmp_path / "model.json"
        save_model(model, str(path))
        _every_bit_flip_detected(str(path), load_model)


def _drift_report():
    return DriftReport(
        baseline_id="base",
        ks_alpha=0.05,
        periods=(
            PeriodStats("m1", 20, 0.015, 0.93, 0.999998, 0, False),
            PeriodStats("m2", 20, 0.4, 0.0003, 0.81, 5, True),
            PeriodStats("m3,tricky", 18, 0.2, 0.06, 0.95, 1, False),
        ),
    )


def _sensitivity_report():
    return SensitivityReport(
        noise_kind="salt_pepper",
        rows=(
            SensitivityRow(0.0, 1.0, 0.0, 1.0, 0.0),
            SensitivityRow(0.05, 0.996, 0.08, 0.2, 0.1),
            SensitivityRow(0.5, 0.9, 0.5, 1e-30, 1.0),
        ),
    )


class TestReportPersistence:
    @pytest.mark.parametrize("fmt", ["jsonl", "csv"])
    def test_drift_round_trip(self, tmp_path, fmt):
        report = _drift_report()
        path = tmp_path / f"drift.{fmt}"
        write_report(report, fmt, str(path))
        again, config = read_drift_report(str(path))
        assert again == report
        assert config is None

    @pytest.mark.parametrize("fmt", ["jsonl", "csv"])
    def test_sensitivity_round_trip(self, tmp_path, fmt):
        report = _sensitivity_report()
        path = tmp_path / f"sens.{fmt}"
        write_report(report, fmt, str(path))
        again, _ = read_sensitivity_report(str(path))
        assert again == report

    def test_config_embedded_and_recovered(self, tmp_path):
        path = tmp_path / "drift.jsonl"
        cfg = {"sketch": {"k": 128}, "seed": 3}
        write_report(_drift_report(), "jsonl", str(path), config=cfg)
        _, got = read_drift_report(str(path))
        assert got == cfg

    def test_csv_line_count_without_config(self, tmp_path):
        # 1 column-header line + 3 rows (plus kind/checksum comment lines)
        path = tmp_path / "drift.csv"
        write_report(_drift_report(), "csv", str(path))
        lines = path.read_text().splitlines()
        data = [ln for ln in lines if not ln.startswith("#")]
        assert len(data) == 1 + 3
        assert data[0].split(",")[0] == "period_id"

    def test_files_end_with_newline(self, tmp_path):
        for fmt in ("jsonl", "csv"):
            path = tmp_path / f"r.{fmt}"
            write_report(_drift_report(), fmt, str(path))
            assert path.read_bytes().endswith(b"\n")

    @pytest.mark.parametrize("fmt", ["jsonl", "csv"])
    def test_every_byte_flip_detected(self, tmp_path, fmt):
        path = tmp_path / f"drift.{fmt}"
        write_report(_drift_report(), fmt, str(path))
        _every_bit_flip_detected(str(path), lambda p: read_drift_report(p), step=3)

    def test_seventeen_digit_reals_round_trip(self, tmp_path):
        # a value whose shortest repr is shorter than 17 digits still must
        # round-trip bit-exactly
        report = DriftReport(
            baseline_id="b",
            ks_alpha=0.05,
            periods=(PeriodStats("p", 1, 1 / 3, 2 / 3, 0.1 + 0.2, 0, False),),
        )
        for fmt in ("jsonl", "csv"):
            path = tmp_path / f"digits.{fmt}"
            write_report(report, fmt, str(path))
            again, _ = read_drift_report(str(path))
            assert again.periods[0].ks_d == 1 / 3
            assert again.periods[0].cosine_score == 0.1 + 0.2

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="config-invalid"):
            write_report(_drift_report(), "xml", str(tmp_path / "r.xml"))

    def test_empty_period_report_rejected(self, tmp_path):
        empty = DriftReport(baseline_id="b", ks_alpha=0.05, periods=())
        with pytest.raises(DataError, match="empty-report"):
            write_report(empty, "jsonl", str(tmp_path / "e.jsonl"))


class TestLoadersNeverPanic:
    """Arbitrary bytes must produce named StoreErrors, not tracebacks."""

    @pytest.mark.parametrize(
        "loader",
        [read_library, load_model, load_split, read_drift_report, read_sensitivity_report],
        ids=["library", "model", "split", "drift", "sensitivity"],
    )
    def test_random_bytes(self, tmp_path, loader):
        rng = seeded_rng(404, "fuzz")
        path = tmp_path / "garbage.bin"
        for size in (0, 1, 5, 64, 500):
            path.write_bytes(bytes(rng.integers(0, 256, size, dtype=np.uint8)))
            with pytest.raises(StoreError):
                loader(str(path))
        path.write_bytes(b"DSKL" + bytes(rng.integers(0, 256, 40, dtype=np.uint8)))
        with pytest.raises(StoreError):
            loader(str(path))
        path.write_bytes(b'{"kind": "other"}\n# blake2b=00\n')
        with pytest.raises(StoreError):
            loader(str(path))


class TestEmbeddingsRoundTrip:
    def test_write_then_load(self, tmp_path):
        rng = seeded_rng(5, "emb-rt")
        feats = [
            FeatureVector(values=rng.standard_normal(4), source_id=f"img{i}.pgm")
            for i in range(6)
        ]
        path = tmp_path / "e.emb"
        write_embeddings(feats, str(path))
        again = load_embeddings(str(path))
        assert [v.source_id for v in again] == [v.source_id for v in feats]
        for a, b in zip(again, feats):
            np.testing.assert_array_equal(a.values, b.values)

    def test_empty_requires_dim(self, tmp_path):
        with pytest.raises(DataError, match="empty-input"):
            write_embeddings([], str(tmp_path / "e.emb"))
        write_embeddings([], str(tmp_path / "e.emb"), dim=8)
        assert load_embeddings(str(tmp_path / "e.emb")) == []


class TestSplitDataset:
    def test_ten_ids_ten_groups(self):
        plan = split_dataset([f"i{k}" for k in range(10)], 10, seed=1)
        sizes = sorted(len(g) for g in plan.groups())
        assert sizes == [1] * 10

    def test_23_ids_7_groups_pigeonhole(self):
        plan = split_dataset([f"i{k}" for k in range(23)], 7, seed=2)
        sizes = sorted((len(g) for g in plan.groups()), reverse=True)
        assert sizes == [4, 4, 3, 3, 3, 3, 3]

    def test_deterministic(self):
        ids = [f"i{k}" for k in range(30)]
        assert split_dataset(ids, 7, seed=3) == split_dataset(ids, 7, seed=3)
        assert split_dataset(ids, 7, seed=3) != split_dataset(ids, 7, seed=4)

    def test_partition_exact(self):
        ids = [f"i{k}" for k in range(41)]
        plan = split_dataset(ids, 9, seed=5)
        seen = [sid for group in plan.groups() for sid in group]
        assert sorted(seen) == sorted(ids)
        assert len(plan.assignment) == 41

    def test_duplicate_ids_rejected(self):
        with pytest.raises(DataError, match="duplicate-ids"):
            split_dataset(["a", "b", "a"], 2, seed=0)

    def test_too_few_ids(self):
        with pytest.raises(DataError, match="too-few-ids"):
            split_dataset(["a", "b"], 3, seed=0)

    def test_plan_file_round_trip(self, tmp_path):
        plan = split_dataset([f"i{k}" for k in range(12)], 4, seed=6)
        path = tmp_path / "plan.json"
        save_split(plan, str(path))
        assert load_split(str(path)) == plan

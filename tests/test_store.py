import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from driftsketch import (
    ConfigError,
    DataError,
    FeatureVector,
    GateConfig,
    ImageGrid,
    QuantConfig,
    SketchConfig,
    StoreError,
    build_library,
    gate_check,
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
from driftsketch.extract import ExtractConfig, extract_builtin, extract_fingerprint
from driftsketch.head import HeadModel, TrainConfig
from driftsketch.noiselab import NOISE_KINDS, SensitivityReport, SensitivityRow
from driftsketch.sketchlib import SketchLibrary
from driftsketch.stats import DriftReport, PeriodStats
from driftsketch.store import (
    LIBRARY_VERSION,
    _digest,
    _read_report_lines,
    encode_jsonl_report,
    load_model,
    load_split,
    read_library,
    save_model,
    save_split,
    write_library,
)
from synthcorpus import corpus, uniform_noise_images


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
    original = Path(path).read_bytes()
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


# a v1 library, as the v1 writer saved _v1_fixture_library()
V1_LIBRARY = Path(__file__).parent / "data" / "library_v1.dskl"
# a v2 library, as the v2 writer saved _v2_fixture_library()
V2_LIBRARY = Path(__file__).parent / "data" / "library_v2.dskl"


def _forge_v1(old, new):
    """The v1 fixture with one payload edit, under a valid checksum."""
    data = V1_LIBRARY.read_bytes()
    payload = data[14:-8].replace(old, new, 1)
    assert payload != data[14:-8]
    digest = hashlib.blake2b(payload, digest_size=8).digest()
    return data[:6] + len(payload).to_bytes(8, "little") + payload + digest


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
        with pytest.raises(StoreError, match="malformed-payload"):
            load_library(_forge_v1(b'"minima":[', b'"minima":[-'))

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


def _v1_fixture_library():
    """The library the v1 fixture file was written from."""
    feats = [
        FeatureVector(values=np.array([0.1 * i, -0.25, 0.5 + 0.01 * i, 1.0]), source_id=f"v{i}")
        for i in range(4)
    ]
    return build_library(feats, QuantConfig(), SketchConfig(k=8, hash_seed=7), "fp")


def _v2_fixture_library():
    """The library the v2 fixture file was written from: 8 structured images
    and 2 noise images under the default extractor, k=16, hash seed 5."""
    cfg = ExtractConfig()
    images = corpus(21, 8, "library-v2") + uniform_noise_images(21, 2)
    feats = [extract_builtin(img, cfg, f"img{i}") for i, img in enumerate(images)]
    return build_library(
        feats, QuantConfig(), SketchConfig(k=16, hash_seed=5), extract_fingerprint(cfg)
    )


def _without_dim(lib):
    """The same library with its dimension unknown, as a v1 or v2 file loads."""
    return SketchLibrary.from_minima(
        lib.ids, lib.minima_matrix(), lib.sketch_config, lib.quant_config,
        lib.extract_fingerprint,
    )


def _split_v2(data):
    """(header object, distinct-row bytes, row-index bytes) of a v2 or v3
    library (v3 is the v2 layout with ``dim`` in the header)."""
    end = 14 + int.from_bytes(data[6:14], "little")
    header = json.loads(data[14:end])
    split = end + 8 * header["u"] * header["k"]
    return header, data[end:split], data[split:-8]


def _seal_v2(header, matrix, index, version=LIBRARY_VERSION):
    """A v2-layout library file (by default of the current version) with a
    valid checksum around any header and data."""
    head = json.dumps(header).encode("utf-8")
    data = b"DSKL" + version.to_bytes(2, "little") + len(head).to_bytes(8, "little") + head
    data += matrix + index
    return data + hashlib.blake2b(data, digest_size=8).digest()


class TestLibraryVersions:
    def test_v1_file_loads_to_the_built_library(self):
        built = _v1_fixture_library()
        old = load_library(V1_LIBRARY.read_bytes())
        assert old.ids == built.ids
        assert (old.sketch_config, old.quant_config) == (built.sketch_config, built.quant_config)
        assert old.extract_fingerprint == built.extract_fingerprint
        np.testing.assert_array_equal(old.minima_matrix(), built.minima_matrix())
        np.testing.assert_array_equal(old.distinct_minima, built.distinct_minima)
        np.testing.assert_array_equal(old.row_index, built.row_index)
        assert (old.dim, built.dim) == (None, 4)
        assert save_library(old) == save_library(_without_dim(built))

    def test_v1_file_gates_identically(self):
        built = _v1_fixture_library()
        old = load_library(V1_LIBRARY.read_bytes())
        rng = seeded_rng(8, "v1-gate")
        probes = [FeatureVector(values=rng.uniform(-0.3, 1.1, 4), source_id="p") for _ in range(20)]
        probes += [FeatureVector(values=np.array([0.1, -0.25, 0.51, 1.0]), source_id="v1")]
        for agg in ("max", "mean", "union"):
            for v in probes:
                a = gate_check(old, v, GateConfig(aggregation=agg))
                b = gate_check(built, v, GateConfig(aggregation=agg))
                assert (a.score, a.anomalous) == (b.score, b.anomalous)

    def test_v1_non_string_id_is_malformed(self):
        with pytest.raises(StoreError, match="malformed-payload: ids must be"):
            load_library(_forge_v1(b'"source_id":"v0"', b'"source_id":0'))

    def test_duplicate_id_rejected(self):
        header, matrix, index = _split_v2(save_library(_v1_fixture_library()))
        forged = _seal_v2(dict(header, ids=["v0", "v1", "v0", "v3"]), matrix, index)
        with pytest.raises(DataError, match="duplicate-source-id: 'v0'"):
            load_library(forged)

    def test_v2_stores_each_distinct_row_once(self):
        data = save_library(_v1_fixture_library())
        header, matrix, index = _split_v2(data)
        assert (header["m"], header["u"], header["k"]) == (4, 3, 8)
        assert len(matrix) == 3 * 8 * 8
        assert np.frombuffer(index, "<u4").tolist() == [0, 1, 2, 2]
        assert len(data) < len(V1_LIBRARY.read_bytes())

    def test_v2_fixture_loads_with_dim_unknown(self):
        old = load_library(V2_LIBRARY.read_bytes())
        built = _v2_fixture_library()
        assert old.dim is None and built.dim == 48
        assert old.ids == built.ids
        assert (old.sketch_config, old.quant_config) == (built.sketch_config, built.quant_config)
        assert old.extract_fingerprint == built.extract_fingerprint
        np.testing.assert_array_equal(old.distinct_minima, built.distinct_minima)
        np.testing.assert_array_equal(old.row_index, built.row_index)
        assert save_library(old) == save_library(_without_dim(built))

    def test_v2_layout_sealed_as_v2_ignores_dim(self):
        header, matrix, index = _split_v2(save_library(_v1_fixture_library()))
        assert load_library(_seal_v2(header, matrix, index, version=2)).dim is None

    def test_v3_header_records_dim(self):
        header, matrix, index = _split_v2(save_library(_v1_fixture_library()))
        assert header["dim"] == 4
        assert load_library(_seal_v2(header, matrix, index)).dim == 4
        assert load_library(_seal_v2(dict(header, dim=None), matrix, index)).dim is None

    def test_resealed_v2_file_loads(self):
        # the forgeries below differ from this one only in the field they break
        data = save_library(_v1_fixture_library())
        again = load_library(_seal_v2(*_split_v2(data)))
        assert save_library(again) == data

    @pytest.mark.parametrize(
        "forge",
        [
            pytest.param(lambda h, mx, ix: (h, mx, ix[:-4] + (3).to_bytes(4, "little")),
                         id="index-at-u"),
            pytest.param(lambda h, mx, ix: (h, mx, ix[:-4] + (2**32 - 1).to_bytes(4, "little")),
                         id="index-far-beyond-u"),
            pytest.param(lambda h, mx, ix: (h, mx[:-8], ix), id="truncated-matrix"),
            pytest.param(lambda h, mx, ix: (h, mx, ix[:-4]), id="truncated-index"),
            pytest.param(lambda h, mx, ix: (dict(h, m=5), mx, ix), id="m-too-large"),
            pytest.param(lambda h, mx, ix: (dict(h, u=2), mx, ix), id="u-too-small"),
            pytest.param(lambda h, mx, ix: (dict(h, u=4), mx, ix), id="u-too-large"),
            pytest.param(lambda h, mx, ix: (dict(h, k=4, u=6), mx, ix), id="k-disagrees"),
            pytest.param(lambda h, mx, ix: (dict(h, u=-3), mx, ix), id="negative-u"),
            pytest.param(lambda h, mx, ix: (dict(h, m=4.0), mx, ix), id="float-m"),
            pytest.param(lambda h, mx, ix: (dict(h, ids=["v0", "v1", "v2", 3]), mx, ix),
                         id="non-string-id"),
            pytest.param(lambda h, mx, ix: ({k: v for k, v in h.items() if k != "u"}, mx, ix),
                         id="missing-u"),
            pytest.param(lambda h, mx, ix: (dict(h, dim=0), mx, ix), id="zero-dim"),
            pytest.param(lambda h, mx, ix: (dict(h, dim=4.0), mx, ix), id="float-dim"),
            pytest.param(lambda h, mx, ix: (dict(h, dim=True), mx, ix), id="bool-dim"),
            pytest.param(lambda h, mx, ix: ({k: v for k, v in h.items() if k != "dim"}, mx, ix),
                         id="missing-dim"),
        ],
    )
    def test_forged_v2_is_malformed(self, tmp_path, forge):
        data = save_library(_v1_fixture_library())
        path = tmp_path / "forged.dskl"
        path.write_bytes(_seal_v2(*forge(*_split_v2(data))))
        with pytest.raises(StoreError, match="malformed-payload"):
            read_library(str(path))


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

    def test_non_finite_parameter_not_written(self, tmp_path):
        path = tmp_path / "model.json"
        with pytest.raises(DataError, match="non-finite-parameter"):
            save_model(HeadModel(w=[float("nan")], b=0), str(path))
        assert not path.exists()

    def test_non_finite_checkpoint_rejected(self, tmp_path):
        line = b'{"kind":"head_model","schema_version":1,"dim":2,"w":[0.5,NaN],"b":0.0,"train":null}'
        path = tmp_path / "model.json"
        path.write_bytes(line + b"\n# blake2b=" + _digest(line).encode("ascii") + b"\n")
        with pytest.raises(DataError, match="non-finite-parameter"):
            load_model(str(path))


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


# text cells drawn with the characters CSV quoting and line splitting care about
_texts = st.text(st.one_of(st.sampled_from(',"\r\n# '), st.characters()), max_size=6)
_units = st.floats(0.0, 1.0)
_configs = st.none() | st.dictionaries(
    _texts, st.integers() | st.floats(allow_nan=False, allow_infinity=False) | _texts, max_size=3
)


@st.composite
def _drift_reports(draw):
    ks_alpha = draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    periods = []
    for _ in range(draw(st.integers(1, 3))):
        ks_p = draw(_units)
        periods.append(
            PeriodStats(
                period_id=draw(_texts),
                n_images=draw(st.integers(0, 10**6)),
                ks_d=draw(_units),
                ks_p=ks_p,
                cosine_score=draw(st.floats(-1.0, 1.0)),
                gate_flag_count=draw(st.integers(0, 10**6)),
                drift_flag=ks_p < ks_alpha,
            )
        )
    return DriftReport(baseline_id=draw(_texts), ks_alpha=ks_alpha, periods=periods)


@st.composite
def _sensitivity_reports(draw):
    levels = draw(
        st.lists(
            st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=3, unique=True
        )
    )
    rows = [
        SensitivityRow(level, draw(st.floats(-1.0, 1.0)), draw(_units), draw(_units), draw(_units))
        for level in sorted(levels)
    ]
    return SensitivityReport(noise_kind=draw(st.sampled_from(NOISE_KINDS)), rows=rows)


def _rewrite(path, reader, fmt):
    report, config = reader(path)
    again = path + ".again"
    write_report(report, fmt, again, config=config)
    return Path(again).read_bytes()


class TestReportRoundTripProperty:
    """write -> read -> write reproduces every report file byte for byte."""

    @given(report=_drift_reports(), config=_configs, fmt=st.sampled_from(["jsonl", "csv"]))
    @settings(
        max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    def test_drift_report(self, tmp_path, report, config, fmt):
        path = str(tmp_path / f"drift.{fmt}")
        Path(path).unlink(missing_ok=True)
        if fmt == "csv" and any("\n" in p.period_id for p in report.periods):
            with pytest.raises(DataError, match="unsupported-value"):
                write_report(report, fmt, path, config=config)
            assert not Path(path).exists()
            return
        write_report(report, fmt, path, config=config)
        assert read_drift_report(path) == (report, config)
        assert _rewrite(path, read_drift_report, fmt) == Path(path).read_bytes()

    @given(report=_sensitivity_reports(), config=_configs, fmt=st.sampled_from(["jsonl", "csv"]))
    @settings(
        max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    def test_sensitivity_report(self, tmp_path, report, config, fmt):
        path = str(tmp_path / f"sens.{fmt}")
        write_report(report, fmt, path, config=config)
        assert read_sensitivity_report(path) == (report, config)
        assert _rewrite(path, read_sensitivity_report, fmt) == Path(path).read_bytes()

    @given(
        library=_texts,
        records=st.lists(
            st.fixed_dictionaries(
                {
                    "source_id": _texts,
                    "score": _units,
                    "verdict": st.sampled_from(["acceptable", "anomalous"]),
                }
            ),
            max_size=4,
        ),
        config=_configs,
    )
    @settings(
        max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    def test_gate_report(self, tmp_path, library, records, config):
        header = {"kind": "gate_report", "schema_version": 1, "library": library}
        path = tmp_path / "gate.jsonl"
        path.write_bytes(encode_jsonl_report(header, records, config))
        got_header, got_records, got_config = _read_report_lines(str(path), "gate_report")
        assert got_header.pop("config") == got_config == config
        assert (got_header, got_records) == (header, records)
        assert encode_jsonl_report(got_header, got_records, got_config) == path.read_bytes()


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

    @pytest.mark.parametrize("fmt", ["jsonl", "csv"])
    def test_unknown_noise_kind_is_malformed_payload(self, tmp_path, fmt):
        path = tmp_path / f"sens.{fmt}"
        write_report(_sensitivity_report(), fmt, str(path))
        raw = path.read_bytes()
        cut = raw.rfind(b"\n", 0, len(raw) - 1) + 1
        body = raw[:cut].replace(b'"noise_kind":"salt_pepper"', b'"noise_kind":"cosmic"')
        assert body != raw[:cut]
        if fmt == "jsonl":
            trailer = json.dumps({"kind": "checksum", "blake2b": _digest(body)})
        else:
            trailer = "# blake2b=" + _digest(body)
        path.write_bytes(body + trailer.encode("ascii") + b"\n")
        with pytest.raises(StoreError, match="malformed-payload"):
            read_sensitivity_report(str(path))

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

    def test_csv_newline_in_text_cell_rejected(self, tmp_path):
        # the reader splits a file into lines before it splits fields
        report = DriftReport("b", 0.05, (PeriodStats("p\n1", 1, 0.1, 0.5, 0.9, 0, False),))
        path = tmp_path / "drift.csv"
        with pytest.raises(DataError, match="unsupported-value"):
            write_report(report, "csv", str(path))
        assert not path.exists()
        write_report(report, "jsonl", str(tmp_path / "drift.jsonl"))
        assert read_drift_report(str(tmp_path / "drift.jsonl"))[0] == report

    @pytest.mark.parametrize("period_id", ["# x", "# config={}", "#", "#x,y"])
    def test_csv_comment_like_text_cell_round_trips(self, tmp_path, period_id):
        report = DriftReport("b", 0.05, (PeriodStats(period_id, 1, 0.1, 0.5, 0.9, 0, False),))
        path = tmp_path / "drift.csv"
        write_report(report, "csv", str(path))
        assert read_drift_report(str(path))[0] == report

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="config-invalid"):
            write_report(_drift_report(), "xml", str(tmp_path / "r.xml"))

    def test_empty_period_report_rejected(self, tmp_path):
        with pytest.raises(DataError, match="empty-report"):
            empty = DriftReport(baseline_id="b", ks_alpha=0.05, periods=())
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

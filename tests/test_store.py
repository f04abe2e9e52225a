import hashlib
import json
import math
import re
import struct
import time
import tracemalloc
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, event, example, given, settings
from hypothesis import strategies as st

from driftsketch import (
    ConfigError,
    DataError,
    DriftSketchError,
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
    read_report,
    read_sensitivity_report,
    save_image,
    save_library,
    split_dataset,
    write_embeddings,
    write_report,
)
from driftsketch import store
from driftsketch._zstream import seal
from driftsketch.cli import main as cli_main
from driftsketch.core import _decode_value, seeded_rng
from driftsketch.extract import ExtractConfig, extract_builtin, extract_fingerprint
from driftsketch.head import HeadModel, TrainConfig
from driftsketch.noiselab import NOISE_KINDS, SensitivityReport, SensitivityRow
from driftsketch.sketchlib import GateReport, GateResult, SketchLibrary
from driftsketch.stats import DriftReport, PeriodStats
from driftsketch.store import (
    LIBRARY_VERSION,
    SplitPlan,
    _digest,
    _jdump,
    encode_report,
    load_model,
    load_split,
    read_library,
    save_model,
    save_split,
    write_library,
)
from synthcorpus import corpus, uniform_noise_images

import reference_path


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


# header pieces: runs of the six bytes.isspace() bytes, '#' comments that end
# at '\n', '\r' or (as the last piece) the end of the file, and field tokens,
# some of them not integers or holding bytes that str.isspace() but not
# bytes.isspace() counts as whitespace
_SPACE = st.lists(st.sampled_from(list(b" \t\n\r\x0b\x0c")), min_size=1, max_size=4).map(bytes)
_COMMENT = st.builds(
    lambda body, end: b"#" + body + end,
    st.lists(st.sampled_from(list(b"# 5a\t\x0b\x1c\x85\xff")), max_size=6).map(bytes),
    st.sampled_from([b"\n", b"\r", b""]),
)
_SEPARATOR = st.lists(st.one_of(_SPACE, _COMMENT), min_size=1, max_size=3).map(b"".join)
_TOKEN = st.sampled_from(
    [b"1", b"2", b"3", b"255", b"7"] * 4
    + [b"0", b"+2", b"1_0", b"007", b"256", b"-1", b"x", b"\xff", b"3\x1c", b"\x85", b"\xa0"]
)


@st.composite
def _pnm_bytes(draw):
    """A P5/P6 file: up to four separated tokens, then a separator, a comment
    or nothing, then up to 40 raster bytes."""
    pieces = [draw(st.sampled_from([b"P5", b"P6"]))]
    for _ in range(draw(st.integers(0, 4))):
        pieces += [draw(_SEPARATOR), draw(_TOKEN)]
    pieces.append(draw(st.one_of(_SPACE, _COMMENT, st.just(b""))))
    pieces.append(draw(st.binary(max_size=40)))
    return b"".join(pieces)


def _decode_outcome(loader, path):
    try:
        img = loader(path)
    except StoreError as exc:
        return "error", str(exc)
    return img.width, img.height, img.channels, img.pixels.tobytes()


@given(data=_pnm_bytes())
@example(data=b"P6 #c\r2\x0b1#\n255\x0c" + bytes(range(6)))  # decodes
@example(data=b"P5\n2 1\n# 255")  # truncated header
@example(data=b"P5 2 x\x85 255\n")  # non-integer token
@example(data=b"P5 1 1 255#\n\x00")  # no separator before the raster
@example(data=b"P5 2 2 255\n\x00")  # truncated raster
@example(data=b"P5 0 2 255\n")  # bad dimensions
@example(data=b"P5 1 1 256\n\x00")  # maxval past 8 bits
@example(data=b"P6 1 1 7\n\x07\x08\x00")  # a sample above maxval
@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_header_parse_matches_reference(tmp_path, data):
    """The one-regex header tokenizer reads the same fields as the reference
    byte-at-a-time one, or raises a StoreError with the same text."""
    path = tmp_path / "h.pgm"
    path.write_bytes(data)
    assert _decode_outcome(load_image, str(path)) == _decode_outcome(
        reference_path.load_image, str(path)
    )


def test_decoded_pixels_match_reference_for_every_maxval(tmp_path):
    """Every sample value under every 8-bit maxval scales to the same float64
    as the reference's divide after the cast; a sample above maxval raises a
    StoreError that names the file, the largest sample and maxval."""
    path = tmp_path / "all.pgm"
    for maxval in range(1, 256):
        path.write_bytes(b"P5 16 16 %d\n" % maxval + bytes(b % (maxval + 1) for b in range(256)))
        got = load_image(str(path)).pixels
        assert got.tobytes() == reference_path.load_image(str(path)).pixels.tobytes()
        if maxval < 255:
            path.write_bytes(b"P5 16 16 %d\n" % maxval + bytes([maxval + 1] * 255 + [0]))
            with pytest.raises(StoreError) as exc:
                load_image(str(path))
            assert str(exc.value) == (
                f"sample-above-maxval: {path}: largest sample {maxval + 1}, maxval {maxval}"
            )


class TestHeaderNumbers:
    """A PGM/PPM header number is ASCII decimal digits only: int() also
    takes a sign and '_' between digits, so ``1_0`` read as 10."""

    @pytest.mark.parametrize("token", [b"1_0", b"+10", b"0_10"])
    def test_only_digits(self, tmp_path, capsys, token):
        path = tmp_path / "w.pgm"
        path.write_bytes(b"P5\n" + token + b" 1\n255\n" + bytes(10))
        message = f"corrupt-header: non-integer header token {token!r}"
        with pytest.raises(StoreError, match=f"^{re.escape(message)}$"):
            load_image(str(path))
        assert cli_main(["extract", str(path), "--out", str(tmp_path / "e.emb")]) == 3
        assert "corrupt-header: non-integer header token" in capsys.readouterr().err

    def test_leading_zeros_are_digits(self, tmp_path):
        path = tmp_path / "z.pgm"
        path.write_bytes(b"P5\n010 01\n0255\n" + bytes(range(10)))
        img = load_image(str(path))
        assert (img.width, img.height) == (10, 1)


_HEADER_BYTES = list(b"# \n-_+0123456789")


@given(data=st.data())
@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_mutated_image_named_or_saved_back(tmp_path, capsys, data):
    """A P5 or P6 file from ``save_image`` with one mutation (a flipped byte,
    a cut, an inserted byte, or a header byte that matters to the parser
    put in or over a header byte): ``load_image`` raises a named StoreError
    or returns an image that ``save_image`` writes and ``load_image`` reads
    back to the same pixels, rounded to 8 bits as the writer writes them;
    ``extract`` on the file exits 0 or 3."""
    channels = data.draw(st.sampled_from([1, 3]))
    width, height = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 6))
    size = width * height * channels
    raster = data.draw(st.binary(min_size=size, max_size=size))
    img = ImageGrid(width, height, channels, np.frombuffer(raster, np.uint8) / 255.0)
    path = tmp_path / ("m.pgm" if channels == 1 else "m.ppm")
    save_image(img, str(path))
    raw = bytearray(path.read_bytes())
    header_end = len(raw) - size
    kind = data.draw(st.sampled_from(["flip", "cut", "insert", "header"]))
    if kind == "header":  # a byte after the magic
        at = data.draw(st.integers(2, header_end - 1))
    else:
        at = data.draw(st.integers(0, len(raw) - 1))
    if kind == "flip":
        raw[at] ^= 1 << data.draw(st.integers(0, 7))
    elif kind == "cut":
        del raw[at : at + data.draw(st.integers(1, len(raw)))]
    elif kind == "insert":
        raw.insert(at, data.draw(st.integers(0, 255)))
    elif data.draw(st.booleans()):
        raw[at] = data.draw(st.sampled_from(_HEADER_BYTES))
    else:
        raw.insert(at, data.draw(st.sampled_from(_HEADER_BYTES)))
    path.write_bytes(bytes(raw))
    try:
        got = load_image(str(path))
    except StoreError as exc:
        event(f"{kind}: {str(exc).partition(':')[0]}")
    else:
        event(f"{kind}: loaded")
        again = tmp_path / ("again" + path.suffix)
        save_image(got, str(again))
        back = load_image(str(again))
        assert (back.width, back.height, back.channels) == (got.width, got.height, got.channels)
        assert back.pixels.tobytes() == (np.rint(got.pixels * 255.0) / 255.0).tobytes()
    assert cli_main(["extract", str(path), "--out", str(tmp_path / "e.emb")]) in (0, 3)
    assert "Traceback" not in capsys.readouterr().err


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
# a v3 library, as the v3 writer saved _v3_fixture_library()
V3_LIBRARY = Path(__file__).parent / "data" / "library_v3.dskl"
# a model checkpoint and a split plan, as the schema version 1 writers saved them
MODEL_V1 = Path(__file__).parent / "data" / "model_v1.json"
SPLIT_V1 = Path(__file__).parent / "data" / "split_v1.json"


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

    @pytest.mark.parametrize("size", [6, 13])
    def test_cut_before_the_length(self, size):
        with pytest.raises(StoreError, match="^checksum-mismatch: truncated file$"):
            load_library(save_library(self._library())[:size])

    def test_v1_payload_cut_short(self):
        with pytest.raises(StoreError, match="^checksum-mismatch: truncated payload$"):
            load_library(V1_LIBRARY.read_bytes()[:-1])

    def test_v1_payload_that_is_not_an_object(self):
        payload = b"[1]"
        data = b"DSKL" + (1).to_bytes(2, "little") + len(payload).to_bytes(8, "little")
        data += payload + hashlib.blake2b(payload, digest_size=8).digest()
        with pytest.raises(StoreError, match="^malformed-payload: expected an object, got list$"):
            load_library(data)

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


def _v3_fixture_library():
    """The library the v3 fixture file was written from: 6 structured images
    and 2 noise images under the default extractor, ids with a space and
    non-ASCII characters, bin width 0.1, k=24, hash seed 11."""
    cfg = ExtractConfig()
    images = corpus(33, 6, "library-v3") + uniform_noise_images(33, 2)
    feats = [extract_builtin(img, cfg, f"scan {i} \u00e9t\u00e9.pgm") for i, img in enumerate(images)]
    return build_library(
        feats, QuantConfig(bin_width=0.1), SketchConfig(k=24, hash_seed=11), extract_fingerprint(cfg)
    )


def _without_dim(lib):
    """The same library with its dimension unknown, as a v1 or v2 file loads."""
    return SketchLibrary.from_minima(
        lib.ids, lib.minima_matrix(), lib.sketch_config, lib.quant_config,
        lib.extract_fingerprint,
    )


def _split_v2(data):
    """(header object, distinct-row bytes, row-index bytes) of a v2, v3 or
    v4 library (v3 is the v2 layout with ``dim`` in the header; v4 holds the
    v3 body in one zlib stream)."""
    body = reference_path.library_body(data)
    end = 8 + int.from_bytes(body[:8], "little")
    header = json.loads(body[8:end])
    split = end + 8 * header["u"] * header["k"]
    return header, body[end:split], body[split:]


def _seal_v2(header, matrix, index, version=LIBRARY_VERSION):
    """A library file of `version` (by default the current one) with a valid
    checksum around any header and data."""
    head = json.dumps(header).encode("utf-8")
    return reference_path.seal_library(
        len(head).to_bytes(8, "little") + head + matrix + index, version
    )


def _v3_and_v4(lib):
    """(version, file bytes) of `lib` as the v3 writer and as save_library write it."""
    return [(3, reference_path.encode_library_v3(lib)), (LIBRARY_VERSION, save_library(lib))]


def _index_bytes(*index):
    return np.array(index, "<u4").tobytes()


# faults of the v1 fixture's 3 distinct k=8 rows (64 bytes each) and its
# indices [0, 1, 2, 2], each under a valid checksum
_NON_CANONICAL = {
    "repeated-row": lambda h, mx, ix: (h, mx[:128] + mx[:64], ix),
    "out-of-order": lambda h, mx, ix: (h, mx[64:128] + mx[:64] + mx[128:], _index_bytes(1, 0, 2, 2)),
    "unused-row": lambda h, mx, ix: (dict(h, u=4), mx + b"\xff" * 64, ix),
    "index-at-u": lambda h, mx, ix: (h, mx, _index_bytes(0, 1, 2, 3)),
}


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
        error = "^malformed-payload: malformed-id: 0 is not a string$"
        with pytest.raises(StoreError, match=error):
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
        """v3 and v4 headers record dim (v4 inside its zlib stream)."""
        for version, data in _v3_and_v4(_v1_fixture_library()):
            header, matrix, index = _split_v2(data)
            assert header["dim"] == 4
            assert load_library(_seal_v2(header, matrix, index, version)).dim == 4
            forged = _seal_v2(dict(header, dim=None), matrix, index, version)
            assert load_library(forged).dim is None

    def test_resealed_v2_file_loads(self):
        # the forgeries below differ from this one only in the field they break
        data = save_library(_v1_fixture_library())
        again = load_library(_seal_v2(*_split_v2(data)))
        assert save_library(again) == data

    def test_resealed_v3_file_loads(self):
        data = reference_path.encode_library_v3(_v1_fixture_library())
        again = load_library(_seal_v2(*_split_v2(data), version=3))
        assert reference_path.encode_library_v3(again) == data

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
        """Each forgery, of a v3 file and of a v4 file, under a valid checksum."""
        path = tmp_path / "forged.dskl"
        for version, data in _v3_and_v4(_v1_fixture_library()):
            path.write_bytes(_seal_v2(*forge(*_split_v2(data)), version))
            with pytest.raises(StoreError, match="malformed-payload"):
                read_library(str(path))

    @pytest.mark.parametrize("version", [2, 3, 4])
    @pytest.mark.parametrize("fault", sorted(_NON_CANONICAL))
    def test_non_canonical_rows_are_malformed(self, fault, version):
        """Rows and indices that save_library cannot write are rejected, not
        re-canonicalised, whatever the version."""
        header, matrix, index = _split_v2(save_library(_v1_fixture_library()))
        forged = _seal_v2(*_NON_CANONICAL[fault](header, matrix, index), version=version)
        with pytest.raises(StoreError, match="malformed-payload"):
            load_library(forged)

    @pytest.mark.parametrize(
        "path, shape, row_index, rows_digest",
        [
            (V1_LIBRARY, (3, 8), [0, 1, 2, 2], "abb8a159a2f09363"),
            (V2_LIBRARY, (4, 16), [0, 0, 0, 1, 1, 0, 1, 0, 2, 3], "fe3aa5a01f5064e2"),
            (V3_LIBRARY, (4, 24), [0, 0, 1, 0, 0, 1, 2, 3], "69a3e9fb29045c39"),
        ],
        ids=["v1", "v2", "v3"],
    )
    def test_committed_fixtures_load_to_the_recorded_arrays(
        self, path, shape, row_index, rows_digest
    ):
        lib = load_library(path.read_bytes())
        assert lib.distinct_minima.shape == shape
        assert lib.row_index.tolist() == row_index
        assert hashlib.blake2b(lib.distinct_minima.tobytes(), digest_size=8).hexdigest() == (
            rows_digest
        )

    def test_committed_json_fixtures_load_to_the_recorded_values(self, tmp_path):
        """The model checkpoint and split plan that the writers of schema
        version 1 saved load to the values they loaded to when written, and
        save back to their bytes, but for the two reals of the checkpoint
        that were written with 17 significant digits and now take fewer."""
        model = load_model(str(MODEL_V1))
        assert model.w.tolist() == [
            -1.0101807867905028, -0.691361440976307, 0.0, 1e-300,
            -0.19839016909491375, 0.3880899025013515,
        ]
        assert model.b == -0.375
        plan = load_split(str(SPLIT_V1))
        assert (plan.n_groups, plan.seed) == (3, 12345678901234567890)
        assert list(plan.assignment.items()) == [
            ("scan 0 \u00e9t\u00e9.pgm", 0), ('q"x', 1), ("scan 6 \u00e9t\u00e9.pgm", 2),
            ("scan 5 \u00e9t\u00e9.pgm", 0), ("scan 1 \u00e9t\u00e9.pgm", 1),
            ("scan 2 \u00e9t\u00e9.pgm", 2), ("scan 3 \u00e9t\u00e9.pgm", 0), ("a,b", 1),
            ("scan 4 \u00e9t\u00e9.pgm", 2),
        ]
        train = TrainConfig(lr=0.01, epochs=3, batch_size=4, bias_correction=False, seed=7)
        save_model(model, str(tmp_path / "model.json"), train_config=train)
        save_split(plan, str(tmp_path / "split.json"))
        line = MODEL_V1.read_bytes().split(b"\n")[0]
        line = line.replace(b"-0.69136144097630703", b"-0.691361440976307")
        line = line.replace(b"0.90000000000000002", b"0.9")
        assert (tmp_path / "model.json").read_bytes() == _checked_json(line)
        assert (tmp_path / "split.json").read_bytes() == SPLIT_V1.read_bytes()

    @pytest.mark.parametrize("byte", [b"\x00", b"\n", b"\xff"])
    @pytest.mark.parametrize("path", [V1_LIBRARY, V2_LIBRARY, V3_LIBRARY, None],
                             ids=["v1", "v2", "v3", "v4"])
    def test_an_appended_byte_is_a_named_error(self, path, byte):
        """One byte after the checksum of a committed fixture or of a fresh
        v4 file is a checksum mismatch, in every version."""
        data = save_library(_v1_fixture_library()) if path is None else path.read_bytes()
        with pytest.raises(StoreError, match="^checksum-mismatch$"):
            load_library(data + byte)

    def test_v1_bytes_after_the_payload_are_malformed(self):
        """A v1 payload longer than its length field, under a valid checksum."""
        data = V1_LIBRARY.read_bytes()
        payload = data[14:-8] + b" "
        forged = data[:14] + payload + hashlib.blake2b(payload, digest_size=8).digest()
        with pytest.raises(StoreError, match="^malformed-payload: 1 bytes after the payload$"):
            load_library(forged)

    @staticmethod
    def _libraries():
        return [
            _v1_fixture_library(),
            _v2_fixture_library(),
            *(load_library(path.read_bytes()) for path in (V1_LIBRARY, V2_LIBRARY, V3_LIBRARY)),
        ]

    def test_saving_a_loaded_v3_file_gives_its_bytes(self):
        for lib in self._libraries():
            data = reference_path.encode_library_v3(lib)
            assert reference_path.encode_library_v3(load_library(data)) == data

    def test_saving_a_loaded_v4_file_gives_its_bytes(self):
        for lib in self._libraries():
            data = save_library(lib)
            assert data[4:6] == (4).to_bytes(2, "little")
            assert save_library(load_library(data)) == data

    def test_v3_fixture_is_the_v3_writers_bytes(self):
        """The test-side v3 writer gives the committed fixture's bytes, and
        the fixture loads to the library it was written from."""
        built = _v3_fixture_library()
        data = V3_LIBRARY.read_bytes()
        assert reference_path.encode_library_v3(built) == data
        old = load_library(data)
        assert (old.ids, old.dim) == (built.ids, 48)
        assert (old.sketch_config, old.quant_config) == (built.sketch_config, built.quant_config)
        assert old.extract_fingerprint == built.extract_fingerprint
        np.testing.assert_array_equal(old.distinct_minima, built.distinct_minima)
        np.testing.assert_array_equal(old.row_index, built.row_index)
        assert save_library(old) == save_library(built)

    def test_v3_fixture_and_its_v4_rewrite_gate_identically(self, tmp_path):
        """`gate` gives byte-identical reports against the v3 fixture and
        against the v4 file that loading and saving it writes (each file
        named alike, in its own folder)."""
        images = tmp_path / "images"
        images.mkdir()
        for i, img in enumerate(corpus(33, 4, "library-v3") + corpus(34, 4, "other")):
            save_image(img, str(images / f"q{i}.pgm"))
        reports = []
        for version in (3, 4):
            folder = tmp_path / f"v{version}"
            folder.mkdir()
            lib = folder / "base.dskl"
            if version == 3:
                lib.write_bytes(V3_LIBRARY.read_bytes())
            else:
                write_library(read_library(str(V3_LIBRARY)), str(lib))
            assert lib.read_bytes()[4:6] == version.to_bytes(2, "little")
            out = folder / "gate.jsonl"
            code = cli_main(["gate", str(images), "--library", str(lib), "--out", str(out)])
            reports.append((code, out.read_bytes()))
        assert reports[0] == reports[1]
        assert reports[0][0] in (0, 1)


# the v3 body of the v1 fixture's library in a level-1 zlib stream, and the
# head of a v4 file around it, less its u64 inflated length
_V4_BODY = reference_path.library_body(reference_path.encode_library_v3(_v1_fixture_library()))
_V4_STREAM = zlib.compress(_V4_BODY, 1)
_V4_MAGIC = b"DSKL" + (4).to_bytes(2, "little")
_DEEP_JSON = b"[" * 200_000 + b"]" * 200_000


class TestLibraryV4:
    @pytest.mark.parametrize(
        "size, stream, message",
        [
            pytest.param(len(_V4_BODY), _V4_STREAM, None, id="well-formed"),
            pytest.param(len(_V4_BODY), b"not a zlib stream",
                         r"malformed-payload: corrupt zlib stream", id="not-zlib"),
            # a valid zlib header, then a final block of the reserved type 3
            pytest.param(len(_V4_BODY), b"\x78\x01\x07",
                         r"malformed-payload: corrupt zlib stream", id="reserved-block-type"),
            pytest.param(len(_V4_BODY), _V4_STREAM[:-4] + bytes(4),
                         r"malformed-payload: corrupt zlib stream", id="wrong-adler32"),
            pytest.param(len(_V4_BODY), _V4_STREAM[:-6],
                         r"malformed-payload: the zlib stream ends early", id="cut-short"),
            pytest.param(len(_V4_BODY) - 1, _V4_STREAM,
                         r"malformed-payload: the zlib stream inflates to more than bytes=",
                         id="longer-than-declared"),
            pytest.param(len(_V4_BODY) + 1, _V4_STREAM,
                         rf"malformed-payload: the zlib stream inflates to {len(_V4_BODY)} bytes, "
                         rf"not bytes={len(_V4_BODY) + 1}",
                         id="shorter-than-declared"),
            pytest.param(len(_V4_BODY), _V4_STREAM + b"\x00",
                         r"malformed-payload: 1 bytes after the zlib stream",
                         id="bytes-after-stream"),
            pytest.param(1032 * len(_V4_STREAM) + 1, _V4_STREAM,
                         r"malformed-payload: bytes=\d+ cannot inflate from \d+ stream bytes",
                         id="beyond-deflate-ratio"),
            pytest.param(2**64 - 1, _V4_STREAM,
                         r"malformed-payload: bytes=18446744073709551615 cannot inflate",
                         id="largest-u64"),
            pytest.param(0, b"", r"malformed-payload: the zlib stream ends early, after 0 bytes",
                         id="empty-stream"),
            # the body's own checks run on what the stream inflates to
            pytest.param(8 + len(_DEEP_JSON),
                         zlib.compress(len(_DEEP_JSON).to_bytes(8, "little") + _DEEP_JSON, 1),
                         r"malformed-payload: maximum recursion depth", id="deeply-nested-json"),
            pytest.param(len(_V4_BODY) - 4, zlib.compress(_V4_BODY[:-4], 1),
                         r"malformed-payload: m=4, u=3, k=8 disagree", id="truncated-index"),
        ],
    )
    def test_hand_sealed_files(self, tmp_path, capsys, size, stream, message):
        """A v4 file whose checksum holds loads or raises a named error, and
        gate exits 0 or 1, or 3 naming it, never with a zlib.error, a
        MemoryError or a traceback."""
        data = _V4_MAGIC + size.to_bytes(8, "little") + stream
        lib = tmp_path / "sealed.dskl"
        lib.write_bytes(data + hashlib.blake2b(data, digest_size=8).digest())
        query = tmp_path / "query.emb"
        write_embeddings([FeatureVector(np.array([0.1, -0.25, 0.52, 1.0]), "q")], str(query))
        argv = ["gate", str(query), "--library", str(lib), "--out", "-"]
        if message is None:
            assert save_library(read_library(str(lib))) == save_library(_v1_fixture_library())
            assert cli_main(argv) in (0, 1)
            return
        with pytest.raises(StoreError, match=message):
            read_library(str(lib))
        capsys.readouterr()
        assert cli_main(argv) == 3
        err = capsys.readouterr().err
        assert re.search(message, err)
        assert "Traceback" not in err

    @pytest.mark.parametrize("version", [2, 3, 4])
    def test_header_length_past_the_body(self, version):
        """A header length beyond the body reads no more than the body."""
        body = (2**62).to_bytes(8, "little") + b'{"m":0}'
        with pytest.raises(StoreError, match="^malformed-payload: 'u'$"):
            load_library(reference_path.seal_library(body, version))

    def test_a_stream_fault_is_named_before_a_header_fault(self):
        """A header that does not parse, in a stream followed by a stray byte:
        the stream fault is the one named."""
        body = (7).to_bytes(8, "little") + b'{"m":0'
        data = _V4_MAGIC + len(body).to_bytes(8, "little") + zlib.compress(body, 1) + b"\x00"
        data += hashlib.blake2b(data, digest_size=8).digest()
        with pytest.raises(StoreError, match="malformed-payload: 1 bytes after the zlib stream"):
            load_library(data)


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


def _checked_json(line):
    """A checked JSON document of one line, as ``_write_checked_json`` lays it out."""
    return line + b"\n# blake2b=" + _digest(line).encode("ascii") + b"\n"


class TestCheckedJson:
    @pytest.mark.parametrize("extra", [b"x", b"\n", b"# blake2b=0\n"])
    @pytest.mark.parametrize("kind", ["model", "split"])
    def test_bytes_after_the_integrity_line(self, tmp_path, kind, extra):
        """Bytes after the checksum line read as they do after a CSV report's:
        the last line must be the checksum line of the lines before it."""
        path = tmp_path / "doc.json"
        if kind == "model":
            save_model(HeadModel(w=[0.5, -1.0], b=0.25), str(path))
        else:
            save_split(split_dataset(["a", "b", "c"], 2, seed=0), str(path))
        path.write_bytes(path.read_bytes() + extra)
        loader = load_model if kind == "model" else load_split
        message = {b"x": "checksum-mismatch: missing trailing newline",
                   b"\n": "bad-magic: missing checksum line",
                   b"# blake2b=0\n": "checksum-mismatch"}[extra]
        with pytest.raises(StoreError, match=f"^{message}$"):
            loader(str(path))
        csv = tmp_path / "drift.csv"
        write_report(_drift_report(), "csv", str(csv))
        csv.write_bytes(csv.read_bytes() + extra)
        with pytest.raises(StoreError, match=f"^{message}$"):
            read_drift_report(str(csv))

    @pytest.mark.parametrize("kind", ["head_model", "split_plan"])
    def test_a_checksum_over_more_than_one_line(self, tmp_path, kind):
        """A checked document is one JSON line: a blank line after it is
        refused even under a checksum that covers it."""
        path = tmp_path / "doc.json"
        line = _MODEL_LINE if kind == "head_model" else _SPLIT_LINE
        path.write_bytes(_checked_json(line + b"\n"))
        loader = load_model if kind == "head_model" else load_split
        with pytest.raises(StoreError, match=f"^bad-magic: not a {kind} file$"):
            loader(str(path))

    @pytest.mark.parametrize(
        "w, shape",
        [(b"5.0", r"\(\)"), (b"[[1.0,2.0]]", r"\(1, 2\)"), (b"[[1.0],[2.0]]", r"\(2, 1\)")],
    )
    def test_weights_that_are_not_a_flat_list(self, tmp_path, w, shape):
        line = b'{"kind":"head_model","schema_version":1,"dim":1,"w":' + w
        path = tmp_path / "model.json"
        path.write_bytes(_checked_json(line + b',"b":0.0,"train":null}'))
        with pytest.raises(
            StoreError, match=rf"^malformed-payload: weights must be a flat list, got shape {shape}$"
        ):
            load_model(str(path))

    @pytest.mark.parametrize("group", [5, 2, -1])
    def test_split_group_outside_the_plan(self, tmp_path, group):
        line = b'{"kind":"split_plan","schema_version":1,"n_groups":2,"seed":0,'
        line += b'"assignment":{"a":0,"b":%d}}' % group
        path = tmp_path / "plan.json"
        path.write_bytes(_checked_json(line))
        with pytest.raises(
            StoreError, match=rf"^malformed-payload: id 'b' in group {group}, outside \[0, 2\)$"
        ):
            load_split(str(path))


class TestCheckedText:
    """Checkpoints, split plans and reports in both formats are read through
    one reader: each fault of the file's lines, checksum or kind has one text."""

    KINDS = {"model": "head_model", "split": "split_plan", "jsonl": "drift_report",
             "csv": "drift_report"}

    @staticmethod
    def _write(tmp_path, doc):
        path = tmp_path / f"doc.{doc}"
        if doc == "model":
            save_model(HeadModel(w=[0.5, -1.0], b=0.25), str(path))
        elif doc == "split":
            save_split(split_dataset(["a", "b", "c"], 2, seed=0), str(path))
        else:
            write_report(_drift_report(), doc, str(path))
        return path

    @staticmethod
    def _load(doc, path):
        {"model": load_model, "split": load_split}.get(doc, read_drift_report)(str(path))

    @pytest.mark.parametrize("doc", list(KINDS))
    def test_lines_around_the_checksum(self, tmp_path, doc):
        path = self._write(tmp_path, doc)
        raw = path.read_bytes()
        kind = self.KINDS[doc]
        for damaged, message in [
            (b"", f"bad-magic: empty {kind} file"),
            (raw[:-1], "checksum-mismatch: missing trailing newline"),
            (raw[: raw.index(b"\n") + 1], f"bad-magic: not a {kind} file"),
            (raw + b"x\n", "checksum-mismatch: unparseable checksum record" if doc == "jsonl"
             else "bad-magic: missing checksum line"),
        ]:
            path.write_bytes(damaged)
            with pytest.raises(StoreError, match=f"^{re.escape(message)}$"):
                self._load(doc, path)

    @pytest.mark.parametrize("doc", list(KINDS))
    def test_a_document_of_another_kind(self, tmp_path, doc):
        path = self._write(tmp_path, doc)
        kind = self.KINDS[doc]
        old = b'"kind":"%s"' % kind.encode("ascii")
        if doc in ("model", "split"):
            path.write_bytes(_checked_json(path.read_bytes().split(b"\n")[0].replace(
                old, b'"kind":"gate_report"')))
        else:
            TestReportPersistence._forge(path, old, b'"kind":"gate_report"')
        message = f"bad-magic: expected kind {kind!r}, got 'gate_report'"
        with pytest.raises(StoreError, match=f"^{re.escape(message)}$"):
            self._load(doc, path)

    def test_csv_report_without_a_column_header(self, tmp_path):
        path = self._write(tmp_path, "csv")
        body = b"".join(ln for ln in path.read_bytes().splitlines(keepends=True)[:-1]
                        if ln.startswith(b"# "))
        path.write_bytes(body + b"# blake2b=" + _digest(body).encode("ascii") + b"\n")
        with pytest.raises(StoreError, match="^bad-magic: missing column header$"):
            read_drift_report(str(path))

    @pytest.mark.parametrize(
        "config, message",
        [({"x": np.float32(0.5)}, "JSON cannot carry a float32"),
         ({"x": {0.5}}, "JSON cannot carry a set"),
         ({1: 2}, "JSON object key 1 is not a string")],
        ids=["float32", "set", "int-key"],
    )
    @pytest.mark.parametrize("fmt", ["jsonl", "csv"])
    def test_a_config_that_json_cannot_carry(self, tmp_path, fmt, config, message):
        """A key that is not a str was written as its str, so the config
        read back as another dict."""
        path = tmp_path / f"drift.{fmt}"
        with pytest.raises(DataError, match=f"^unsupported-value: {message}$"):
            write_report(_drift_report(), fmt, str(path), config=config)
        assert list(tmp_path.iterdir()) == []

    def test_a_failed_rename_leaves_no_temp_file(self, tmp_path, monkeypatch):
        def refuse(src, dst):
            raise OSError("rename refused")

        monkeypatch.setattr(store.os, "replace", refuse)
        with pytest.raises(OSError, match="^rename refused$"):
            store.atomic_write_bytes(str(tmp_path / "out.bin"), b"data")
        assert list(tmp_path.iterdir()) == []


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


def _gate_report():
    return GateReport(
        library="base,lib.dskl",
        rows=(
            GateResult("a.pgm", 1.0, "acceptable"),
            GateResult('#b "x".pgm', 0.1875, "anomalous"),
            GateResult("c.pgm", 0.5, "acceptable"),
        ),
    )


def _read_gate_report(path):
    return read_report(path, "gate_report")


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
        n_images = draw(st.integers(1, 10**6))
        periods.append(
            PeriodStats(
                period_id=draw(_texts),
                n_images=n_images,
                ks_d=draw(_units),
                ks_p=ks_p,
                cosine_score=draw(st.floats(-1.0, 1.0)),
                gate_flag_count=draw(st.integers(0, n_images)),
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


def _csv_unwritable(text):
    """A newline (the reader splits lines first) or a lone surrogate (UTF-8
    cannot carry one) in a CSV text cell."""
    return "\n" in text or any("\ud800" <= c <= "\udfff" for c in text)


class TestReportRoundTripProperty:
    """write -> read -> write reproduces every report file byte for byte."""

    @given(report=_drift_reports(), config=_configs, fmt=st.sampled_from(["jsonl", "csv"]))
    @settings(
        max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    def test_drift_report(self, tmp_path, report, config, fmt):
        path = str(tmp_path / f"drift.{fmt}")
        Path(path).unlink(missing_ok=True)
        if fmt == "csv" and any(_csv_unwritable(p.period_id) for p in report.periods):
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
        rows=st.lists(
            st.builds(
                GateResult, _texts, _units, st.sampled_from(["acceptable", "anomalous"])
            ),
            max_size=4,
        ),
        config=_configs,
        fmt=st.sampled_from(["jsonl", "csv"]),
    )
    @settings(
        max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    def test_gate_report(self, tmp_path, library, rows, config, fmt):
        report = GateReport(library=library, rows=rows)
        path = str(tmp_path / f"gate.{fmt}")
        Path(path).unlink(missing_ok=True)
        if fmt == "csv" and any(_csv_unwritable(r.source_id) for r in rows):
            with pytest.raises(DataError, match="unsupported-value"):
                write_report(report, fmt, path, config=config)
            assert not Path(path).exists()
            return
        write_report(report, fmt, path, config=config)
        assert _read_gate_report(path) == (report, config)
        assert _rewrite(path, _read_gate_report, fmt) == Path(path).read_bytes()


def _float_bits(x):
    return struct.pack("<d", x)


# finite float64 bit patterns: any, subnormal, and whole floats near 1e16 and 1e17
_FINITE = st.one_of(
    st.integers(0, 2**64 - 1).map(lambda n: struct.unpack("<d", n.to_bytes(8, "little"))[0]),
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(1, 2**52 - 1).map(lambda n: struct.unpack("<d", n.to_bytes(8, "little"))[0]),
    st.integers(-(2**30), 2**30).map(lambda n: float(10**16 + n)),
    st.integers(-(2**30), 2**30).map(lambda n: float(10**17 + n)),
).filter(math.isfinite)

REPORT_FIXTURES = Path(__file__).parent / "data"


class TestRealsAsText:
    """Every real is written with the fewest digits that read back as the
    same float64; files written with 17 significant digits still load."""

    @given(x=_FINITE, sign=st.sampled_from([1.0, -1.0]))
    @example(x=0.0, sign=-1.0)
    @example(x=5e-324, sign=1.0)
    @example(x=1.7976931348623157e308, sign=-1.0)
    @example(x=99_999_999_999_999_984.0, sign=1.0)
    @example(x=1e17, sign=1.0)
    @example(x=1e16, sign=-1.0)
    @example(x=0.1, sign=1.0)
    @settings(max_examples=500, deadline=None, derandomize=True)
    def test_format_float(self, x, sign):
        x *= sign  # exact, and it flips the sign of a zero too
        text = store._format_float(x)
        assert _float_bits(float(text)) == _float_bits(x)
        decoded = _decode_value(float, store._loads(text), "x")
        assert _float_bits(decoded) == _float_bits(x)
        assert len(text) <= len(f"{x:.17g}")
        if x.is_integer() and abs(x) < 1e17:
            assert text == f"{x:.17g}"
        else:  # one significant digit fewer no longer round-trips
            digits = len(text.split("e")[0].lstrip("-").replace(".", "").lstrip("0"))
            assert digits == 1 or float(f"{x:.{digits - 1}g}") != x

    @given(
        st.text(
            st.one_of(
                st.characters(),
                st.integers(0, 0x10FFFF).map(chr),  # lone surrogates too
                st.sampled_from('\x00\x1f\x7f"\\/\u2028\ud800\udfff'),
            )
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_strings_as_json_dumps_writes_them(self, s):
        assert _jdump(s) == json.dumps(s)
        assert _jdump({s: [s]}) == json.dumps({s: [s]}, separators=(",", ":"))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_no_json_for_a_non_finite_real(self, tmp_path, bad):
        with pytest.raises(DataError, match="^non-finite-value: JSON cannot carry "):
            _jdump({"a": [0.5, bad]})
        path = tmp_path / "gate.jsonl"
        with pytest.raises(DataError, match="^non-finite-value: JSON cannot carry "):
            write_report(_gate_report(), "jsonl", str(path), config={"x": bad})
        assert not path.exists()

    def test_parent_format_fixtures_load_to_the_recorded_values(self, tmp_path):
        """Reports written with 17 significant digits load to the values
        recorded when they were written, and save back shorter."""
        config = {
            "schema_version": 1,
            "extract": {"grid": 4, "hist_bins": 16, "projection_dim": 0, "projection_seed": 0,
                        "l2_normalize": True},
            "quant": {"bin_width": 0.05, "origin": 0.0, "clamp_lo": None, "clamp_hi": None},
            "sketch": {"k": 128, "hash_seed": 0},
            "gate": {"j_alpha": 0.5, "aggregation": "max"},
            "stats": {"ks_alpha": 0.05, "cosine_mode": "centroid", "pairwise_cap": 10000,
                      "seed": 0},
        }
        drift = DriftReport(
            baseline_id="base \u00e9t\u00e9.emb",
            ks_alpha=0.05,
            periods=(
                PeriodStats("p0", 100, 0.1, 0.30000000000000004, 0.99999999999999989, 0, False),
                PeriodStats("p1,late", 100, 0.23, 0.0012345678901234567, -0.0, 7, True),
                PeriodStats("p2", 3, 1.0, 5e-324, -0.7, 3, True),
            ),
        )
        sensitivity = SensitivityReport(
            noise_kind="gaussian",
            rows=(
                SensitivityRow(0.0, 1.0, 0.0, 1.0, 0.0),
                SensitivityRow(0.05, 0.997314453125, 0.07, 0.82, 0.01),
                SensitivityRow(0.1, 0.98, 0.11, 0.2, 0.1),
                SensitivityRow(0.4, 0.6, 0.93, 1e-300, 0.66666666666666663),
            ),
        )
        for name, kind, fmt, expected in [
            ("drift_report_v1.jsonl", "drift_report", "jsonl", drift),
            ("drift_report_v1.csv", "drift_report", "csv", drift),
            ("sensitivity_report_v1.jsonl", "sensitivity_report", "jsonl", sensitivity),
        ]:
            path = REPORT_FIXTURES / name
            assert b"0.050000000000000003" in path.read_bytes()
            report, got = read_report(str(path), kind)
            assert (report, got) == (expected, config)
            # == takes -0.0 for 0.0; the sign bits must agree too
            assert [np.signbit(x) for x in _reals(report)] == [
                np.signbit(x) for x in _reals(expected)
            ]
            again = tmp_path / name
            write_report(report, fmt, str(again), config=got)
            assert len(again.read_bytes()) < len(path.read_bytes())
            assert read_report(str(again), kind) == (expected, config)


def _reals(report):
    rows = getattr(report, "periods", None) or report.rows
    return [v for row in rows for v in vars(row).values() if isinstance(v, float)]


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
    def test_gate_round_trip(self, tmp_path, fmt):
        path = str(tmp_path / f"gate.{fmt}")
        write_report(_gate_report(), fmt, path)
        assert _read_gate_report(path) == (_gate_report(), None)

    @pytest.mark.parametrize("fmt", ["jsonl", "csv"])
    def test_empty_gate_report_round_trips(self, tmp_path, fmt):
        path = str(tmp_path / f"gate.{fmt}")
        write_report(GateReport("lib.dskl", ()), fmt, path)
        assert _read_gate_report(path) == (GateReport("lib.dskl", ()), None)

    def test_gate_report_layout(self):
        """The header names the library; the columns are source_id, score, verdict."""
        lines = encode_report(_gate_report(), "jsonl", {"seed": 1}).decode().splitlines()
        assert lines[0] == (
            '{"kind":"gate_report","schema_version":1,"library":"base,lib.dskl",'
            '"config":{"seed":1}}'
        )
        assert lines[2] == '{"source_id":"#b \\"x\\".pgm","score":0.1875,"verdict":"anomalous"}'
        lines = encode_report(_gate_report(), "csv").decode().splitlines()
        assert lines[:4] == [
            '# {"kind":"gate_report","schema_version":1,"library":"base,lib.dskl"}',
            "source_id,score,verdict",
            "a.pgm,1,acceptable",
            '"#b ""x"".pgm",0.1875,anomalous',
        ]

    def test_unknown_report_kind_rejected(self, tmp_path):
        path = str(tmp_path / "drift.jsonl")
        write_report(_drift_report(), "jsonl", path)
        with pytest.raises(ConfigError, match="unknown report kind"):
            read_report(path, "drift")

    @pytest.mark.parametrize("build", [lambda: _drift_report().periods[0], dict],
                             ids=["row", "dict"])
    def test_non_report_rejected(self, build):
        """A report's row, or any object that is not a report, has no kind to encode."""
        obj = build()
        with pytest.raises(DataError, match=f"^unsupported report type {type(obj).__name__}$"):
            encode_report(obj, "jsonl")

    @staticmethod
    def _forge(path, old, new):
        """Replace bytes in a report's body, then write a checksum that holds."""
        raw = path.read_bytes()
        cut = raw.rfind(b"\n", 0, len(raw) - 1) + 1
        body = raw[:cut].replace(old, new)
        assert body != raw[:cut]
        if raw[:1] == b"{":
            trailer = json.dumps({"kind": "checksum", "blake2b": _digest(body)})
        else:
            trailer = "# blake2b=" + _digest(body)
        path.write_bytes(body + trailer.encode("ascii") + b"\n")

    @pytest.mark.parametrize("fmt", ["jsonl", "csv"])
    def test_unknown_noise_kind_is_malformed_payload(self, tmp_path, fmt):
        path = tmp_path / f"sens.{fmt}"
        write_report(_sensitivity_report(), fmt, str(path))
        self._forge(path, b'"noise_kind":"salt_pepper"', b'"noise_kind":"cosmic"')
        with pytest.raises(StoreError, match="malformed-payload"):
            read_sensitivity_report(str(path))

    def test_infinite_count_is_malformed_payload(self, tmp_path):
        path = tmp_path / "drift.jsonl"
        write_report(_drift_report(), "jsonl", str(path))
        self._forge(path, b'"n_images":18', b'"n_images":1e400')
        with pytest.raises(StoreError, match="malformed-payload: cannot convert float infinity"):
            read_drift_report(str(path))

    def test_csv_header_that_is_not_an_object_is_bad_magic(self, tmp_path):
        path = tmp_path / "gate.csv"
        write_report(_gate_report(), "csv", str(path))
        header = b'# {"kind":"gate_report","schema_version":1,"library":"base,lib.dskl"}'
        self._forge(path, header, b'# ["gate_report"]')
        with pytest.raises(StoreError, match="bad-magic"):
            _read_gate_report(str(path))

    @pytest.mark.parametrize("fmt", ["jsonl", "csv"])
    def test_invalid_verdict_is_data_error(self, tmp_path, fmt):
        path = tmp_path / f"gate.{fmt}"
        write_report(_gate_report(), fmt, str(path))
        self._forge(path, b"anomalous", b"suspicious")
        message = "verdict must be acceptable or anomalous, got 'suspicious'"
        with pytest.raises(StoreError, match=f"^malformed-payload: {message}$"):
            _read_gate_report(str(path))

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
        path = tmp_path / f"gate.{fmt}"
        write_report(_gate_report(), fmt, str(path), config={"seed": 1})
        _every_bit_flip_detected(str(path), _read_gate_report, step=3)

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

    @pytest.mark.parametrize("text", ["\udcff.pgm", "a\ud800"])
    def test_csv_surrogate_in_text_cell_rejected(self, tmp_path, text):
        """A lone surrogate, as a file name that is not UTF-8 reads, has no
        UTF-8 bytes: a named DataError, no file; JSON-lines escapes it."""
        report = GateReport("lib.dskl", (GateResult(text, 1.0, "acceptable"),))
        path = tmp_path / "gate.csv"
        with pytest.raises(DataError, match="unsupported-value: CSV text cell with a surrogate"):
            write_report(report, "csv", str(path))
        assert not path.exists()
        write_report(report, "jsonl", str(tmp_path / "gate.jsonl"))
        assert _read_gate_report(str(tmp_path / "gate.jsonl"))[0] == report

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
        [
            read_library,
            load_model,
            load_split,
            read_drift_report,
            read_sensitivity_report,
            _read_gate_report,
        ],
        ids=["library", "model", "split", "drift", "sensitivity", "gate"],
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


class TestLibraryMemoryBound:
    """Building and loading a library of m = 20,000 rows, 13 of them
    distinct, each trace a peak below one (m, k) uint64 matrix (20.5 MB at
    k=128): neither makes the matrix."""

    M, K = 20_000, 128

    @staticmethod
    def _peak(fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def _built(self):
        rng = seeded_rng(16, "library-memory")
        bases = [rng.uniform(0, 1, 48) for _ in range(13)]
        feats = [FeatureVector(values=bases[i % 13], source_id=f"f{i}") for i in range(self.M)]
        q, s = QuantConfig(), SketchConfig(k=self.K)
        lib = build_library(feats, q, s)  # fills the token table and signature memo
        assert lib.distinct_minima.shape == (13, self.K)
        return feats, q, s, lib

    def test_build(self):
        feats, q, s, _ = self._built()
        peak = self._peak(lambda: build_library(feats, q, s))
        assert peak < self.M * self.K * 8, peak

    def test_load(self):
        data = save_library(self._built()[3])
        peak = self._peak(lambda: load_library(data))
        assert peak < self.M * self.K * 8, peak


class TestEmbeddingsMemoryBound:
    def test_v3_load(self, tmp_path):
        """A v3 load of 256 rows of 2,048 random values (a 3.7 MB file, a
        4.2 MB matrix, 0.5 MB byte planes) peaks below the file, the matrix
        and two byte planes: the stream is inflated in pieces, the byte
        planes straight into the matrix, never as one whole body."""
        n, d = 256, 2048
        rng = seeded_rng(19, "emb-memory")
        path = tmp_path / "e.emb"
        write_embeddings([FeatureVector(rng.standard_normal(d), f"r{i}") for i in range(n)],
                         str(path))
        tracemalloc.start()
        try:
            loaded = load_embeddings(str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(loaded) == n
        plane = n * d
        assert peak < path.stat().st_size + 8 * plane + 2 * plane, peak


class TestDeeplyNestedJson:
    """JSON nested past the parser's recursion limit, under a valid checksum,
    is a named StoreError in every reader that parses JSON."""

    DEEP = b"[" * 200_000 + b"]" * 200_000

    def test_library_v1_payload(self):
        data = b"DSKL" + (1).to_bytes(2, "little") + len(self.DEEP).to_bytes(8, "little")
        data += self.DEEP + hashlib.blake2b(self.DEEP, digest_size=8).digest()
        with pytest.raises(StoreError, match="malformed-payload: maximum recursion depth"):
            load_library(data)

    @pytest.mark.parametrize("version", [2, 3, 4])
    def test_library_v2_header(self, version):
        """The header of a v2 or v3 body, stored as it is or (v4) in a zlib stream."""
        body = len(self.DEEP).to_bytes(8, "little") + self.DEEP
        with pytest.raises(StoreError, match="malformed-payload: maximum recursion depth"):
            load_library(reference_path.seal_library(body, version))

    @pytest.mark.parametrize("loader", [load_model, load_split], ids=["model", "split"])
    def test_checked_json(self, tmp_path, loader):
        path = tmp_path / "deep.json"
        path.write_bytes(self.DEEP + b"\n# blake2b=" + _digest(self.DEEP).encode("ascii") + b"\n")
        with pytest.raises(StoreError, match="^malformed-payload: maximum recursion depth"):
            loader(str(path))

    @pytest.mark.parametrize("loader", [load_model, load_split], ids=["model", "split"])
    def test_checked_json_that_is_not_an_object(self, tmp_path, loader):
        path = tmp_path / "list.json"
        path.write_bytes(b"[1]\n# blake2b=" + _digest(b"[1]").encode("ascii") + b"\n")
        with pytest.raises(StoreError, match="bad-magic: expected a .* object, got list"):
            loader(str(path))

    def test_report_checksum_record(self, tmp_path):
        """The trailer is parsed before the checksum is checked."""
        path = tmp_path / "deep.jsonl"
        path.write_bytes(b'{"kind":"drift_report"}\n' + self.DEEP + b"\n")
        with pytest.raises(StoreError, match="checksum-mismatch: unparseable checksum record"):
            read_drift_report(str(path))

    @pytest.mark.parametrize("fmt", ["jsonl", "csv"])
    def test_report_header(self, tmp_path, fmt):
        header = b'{"kind":"drift_report","x":' + self.DEEP + b"}"
        if fmt == "jsonl":
            body = header + b"\n"
            trailer = b'{"kind":"checksum","blake2b":"' + _digest(body).encode("ascii") + b'"}'
        else:
            body = b"# " + header + b"\nperiod_id\n"
            trailer = b"# blake2b=" + _digest(body).encode("ascii")
        path = tmp_path / f"deep.{fmt}"
        path.write_bytes(body + trailer + b"\n")
        with pytest.raises(StoreError, match="malformed-payload: maximum recursion depth"):
            read_drift_report(str(path))


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
        with pytest.raises(DataError, match="^empty-batch: features$"):
            write_embeddings([], str(tmp_path / "e.emb"))
        write_embeddings([], str(tmp_path / "e.emb"), dim=8)
        assert load_embeddings(str(tmp_path / "e.emb")) == []


# a v1 embedding file, as the v1 writer saved _v1_fixture_features()
V1_EMBEDDINGS = Path(__file__).parent / "data" / "embeddings_v1.emb"
# a v2 embedding file, as the v2 writer saved _v1_fixture_features()
V2_EMBEDDINGS = Path(__file__).parent / "data" / "embeddings_v2.emb"


def _v1_fixture_features():
    """The features the v1 embedding fixture was written from: 17-digit
    decimals, -0.0, the smallest subnormal and normal, and a non-ASCII id."""
    values = [
        [0.1, -0.25, 1.0 / 3.0, 2.5e-7, 1e10],
        [-0.0, 5e-324, 2.2250738585072014e-308, -1.7976931348623157e2, 7.0],
        [0.5, 0.5, 0.5, 0.5, 0.5],
        [np.nextafter(1.0, 2.0), -np.nextafter(0.1, 0.0), 123456.789, -1e-5, 0.0],
    ]
    ids = ["img000.pgm", "scan-été.ppm", "x", 'a,b"c']
    return [FeatureVector(values=np.array(v), source_id=s) for v, s in zip(values, ids)]


def _bits(features):
    """(id, value bytes) of each vector: equal exactly when every bit is."""
    return [(v.source_id, v.values.tobytes()) for v in features]


def _v2_bytes(ids_json, rows, header=None):
    """A v2 embedding file assembled by hand from its documented layout: the
    header line, the ids line space-padded to an 8-byte boundary, the rows as
    little-endian float64, and the BLAKE2b checksum of all of it."""
    rows = np.asarray(rows, dtype="<f8")
    if header is None:
        header = f"driftsketch-emb v2 dim={rows.shape[1]} count={rows.shape[0]}"
    head = header.encode("ascii") + b"\n" + ids_json
    body = head + b" " * (-(len(head) + 1) % 8) + b"\n" + rows.tobytes()
    return body + hashlib.blake2b(body, digest_size=8).digest()


def _planes(rows):
    """The (n, d) float64 `rows` as v3 stores them: byte planes (8, d, n)."""
    rows = np.asarray(rows, dtype="<f8")
    return bytes(rows.view(np.uint8).reshape(*rows.shape, 8).transpose(2, 1, 0).ravel())


def _v3_bytes(ids_json, rows):
    """A v3 embedding file sealed by hand from its documented layout: the
    header line, a level-1 zlib stream of the ids line and the rows as byte
    planes (8, d, n), and the BLAKE2b checksum of all of it."""
    rows = np.asarray(rows, dtype="<f8")
    body = ids_json + b"\n" + _planes(rows)
    header = f"driftsketch-emb v3 dim={rows.shape[1]} count={rows.shape[0]} bytes={len(body)}\n"
    data = header.encode("ascii") + zlib.compress(body, 1)
    return data + hashlib.blake2b(data, digest_size=8).digest()


def _load_bytes(tmp_path, data):
    path = tmp_path / "forged.emb"
    path.write_bytes(data)
    return load_embeddings(str(path))


class TestEmbeddingsV2:
    """The checksummed binary embedding files: v3, which the writer emits, and
    v2, which the writer emitted before it and the reader still reads."""

    def test_layout(self, tmp_path):
        feats = _v1_fixture_features()
        path = tmp_path / "e.emb"
        write_embeddings(feats, str(path))
        data = path.read_bytes()
        ids = json.dumps([v.source_id for v in feats], separators=(",", ":")).encode("ascii")
        rows = [v.values for v in feats]
        assert data == _v3_bytes(ids, rows)
        # a text first line, so `head -1` and the CLI's input sniffing still work;
        # the ids line (53 bytes) and 4 x 5 values (160 bytes) inflate to 213 bytes
        assert data.split(b"\n", 1)[0] == b"driftsketch-emb v3 dim=5 count=4 bytes=213"
        # the v2 layout, as the committed fixture and the test-side v2 writer hold it
        v2 = V2_EMBEDDINGS.read_bytes()
        assert v2 == _v2_bytes(ids, rows) == reference_path.encode_embeddings_v2(feats)
        assert v2.split(b"\n", 1)[0] == b"driftsketch-emb v2 dim=5 count=4"
        assert (len(v2) - 8 - 4 * 5 * 8) % 8 == 0

    def test_v1_fixture_loads_bit_for_bit(self):
        assert _bits(load_embeddings(str(V1_EMBEDDINGS))) == _bits(_v1_fixture_features())

    def test_v2_fixture_loads_bit_for_bit(self):
        assert _bits(load_embeddings(str(V2_EMBEDDINGS))) == _bits(_v1_fixture_features())

    def test_v1_fixture_rewritten_as_v2_holds_the_same_bits(self, tmp_path):
        """The v1 fixture rewritten by the test-side v2 writer and by the
        package's v3 writer loads to the same bits as the v1 text."""
        from_v1 = load_embeddings(str(V1_EMBEDDINGS))
        v2, v3 = tmp_path / "v2.emb", tmp_path / "v3.emb"
        v2.write_bytes(reference_path.encode_embeddings_v2(from_v1))
        write_embeddings(from_v1, str(v3))
        assert v3.read_bytes().startswith(b"driftsketch-emb v3 ")
        assert _bits(load_embeddings(str(v2))) == _bits(load_embeddings(str(v3))) == _bits(from_v1)

    def test_rows_are_read_only_views_of_one_buffer(self, tmp_path):
        rng = seeded_rng(8, "emb-views")
        feats = [FeatureVector(rng.standard_normal(6), f"r{i}") for i in range(5)]
        v2, v3 = tmp_path / "v2.emb", tmp_path / "v3.emb"
        v2.write_bytes(reference_path.encode_embeddings_v2(feats))
        write_embeddings(feats, str(v3))
        for path in (v2, v3):
            loaded = load_embeddings(str(path))
            assert all(not v.values.flags.writeable and v.values.flags.c_contiguous
                       for v in loaded)
            assert all(np.shares_memory(loaded[0].values.base, v.values) for v in loaded)

    @given(
        rows=st.integers(0, 4).flatmap(
            lambda n: st.lists(
                st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=3,
                         max_size=3),
                min_size=n, max_size=n,
            )
        ),
        ids=st.lists(st.text(max_size=6), min_size=4, max_size=4, unique=True),
    )
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_round_trip_is_bit_exact(self, tmp_path, rows, ids):
        """Any finite values and any text ids, whitespace, newlines and
        non-ASCII included, come back bit for bit and in order."""
        feats = [FeatureVector(values=np.array(r), source_id=s) for r, s in zip(rows, ids)]
        path = tmp_path / "e.emb"
        write_embeddings(feats, str(path), dim=3)
        assert _bits(load_embeddings(str(path))) == _bits(feats)

    @given(data=st.data())
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_any_flipped_byte_or_truncation_is_a_named_error(self, tmp_path, data):
        """Any byte of a v3 file (or of the v2 fixture) changed, or the file
        cut short, is a named error, never a zlib.error or a traceback."""
        path = tmp_path / "e.emb"
        write_embeddings(_v1_fixture_features(), str(path))
        good = data.draw(st.sampled_from([path, V2_EMBEDDINGS]), label="file").read_bytes()
        if data.draw(st.booleans(), label="truncate"):
            bad = good[: data.draw(st.integers(0, len(good) - 1), label="length")]
        else:
            pos = data.draw(st.integers(0, len(good) - 1), label="position")
            flip = data.draw(st.integers(1, 255), label="xor")
            bad = good[:pos] + bytes([good[pos] ^ flip]) + good[pos + 1 :]
        with pytest.raises(DataError, match=r"^[a-z-]+(\(|:|$)"):
            _load_bytes(tmp_path, bad)

    @pytest.mark.parametrize("byte", [b"\x00", b"\n", b"\xff"])
    def test_an_appended_byte_is_a_named_error(self, tmp_path, byte):
        """One byte after the checksum of a fresh v3 file or of the v2 fixture."""
        path = tmp_path / "e.emb"
        write_embeddings(_v1_fixture_features(), str(path))
        for good in (path.read_bytes(), V2_EMBEDDINGS.read_bytes()):
            with pytest.raises(StoreError, match="^checksum-mismatch$"):
                _load_bytes(tmp_path, good + byte)

    @pytest.mark.parametrize(
        "ids_json, rows, header, message",
        [
            (b'{"a":1}', [[1.0]], None, r"malformed-payload: ids must be a list of 1 strings"),
            (b'["a"]', [[1.0], [2.0]], None, r"ids must be a list of 2 strings"),
            (b'[1,"b"]', [[1.0], [2.0]], None,
             r"malformed-payload: malformed-id: 1 is not a string"),
            (b'["\xff"]', [[1.0]], None, r"malformed-payload: undecodable ids"),
            (b'["a","b"]', [[1.0]], "driftsketch-emb v2 dim=1 count=2",
             r"malformed-payload: dim=1, count=2 need 16 data bytes, found 8"),
            (b'["a"]', [[1.0, 2.0]], "driftsketch-emb v2 dim=1 count=1",
             r"malformed-payload: dim=1, count=1 need 8 data bytes, found 16"),
            (b'["a","a"]', [[1.0], [2.0]], None, r"malformed-payload: duplicate-source-id: 'a'"),
            (b'["a","b"]', [[1.0], [np.inf]], None, r"non-finite-value\(b\)"),
            (b'["a","b"]', [[np.nan], [1.0]], None, r"non-finite-value\(a\)"),
            (b'["a"]', [[1.0]], "driftsketch-emb v2 dim=x count=1",
             r"malformed-file\(line 1\): non-integer dim/count"),
            (b"[]", np.empty((0, 1)), "driftsketch-emb v2 dim=0 count=0",
             r"malformed-file\(line 1\): dim=0, count=0"),
            (b'["a"]', [[1.0]], "driftsketch-emb v2 dim=1 count=1 extra",
             r"malformed-file\(line 1\): bad header"),
        ],
    )
    def test_checksummed_but_invalid_contents_are_named(self, tmp_path, ids_json, rows,
                                                        header, message):
        with pytest.raises(DataError, match=message):
            _load_bytes(tmp_path, _v2_bytes(ids_json, rows, header))

    def test_missing_ids_line(self, tmp_path):
        body = b"driftsketch-emb v2 dim=1 count=0\n"
        with pytest.raises(StoreError, match="malformed-payload: header and id lines expected"):
            _load_bytes(tmp_path, body + hashlib.blake2b(body, digest_size=8).digest())

    def test_writer_rejects_what_the_reader_would(self, tmp_path):
        path = str(tmp_path / "e.emb")
        with pytest.raises(DataError, match=r"non-finite-value\(b\)"):
            write_embeddings([FeatureVector([1.0], "a"), FeatureVector([np.nan], "b")], path)
        with pytest.raises(DataError, match="malformed-id"):
            write_embeddings([FeatureVector([1.0], 7)], path)
        with pytest.raises(DataError, match="duplicate-source-id"):
            write_embeddings([FeatureVector([1.0], "a"), FeatureVector([2.0], "a")], path)
        with pytest.raises(DataError, match="dimension-mismatch"):
            write_embeddings([FeatureVector([1.0], "a"), FeatureVector([2.0, 3.0], "b")], path)


# the body of a v3 file of ids "a" and "b" with rows [1, 2] and [3, 4]: a 10-byte
# ids line and 32 bytes of byte planes, in a level-1 zlib stream
_V3_BODY = b'["a","b"]\n' + _planes([[1.0, 2.0], [3.0, 4.0]])
_V3_STREAM = zlib.compress(_V3_BODY, 1)
_V3_HEAD = "driftsketch-emb v3 dim=2 count=2 bytes="


class TestEmbeddingsV3:
    @pytest.mark.parametrize(
        "header, stream, message",
        [
            pytest.param(_V3_HEAD + "42", _V3_STREAM, None, id="well-formed"),
            pytest.param(_V3_HEAD + "42", b"not a zlib stream",
                         r"malformed-payload: corrupt zlib stream", id="not-zlib"),
            # a valid zlib header, then a final block of the reserved type 3
            pytest.param(_V3_HEAD + "42", b"\x78\x01\x07",
                         r"malformed-payload: corrupt zlib stream", id="reserved-block-type"),
            pytest.param(_V3_HEAD + "42", _V3_STREAM[:-4] + bytes(4),
                         r"malformed-payload: corrupt zlib stream", id="wrong-adler32"),
            pytest.param(_V3_HEAD + "42", _V3_STREAM[:-6],
                         r"malformed-payload: the zlib stream ends early", id="cut-short"),
            pytest.param(_V3_HEAD + "41", _V3_STREAM,
                         r"malformed-payload: the zlib stream inflates to more than bytes=41",
                         id="longer-than-declared"),
            pytest.param(_V3_HEAD + "43", _V3_STREAM,
                         r"malformed-payload: the zlib stream inflates to 42 bytes, not bytes=43",
                         id="shorter-than-declared"),
            pytest.param(_V3_HEAD + "42", _V3_STREAM + b"\x00",
                         r"malformed-payload: 1 bytes after the zlib stream",
                         id="bytes-after-stream"),
            pytest.param(_V3_HEAD + "43", zlib.compress(_V3_BODY + b"\x00"),
                         r"malformed-payload: dim=2, count=2 need 32 data bytes, found 33",
                         id="declared-bytes-disagree-with-dim-and-count"),
            pytest.param(_V3_HEAD + "32", zlib.compress(_V3_BODY[10:]),
                         r"malformed-payload: header and id lines expected", id="no-ids-line"),
            # more than deflate can inflate the stream to, or than max_length can take
            pytest.param(_V3_HEAD + str(10**6), _V3_STREAM,
                         r"malformed-payload: bytes=1000000 cannot inflate from \d+ stream bytes",
                         id="beyond-deflate-ratio"),
            pytest.param(_V3_HEAD + str(2**64), _V3_STREAM,
                         r"malformed-payload: bytes=18446744073709551616 cannot inflate",
                         id="beyond-ssize-t"),
            pytest.param(_V3_HEAD + "-1", _V3_STREAM,
                         r"malformed-file\(line 1\): dim=2, count=2, bytes=-1",
                         id="negative-bytes"),
            pytest.param(_V3_HEAD + "x", _V3_STREAM,
                         r"malformed-file\(line 1\): non-integer dim/count/bytes",
                         id="non-integer-bytes"),
            pytest.param(_V3_HEAD[:-7], _V3_STREAM, r"malformed-file\(line 1\): bad header",
                         id="no-bytes-field"),
            # v2 and v3 share the body checks
            pytest.param(_V3_HEAD + "42", zlib.compress(_V3_BODY.replace(b'"b"', b'"a"')),
                         r"malformed-payload: duplicate-source-id: 'a'", id="duplicate-id"),
            pytest.param(_V3_HEAD + "42",
                         zlib.compress(b'["a","b"]\n' + _planes([[1.0, 2.0], [3.0, np.inf]])),
                         r"non-finite-value\(b\)", id="non-finite"),
        ],
    )
    def test_hand_sealed_files(self, tmp_path, capsys, header, stream, message):
        """A v3 file whose checksum holds loads or raises a named error, and
        build-baseline exits 0 or 3 on it, never with a zlib.error, an
        OverflowError, a MemoryError or a traceback."""
        path = tmp_path / "sealed.emb"
        data = header.encode("ascii") + b"\n" + stream
        path.write_bytes(data + hashlib.blake2b(data, digest_size=8).digest())
        out = tmp_path / "lib.dskl"
        if message is None:
            assert _bits(load_embeddings(str(path))) == [
                ("a", np.array([1.0, 2.0]).tobytes()), ("b", np.array([3.0, 4.0]).tobytes())
            ]
            assert cli_main(["build-baseline", str(path), "--out", str(out)]) == 0
            return
        with pytest.raises(DataError, match=message):
            load_embeddings(str(path))
        assert cli_main(["build-baseline", str(path), "--out", str(out)]) == 3
        assert not out.exists()
        assert re.search(message, capsys.readouterr().err)

    def test_no_newline_in_the_sealed_bytes(self, tmp_path):
        path = tmp_path / "sealed.emb"
        data = (_V3_HEAD + "42").encode("ascii")
        path.write_bytes(data + hashlib.blake2b(data, digest_size=8).digest())
        with pytest.raises(StoreError, match="^malformed-payload: header and id lines expected$"):
            load_embeddings(str(path))


# v1 text: n records of about dim values each, odd values among them, under a
# header that is mostly right; blank lines, CRs, duplicate ids and wrong
# counts or dims
_V1_TOKENS = st.sampled_from(
    ["0.5", "-0", "1e-320", "1e300", "2", "nan", "inf", "x", "1_0", "0x1p-3", "+.5"]
)


@st.composite
def _v1_text(draw):
    dim, n = draw(st.sampled_from([1, 2])), draw(st.integers(0, 3))
    header = draw(st.sampled_from([
        f"driftsketch-emb v1 dim={dim} count={n}",
        f"driftsketch-emb v1 dim={dim} count={n + 1}",
        f"driftsketch-emb v1 dim={dim}",
        f"driftsketch-emb v0 dim={dim} count={n}",
        f"driftsketch-emb v1 dim=0 count={n}",
        "driftsketch-emb v1 dim=x count=-1",
        "",
    ]))
    lines = [header]
    for i in range(n):
        size = dim + draw(st.sampled_from([0, 0, 0, 1, -1]))
        values = draw(st.lists(_V1_TOKENS, min_size=size, max_size=size))
        lines.append(" ".join([draw(st.sampled_from([f"r{i}", "r0"])), *values]))
        lines += [""] * draw(st.integers(0, 1))
    sep = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return sep.join(lines) + draw(st.sampled_from(["", sep]))


class TestV1EmbeddingsUnchanged:
    @given(text=_v1_text())
    @settings(max_examples=400, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_same_vectors_or_same_error_as_the_text_reader(self, tmp_path, text):
        """Every v1 file gives the text-only reader's vectors, bit for bit,
        or its error class and message."""
        path = tmp_path / "v1.emb"
        path.write_bytes(text.encode("utf-8"))
        outcomes = []
        for load in (load_embeddings, reference_path.load_embeddings):
            try:
                outcomes.append(("ok", _bits(load(str(path)))))
            except DataError as exc:
                outcomes.append((type(exc), str(exc)))
        assert outcomes[0] == outcomes[1]

    def test_non_utf8_error_unchanged(self, tmp_path):
        path = tmp_path / "v1.emb"
        path.write_bytes(b"driftsketch-emb v1 dim=1 count=1\na \xff\n")
        with pytest.raises(StoreError, match=r"malformed-file: cannot read .*: not UTF-8 text"):
            load_embeddings(str(path))


_EMB_IDS = ["a.pgm", "b.pgm", "scan-été.ppm"]


@given(data=st.data())
@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_mutated_embeddings_named_or_saved_back(tmp_path, capsys, data):
    """A v1, v2 or v3 embedding file with one mutation of its body (a
    flipped bit, a cut or an inserted byte), resealed under a valid checksum
    (v2, v3; a v3 body is mutated inflated, under its declared length or the
    new one): ``load_embeddings`` raises a named DriftSketchError or returns
    vectors that ``write_embeddings`` writes and ``load_embeddings`` reads
    back bit for bit; ``build-baseline`` on the file exits 0 or 3."""
    version = data.draw(st.sampled_from(["v1", "v2", "v3"]))
    dim, count = data.draw(st.integers(1, 3)), data.draw(st.integers(0, 3))
    rows = data.draw(st.lists(
        st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=dim, max_size=dim),
        min_size=count, max_size=count,
    ))
    features = [FeatureVector(row, sid) for row, sid in zip(rows, _EMB_IDS)]
    path = tmp_path / "m.emb"
    if version == "v1":
        lines = [f"driftsketch-emb v1 dim={dim} count={count}"]
        lines += [" ".join([v.source_id, *map(repr, v.values.tolist())]) for v in features]
        head, body = b"", "\n".join(lines).encode("utf-8") + b"\n"
    elif version == "v2":
        head, _, body = reference_path.encode_embeddings_v2(features, dim)[:-8].partition(b"\n")
        head += b"\n"
    else:
        write_embeddings(features, str(path), dim=dim)
        sealed = path.read_bytes()
        head, _, stream = sealed[:-8].partition(b"\n")
        head, body = head + b"\n", zlib.decompress(stream)
    body = bytearray(body)
    kind = data.draw(st.sampled_from(["flip", "cut", "insert"]))
    at = data.draw(st.integers(0, len(body) - 1))
    if kind == "flip":
        body[at] ^= 1 << data.draw(st.integers(0, 7))
    elif kind == "cut":
        del body[at : at + data.draw(st.integers(1, len(body)))]
    else:
        body.insert(at, data.draw(st.integers(0, 255)))
    if version == "v1":
        path.write_bytes(bytes(body))
    elif version == "v2":
        sealed = head + bytes(body)
        path.write_bytes(sealed + hashlib.blake2b(sealed, digest_size=8).digest())
    else:
        if data.draw(st.booleans()):  # declare the mutated body's length
            head = re.sub(rb"bytes=\d+", b"bytes=%d" % len(body), head)
        path.write_bytes(seal(head, [bytes(body)]))
    try:
        got = load_embeddings(str(path))
    except DriftSketchError as exc:
        assert re.match(r"[a-z]+(-[a-z]+)+[(:]", str(exc)), str(exc)
        event(f"{version} {kind}: {re.split('[(:]', str(exc))[0]}")
    else:
        event(f"{version} {kind}: loaded")
        again = str(tmp_path / "again.emb")
        write_embeddings(got, again, dim=got[0].dim if got else dim)
        assert _bits(load_embeddings(again)) == _bits(got)
    assert cli_main(["build-baseline", str(path), "--out", str(tmp_path / "b.dskl")]) in (0, 3)
    assert "Traceback" not in capsys.readouterr().err


def _library_parts(lib):
    """Everything a library holds, as values that compare equal exactly when it does."""
    return (lib.ids, lib.distinct_minima.tobytes(), lib.row_index.tolist(), lib.sketch_config,
            lib.quant_config, lib.extract_fingerprint, lib.dim)


@given(data=st.data())
@settings(max_examples=400, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_mutated_library_named_or_saved_back(tmp_path, capsys, data):
    """A v1-v4 library with one mutation of its body (a flipped byte, a cut
    or an appended byte; the v1 JSON payload, the v4 body inflated), resealed
    by ``reference_path.seal_library`` under a valid checksum: ``read_library``
    raises a named DriftSketchError or returns a library that saves and loads
    back unchanged, and ``gate`` on the file exits 0, 1 or 3."""
    version = data.draw(st.sampled_from([1, 2, 3, 4]))
    if version == 1:
        good, dim = V1_LIBRARY.read_bytes(), 4
    else:
        dim, count = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 4))
        rows = data.draw(st.lists(st.lists(st.sampled_from([0.0, 0.1, 0.5]),
                                           min_size=dim, max_size=dim),
                                  min_size=count, max_size=count))
        lib = build_library([FeatureVector(row, f"i{n}") for n, row in enumerate(rows)],
                            QuantConfig(), SketchConfig(k=data.draw(st.sampled_from([1, 4]))))
        good = save_library(lib) if version == 4 else reference_path.encode_library_v3(lib)
    body = bytearray(reference_path.library_body(good))
    kind = data.draw(st.sampled_from(["flip", "cut", "append"]))
    if kind == "flip":
        body[data.draw(st.integers(0, len(body) - 1))] ^= data.draw(st.integers(1, 255))
    elif kind == "cut":
        del body[data.draw(st.integers(0, len(body) - 1)):]
    else:
        body.append(data.draw(st.integers(0, 255)))
    path = tmp_path / "m.dskl"
    path.write_bytes(reference_path.seal_library(bytes(body), version))
    try:
        got = read_library(str(path))
    except DriftSketchError as exc:
        assert re.match(r"[a-z]+(-[a-z]+)+[(:]|checksum-mismatch$", str(exc)), str(exc)
        event(f"v{version} {kind}: {re.split('[(:]', str(exc))[0]}")
    else:
        event(f"v{version} {kind}: loaded")
        assert _library_parts(load_library(save_library(got))) == _library_parts(got)
    queries = str(tmp_path / "q.emb")
    write_embeddings([FeatureVector([0.1] * dim, "q")], queries)
    out = str(tmp_path / "g.jsonl")
    assert cli_main(["gate", queries, "--library", str(path), "--out", out]) in (0, 1, 3)
    assert "Traceback" not in capsys.readouterr().err


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
        with pytest.raises(DataError, match="^duplicate-source-id: 'a'$"):
            split_dataset(["a", "b", "a"], 2, seed=0)

    def test_duplicate_ids_named_in_one_pass(self):
        """The first id that repeats an earlier one, found in one pass:
        100,000 ids with one repeat take well under the bound."""
        with pytest.raises(DataError, match=r"^duplicate-source-id: 'g'$"):
            split_dataset(list("gfedcbaxgfedcba"), 2, seed=0)
        ids = [f"i{k}" for k in range(100_000)] + ["i777"]
        start = time.perf_counter()
        with pytest.raises(DataError, match=r"^duplicate-source-id: 'i777'$"):
            split_dataset(ids, 2, seed=0)
        assert time.perf_counter() - start < 5.0

    def test_too_few_ids(self):
        with pytest.raises(DataError, match="too-few-ids"):
            split_dataset(["a", "b"], 3, seed=0)

    @pytest.mark.parametrize(
        "n_groups, seed, assignment, message",
        [
            (1, 0, {}, "config-invalid: n_groups must be >= 2, got 1"),
            ("3", 0, {}, "config-invalid: n_groups must be int, got '3'$"),
            (2, -1, {}, "invalid-seed"),
            (2, 0, {"a": 2}, r"config-invalid: id 'a' in group 2, outside \[0, 2\)"),
            (2, 0, {"a": 1.0}, "config-invalid: id 'a' in group 1.0, not an integer"),
            (2, 0, [("a", 0)], r"config-invalid: assignment must be dict, got \[\('a', 0\)\]$"),
        ],
    )
    def test_plan_checks_itself(self, n_groups, seed, assignment, message):
        """A plan checks its groups and seed on construction, and
        ``split_dataset`` and ``load_split`` share those checks."""
        with pytest.raises(ConfigError, match=message):
            SplitPlan(n_groups, seed, assignment)
        if not assignment:
            with pytest.raises(ConfigError, match=message):
                split_dataset(["a", "b", "c"], n_groups, seed)

    def test_plan_file_round_trip(self, tmp_path):
        plan = split_dataset([f"i{k}" for k in range(12)], 4, seed=6)
        path = tmp_path / "plan.json"
        save_split(plan, str(path))
        assert load_split(str(path)) == plan


# ---------------------------------------------------------------------------
# every JSON document typed by its dataclass annotations
# ---------------------------------------------------------------------------

_MODEL_LINE = b'{"kind":"head_model","schema_version":1,"dim":2,"w":[0.5,-1],"b":0.25,"train":null}'
_SPLIT_LINE = (
    b'{"kind":"split_plan","schema_version":1,"n_groups":2,"seed":0,"assignment":{"a":0,"b":1}}'
)


class TestTypedDocuments:
    """Documents whose checksum holds but whose fields are mistyped, out of
    range or of another schema version. Each of these loaded before, with
    its numbers cast by hand or its fields ignored."""

    @pytest.mark.parametrize(
        "old, new, message",
        [
            (b'"n_groups":2', b'"n_groups":2.9', "n_groups must be int, got 2.9"),
            (b'"seed":0', b'"seed":0.5', "seed must be int, got 0.5"),
            (b'"b":1}', b'"b":1.7}', r"id 'b' in group 1.7, not an integer"),
            (b'"b":1}', b'"b":true}', r"id 'b' in group True, not an integer"),
            (b'"n_groups":2', b'"n_groups":1', "n_groups must be >= 2, got 1"),
            (b'"seed":0', b'"seed":"-5"', "seed must be int, got '-5'"),
            (b'"seed":0', b'"seed":-5', r"invalid-seed: expected integer in \[0, 2\^64\), got -5"),
            (b'{"a":0,"b":1}', b'[["a",0]]', r"assignment must be dict, got \[\['a', 0\]\]"),
            (b',"seed":0', b"", "'seed'"),
            (b'"seed":0', b'"seed":0,"extra":1', "unknown key 'extra'"),
        ],
    )
    def test_split_plan(self, tmp_path, old, new, message):
        path = tmp_path / "plan.json"
        path.write_bytes(_checked_json(_SPLIT_LINE.replace(old, new)))
        with pytest.raises(StoreError, match=f"^malformed-payload: {message}$"):
            load_split(str(path))

    @pytest.mark.parametrize(
        "old, new, message",
        [
            (b'"b":0.25', b'"b":"1.5"', "b must be float, got '1.5'"),
            (b'"w":[0.5,-1]', b'"w":["1","2"]', "weights must be float, got '1'"),
            (b'"w":[0.5,-1]', b'"w":[true,false]', "weights must be float, got True"),
            (b'"dim":2', b'"dim":2.5', "dim must be int, got 2.5"),
            (b'"train":null', b'"train":7', "train must be TrainConfig or null, got 7"),
            (b'"train":null', b'"train":{"lr":0.1}', "'beta1'"),
            (b',"train":null', b"", "'train'"),
            (b'"dim":2', b'"dim":3', "dim 3 but 2 weights"),
        ],
    )
    def test_model_checkpoint(self, tmp_path, old, new, message):
        path = tmp_path / "model.json"
        path.write_bytes(_checked_json(_MODEL_LINE.replace(old, new)))
        with pytest.raises(StoreError, match=f"^malformed-payload: {message}$"):
            load_model(str(path))

    @pytest.mark.parametrize("version", [b"99", b"7", b"0", b"true", b"1.0", b'"1"', b"null"])
    @pytest.mark.parametrize("line", [_MODEL_LINE, _SPLIT_LINE], ids=["model", "split"])
    def test_schema_version(self, tmp_path, line, version):
        path = tmp_path / "doc.json"
        forged = line.replace(b'"schema_version":1', b'"schema_version":' + version)
        path.write_bytes(_checked_json(forged))
        loader = load_model if line is _MODEL_LINE else load_split
        with pytest.raises(StoreError, match="^version-unsupported: schema_version "):
            loader(str(path))

    def test_negative_zero_keeps_its_sign(self, tmp_path):
        """``_jdump`` writes -0.0 as -0, which JSON reads as the integer 0."""
        path, again = tmp_path / "model.json", tmp_path / "again.json"
        save_model(HeadModel(w=[-0.0, 1.5], b=-0.0), str(path))
        assert b'"w":[-0,1.5],"b":-0,' in path.read_bytes()
        model = load_model(str(path))
        assert np.signbit(model.w).tolist() == [True, False] and np.signbit(model.b)
        save_model(model, str(again))
        assert again.read_bytes() == path.read_bytes()
        lib = build_library(
            [FeatureVector([0.1, 0.2], "a")], QuantConfig(origin=-0.0), SketchConfig(k=4), "fp"
        )
        data = save_library(lib)
        assert np.signbit(load_library(data).quant_config.origin)
        assert save_library(load_library(data)) == data

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"extract_fingerprint": 7}, "extract_fingerprint must be str, got 7"),
            ({"extract_fingerprint": None}, "extract_fingerprint must be str, got None"),
            ({"quant": {"bin_width": True}}, "bin_width must be float, got True"),
            ({"sketch": {"k": 8.5}}, "k must be int, got 8.5"),
            ({"dim": "4"}, "dim must be int or null, got '4'"),
            ({"m": "4"}, "m must be int, got '4'"),
            ({"ids": "v0"}, "ids must be list, got 'v0'"),
            ({"extra": 1}, "unknown key 'extra'"),
        ],
    )
    def test_library_header(self, change, message):
        header, matrix, index = _split_v2(save_library(_v1_fixture_library()))
        for key, value in change.items():
            header[key] = {**header[key], **value} if isinstance(value, dict) else value
        for version in (3, 4):
            with pytest.raises(StoreError, match=f"^malformed-payload: {message}$"):
                load_library(_seal_v2(header, matrix, index, version))

    def test_v1_library_schema_version(self):
        with pytest.raises(StoreError, match="^version-unsupported: schema_version 2$"):
            load_library(_forge_v1(b'"schema_version":1', b'"schema_version":2'))
        with pytest.raises(StoreError, match="^malformed-payload: extract_fingerprint must be str"):
            load_library(_forge_v1(b'"extract_fingerprint":"fp"', b'"extract_fingerprint":null'))

    @pytest.mark.parametrize("fmt", ["jsonl", "csv"])
    def test_drift_report_fields(self, tmp_path, fmt):
        path = tmp_path / f"drift.{fmt}"
        write_report(_drift_report(), fmt, str(path))
        TestReportPersistence._forge(path, b'"schema_version":1', b'"schema_version":99')
        with pytest.raises(StoreError, match="^version-unsupported: schema_version 99$"):
            read_drift_report(str(path))
        write_report(_drift_report(), fmt, str(path))
        TestReportPersistence._forge(path, b'"baseline_id":"base"', b'"baseline_id":5')
        with pytest.raises(StoreError, match="^malformed-payload: baseline_id must be str, got 5$"):
            read_drift_report(str(path))

    def test_jsonl_report_rows_and_config(self, tmp_path):
        path = tmp_path / "drift.jsonl"
        write_report(_drift_report(), "jsonl", str(path))
        TestReportPersistence._forge(path, b'"n_images":18', b'"n_images":true')
        with pytest.raises(StoreError, match="^malformed-payload: n_images must be int, got True$"):
            read_drift_report(str(path))
        write_report(_drift_report(), "jsonl", str(path))
        TestReportPersistence._forge(path, b',"config":null', b"")
        with pytest.raises(StoreError, match="^malformed-payload: 'config'$"):
            read_drift_report(str(path))

    def test_csv_row_with_a_cell_too_many(self, tmp_path):
        path = tmp_path / "gate.csv"
        write_report(_gate_report(), "csv", str(path))
        TestReportPersistence._forge(path, b"a.pgm,1,acceptable", b"a.pgm,1,acceptable,x")
        with pytest.raises(StoreError, match="^malformed-payload: 4 cells under 3 columns$"):
            _read_gate_report(str(path))

    @pytest.mark.parametrize(
        "cell, message",
        [
            (b"0,0", "drift_flag = '0', which the writer writes 'false'"),
            (b"0,FALSE", "drift_flag = 'FALSE', which the writer writes 'false'"),
            (b"020,0.015", "n_images = '020', which the writer writes '20'"),
            (b"20,0.0150", "ks_d = '0.0150', which the writer writes '0.015'"),
            (b"20,1.5e-2", "ks_d = '1.5e-2', which the writer writes '0.015'"),
            (b"20, 0.015", "ks_d = ' 0.015', which the writer writes '0.015'"),
        ],
    )
    def test_a_csv_cell_must_be_as_written(self, tmp_path, cell, message):
        """A cell that parses but is not the text the writer writes for its
        value (a real may also have 17 significant digits) is named: it
        would load to a report that saves back to other bytes."""
        path = tmp_path / "drift.csv"
        write_report(_drift_report(), "csv", str(path))
        old = b"0,false" if cell.startswith(b"0,") else b"20,0.015"
        TestReportPersistence._forge(path, old, cell)
        with pytest.raises(StoreError, match=f"^malformed-payload: {re.escape(message)}$"):
            read_drift_report(str(path))
        write_report(_drift_report(), "csv", str(path))
        TestReportPersistence._forge(path, b"0.93,", b"0.93000000000000005,")
        assert read_drift_report(str(path))[0] == _drift_report()

    @pytest.mark.parametrize(
        "cell, name, text",
        [(b"20,0.0_15", "ks_d", "0.0_15"), (b"2_0,0.015", "n_images", "2_0"),
         ("20,٠.٠١٥".encode(), "ks_d", "٠.٠١٥")],
        ids=["20,0.0_15", "2_0,0.015", "20,arabic-indic-digits"],
    )
    def test_a_csv_cell_that_is_not_ascii_number_text(self, tmp_path, cell, name, text):
        """A number cell is ASCII text without '_': float() and int() would
        read these cells as the numbers the writer wrote."""
        path = tmp_path / "drift.csv"
        write_report(_drift_report(), "csv", str(path))
        TestReportPersistence._forge(path, b"20,0.015", cell)
        message = re.escape(f"cannot parse {name} = {text!r}")
        with pytest.raises(StoreError, match=f"^malformed-payload: {message}$"):
            read_drift_report(str(path))

    def test_a_repeated_key_is_named(self, tmp_path):
        """JSON keeps the last of two equal keys, so a document with one
        repeated loaded a value that saved back to other bytes."""
        path = tmp_path / "doc"
        path.write_bytes(_checked_json(_SPLIT_LINE.replace(b'"seed":0', b'"seed":0,"seed":3')))
        with pytest.raises(StoreError, match="^malformed-payload: duplicate key 'seed'$"):
            load_split(str(path))
        write_report(_drift_report(), "jsonl", str(path))
        TestReportPersistence._forge(path, b'"n_images":18', b'"n_images":18,"n_images":19')
        with pytest.raises(StoreError, match="^malformed-payload: duplicate key 'n_images'$"):
            read_drift_report(str(path))
        header, matrix, index = _split_v2(save_library(_v1_fixture_library()))
        head = json.dumps(header).replace('"m": 4', '"m": 4, "m": 4').encode()
        body = len(head).to_bytes(8, "little") + head + matrix + index
        forged = reference_path.seal_library(body, 3)
        with pytest.raises(StoreError, match="^malformed-payload: duplicate key 'm'$"):
            load_library(forged)
        forged = _forge_v1(b'"schema_version":1', b'"schema_version":1,"schema_version":1')
        with pytest.raises(StoreError, match="^malformed-payload: duplicate key 'schema_version'$"):
            load_library(forged)
        with pytest.raises(StoreError, match="^malformed-payload: 'utf-8' codec can't decode"):
            load_library(_forge_v1(b'"fp"', b'"\xff"'))

    def test_integers_past_the_conversion_limit(self, tmp_path):
        """Python refuses to read an integer of more than 4,300 digits; that
        raised a raw ValueError from the model, split and report readers."""
        big = b"9" * 5000
        path = tmp_path / "doc"
        path.write_bytes(_checked_json(_MODEL_LINE.replace(b'"dim":2', b'"dim":' + big)))
        with pytest.raises(StoreError, match="^malformed-payload: Exceeds the limit"):
            load_model(str(path))
        write_report(_drift_report(), "jsonl", str(path))
        TestReportPersistence._forge(path, b'"n_images":18', b'"n_images":' + big)
        with pytest.raises(StoreError, match="^malformed-payload: Exceeds the limit"):
            read_drift_report(str(path))
        raw = path.read_bytes()
        cut = raw.rfind(b"\n", 0, len(raw) - 1) + 1
        path.write_bytes(raw[:cut] + b'{"kind":"checksum","blake2b":' + big + b"}\n")
        with pytest.raises(StoreError, match="^checksum-mismatch: unparseable checksum record$"):
            read_drift_report(str(path))


# a JSON value of each type; an integer and a float count as different types
_ANY_JSON = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=3),
    st.lists(st.integers(-3, 3), max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(-3, 3), max_size=2),
)


@st.composite
def _mutated(draw, obj):
    """`obj` with one value swapped for a JSON value of another type, or
    with one key added or one dropped."""
    obj = dict(obj)
    how = draw(st.sampled_from(["retype", "add", "drop"]))
    if how == "add":
        obj[draw(st.text(max_size=4).filter(lambda key: key not in obj))] = draw(_ANY_JSON)
        return obj
    key = draw(st.sampled_from(list(obj)))
    if how == "drop":
        del obj[key]
    else:
        old = type(obj[key])
        obj[key] = draw(_ANY_JSON.filter(lambda value: type(value) is not old))
    return obj


def _mutate_one(draw, doc, *sections):
    """`doc` with one of its own keys, or one of the named sections' keys,
    mutated by ``_mutated``; a section that is not an object is left out."""
    targets = [None] + [name for name in sections if isinstance(doc.get(name), dict)]
    target = draw(st.sampled_from(targets))
    if target is None:
        return draw(_mutated(doc))
    return dict(doc, **{target: draw(_mutated(doc[target]))})


def _same_bytes_or_named(path, load, save):
    """`load` raises a named DataError (StoreError for a malformed file), or
    returns a value that `save` writes back as the file's own bytes."""
    try:
        value = load(str(path))
    except DataError as exc:
        assert type(exc) in (StoreError, DataError)
        event(f"rejected: {str(exc).partition(':')[0]}")
        return
    event("loaded")
    again = path.with_name(path.name + ".again")
    save(value, str(again))
    assert again.read_bytes() == path.read_bytes()


_PROPERTY = settings(
    max_examples=120, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


class TestDocumentMutationProperty:
    """A document from its writer, one field given a value of another JSON
    type (or a key added or dropped), resealed under a valid checksum: the
    loader names the fault or loads a value that saves back to the same
    bytes. Seeded, so a failure names its document."""

    @given(data=st.data())
    @_PROPERTY
    def test_model_checkpoint(self, tmp_path, data):
        path = tmp_path / "model.json"
        save_model(HeadModel(w=[0.5, -0.0, 3.0], b=-1.25), str(path), train_config=TrainConfig())
        doc = _mutate_one(data.draw, store._loads(path.read_bytes().split(b"\n")[0]), "train")
        path.write_bytes(_checked_json(_jdump(doc).encode("utf-8")))
        # called only once the checkpoint, and so its train section, loaded
        def save(model, p):
            train = doc["train"] and TrainConfig(**doc["train"])
            save_model(model, p, train_config=train)

        _same_bytes_or_named(path, load_model, save)

    @given(data=st.data())
    @_PROPERTY
    def test_split_plan(self, tmp_path, data):
        path = tmp_path / "plan.json"
        save_split(split_dataset(["a", "b", "c"], 2, seed=7), str(path))
        doc = _mutate_one(data.draw, store._loads(path.read_bytes().split(b"\n")[0]))
        path.write_bytes(_checked_json(_jdump(doc).encode("utf-8")))
        _same_bytes_or_named(path, load_split, save_split)

    @pytest.mark.parametrize("kind", ["drift_report", "sensitivity_report", "gate_report"])
    @given(data=st.data())
    @_PROPERTY
    def test_jsonl_report(self, tmp_path, kind, data):
        report = {"drift_report": _drift_report, "sensitivity_report": _sensitivity_report,
                  "gate_report": _gate_report}[kind]()
        lines = encode_report(report, "jsonl", {"seed": 1, "gate": {"j_alpha": 0.5}}).split(b"\n")
        docs = [store._loads(ln) for ln in lines[:-2]]
        i = data.draw(st.integers(0, len(docs) - 1))
        docs[i] = _mutate_one(data.draw, docs[i], "config")
        body = "".join(_jdump(doc) + "\n" for doc in docs).encode("utf-8")
        path = tmp_path / "report.jsonl"
        trailer = _jdump({"kind": "checksum", "blake2b": _digest(body)}).encode("utf-8")
        path.write_bytes(body + trailer + b"\n")

        def save(report_and_config, p):
            write_report(report_and_config[0], "jsonl", p, report_and_config[1])

        _same_bytes_or_named(path, lambda p: read_report(p, kind), save)

    @pytest.mark.parametrize("kind", ["drift_report", "sensitivity_report", "gate_report"])
    @given(data=st.data())
    @_PROPERTY
    def test_csv_report(self, tmp_path, kind, data):
        """One cell given a value of another JSON type, rendered as the
        writer renders a cell, then the body resealed."""
        report = {"drift_report": _drift_report, "sensitivity_report": _sensitivity_report,
                  "gate_report": _gate_report}[kind]()
        lines = encode_report(report, "csv", {"seed": 1}).decode("utf-8").split("\n")[:-2]
        first = next(i for i, ln in enumerate(lines) if not ln.startswith("# ")) + 1  # a row
        i = data.draw(st.integers(first, len(lines) - 1))
        cells = [store._csv_cell(text) for text in store._split_csv_line(lines[i])]
        j = data.draw(st.integers(0, len(cells) - 1))
        cell = _ANY_JSON.filter(lambda v: "\n" not in str(v)).map(store._csv_cell)
        cells[j] = data.draw(cell.filter(lambda text: text != cells[j]))
        lines[i] = ",".join(cells)
        body = ("\n".join(lines) + "\n").encode("utf-8")
        path = tmp_path / "report.csv"
        path.write_bytes(body + f"# blake2b={_digest(body)}\n".encode("ascii"))

        def save(report_and_config, p):
            write_report(report_and_config[0], "csv", p, report_and_config[1])

        _same_bytes_or_named(path, lambda p: read_report(p, kind), save)

    @given(data=st.data())
    @_PROPERTY
    def test_library_header(self, tmp_path, data):
        header, matrix, index = _split_v2(save_library(_v1_fixture_library()))
        header = _mutate_one(data.draw, header, "sketch", "quant")
        head = reference_path.jdump_17(header, sort_keys=True).encode("utf-8")
        path = tmp_path / "lib.dskl"
        path.write_bytes(
            reference_path.seal_library(len(head).to_bytes(8, "little") + head + matrix + index, 3)
        )
        def save(lib, p):
            Path(p).write_bytes(reference_path.encode_library_v3(lib))

        _same_bytes_or_named(path, read_library, save)

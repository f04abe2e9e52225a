"""Records are valid by construction: each types its fields by their
annotations as it is built, by the rules that the decoder applies to a
JSON document, so a record that builds is one its file carries exactly."""

import math
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from driftsketch import (
    ConfigError,
    DataError,
    FeatureVector,
    ImageGrid,
    PipelineConfig,
    build_library,
    gaussian_noise,
    load_library,
    read_report,
    salt_pepper,
    save_library,
    sensitivity_sweep,
    write_report,
)
from driftsketch import head, store
from driftsketch.core import _decode
from driftsketch.extract import ExtractConfig
from driftsketch.head import HeadModel, TrainConfig
from driftsketch.noiselab import NoiseSpec, SensitivityReport, SensitivityRow
from driftsketch.sketchlib import GateConfig, GateReport, GateResult, QuantConfig, SketchConfig
from driftsketch.stats import DriftReport, PeriodStats, StatsConfig, drift_report, ks_pvalue
from driftsketch.store import SplitPlan, load_split, save_model, save_split, write_embeddings


_FIVE = [FeatureVector([0.1 * i, 0.5]) for i in range(5)]
_IMAGE = ImageGrid.from_array(np.full((4, 4), 0.5))


def _sweep(levels):
    """A sweep of the ladder `levels`; the empty test set is read only once
    the arguments are checked."""
    return sensitivity_sweep(_FIVE, [], "gaussian", levels, PipelineConfig())


class TestRejectedWhenBuilt:
    """Each of these built, and was then written wrongly, refused on reading,
    or failed later with a raw exception."""

    @pytest.mark.parametrize(
        "build, error, message",
        [
            (lambda: QuantConfig(origin=-(10**17)), ConfigError,
             "config-invalid: origin must be float, got -100000000000000000"),
            (lambda: QuantConfig(bin_width=True), ConfigError,
             "config-invalid: bin_width must be float, got True"),
            (lambda: ExtractConfig(l2_normalize="no"), ConfigError,
             "config-invalid: l2_normalize must be bool, got 'no'"),
            (lambda: TrainConfig(bias_correction=2), ConfigError,
             "config-invalid: bias_correction must be bool, got 2"),
            (lambda: PeriodStats("p", 1, True, 0.5, 0.9, 0, False), ConfigError,
             "config-invalid: ks_d must be float, got True"),
            (lambda: GateReport(None, [GateResult("a", 0.5, "acceptable")]), ConfigError,
             "config-invalid: library must be str, got None"),
            (lambda: GateReport("l", [GateResult("a", "0.5", "acceptable")]), ConfigError,
             "config-invalid: score must be float, got '0.5'"),
            (lambda: PipelineConfig(quant=GateConfig()), ConfigError,
             "config-invalid: quant must be QuantConfig or None"),
            (lambda: HeadModel(w=[1.0], b="0.5"), ConfigError,
             "config-invalid: b must be float, got '0.5'"),
            # an id is read by the rule every batch's ids are read by
            (lambda: SplitPlan(2, 0, {"a": 0, 1: 1}), DataError,
             "malformed-id: 1 is not a string"),
            (lambda: GateResult("a", 7.0, "weird"), ConfigError,
             r"config-invalid: score must lie in \[0, 1\], got 7.0"),
            (lambda: DriftReport("b", 7.0, [PeriodStats("p", 3, 0.1, 0.5, 0.2, 0, True)]),
             ConfigError, r"config-invalid: ks_alpha must lie in \(0, 1\), got 7.0"),
            (lambda: PeriodStats("p", -3, 0.1, 0.5, 0.2, -5, False), ConfigError,
             "config-invalid: n_images must be >= 1, got -3"),
            (lambda: SensitivityRow(0.0, 0.5, 0.1, 0.5, 3.0), ConfigError,
             r"config-invalid: anomaly_rate must lie in \[0, 1\], got 3.0"),
            # a period flags between none and all of its images; these were written, and read back
            (lambda: drift_report(_FIVE, [("p", _FIVE)], StatsConfig(), gate_flag_counts=[-2]),
             ConfigError, "config-invalid: gate_flag_count must be >= 0, got -2"),
            (lambda: drift_report(_FIVE, [("p", _FIVE)], StatsConfig(), gate_flag_counts=[99]),
             ConfigError, "config-invalid: gate_flag_count must be <= n_images 5, got 99"),
            (lambda: ks_pvalue(0.5, "3", 2), ConfigError, "config-invalid: n must be int, got '3'"),
            (lambda: ks_pvalue(0.5, 1.5, 2), ConfigError, "config-invalid: n must be int, got 1.5"),
            (lambda: ks_pvalue(0.5, 3, True), ConfigError,
             "config-invalid: m must be int, got True"),
            (lambda: write_embeddings([FeatureVector([0.5], "a")], "no-dir/e.emb", dim=True),
             ConfigError, "config-invalid: dim must be int, got True"),
            (lambda: write_embeddings([FeatureVector([0.5], "a")], "no-dir/e.emb", dim=1.5),
             ConfigError, "config-invalid: dim must be int, got 1.5"),
            # a real argument is read as a field of its annotation is: it is a
            # float (not a bool or a text), then in its interval
            (lambda: ks_pvalue("0.5", 3, 3), ConfigError,
             "config-invalid: d_stat must be float, got '0.5'"),
            (lambda: ks_pvalue(True, 3, 3), ConfigError,
             "config-invalid: d_stat must be float, got True"),
            (lambda: ks_pvalue(math.nan, 3, 3), ConfigError,
             r"config-invalid: d_stat must lie in \[0, 1\], got nan"),
            (lambda: gaussian_noise(_IMAGE, "1"), ConfigError,
             "config-invalid: sigma must be float, got '1'"),
            (lambda: salt_pepper(_IMAGE, True), ConfigError,
             "config-invalid: fraction must be float, got True"),
            (lambda: _sweep(["x"]), ConfigError, "config-invalid: sigma must be float, got 'x'"),
            (lambda: _sweep([True]), ConfigError, "config-invalid: sigma must be float, got True"),
            (lambda: _sweep([0.0, -1.0]), ConfigError,
             r"config-invalid: sigma must lie in \[0, inf\), got -1.0"),
            (lambda: QuantConfig(clamp_lo=math.nan, clamp_hi=1.0), ConfigError,
             r"config-invalid: clamp_lo must lie in \(-inf, inf\), got nan"),
            (lambda: QuantConfig(clamp_lo=1.0, clamp_hi=1.0), ConfigError,
             "config-invalid: clamp_lo must be < clamp_hi 1.0, got 1.0"),
        ],
        ids=["origin-1e17", "bin-width-bool", "l2-normalize-str", "bias-correction-int",
             "ks-d-bool", "library-none", "score-str", "pipeline-section", "head-b-str",
             "split-id-int", "score-above-one", "drift-alpha-seven", "period-negative-count",
             "anomaly-rate-three",
             "drift-flags-negative", "drift-flags-above-images",
             "ks-pvalue-n-str", "ks-pvalue-n-float", "ks-pvalue-m-bool", "write-dim-bool",
             "write-dim-float", "ks-pvalue-d-str", "ks-pvalue-d-bool", "ks-pvalue-d-nan",
             "gaussian-sigma-str", "salt-pepper-fraction-bool", "sweep-ladder-str",
             "sweep-ladder-bool", "sweep-ladder-negative", "clamp-nan", "clamp-not-below"],
    )
    def test_named_config_error(self, build, error, message):
        """Each raises the class and text named (a ConfigError for a field
        its annotation rules out)."""
        with pytest.raises(error, match=f"^{message}$") as info:
            build()
        assert type(info.value) is error

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: DriftReport("b", 0.05, [1]), "expected PeriodStats, got 1"),
            (lambda: SensitivityReport("gaussian", [1]), "expected SensitivityRow, got 1"),
            (lambda: GateReport("l", [("a", 0.5, "acceptable")]),
             r"expected GateResult, got \('a', 0\.5, 'acceptable'\)"),
            (lambda: GateReport("l", None), "expected GateResult rows, got None"),
        ],
        ids=["drift-int", "sensitivity-int", "gate-tuple", "gate-none"],
    )
    def test_rows_of_another_class(self, build, message):
        with pytest.raises(DataError, match=f"^malformed-row: {message}$"):
            build()

    def test_gate_flag_count_is_not_truncated(self):
        base = [FeatureVector([0.1, 0.5]), FeatureVector([0.2, 0.4])]
        with pytest.raises(ConfigError, match="^config-invalid: gate_flag_count must be int, got 2.7$"):
            drift_report(base, [("p", base)], StatsConfig(), gate_flag_counts=[2.7])
        report = drift_report(base, [("p", base)], StatsConfig(), gate_flag_counts=[np.int64(2)])
        assert type(report.periods[0].gate_flag_count) is int

    def test_a_numpy_scalar_becomes_the_python_value(self):
        q = QuantConfig(bin_width=np.float32(0.05), origin=np.int64(3))
        assert type(q.bin_width) is float and q.bin_width == float(np.float32(0.05))
        assert type(q.origin) is float and q.origin == 3.0
        s = SketchConfig(k=np.int32(8), hash_seed=np.uint64(2**64 - 1))
        assert type(s.k) is int and s.hash_seed == 2**64 - 1
        assert ExtractConfig(l2_normalize=np.bool_(False)).l2_normalize is False


class TestFloat32Reals:
    """A float32 real is held as the float64 it equals, so both report
    formats write it exactly (JSON-lines raised TypeError, CSV wrote 0.1)."""

    @pytest.mark.parametrize("fmt", ["jsonl", "csv"])
    def test_sensitivity_level(self, tmp_path, fmt):
        report = SensitivityReport(
            "gaussian", [SensitivityRow(np.float32(0.1), 1.0, 0.0, 1.0, 0.0)]
        )
        path = tmp_path / f"sweep.{fmt}"
        write_report(report, fmt, str(path))
        assert b"0.10000000149011612" in path.read_bytes()
        again, _ = read_report(str(path), "sensitivity_report")
        assert again == report and again.rows[0].level == float(np.float32(0.1))

    def test_library_bin_width(self):
        q = QuantConfig(bin_width=np.float32(0.05))
        lib = build_library([FeatureVector([0.1, 0.7], "a")], q, SketchConfig(k=8))
        assert load_library(save_library(lib)).quant_config == q


# numbers as Python and NumPy scalars, ints past 1e17 and 2^53 among them
_NUMBERS = [0, 1, 2, 3, 17, 2**53 + 1, 10**17, -(10**17), 2**64 - 1,
            0.0, -0.0, 0.05, 0.1, 0.5, 0.999, 1.0, 1e-300, 3.0]


def _numpy_forms(x):
    if isinstance(x, int):
        forms = [np.float64(x)]
        forms += [t(x) for t in (np.int64, np.int32) if np.iinfo(t).min <= x <= np.iinfo(t).max]
        return forms + ([np.uint64(x)] if 0 <= x < 2**64 else [])
    return [np.float64(x), np.float32(x), np.float16(x)]


_VALUES = st.one_of(
    st.sampled_from(_NUMBERS),
    st.sampled_from(_NUMBERS).flatmap(lambda x: st.sampled_from(_numpy_forms(x))),
    st.floats(0.0, 1.0, width=32).map(np.float32),
    st.floats(-1.0, 1.0),
    st.booleans(),
    st.booleans().map(np.bool_),
    st.sampled_from(["", "a,b", "0.5", "max", "mean", "gaussian", "centroid", "acceptable"]),
    st.none(),
)


def _drawn(draw, cls, valid, **only):
    """`cls` built from `valid` ({field: value}) with up to two fields given
    a value drawn from ``_VALUES``, or from `only[field]` where given (None
    keeps the field's value), or None when it raises a named error."""
    names = [name for name in valid if only.get(name, _VALUES) is not None]
    values = dict(valid)
    for name in draw(st.lists(st.sampled_from(names), max_size=2, unique=True)):
        values[name] = draw(only.get(name, _VALUES))
    try:
        return cls(**values)
    except (ConfigError, DataError) as exc:
        event(f"{cls.__name__} rejected: {str(exc).partition(':')[0]}")
        return None


def _plain(record):
    """Every field of a record holds a Python value, not a NumPy scalar."""
    return not any(isinstance(v, np.generic) for v in vars(record).values())


_SMALL = _VALUES.filter(lambda v: not (isinstance(v, (int, np.integer)) and int(v) > 64))

_PROPERTY = settings(
    max_examples=40, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


def _report_round_trip(tmp_path, report, kind, config=None):
    for fmt in ("jsonl", "csv"):
        path = tmp_path / f"report.{fmt}"
        write_report(report, fmt, str(path), config)
        again, again_config = read_report(str(path), kind)
        assert again == report and again_config == config
        assert store.encode_report(again, fmt, config) == path.read_bytes()
    return again_config


class TestEveryRecordRoundTrips:
    """Fields drawn from Python and NumPy ints and floats (float32, and ints
    of 1e17 and above, among them), bools, strings and None: a record that
    builds holds Python values only, and writes and reads back equal."""

    @given(data=st.data())
    @_PROPERTY
    def test_drift_report(self, tmp_path, data):
        period = _drawn(data.draw, PeriodStats, dict(
            period_id="p", n_images=10, ks_d=0.1, ks_p=0.5, cosine_score=0.9,
            gate_flag_count=0, drift_flag=False))
        report = period and _drawn(data.draw, DriftReport,
                                   dict(baseline_id="b", ks_alpha=0.05, periods=(period,)),
                                   periods=None)
        if report:
            assert _plain(period) and _plain(report)
            _report_round_trip(tmp_path, report, "drift_report")

    @given(data=st.data())
    @_PROPERTY
    def test_sensitivity_report(self, tmp_path, data):
        row = _drawn(data.draw, SensitivityRow, dict(
            level=0.1, cosine_score=0.9, ks_d=0.1, ks_p=0.5, anomaly_rate=0.0))
        report = row and _drawn(data.draw, SensitivityReport,
                                dict(noise_kind="gaussian", rows=(row,)), rows=None)
        if report:
            assert _plain(row) and _plain(report)
            _report_round_trip(tmp_path, report, "sensitivity_report")

    @given(data=st.data())
    @_PROPERTY
    def test_gate_report(self, tmp_path, data):
        row = _drawn(data.draw, GateResult, dict(source_id="a", score=0.5, verdict="acceptable"))
        report = row and _drawn(data.draw, GateReport, dict(library="l", rows=(row,)),
                                rows=None)
        if report:
            assert _plain(row) and _plain(report)
            _report_round_trip(tmp_path, report, "gate_report")

    @given(data=st.data())
    @_PROPERTY
    def test_library_configs(self, data):
        quant = _drawn(data.draw, QuantConfig, asdict(QuantConfig()))
        sketch = _drawn(data.draw, SketchConfig, dict(k=8, hash_seed=0), k=_SMALL)
        if quant and sketch:
            assert _plain(quant) and _plain(sketch)
            try:
                lib = build_library([FeatureVector([0.1, 0.7], "a")], quant, sketch)
            except DataError as exc:  # a bin index past the int64 range
                event(f"not sketched: {str(exc).partition(':')[0]}")
                return
            again = load_library(save_library(lib))
            assert (again.quant_config, again.sketch_config) == (quant, sketch)

    @given(data=st.data())
    @_PROPERTY
    def test_pipeline_configs(self, tmp_path, data):
        """ExtractConfig, GateConfig and StatsConfig ride in a report's config."""
        sections = dict(
            extract=_drawn(data.draw, ExtractConfig, asdict(ExtractConfig())),
            gate=_drawn(data.draw, GateConfig, asdict(GateConfig())),
            stats=_drawn(data.draw, StatsConfig, asdict(StatsConfig())),
        )
        pipeline = PipelineConfig(**sections)
        assert all(_plain(getattr(pipeline, name)) for name in sections)
        report = GateReport("l", [GateResult("a", 0.5, "acceptable")])
        config = _report_round_trip(tmp_path, report, "gate_report", pipeline.to_dict())
        assert PipelineConfig.from_dict(config) == pipeline

    @given(data=st.data())
    @_PROPERTY
    def test_split_plan(self, tmp_path, data):
        groups = st.one_of(_VALUES, st.sampled_from([{"a": np.int64(1)}, {"a": 0, "b": True}]))
        plan = _drawn(data.draw, SplitPlan, dict(n_groups=2, seed=7, assignment={"a": 0, "b": 1}),
                      assignment=groups)
        if plan:
            assert _plain(plan)
            save_split(plan, str(tmp_path / "plan.json"))
            assert load_split(str(tmp_path / "plan.json")) == plan

    @given(data=st.data())
    @_PROPERTY
    def test_train_config_and_head(self, tmp_path, data):
        train = _drawn(data.draw, TrainConfig, asdict(TrainConfig()))
        model = _drawn(data.draw, HeadModel, dict(w=[0.5, -1.0], b=0.25), w=None)
        if train and model:
            assert _plain(train) and type(model.b) is float
            path = tmp_path / "model.json"
            save_model(model, str(path), train_config=train)
            again = store.load_model(str(path))
            assert again.b == model.b and math.copysign(1, again.b) == math.copysign(1, model.b)
            doc = store._read_checked_json(str(path), "head_model")
            assert store._decode_file(head._Checkpoint, doc).train == train

    @given(data=st.data())
    @_PROPERTY
    def test_noise_spec(self, data):
        """A NoiseSpec is written nowhere; its JSON form decodes to itself."""
        spec = _drawn(data.draw, NoiseSpec, dict(kind="gaussian", level=0.1, seed=3))
        if spec:
            assert _plain(spec)
            assert _decode(NoiseSpec, store._loads(store._jdump(asdict(spec)))) == spec

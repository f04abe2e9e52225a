"""Command-line surface tying the pipeline together.

Subcommands: extract, build-baseline, gate, drift, sweep, train-head, split.
Exit codes partition outcomes: 0 clean, 1 detection (anomalies or drift
flags), 2 usage or configuration errors, 3 data errors. Detection is a
result, not a failure, so shell pipelines can branch on it.

A flat key-value config file (``key = value``, ``#`` comments) mirrors
PipelineConfig; flags override file values. Report outputs embed the fully
resolved config so every figure is reproducible from its own file.
"""

import argparse
import dataclasses
import os
import sys
import typing
from dataclasses import asdict, replace

from . import store
from .core import ConfigError, DataError, PipelineConfig, _check_seed
from .extract import ExtractConfig, extract_builtin, extract_fingerprint, load_embeddings
from .head import TrainConfig, train_head
from .noiselab import NOISE_KINDS, sensitivity_sweep
from .sketchlib import GateConfig, GateReport, QuantConfig, SketchConfig, build_library, gate_check
from .stats import StatsConfig, drift_report


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="driftsketch",
        description="MinHash-sketch baselines, anomaly gating and drift scoring",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, report=False, needs_out=True):
        p.add_argument("--seed", type=int, default=None, help="run seed for stochastic steps")
        p.add_argument("--config", metavar="PATH", help="flat key=value config file")
        if report:
            p.add_argument("--format", choices=("jsonl", "csv"), default="jsonl")
        p.add_argument("--j-alpha", type=float, default=None, help="gate threshold override")
        p.add_argument("--ks-alpha", type=float, default=None, help="KS significance override")
        if needs_out:
            p.add_argument("--out", required=True, metavar="PATH")

    p = sub.add_parser("extract", help="images in, embedding file out")
    p.add_argument("inputs", nargs="+", metavar="IMAGE_OR_DIR")
    common(p)

    p = sub.add_parser("build-baseline", help="embeddings or image dir in, library out")
    p.add_argument("input", metavar="INPUT")
    common(p)

    p = sub.add_parser("gate", help="check items against a baseline library")
    p.add_argument("input", metavar="INPUT")
    p.add_argument("--library", required=True, metavar="PATH")
    common(p, report=True, needs_out=False)
    p.add_argument("--out", default="-", metavar="PATH", help="gate report ('-' = stdout)")

    p = sub.add_parser("drift", help="score ordered periods against a baseline")
    p.add_argument("baseline", metavar="BASELINE")
    p.add_argument("periods", nargs="+", metavar="PERIOD")
    common(p, report=True)

    p = sub.add_parser("sweep", help="noise-sensitivity ladder")
    p.add_argument("baseline", metavar="BASELINE")
    p.add_argument("test", metavar="TEST_DIR")
    p.add_argument("--noise", required=True, choices=[k.replace("_", "-") for k in NOISE_KINDS])
    p.add_argument("--levels", required=True, help="comma-separated increasing levels")
    common(p, report=True)

    p = sub.add_parser("train-head", help="train the sigmoid head on labeled embeddings")
    p.add_argument("embeddings", metavar="EMBEDDINGS")
    p.add_argument("--labels", required=True, metavar="PATH", help="lines of '<id> <0|1>'")
    p.add_argument("--curve", metavar="PATH", help="write per-epoch mean loss as CSV")
    common(p)

    p = sub.add_parser("split", help="assign ids to balanced groups")
    p.add_argument("ids", metavar="IDS_FILE", help="one id per line")
    p.add_argument("--groups", type=int, default=7)
    common(p)

    return parser


_BOOL = {"true": True, "false": False, "1": True, "0": False}


def _parse_value(text, hint, key):
    """Parse one config value by its field annotation; only Optional fields take none."""
    text = text.strip()
    args = typing.get_args(hint)
    if type(None) in args:
        if text.lower() == "none":
            return None
        (hint,) = [a for a in args if a is not type(None)]
    try:
        if hint is bool:
            return _BOOL[text.lower()]
        return hint(text)
    except (ValueError, KeyError):
        raise ConfigError(f"config-invalid: cannot parse {key} = {text!r}")


def _field_hints(cls):
    hints = typing.get_type_hints(cls)
    return {f.name: hints[f.name] for f in dataclasses.fields(cls)}


# config-file section -> (dataclass, {field: annotation})
_SECTIONS = {
    name: (cls, _field_hints(cls))
    for name, cls in (
        ("extract", ExtractConfig),
        ("quant", QuantConfig),
        ("sketch", SketchConfig),
        ("gate", GateConfig),
        ("stats", StatsConfig),
        ("train", TrainConfig),
    )
}


def _text_lines(path, error, code):
    """The lines of a UTF-8 text file; a file that cannot be read or is not
    UTF-8 raises `error` with the name `code`."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read().split("\n")
    except OSError as exc:
        raise error(f"{code}: cannot read {path}: {exc}")
    except UnicodeDecodeError:
        raise error(f"{code}: cannot read {path}: not UTF-8 text")


def _read_config_file(path):
    values = {}
    for lineno, line in enumerate(_text_lines(path, ConfigError, "config-invalid"), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"config-invalid: {path}:{lineno}: expected key = value")
        key, _, value = line.partition("=")
        values[key.strip()] = value.strip()
    return values


def resolve_config(args):
    """Defaults, overridden by the config file, overridden by flags.

    Returns (PipelineConfig, TrainConfig, run_seed). The run seed is the
    --seed flag when given, else the ``seed`` config key, else 0; the one in
    use must lie in [0, 2^64).
    """
    raw = _read_config_file(args.config) if args.config else {}
    sections = {name: {} for name in _SECTIONS}
    file_seed = 0
    for key, text in raw.items():
        if key == "seed":
            file_seed = _parse_value(text, int, key)
            continue
        section, _, field_name = key.partition(".")
        if section not in _SECTIONS or not field_name:
            raise ConfigError(f"config-invalid: unknown config key {key!r}")
        _, hints = _SECTIONS[section]
        if field_name not in hints:
            raise ConfigError(f"config-invalid: unknown config key {key!r}")
        sections[section][field_name] = _parse_value(text, hints[field_name], key)
    run_seed = _check_seed(file_seed if args.seed is None else args.seed)

    # flags merge in before anything is built, so a value they override is never checked
    if getattr(args, "j_alpha", None) is not None:
        sections["gate"]["j_alpha"] = args.j_alpha
    if getattr(args, "ks_alpha", None) is not None:
        sections["stats"]["ks_alpha"] = args.ks_alpha
    built = {name: _SECTIONS[name][0](**values) for name, values in sections.items()}
    train_cfg = built.pop("train")
    return PipelineConfig(**built), train_cfg, run_seed


def _classify_input(path):
    if os.path.isdir(path):
        return "images"
    try:
        with open(path, "rb") as fh:
            head = fh.read(32)
    except OSError as exc:
        raise DataError(f"io-error: cannot read {path}: {exc}")
    if head[:2] in (b"P5", b"P6"):
        return "image"
    if head.startswith(b"driftsketch-emb"):
        return "embeddings"
    raise DataError(f"unsupported-format: {path} is neither an image nor an embedding file")


def _extract_images(paths, extract_cfg):
    """Built-in feature vectors of image files and directories, ids the basenames.

    Colliding ids are rejected before any image is decoded; then images are
    decoded and extracted one at a time, so at most one decoded image is alive.
    """
    sources = []
    for path in paths:
        kind = _classify_input(path)
        if kind == "embeddings":
            raise DataError(f"unsupported-format: extract expects images, got {path}")
        if kind == "image":
            sources.append((path, os.path.basename(path)))
        else:
            sources += [(os.path.join(path, n), n) for n in store.list_images_dir(path)]
    if len({sid for _, sid in sources}) != len(sources):
        raise DataError("duplicate-source-id: input basenames collide")
    return [extract_builtin(store.load_image(p), extract_cfg, sid) for p, sid in sources]


def _load_features(path, extract_cfg):
    """(features, extractor fingerprint) of an image dir, an image or an embedding file.

    An embedding file's fingerprint is None: its extractor is unknown.
    """
    if _classify_input(path) == "embeddings":
        return load_embeddings(path), None
    return _extract_images([path], extract_cfg), extract_fingerprint(extract_cfg)


def _config_record(pipeline, run_seed):
    record = pipeline.to_dict()
    record["seed"] = run_seed
    return record


def _echo_config(record):
    print("config: " + store._jdump(record), file=sys.stderr)


def _cmd_extract(args):
    pipeline, _, run_seed = resolve_config(args)
    store.write_embeddings(_extract_images(args.inputs, pipeline.extract), args.out)
    _echo_config(_config_record(pipeline, run_seed))
    return 0


def _cmd_build_baseline(args):
    pipeline, _, run_seed = resolve_config(args)
    features, fingerprint = _load_features(args.input, pipeline.extract)
    library = build_library(features, pipeline.quant, pipeline.sketch, fingerprint or "")
    store.write_library(library, args.out)
    _echo_config(_config_record(pipeline, run_seed))
    return 0


def _cmd_gate(args):
    pipeline, _, run_seed = resolve_config(args)
    library = store.read_library(args.library)
    features, fingerprint = _load_features(args.input, pipeline.extract)
    report = GateReport(
        os.path.basename(args.library),
        [gate_check(library, v, pipeline.gate, fingerprint) for v in features],
    )
    config = _config_record(pipeline, run_seed)
    if args.out == "-":
        sys.stdout.buffer.write(store.encode_report(report, args.format, config))
        sys.stdout.flush()
    else:
        store.write_report(report, args.format, args.out, config)
    return 1 if any(r.anomalous for r in report.rows) else 0


def _cmd_drift(args):
    pipeline, _, run_seed = resolve_config(args)
    base_feats, base_fingerprint = _load_features(args.baseline, pipeline.extract)
    library = build_library(base_feats, pipeline.quant, pipeline.sketch, base_fingerprint or "")

    periods = []
    gate_counts = []
    for path in args.periods:
        feats, fingerprint = _load_features(path, pipeline.extract)
        flags = sum(gate_check(library, v, pipeline.gate, fingerprint).anomalous for v in feats)
        periods.append((_period_id(path), feats))
        gate_counts.append(flags)

    report = drift_report(
        base_feats,
        periods,
        pipeline.stats,
        gate_flag_counts=gate_counts,
        baseline_id=_period_id(args.baseline),
    )
    store.write_report(report, args.format, args.out, config=_config_record(pipeline, run_seed))
    return 1 if any(p.drift_flag for p in report.periods) else 0


def _period_id(path):
    base = os.path.basename(os.path.normpath(path))
    return base or path


def _cmd_sweep(args):
    pipeline, _, run_seed = resolve_config(args)
    kind = args.noise.replace("-", "_")
    try:
        levels = [float(x) for x in args.levels.split(",") if x.strip() != ""]
    except ValueError:
        raise ConfigError(f"config-invalid: unparseable --levels {args.levels!r}")
    base_feats, _ = _load_features(args.baseline, pipeline.extract)
    names = store.list_images_dir(args.test)
    # decoded one file at a time: each test image is noised at every level before the next
    test_images = (store.load_image(os.path.join(args.test, n)) for n in names)
    report = sensitivity_sweep(base_feats, test_images, kind, levels, pipeline, seed=run_seed)
    store.write_report(report, args.format, args.out, config=_config_record(pipeline, run_seed))
    return 0


def _read_labels(path):
    labels = {}
    for lineno, line in enumerate(_text_lines(path, DataError, "io-error"), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) != 2 or fields[1] not in ("0", "1"):
            raise DataError(f"malformed-file(line {lineno}): expected '<id> <0|1>'")
        labels[fields[0]] = int(fields[1])
    return labels


def _cmd_train_head(args):
    _, train_cfg, run_seed = resolve_config(args)
    if args.seed is not None or train_cfg.seed == 0:
        train_cfg = replace(train_cfg, seed=run_seed)
    features = load_embeddings(args.embeddings)
    labels = _read_labels(args.labels)
    missing = [v.source_id for v in features if v.source_id not in labels]
    if missing:
        raise DataError(f"label-missing: no label for {missing[0]!r}")
    data = [(v, labels[v.source_id]) for v in features]
    model, curve = train_head(data, train_cfg)
    store.save_model(model, args.out, train_config=train_cfg)
    if args.curve:
        lines = ["epoch,mean_loss"]
        lines += [f"{i},{store._format_float(loss)}" for i, loss in enumerate(curve)]
        store.atomic_write_bytes(args.curve, ("\n".join(lines) + "\n").encode("utf-8"))
    _echo_config({"train": asdict(train_cfg)})
    return 0


def _cmd_split(args):
    _, _, run_seed = resolve_config(args)
    ids = [ln.strip() for ln in _text_lines(args.ids, DataError, "io-error") if ln.strip()]
    plan = store.split_dataset(ids, args.groups, run_seed)
    store.save_split(plan, args.out)
    return 0


_COMMANDS = {
    "extract": _cmd_extract,
    "build-baseline": _cmd_build_baseline,
    "gate": _cmd_gate,
    "drift": _cmd_drift,
    "sweep": _cmd_sweep,
    "train-head": _cmd_train_head,
    "split": _cmd_split,
}


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses exit code 2 for usage errors
        return int(exc.code) if exc.code is not None else 0
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"driftsketch: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"driftsketch: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"driftsketch: io-error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

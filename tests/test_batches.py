"""One batch rule: a batch holds distinct string ids and vectors of one
dimension. Every writer, reader and builder checks it through
``core._batch`` and ``core._distinct_ids``, so each fault has one exception
class and one text on every path that can meet it; a file adds only the
``malformed-payload: `` prefix of a StoreError."""

import json

import numpy as np
import pytest

from driftsketch import (
    DataError,
    FeatureVector,
    QuantConfig,
    SketchConfig,
    SketchLibrary,
    StatsConfig,
    StoreError,
    TrainConfig,
    batch_cosine,
    build_library,
    load_embeddings,
    load_library,
    pool_scalars,
    save_image,
    save_library,
    train_head,
    write_embeddings,
)
from driftsketch.cli import _extract_images
from driftsketch.extract import ExtractConfig, _encode_embeddings
from driftsketch.store import split_dataset
from synthcorpus import corpus

import reference_path

# fault -> (its batch as (id, values) pairs, its text; "{name}" is the argument's name)
_FAULTS = {
    "empty": ([], "empty-batch: {name}"),
    "mixed-dim": ([("a", [0.1, 0.2]), ("b", [0.3])],
                  "dimension-mismatch: {name}[1] has dim 1, expected 2"),
    "non-str-id": ([(7, [0.1]), ("b", [0.2])], "malformed-id: 7 is not a string"),
    "repeated-id": ([("a.pgm", [0.1]), ("a.pgm", [0.2])], "duplicate-source-id: 'a.pgm'"),
}


def _vectors(pairs):
    return [FeatureVector(values, sid) for sid, values in pairs]


def _forged_library(pairs, tmp_path):
    """A v4 library of the batch's ids, forged from a valid one of as many rows."""
    lib = build_library(_vectors((f"i{n}", [0.1 * n]) for n in range(len(pairs))),
                        QuantConfig(), SketchConfig(k=4))
    body = reference_path.library_body(save_library(lib))
    end = 8 + int.from_bytes(body[:8], "little")
    header = json.loads(body[8:end])
    header["ids"] = [sid for sid, _ in pairs]
    head = json.dumps(header).encode("utf-8")
    load_library(reference_path.seal_library(
        len(head).to_bytes(8, "little") + head + body[end:], 4))


def _forged_embeddings(pairs, tmp_path):
    """A v3 embedding file of the batch's ids, sealed by the writer's encoder."""
    path = tmp_path / "forged.emb"
    path.write_bytes(_encode_embeddings([sid for sid, _ in pairs], np.array(
        [values for _, values in pairs])))
    load_embeddings(str(path))


def _colliding_dirs(pairs, tmp_path):
    """``extract`` of one directory per id, each holding an image of that name."""
    dirs = []
    for n, (sid, _) in enumerate(pairs):
        dirs.append(tmp_path / f"d{n}")
        dirs[-1].mkdir()
        save_image(corpus(n, 1)[0], str(dirs[-1] / sid))
    _extract_images([str(d) for d in dirs], ExtractConfig())


def _labelled(pairs):
    return [(v, n % 2) for n, v in enumerate(_vectors(pairs))]


# path -> (the faults it can meet, the argument's name, a call with the batch, its error class)
_PATHS = {
    "write_embeddings": ({"empty", "mixed-dim", "repeated-id"}, "features",
                         lambda pairs, tmp: write_embeddings(_vectors(pairs), str(tmp / "e.emb")),
                         DataError),
    "build_library": ({"empty", "mixed-dim", "repeated-id"}, "features",
                      lambda pairs, tmp: build_library(_vectors(pairs), QuantConfig(),
                                                       SketchConfig(k=4)),
                      DataError),
    "from_minima": ({"non-str-id", "repeated-id"}, "ids",
                    lambda pairs, tmp: SketchLibrary.from_minima(
                        [sid for sid, _ in pairs], [[n] * 4 for n in range(len(pairs))],
                        SketchConfig(k=4), QuantConfig()),
                    DataError),
    "v4-library": ({"non-str-id", "repeated-id"}, "ids", _forged_library, StoreError),
    "v3-embeddings": ({"non-str-id", "repeated-id"}, "ids", _forged_embeddings, StoreError),
    "split_dataset": ({"non-str-id", "repeated-id"}, "ids",
                      lambda pairs, tmp: split_dataset([sid for sid, _ in pairs], 2, 0),
                      DataError),
    "extract-dirs": ({"repeated-id"}, "ids", _colliding_dirs, DataError),
    "batch_cosine": ({"empty", "mixed-dim"}, "a",
                     lambda pairs, tmp: batch_cosine(_vectors(pairs), _vectors(pairs),
                                                     StatsConfig()),
                     DataError),
    "pool_scalars": ({"empty", "mixed-dim"}, "batch",
                     lambda pairs, tmp: pool_scalars(_vectors(pairs)), DataError),
    "train_head": ({"empty", "mixed-dim"}, "data",
                   lambda pairs, tmp: train_head(_labelled(pairs), TrainConfig(epochs=1)),
                   DataError),
}


@pytest.mark.parametrize(
    "path, fault",
    [(path, fault) for path, (faults, *_) in _PATHS.items() for fault in _FAULTS
     if fault in faults],
    ids=lambda value: value,
)
def test_one_class_and_text_per_fault(tmp_path, path, fault):
    _, name, call, error = _PATHS[path]
    pairs, text = _FAULTS[fault]
    text = text.format(name=name)
    if error is StoreError:
        text = "malformed-payload: " + text
    with pytest.raises(DataError) as raised:
        call(pairs, tmp_path)
    assert (type(raised.value), str(raised.value)) == (error, text)


def test_second_batch_takes_the_first_ones_dimension():
    with pytest.raises(DataError, match=r"^dimension-mismatch: b\[0\] has dim 1, expected 2$"):
        batch_cosine(_vectors([("a", [0.1, 0.2])]), _vectors([("b", [0.3])]), StatsConfig())

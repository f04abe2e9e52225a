"""Start-up guard: a process loads no module that its work does not use.

Run as a script in a fresh interpreter; it imports whichever ``driftsketch``
the interpreter finds (the checkout under ``PYTHONPATH=src``, else the
installed package) and takes three steps. After each it exits 1 naming
every module that should not have loaded:

1. one MinHash signature under the default quantizer and sketch configs:
   no store, head, noise lab, stats or CLI module;
2. the gate's work: read the committed ``data/library_v3.dskl`` (found
   beside this script), gate one vector of the library's dimension under
   its own configs and a default ``GateConfig``, and encode the
   ``GateReport``: no head, noise lab, stats or CLI module;
3. a default ``PipelineConfig``: no head, noise lab or CLI module.

``numpy.random`` is checked at every step, since the MinHash salts are
computed without a generator; where ``import numpy`` itself loads it
(NumPy 1.x), it is not checked.

    python tests/startup_guard.py
"""

import sys
from pathlib import Path

import numpy as np

UNUSED = ["driftsketch.head", "driftsketch.noiselab", "driftsketch.cli"]  # by any step
if "numpy.random" not in sys.modules:  # checked before driftsketch is imported
    UNUSED.append("numpy.random")

import driftsketch as ds  # noqa: E402


def check(unused, step):
    loaded = [name for name in unused if name in sys.modules]
    if loaded:
        sys.exit(f"start-up guard: {ds.__file__} loaded {', '.join(loaded)} {step}")
    print(f"start-up guard: {ds.__file__} loaded none of {', '.join(unused)} {step}")


ds.minhash(ds.tokenize([0.5], ds.QuantConfig()), ds.SketchConfig())
check(["driftsketch.store", "driftsketch.stats", *UNUSED], "to sketch")

lib = ds.store.read_library(Path(__file__).with_name("data") / "library_v3.dskl")
query = ds.FeatureVector(np.full(lib.dim, 0.5), "query")
report = ds.GateReport("library_v3.dskl", [ds.gate_check(lib, query, ds.GateConfig())])
ds.store.encode_report(report, "jsonl")
check(["driftsketch.stats", *UNUSED], "to read a library, gate and encode a report")

ds.PipelineConfig()
check(UNUSED, "to make the default config")

"""Start-up guard: a process that only sketches loads no module it does not use.

Run as a script in a fresh interpreter; it imports whichever ``driftsketch``
the interpreter finds (the checkout under ``PYTHONPATH=src``, else the
installed package), makes a default ``PipelineConfig`` and one MinHash
signature, and exits 1 naming every module that should not have loaded:
``numpy.random`` (the MinHash salts are computed without a generator), and
the store, head, noise lab and CLI modules. Where ``import numpy`` itself
loads ``numpy.random`` (NumPy 1.x), that module is not checked.

    python tests/startup_guard.py
"""

import sys

import numpy  # noqa: F401  (loaded first to see what NumPy's own import loads)

UNUSED = ["driftsketch.store", "driftsketch.head", "driftsketch.noiselab", "driftsketch.cli"]
if "numpy.random" not in sys.modules:
    UNUSED.append("numpy.random")

import driftsketch as ds  # noqa: E402

cfg = ds.PipelineConfig()
ds.minhash(ds.tokenize([0.5], cfg.quant), cfg.sketch)
loaded = [name for name in UNUSED if name in sys.modules]
if loaded:
    sys.exit(f"start-up guard: {ds.__file__} loaded {', '.join(loaded)}")
print(f"start-up guard: {ds.__file__} loaded none of {', '.join(UNUSED)}")

"""driftsketch: MinHash baselines, anomaly gating, and drift scoring for
image feature vectors, with a noise-injection sensitivity lab.

Each public name is written once, in `_HOMES` under the module that defines
it. Importing the package loads none of its modules: a module is imported
the first time one of its names, or the module itself, is read from the
package (PEP 562), so a process that only sketches never loads the store,
the head, the noise lab or the CLI.
"""

import importlib

__version__ = "0.1.0"

# kept for callers that record which kernel ran; there is one, the NumPy `_kernels`
KERNEL_BACKEND = "pure"

# public name -> the module that defines it
_HOMES = {
    name: module
    for module, names in {
        "core": "ConfigError DataError DriftSketchError StoreError ImageGrid FeatureVector "
        "PipelineConfig seeded_rng derive_seed validate_image",
        "extract": "ExtractConfig extract_builtin extract_batch l2_normalize load_embeddings",
        "head": "HeadModel AdamState TrainConfig predict bce_loss bce_gradient adam_step "
        "train_head",
        "sketchlib": "QuantConfig TokenSet SketchConfig MinHashSignature SketchLibrary "
        "GateConfig GateResult GateReport tokenize minhash estimate_jaccard exact_jaccard "
        "build_library gate_check",
        "stats": "StatsConfig DriftReport ks_statistic ks_pvalue cosine batch_cosine "
        "pool_scalars drift_report",
        "noiselab": "NoiseSpec SensitivityReport gaussian_noise salt_pepper speckle "
        "poisson_noise apply_noise sensitivity_sweep",
        "store": "SplitPlan load_image save_image save_library load_library write_embeddings "
        "write_report read_report read_drift_report read_sensitivity_report split_dataset",
    }.items()
    for name in names.split()
}
# the public submodules: the CLI, and each module that defines a public name
_MODULES = ("cli", *dict.fromkeys(_HOMES.values()))

__all__ = ["KERNEL_BACKEND", *_HOMES]


def __getattr__(name):
    if name in _HOMES:
        return getattr(importlib.import_module(f".{_HOMES[name]}", __name__), name)
    if name in _MODULES:  # importing a submodule binds it here, so this runs once
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__, *_MODULES})

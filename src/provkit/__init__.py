"""Graph kernels for W3C PROV provenance graphs.

The package walks from raw provenance documents to classifier evaluations:
``model`` and ``provjson`` hold the graph data model and ingestion,
``typeinf`` infers neighborhood types per node, ``kernel`` turns them into
feature vectors, Gram matrices and a type metric, ``baselines`` provides
the vertex/edge histogram and Weisfeiler-Lehman reference kernels,
``pgsim`` generates the synthetic player dataset, ``mlpipe`` and ``svm``
run the SVM cross-validation harness, and ``cli`` fronts it all.

``import provkit`` loads no submodule: each public name is imported from
its module on first access (PEP 562), so ``provkit.cli`` starts without
the modules its subcommand does not run.
"""

from importlib import import_module

__version__ = "0.1.0"

#: The one table of public names, by the module that defines them.
_EXPORTS = {
    "baselines": ("eh_gram", "vh_gram", "wl_colorings", "wl_gram"),
    "kernel": (
        "FeatureMatrix",
        "GramMatrix",
        "StaleUniverseError",
        "TypeUniverse",
        "build_universe",
        "distance_report",
        "featurize",
        "features_to_csv",
        "gram",
        "gram_to_csv",
        "hamming_distance",
        "kernel_value",
        "retrieve_instances",
    ),
    "mlpipe": (
        "CvReport",
        "balance_undersample",
        "compare_reports",
        "mannwhitney_u",
        "repeated_kfold",
    ),
    "model": (
        "EDGE_KINDS",
        "GENERIC_LABELS",
        "DataFormatError",
        "Dataset",
        "GraphFamily",
        "ProvGraph",
    ),
    "pgsim": ("MODES", "TEAMS", "SimParams", "generate_dataset", "simulate_run"),
    "provjson": ("ProvJsonWarning", "load_family", "load_provjson"),
    "storage": ("load_internal", "save_internal"),
    "svm": ("ConvergenceWarning", "OvrSvm", "svm_train"),
    "typeinf": (
        "EMPTY",
        "PType",
        "TypeAssignment",
        "dump_types",
        "enumerate_label_walks",
        "infer_types",
        "type_from_walks",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    try:
        module = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | _HOME.keys())

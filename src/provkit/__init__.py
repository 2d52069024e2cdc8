"""Graph kernels for W3C PROV provenance graphs.

The package walks from raw provenance documents to classifier evaluations:
``model`` and ``provjson`` hold the graph data model and ingestion,
``typeinf`` infers neighborhood types per node, ``kernel`` turns them into
feature vectors, Gram matrices and a type metric, ``baselines`` provides
the vertex/edge histogram and Weisfeiler-Lehman reference kernels,
``pgsim`` generates the synthetic player dataset, ``mlpipe`` and ``svm``
run the SVM cross-validation harness, and ``cli`` fronts it all.
"""

from .baselines import eh_gram, vh_gram, wl_colorings, wl_gram
from .kernel import (
    FeatureMatrix,
    GramMatrix,
    StaleUniverseError,
    TypeUniverse,
    build_universe,
    distance_report,
    featurize,
    features_to_csv,
    gram,
    gram_to_csv,
    hamming_distance,
    kernel_value,
    retrieve_instances,
)
from .mlpipe import (
    CvReport,
    balance_undersample,
    compare_reports,
    mannwhitney_u,
    repeated_kfold,
)
from .model import (
    EDGE_KINDS,
    EDGE_LABELS,
    GENERIC_LABELS,
    Dataset,
    GraphFamily,
    ProvGraph,
    dependency_subgraph,
    graph_summary,
    validate_labels,
)
from .pgsim import MODES, TEAMS, SimParams, generate_dataset, simulate_run
from .provjson import DataFormatError, ProvJsonWarning, load_family, load_provjson
from .storage import load_internal, save_internal
from .svm import ConvergenceWarning, OvrSvm, smo_solve, svm_predict, svm_train
from .typeinf import (
    EMPTY,
    PType,
    TypeAssignment,
    dump_types,
    enumerate_label_walks,
    infer_types,
    is_extension,
    type_from_walks,
)

__version__ = "0.1.0"

__all__ = [
    "EMPTY",
    "EDGE_KINDS",
    "EDGE_LABELS",
    "GENERIC_LABELS",
    "MODES",
    "TEAMS",
    "ConvergenceWarning",
    "CvReport",
    "DataFormatError",
    "Dataset",
    "FeatureMatrix",
    "GramMatrix",
    "GraphFamily",
    "OvrSvm",
    "ProvGraph",
    "ProvJsonWarning",
    "PType",
    "SimParams",
    "StaleUniverseError",
    "TypeAssignment",
    "TypeUniverse",
    "balance_undersample",
    "build_universe",
    "compare_reports",
    "dependency_subgraph",
    "distance_report",
    "dump_types",
    "eh_gram",
    "enumerate_label_walks",
    "featurize",
    "features_to_csv",
    "generate_dataset",
    "gram",
    "gram_to_csv",
    "graph_summary",
    "hamming_distance",
    "infer_types",
    "is_extension",
    "kernel_value",
    "load_family",
    "load_internal",
    "load_provjson",
    "mannwhitney_u",
    "repeated_kfold",
    "retrieve_instances",
    "save_internal",
    "simulate_run",
    "smo_solve",
    "svm_predict",
    "svm_train",
    "type_from_walks",
    "validate_labels",
    "vh_gram",
    "wl_colorings",
    "wl_gram",
]

"""Gaussian mixture shape models for 3D point clouds.

Fit AIC-weighted mixture ensembles with EM, draw new clouds from them,
morph between shapes along closed-form product-manifold geodesics, and
classify shapes through density-probe embeddings on a unit hypersphere.
"""

from .em import (
    FitConfig,
    FitError,
    FitResult,
    e_step,
    fit_em,
    fit_em_candidates,
    m_step,
)
from .embedding import (
    ClassificationMetrics,
    ProbeSet,
    SphereEmbedding,
    arc_distance,
    embed,
    evaluate,
    knn_classify,
    make_probe_set,
)
from .geodesics import (
    InterpolationResult,
    interpolate_point_clouds,
    match_components,
    product_geodesic,
    project_to_k,
)
from .model import (
    DegenerateCovarianceError,
    EnsembleMember,
    Gmm,
    GmmEnsemble,
    PointCloud,
)
from .sampling import generate_point_cloud, rng_stream
from .selection import (
    AicTable,
    aic_score,
    akaike_weights,
    build_ensemble,
    build_ensembles,
    default_candidate_ks,
)
from .shapes import TubeSpec, add_outliers, make_bent_tube, tube_spec_for_class

__version__ = "0.1.0"

__all__ = [
    "AicTable",
    "ClassificationMetrics",
    "DegenerateCovarianceError",
    "EnsembleMember",
    "FitConfig",
    "FitError",
    "FitResult",
    "Gmm",
    "GmmEnsemble",
    "InterpolationResult",
    "PointCloud",
    "ProbeSet",
    "SphereEmbedding",
    "TubeSpec",
    "add_outliers",
    "aic_score",
    "akaike_weights",
    "arc_distance",
    "build_ensemble",
    "build_ensembles",
    "default_candidate_ks",
    "e_step",
    "embed",
    "evaluate",
    "fit_em",
    "fit_em_candidates",
    "generate_point_cloud",
    "interpolate_point_clouds",
    "knn_classify",
    "m_step",
    "make_bent_tube",
    "make_probe_set",
    "match_components",
    "product_geodesic",
    "project_to_k",
    "rng_stream",
    "tube_spec_for_class",
]

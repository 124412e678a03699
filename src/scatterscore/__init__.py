"""Rank 2D scatterplots by perceived cluster complexity.

Pipeline: fit a bivariate Gaussian mixture to the points (EM + BIC),
classify every component pair merge/not-merge with a model trained on
human judgments, count the merged clusters, and order scatterplots by the
resulting (M, K*) score.
"""

from .agreement import (
    AlterationPoint,
    BootstrapSummary,
    GroupRatings,
    IsolatedRatings,
    KappaResult,
    WorstCase,
    alter_decisions,
    alteration_curve,
    alteration_percentage,
    bootstrap_kappa,
    landis_koch_label,
    majority_vote_by_origin,
    min_alterations_to_displace,
    pairwise_relations,
    vanbelle_kappa,
    worst_case_formulas,
)
from .augment import (
    JudgmentRecord,
    LabeledPair,
    TrainingCorpus,
    build_corpus,
    canonical_key,
    generate_scatterplot,
    ingest_benchmark,
    replicate,
    summarize_judgments,
)
from .gmm import (
    Covariance2,
    DegenerateCovarianceError,
    FitConfig,
    FitResult,
    GaussianComponent,
    MixtureModel,
    Point2D,
    Scatterplot,
    bic_value,
    fit_em,
    gaussian_density,
    map_assign,
    mixture_density,
    select_model,
)
from .mergemodel import (
    ConfusionCounts,
    MergingModel,
    ModelFormatError,
    TrainConfig,
    cross_validate,
    deserialize,
    mcc,
    predict,
    serialize,
    stratified_split,
    train_bagged,
    up_sample,
)
from .pairspace import (
    AlignedPairFeatures,
    PairFeatures,
    ShapeParams,
    align,
    align_training_record,
    compose_covariance,
    decompose_covariance,
    extract_pair_features,
)
from .preprocess import FittedPreprocess, PreprocessSpec, fit_preprocess
from .vqm import (
    MergeMatrix,
    VqmScore,
    build_merge_matrix,
    compare,
    count_components,
    rank,
    scalar_score,
    score_scatterplot,
)

__version__ = "0.1.0"

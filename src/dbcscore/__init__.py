"""Decision-boundary complexity (DBC) scoring for binary classifiers.

Generates boundary points along segments between opposite-class training
points, measures the entropy of their PCA eigen-spectrum, and compares
models trained on the same dataset by rank tests over the resulting
score batches.
"""

__version__ = "0.1.0"

from .dataset import (ClassPair, DatasetError, LabeledDataset, k_nearest,
                      load_csv, make_blobs, minmax_scale, sample_pair,
                      sample_pairs, save_csv)
from .model import (MlpModel, ModelError, TrainConfig, TrainReport,
                    TrainingDiverged, init_model, load_model, save_model,
                    sigmoid, train)
from .boundary import (AdversarialSet, Crossing, CrossingConfig,
                       CrossingError, FailureRateExceeded, find_crossing,
                       global_adversarial_set, local_adversarial_set,
                       save_adversarial_set)
from .spectrum import (DbcScore, EigenSpectrum, LocalScore, SpectrumError,
                       dbc_global, dbc_local_batch, eigen_spectrum,
                       load_score_batch, normalized_entropy, save_score_batch)
from .stats import (RankTestResult, ScoreSummary, StatsError, compare_scores,
                    mann_whitney_test, signed_rank_test, summarize)

__all__ = [
    "ClassPair", "DatasetError", "LabeledDataset", "k_nearest", "load_csv",
    "make_blobs", "minmax_scale", "sample_pair", "sample_pairs", "save_csv",
    "MlpModel", "ModelError", "TrainConfig", "TrainReport", "TrainingDiverged",
    "init_model", "load_model", "save_model", "sigmoid", "train",
    "AdversarialSet", "Crossing", "CrossingConfig", "CrossingError",
    "FailureRateExceeded", "find_crossing", "global_adversarial_set",
    "local_adversarial_set", "save_adversarial_set",
    "DbcScore", "EigenSpectrum", "LocalScore", "SpectrumError", "dbc_global",
    "dbc_local_batch", "eigen_spectrum", "load_score_batch",
    "normalized_entropy", "save_score_batch",
    "RankTestResult", "ScoreSummary", "StatsError", "compare_scores",
    "mann_whitney_test", "signed_rank_test", "summarize",
]

"""Stance classification for Chinese microblog text about Traditional
Chinese Medicine: distant supervision from profile tags, chi-square feature
selection, a class-weighted linear SVM and per-user consistency adjustment."""

__version__ = "0.1.0"

from .corpus import Tweet, UserProfile
from .evaluation import MetricsReport, Prediction, adjust, compute_metrics, cross_validate
from .features import FeatureSet, SparseVector, TermStats, chi_square, select_features, vectorize
from .preprocess import Document, preprocess_tweet
from .resources import Resources, TermList, load_resources
from .stance import Stance
from .supervision import LabeledDataset, is_tcm_topic, label_corpus, user_stance
from .svm import DualSolution, Model, TrainConfig, predict, solve_dual, train

__all__ = [
    "Document",
    "FeatureSet",
    "LabeledDataset",
    "MetricsReport",
    "DualSolution",
    "Model",
    "Prediction",
    "Resources",
    "SparseVector",
    "Stance",
    "TermList",
    "TermStats",
    "TrainConfig",
    "Tweet",
    "UserProfile",
    "adjust",
    "chi_square",
    "compute_metrics",
    "cross_validate",
    "is_tcm_topic",
    "label_corpus",
    "load_resources",
    "predict",
    "solve_dual",
    "preprocess_tweet",
    "select_features",
    "train",
    "user_stance",
    "vectorize",
]

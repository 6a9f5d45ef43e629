"""vocalnet: identify animal species and breeds from vocalization recordings.

Pipeline: WAV parsing -> 28 spectral properties per clip -> sigmoid MLPs
trained by back-propagation under 10-fold cross-validation -> MDL-guided
forward feature selection -> confusion-matrix evaluation.
"""

from .audio_io import AudioClip, frame_clip, parse_wav, read_wav, resample
from .dataset import (LabeledCorpus, SplitPlan, clip_features, load_corpus, make_corpus,
                      plan_folds, read_feature_cache, write_feature_cache)
from .evaluation import (ConfusionMatrix, confusion_matrix, cross_fold_report,
                         feature_summary, summarize)
from .features import (FEATURE_NAMES, FeatureVector, extract_features)
from .mlp import (Network, NetworkSpec, TrainingConfig, TrainingState,
                  classify, forward, init_network, load_model, save_model, train)
from .pipeline import evaluate, train_all_folds
from .selection import SelectionTrace, forward_select, mdl_score

__version__ = "0.1.0"

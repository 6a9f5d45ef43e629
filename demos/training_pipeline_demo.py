"""End-to-end training run on a synthetic corpus, entirely in memory.

Synthesizes three tone "species" plus a white-noise pseudo class, extracts
features, plans the 10-fold 70/10/20 rotation, trains one sigmoid network per
fold, and prints the per-fold accuracies and the aggregate confusion matrix.
"""

import numpy as np

from vocalnet.audio_io import AudioClip
from vocalnet.dataset import make_corpus, plan_folds
from vocalnet.evaluation import render_report_text
from vocalnet.features import extract_features
from vocalnet.mlp import TrainingConfig
from vocalnet.pipeline import train_all_folds

RATE = 22050
CLIPS_PER_CLASS = 15

rng = np.random.default_rng(42)


def tone(freq):
    t = np.arange(int(RATE * 0.5)) / RATE
    x = 0.6 * np.sin(2 * np.pi * freq * t) + 0.05 * rng.standard_normal(len(t))
    return AudioClip(np.clip(x, -1, 1), RATE)


def noise():
    x = 0.3 * rng.standard_normal(int(RATE * 0.5))
    return AudioClip(np.clip(x, -1, 1), RATE)


classes = [("low_hoot", lambda: tone(330)),
            ("mid_chirp", lambda: tone(990)),
            ("high_trill", lambda: tone(2640)),
            ("_pseudo", noise)]

paths, labels, rows = [], [], []
for name, make in classes:
    for i in range(CLIPS_PER_CLASS):
        paths.append(f"{name}/{i}")
        labels.append(name)
        rows.append(extract_features(make()).values)
corpus = make_corpus(paths, labels, rows)

print(f"corpus: {len(corpus.samples)} clips, classes {corpus.class_names}")

folds = plan_folds(corpus, seed=0)
run = train_all_folds(corpus, folds, TrainingConfig(seed=0))

for result in run.results:
    print(f"fold {result.fold}: accuracy {result.report.overall_accuracy:6.2f}%  "
          f"stopped by {result.state.stop_reason} at epoch {result.state.epoch}")

print(f"\nmean accuracy over folds: {run.summary.mean_accuracy:.2f}% "
      f"(std {run.summary.std_accuracy:.2f})")
print("\naggregate confusion matrix over all eval sets:\n")
print(render_report_text(run.summary.summed_matrix))

"""Labeled corpora and 70/10/20 split planning with 10-fold rotation.

A corpus is either a directory with one subdirectory of WAV files per class or
a CSV manifest of path,label rows. A loaded corpus is columnar: one (N, 28)
feature matrix, one label index and one clip path per row. A class literally
named `_pseudo` is the negative-example class and is always ordered last; at
training time it is an ordinary class with its own output node.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import audio_io, features
from .errors import (ClassTooSmall, EmptyClip, EmptyCorpus, MalformedArtifact,
                     MalformedRiff, UnsupportedFormat)
from .features import FEATURE_NAMES, FeatureVector

PSEUDO_CLASS = "_pseudo"
SPLIT_FRACTIONS = (0.7, 0.1, 0.2)  # train, test, eval
N_FOLDS = 10


@dataclass
class LabeledCorpus:
    samples: np.ndarray  # (N, 28) feature matrix, row i for clip i
    labels: np.ndarray  # (N,) index into class_names
    clip_paths: list[str]
    class_names: list[str]
    load_errors: list[tuple[str, str]] = field(default_factory=list)

    @property
    def n_classes(self) -> int:
        return len(self.class_names)


@dataclass(frozen=True)
class SplitPlan:
    train_ids: np.ndarray
    test_ids: np.ndarray
    eval_ids: np.ndarray


def make_corpus(clip_paths, label_names, rows, load_errors=()) -> LabeledCorpus:
    """A corpus from one label name and one 28-value row per clip. Classes
    are the names present, sorted with the pseudo class last; every loader
    builds its corpus here, so this is the only place that orders them."""
    class_names = sorted(set(label_names) - {PSEUDO_CLASS})
    if PSEUDO_CLASS in label_names:
        class_names.append(PSEUDO_CLASS)
    index = {name: i for i, name in enumerate(class_names)}
    return LabeledCorpus(
        samples=np.array(rows, dtype=np.float64).reshape(len(clip_paths),
                                                         len(FEATURE_NAMES)),
        labels=np.array([index[name] for name in label_names], dtype=int),
        clip_paths=[str(p) for p in clip_paths], class_names=class_names,
        load_errors=list(load_errors))


def read_csv_rows(path) -> list[tuple[int, list[str]]]:
    """(line number, row) for each non-empty row of a CSV file; undecodable
    text or a malformed field raises MalformedArtifact."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            return [(reader.line_num, row) for row in reader if row]
        except (UnicodeDecodeError, csv.Error) as exc:
            raise MalformedArtifact(f"{path}: {exc}") from exc


def _manifest_rows(manifest: Path) -> list[tuple[str, str]]:
    rows = []
    for number, row in read_csv_rows(manifest):
        if not row[0].strip() or row[0].strip().lower() == "path":  # optional header
            continue
        if len(row) < 2 or not row[1].strip():
            raise MalformedArtifact(
                f"{manifest}: row {number} has no label: {','.join(row)}")
        rows.append((row[0].strip(), row[1].strip()))
    return rows


def load_corpus(root) -> LabeledCorpus:
    """Load a corpus from a class-per-directory tree or a path,label manifest,
    extracting every clip at the audio_io.DEFAULT_* window, hop and rate.

    In a tree, a clip is any file in a class directory whose name ends in
    .wav in any case (field recorders write .WAV), taken in sorted order.

    A clip that cannot be opened or parsed, or that resamples to no samples,
    is recorded in corpus.load_errors and skipped; the corpus still loads as
    long as at least one clip succeeds. Any other error is raised.
    """
    root = Path(root)
    if root.is_file():
        entries = [(Path(p) if Path(p).is_absolute() else root.parent / p, label)
                   for p, label in _manifest_rows(root)]
    elif root.is_dir():
        entries = [(wav, sub.name)
                   for sub in sorted(root.iterdir()) if sub.is_dir()
                   for wav in sorted(sub.iterdir())
                   if wav.name.lower().endswith(".wav")]
    else:
        raise EmptyCorpus(f"{root} is neither a directory nor a manifest")

    paths, labels, rows = [], [], []
    load_errors: list[tuple[str, str]] = []
    for path, label in entries:
        try:
            clip = audio_io.read_wav(path)
            clip = audio_io.resample(clip, audio_io.DEFAULT_RATE)
            vector = features.extract_features(clip)
        except (MalformedRiff, UnsupportedFormat, EmptyClip, OSError) as exc:
            load_errors.append((str(path), str(exc)))
            continue
        paths.append(path)
        labels.append(label)
        rows.append(vector.values)

    if not rows:
        raise EmptyCorpus(f"no usable clips under {root}")
    # a class whose every clip failed has no label here, so it is dropped
    return make_corpus(paths, labels, rows, load_errors)


def write_feature_cache(corpus: LabeledCorpus, path) -> None:
    """One CSV row per clip: clip_path,label,<28 canonical slots>."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["clip_path", "label", *FEATURE_NAMES])
        for path, label, values in zip(corpus.clip_paths, corpus.labels,
                                       corpus.samples):
            writer.writerow([path, corpus.class_names[label],
                             *(repr(float(v)) for v in values)])


def read_feature_cache(path) -> LabeledCorpus:
    """Rebuild a corpus from a feature cache CSV. A header other than
    clip_path,label and the 28 slot names, or a row that is not a non-empty
    path, a non-empty label and 28 finite numbers, raises MalformedArtifact."""
    lines = read_csv_rows(path)
    number, header = lines[0] if lines else (1, [])
    if header != ["clip_path", "label", *FEATURE_NAMES]:
        raise MalformedArtifact(f"{path}: row {number}: not the header clip_path,"
                                f"label and the {len(FEATURE_NAMES)} slot names")
    paths, labels, rows = [], [], []
    for number, row in lines[1:]:
        try:
            values = FeatureVector([float(v) for v in row[2:]]).values
            if not np.isfinite(values).all():
                raise ValueError("non-finite value")
            if not (row[0] and row[1]):
                raise ValueError("empty clip path or label")
        except ValueError as exc:
            raise MalformedArtifact(f"{path}: row {number}: {exc}") from None
        paths.append(row[0])
        labels.append(row[1])
        rows.append(values)
    if not rows:
        raise EmptyCorpus(f"{path} has no rows")
    return make_corpus(paths, labels, rows)


def largest_remainder_counts(total: int) -> tuple[int, int, int]:
    """Integer allocation of total over SPLIT_FRACTIONS; remainders resolved
    to the largest fractional part, ties to the earlier position."""
    quotas = [total * f for f in SPLIT_FRACTIONS]
    counts = [int(q) for q in quotas]
    remainders = [q - c for q, c in zip(quotas, counts)]
    leftover = total - sum(counts)
    order = sorted(range(len(SPLIT_FRACTIONS)), key=lambda i: (-remainders[i], i))
    for i in order[:leftover]:
        counts[i] += 1
    return tuple(counts)


def plan_folds(corpus: LabeledCorpus, seed: int) -> list[SplitPlan]:
    """Ten folds by per-class circular rotation over a seeded shuffle.

    Fold i takes its eval block at a rotating offset, the test block right
    after it, and trains on the rest; with class sizes that are multiples of
    10 every sample lands in eval exactly twice and in test exactly once.
    """
    labels = corpus.labels
    rng = np.random.default_rng(seed)
    perms = []
    sizes = []
    for cls in range(corpus.n_classes):
        ids = np.flatnonzero(labels == cls)
        if len(ids) < 3:
            raise ClassTooSmall(
                f"class {corpus.class_names[cls]} has {len(ids)} samples")
        perms.append(rng.permutation(ids))
        sizes.append(largest_remainder_counts(len(ids)))

    # after the size check, so a class too small to split gets the error alone
    small = [corpus.class_names[c] for c, perm in enumerate(perms)
             if len(perm) < N_FOLDS]
    if small:
        warnings.warn(f"classes smaller than {N_FOLDS} samples reuse eval "
                      f"members across folds: {', '.join(small)}")

    folds = []
    for i in range(N_FOLDS):
        train, test, evaluation = [], [], []
        for perm, (n_train, n_test, n_eval) in zip(perms, sizes):
            c = len(perm)
            start = (i * c) // N_FOLDS
            rotated = np.roll(perm, -start)
            evaluation.extend(rotated[:n_eval])
            test.extend(rotated[n_eval:n_eval + n_test])
            train.extend(rotated[n_eval + n_test:])
        folds.append(SplitPlan(
            train_ids=np.sort(np.array(train, dtype=int)),
            test_ids=np.sort(np.array(test, dtype=int)),
            eval_ids=np.sort(np.array(evaluation, dtype=int))))
    return folds

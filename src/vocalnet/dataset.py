"""Labeled corpora and 70/10/20 split planning with 10-fold rotation.

A corpus is either a directory with one subdirectory of WAV files per class or
a CSV manifest of path,label rows. A class literally named `_pseudo` is the
negative-example class and is always ordered last; at training time it is an
ordinary class with its own output node.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import audio_io, features
from .errors import ClassTooSmall, EmptyCorpus, MalformedArtifact
from .features import FEATURE_NAMES, FeatureVector

PSEUDO_CLASS = "_pseudo"
SPLIT_FRACTIONS = (0.7, 0.1, 0.2)  # train, test, eval
N_FOLDS = 10


@dataclass(frozen=True)
class LabeledSample:
    features: FeatureVector
    label: int
    clip_path: str


@dataclass
class LabeledCorpus:
    samples: list[LabeledSample]
    class_names: list[str]
    pseudo_present: bool = False
    load_errors: list[tuple[str, str]] = field(default_factory=list)

    @property
    def n_classes(self) -> int:
        return len(self.class_names)

    def labels(self) -> np.ndarray:
        return np.array([s.label for s in self.samples], dtype=int)

    def feature_matrix(self) -> np.ndarray:
        return np.array([s.features.values for s in self.samples])


@dataclass(frozen=True)
class SplitPlan:
    train_ids: np.ndarray
    test_ids: np.ndarray
    eval_ids: np.ndarray


@dataclass(frozen=True)
class FoldPlan:
    folds: list[SplitPlan]
    seed: int


def _sorted_class_names(names: set[str]) -> list[str]:
    """Lexicographic order with the pseudo class forced last."""
    ordered = sorted(n for n in names if n != PSEUDO_CLASS)
    if PSEUDO_CLASS in names:
        ordered.append(PSEUDO_CLASS)
    return ordered


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


def load_corpus(root, window_size: int = audio_io.DEFAULT_WINDOW,
                hop_size: int = audio_io.DEFAULT_HOP,
                rate: int = audio_io.DEFAULT_RATE) -> LabeledCorpus:
    """Load a corpus from a class-per-directory tree or a path,label manifest.

    Unreadable clips are recorded in corpus.load_errors and skipped; the
    corpus still loads as long as at least one clip succeeds.
    """
    root = Path(root)
    if root.is_file():
        entries = [(Path(p) if Path(p).is_absolute() else root.parent / p, label)
                   for p, label in _manifest_rows(root)]
    elif root.is_dir():
        entries = [(wav, sub.name)
                   for sub in sorted(root.iterdir()) if sub.is_dir()
                   for wav in sorted(sub.glob("*.wav"))]
    else:
        raise EmptyCorpus(f"{root} is neither a directory nor a manifest")

    class_names = _sorted_class_names({label for _, label in entries})
    label_index = {name: i for i, name in enumerate(class_names)}

    samples: list[LabeledSample] = []
    load_errors: list[tuple[str, str]] = []
    for path, label in entries:
        try:
            clip = audio_io.read_wav(path)
            clip = audio_io.resample(clip, rate)
            vector = features.extract_features(clip, window_size, hop_size)
        except Exception as exc:  # record and continue with the rest
            load_errors.append((str(path), str(exc)))
            continue
        samples.append(LabeledSample(features=vector, label=label_index[label],
                                     clip_path=str(path)))

    if not samples:
        raise EmptyCorpus(f"no usable clips under {root}")
    used = _sorted_class_names({class_names[s.label] for s in samples})
    if used != class_names:  # drop classes whose every clip failed
        remap = {label_index[name]: i for i, name in enumerate(used)}
        samples = [LabeledSample(s.features, remap[s.label], s.clip_path)
                   for s in samples]
        class_names = used
    return LabeledCorpus(samples=samples, class_names=class_names,
                         pseudo_present=PSEUDO_CLASS in class_names,
                         load_errors=load_errors)


def write_feature_cache(corpus: LabeledCorpus, path) -> None:
    """One CSV row per clip: clip_path,label,<28 canonical slots>."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["clip_path", "label", *FEATURE_NAMES])
        for s in corpus.samples:
            writer.writerow([s.clip_path, corpus.class_names[s.label],
                             *(repr(float(v)) for v in s.features.values)])


def read_feature_cache(path) -> LabeledCorpus:
    """Rebuild a corpus from a feature cache CSV. A header other than
    clip_path,label and the 28 slot names, or a row that is not a path, a
    label and 28 finite numbers, raises MalformedArtifact."""
    lines = read_csv_rows(path)
    number, header = lines[0] if lines else (1, [])
    if header != ["clip_path", "label", *FEATURE_NAMES]:
        raise MalformedArtifact(f"{path}: row {number}: not the header clip_path,"
                                f"label and the {len(FEATURE_NAMES)} slot names")
    rows = []
    for number, row in lines[1:]:
        try:
            vector = FeatureVector([float(v) for v in row[2:]])
            if not np.isfinite(vector.values).all():
                raise ValueError("non-finite value")
            rows.append((row[0], row[1], vector))
        except (IndexError, ValueError) as exc:
            raise MalformedArtifact(f"{path}: row {number}: {exc}") from None
    if not rows:
        raise EmptyCorpus(f"{path} has no rows")

    class_names = _sorted_class_names({label for _, label, _ in rows})
    label_index = {name: i for i, name in enumerate(class_names)}
    samples = [LabeledSample(features=vector, label=label_index[label],
                             clip_path=path_)
               for path_, label, vector in rows]
    return LabeledCorpus(samples=samples, class_names=class_names,
                         pseudo_present=PSEUDO_CLASS in class_names)


def largest_remainder_counts(total: int,
                             fractions=SPLIT_FRACTIONS) -> tuple[int, ...]:
    """Integer allocation of total over fractions; remainders resolved to the
    largest fractional part, ties to the earlier position."""
    quotas = [total * f for f in fractions]
    counts = [int(q) for q in quotas]
    remainders = [q - c for q, c in zip(quotas, counts)]
    leftover = total - sum(counts)
    order = sorted(range(len(fractions)), key=lambda i: (-remainders[i], i))
    for i in order[:leftover]:
        counts[i] += 1
    return tuple(counts)


def plan_folds(corpus: LabeledCorpus, seed: int) -> FoldPlan:
    """Ten folds by per-class circular rotation over a seeded shuffle.

    Fold i takes its eval block at a rotating offset, the test block right
    after it, and trains on the rest; with class sizes that are multiples of
    10 every sample lands in eval exactly twice and in test exactly once.
    """
    labels = corpus.labels()
    rng = np.random.default_rng(seed)
    small = [corpus.class_names[c] for c in range(corpus.n_classes)
             if np.sum(labels == c) < N_FOLDS]
    if small:
        warnings.warn(f"classes smaller than {N_FOLDS} samples reuse eval "
                      f"members across folds: {', '.join(small)}")

    perms = []
    sizes = []
    for cls in range(corpus.n_classes):
        ids = np.flatnonzero(labels == cls)
        if len(ids) < 3:
            raise ClassTooSmall(
                f"class {corpus.class_names[cls]} has {len(ids)} samples")
        perms.append(rng.permutation(ids))
        sizes.append(largest_remainder_counts(len(ids)))

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
    return FoldPlan(folds=folds, seed=seed)

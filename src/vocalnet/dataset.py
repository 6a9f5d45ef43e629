"""Labeled corpora and 70/10/20 split planning with 10-fold rotation.

A corpus is either a directory with one subdirectory of WAV files per class or
a CSV manifest of path,label rows. A loaded corpus is columnar: one (N, 28)
feature matrix, one label index and one clip path per row. A class literally
named `_pseudo` is the negative-example class and is always ordered last; at
training time it is an ordinary class with its own output node.
"""

from __future__ import annotations

import csv
import errno
import os
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import audio_io, features
from .audio_io import fs_text
from .errors import ClassTooSmall, ClipError, EmptyCorpus, MalformedArtifact
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


@contextmanager
def open_artifact(path, mode="r"):
    """A text artifact opened as UTF-8 whatever the locale, with no newline
    translation; every text file the package reads or writes opens here.

    In mode "w" the text goes to a fresh sibling file, created with the
    umask's mode as a plain open would, which replaces the artifact (or a
    symlink at its path) once the block is done and is removed where the
    block raised: an artifact appears whole or not at all. An artifact this
    process may not write is left as it is, and an error names the
    artifact's path, as a plain open's would."""
    if mode != "w":
        with open(path, mode, encoding="utf-8", newline="") as fh:
            yield fh
        return
    path = os.fspath(path)
    temporary = f"{path}.{os.urandom(4).hex()}.tmp"
    fh = None
    try:
        if os.path.exists(path) and not os.access(path, os.W_OK):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)
        fh = open(temporary, "x", encoding="utf-8", newline="")
        with fh:
            yield fh
        os.replace(temporary, path)
    except BaseException as exc:
        if fh is not None:
            os.remove(temporary)
        if getattr(exc, "filename", None) == temporary:
            raise OSError(exc.errno, exc.strerror, path) from exc
        raise


def read_csv_rows(path) -> list[tuple[int, list[str]]]:
    """(line number, row) for each non-empty row of a CSV file; undecodable
    text or a malformed field raises MalformedArtifact."""
    with open_artifact(path) as fh:
        reader = csv.reader(fh)
        try:
            return [(reader.line_num, row) for row in reader if row]
        except (UnicodeDecodeError, csv.Error) as exc:
            raise MalformedArtifact(f"{path}: {exc}") from exc


def write_csv_rows(path, header, rows) -> None:
    """A CSV artifact: the header row, then each of rows."""
    with open_artifact(path, "w") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _manifest_rows(manifest: Path) -> list[tuple[str, str]]:
    """(path, label) per row. The first row may be a `path,label` header and
    a row of blank fields is skipped; a row with a blank path or label
    raises MalformedArtifact."""
    rows = []
    for i, (number, row) in enumerate(read_csv_rows(manifest)):
        path, label = (field.strip() for field in (row + [""])[:2])
        if i == 0 and path.lower() == "path" or not any(f.strip() for f in row):
            continue
        if not (path and label):
            raise MalformedArtifact(f"{manifest}: row {number} has no "
                                    f"{'label' if path else 'path'}: {','.join(row)}")
        rows.append((path, label))
    return rows


def clip_features(path) -> np.ndarray:
    """One WAV file's 28 values at audio_io.DEFAULT_*; a ClipError where
    the clip cannot be used."""
    return features.extract_features(
        audio_io.resample(audio_io.read_wav(path), audio_io.DEFAULT_RATE)).values


def load_corpus(root) -> LabeledCorpus:
    """Load a corpus from a class-per-directory tree or a path,label manifest,
    extracting every clip with clip_features.

    In a tree, a clip is any file in a class directory whose name ends in
    .wav in any case (field recorders write .WAV), taken in sorted order. A
    manifest's paths reach the file system as their UTF-8 bytes under any
    locale. Clip paths, and a tree's class names, are kept as fs_text gives
    them.

    A clip that cannot be opened or parsed, or that resamples to no samples,
    is recorded in corpus.load_errors and skipped; the corpus still loads as
    long as at least one clip succeeds. Any other error is raised.
    """
    root = Path(root)
    if root.is_file():
        entries = [(root.parent / os.fsdecode(p.encode()), label)
                   for p, label in _manifest_rows(root)]
    elif root.is_dir():
        entries = [(wav, fs_text(sub.name))
                   for sub in sorted(root.iterdir()) if sub.is_dir()
                   for wav in sorted(sub.iterdir())
                   if wav.name.lower().endswith(".wav")]
    else:
        raise EmptyCorpus(f"{root} is neither a directory nor a manifest")

    paths, labels, rows = [], [], []
    load_errors: list[tuple[str, str]] = []
    for path, label in entries:
        try:
            rows.append(clip_features(path))
        except ClipError as exc:
            load_errors.append((fs_text(path), str(exc)))
            continue
        paths.append(fs_text(path))
        labels.append(label)

    if not rows:
        raise EmptyCorpus(f"no usable clips under {root}")
    # a class whose every clip failed has no label here, so it is dropped
    return make_corpus(paths, labels, rows, load_errors)


def write_feature_cache(corpus: LabeledCorpus, path) -> None:
    """One UTF-8 CSV row per clip: clip_path,label,<28 canonical slots>. A
    name that was not UTF-8 on the file system is already fs_text's escapes."""
    write_csv_rows(path, ["clip_path", "label", *FEATURE_NAMES],
                   ([clip, corpus.class_names[label], *(repr(float(v)) for v in values)]
                    for clip, label, values in zip(corpus.clip_paths, corpus.labels,
                                                   corpus.samples)))


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
    A class of 3, 4 or 5 samples splits (2, 0, 1), (3, 0, 1) or (4, 0, 1)
    (train, test, eval) and so has no test row in any fold: its samples never
    weigh on the test-set MSE that the TestWorsening stop watches.
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

    if not any(n_test for _, n_test, _ in sizes):
        needed = min(n for n in range(3, N_FOLDS + 1) if largest_remainder_counts(n)[1])
        raise ClassTooSmall(f"no class has a test row; a class needs {needed} "
                            f"samples for one")
    # after the size checks, so a class too small to split gets the error alone
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

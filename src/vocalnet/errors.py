"""Exception types shared across the pipeline."""


class VocalnetError(Exception):
    """Base class for all library errors."""


# audio parsing / framing

class MalformedRiff(VocalnetError):
    """The byte stream is not a well-formed RIFF/WAVE container."""


class UnsupportedFormat(VocalnetError):
    """The WAV file uses a codec, bit depth, or channel count we do not handle."""


class EmptyClip(VocalnetError):
    """A clip with zero samples cannot be framed."""


# dataset

class EmptyCorpus(VocalnetError):
    """No usable samples were found."""


class ClassTooSmall(VocalnetError):
    """A class has too few samples to split 70/10/20."""


class MalformedArtifact(VocalnetError, ValueError):
    """A manifest, feature cache, subset file or model file is malformed."""


class InvalidSetting(VocalnetError, ValueError):
    """A command-line flag or library argument is out of range."""


# networks

class DimensionMismatch(VocalnetError):
    """Input length does not match the network's input layer."""


class EmptySet(VocalnetError):
    """Training requires non-empty train and test sets."""


# evaluation

class LabelOutOfRange(VocalnetError):
    """A label index is outside [0, n)."""


class EmptyMatrix(VocalnetError):
    """Cannot summarize a confusion matrix with zero total count."""

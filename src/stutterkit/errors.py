"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: configuration problems exit 1, data
problems exit 2, numeric failures exit 3.
"""


class StutterKitError(Exception):
    """Base class for all package errors."""


class ConfigError(StutterKitError):
    """Invalid configuration value or file."""


class DataError(StutterKitError):
    """Invalid or inconsistent input data."""


class NumericError(StutterKitError):
    """Numerical failure (NaN/Inf loss, diverged training)."""


# dsp_features
class ClipTooShort(DataError):
    """Audio clip shorter than one analysis window."""


class InvalidConfig(ConfigError):
    """Feature extraction configuration violates its invariants."""


# nn kernels
class InputTooShort(DataError):
    """Temporal input shorter than a layer's context span."""


class DegenerateBatch(DataError):
    """Batch-norm channel has fewer than 2 elements in train mode."""


class InvalidRate(ConfigError):
    """Dropout rate outside [0, 1)."""


class IndexOutOfRange(DataError):
    """Class index outside the logit range."""


class ShapeMismatch(DataError):
    """Tensor shapes inconsistent with the declared layer geometry."""


# model
class InvalidArch(ConfigError):
    """Architecture configuration violates its invariants."""


class NoPendingForward(StutterKitError):
    """Backward asked for a head that has no train-mode forward awaiting it."""


# data
class ParseError(DataError):
    """Malformed manifest or annotation row (carries a line number)."""


class UnknownLabel(DataError):
    """Label outside the five stuttering classes."""


class TooFewPodcasts(DataError):
    """Not enough distinct podcasts for the requested split."""


class EmptyPodcast(DataError):
    """Podcast with no clips where at least one is required."""


class EmptyBatch(DataError):
    """Loss requested on an empty batch."""


# eval
class LengthMismatch(DataError):
    """Truth/prediction vectors differ in length or are empty."""


class EmptyMatrix(DataError):
    """Metrics requested on an all-zero confusion matrix."""


# checkpoint
class CorruptCheckpoint(DataError):
    """Checkpoint file truncated, wrong magic, or wrong version."""

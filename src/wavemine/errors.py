"""Exception types shared across the toolkit."""
from contextlib import contextmanager


class WaveMineError(Exception):
    """Base class for all wavemine errors."""


class CohortParseError(WaveMineError):
    """Malformed row in a cohort or outcome file."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class CellConflictError(WaveMineError):
    """Duplicate (patient, feature, wave) cell."""


class CohortValidationError(WaveMineError):
    """Input data violates a cohort-level constraint."""


class ConfigError(WaveMineError):
    """Invalid feature or miner configuration."""


def typed_setting(convert, name: str, value):
    """``convert(value)``, or a ConfigError naming the setting.

    A bool is not a number, and an int takes no fraction.
    """
    try:
        if isinstance(value, bool):
            raise TypeError
        out = convert(value)
        if convert is int and isinstance(value, float) and out != value:
            raise ValueError
        return out
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{name}: cannot read {value!r} as {convert.__name__}") from None


@contextmanager
def utf8_text(error: type[WaveMineError], what: str):
    """Raise ``error`` naming ``what`` for text read inside the block that is not UTF-8."""
    try:
        yield
    except UnicodeDecodeError as exc:
        bad = exc.object[exc.start:exc.end]
        raise error(f"{what} is not UTF-8 text: {exc.reason} ({bad!r})") from None


class FitError(WaveMineError):
    """Percentile edges cannot be fitted (e.g. no values)."""


class DegenerateDistributionError(FitError):
    """Zero spread or collapsed edges: the feature has a single usable level."""


class MappingError(WaveMineError):
    """Raw value cannot be mapped to a level."""


class PairingError(WaveMineError):
    """Endpoint sequence violates the start/finish pairing invariant."""


class UndefinedRiskError(WaveMineError):
    """2x2 table has an empty margin: risk measure undefined."""


class UndefinedMetricError(WaveMineError):
    """Evaluation metric undefined (e.g. no comparable pairs)."""


class GuardError(WaveMineError):
    """Brute-force oracle refused an input beyond its size guard."""


class MatrixFormatError(WaveMineError):
    """Design matrix file or sidecar is malformed or inconsistent."""


class FoldError(WaveMineError):
    """Cross-validation folds are degenerate (no event in a fold)."""

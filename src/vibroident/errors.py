"""Exception types shared across the toolkit, and the key and number
checks of its JSON documents.

Grouped by pipeline stage so the CLI can map them onto exit codes:
config (2), parse (3), numeric (4), io (5).
"""

import math


class VibroidentError(Exception):
    """Base class for all toolkit errors."""


# --- configuration ---------------------------------------------------------

class ConfigError(VibroidentError):
    pass


def check_keys(doc: dict, known, where: str) -> None:
    """ConfigError unless ``doc`` is an object; else naming every key of
    ``doc`` that is not in ``known``."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{where} must be an object, got {type(doc).__name__}")
    unknown = sorted(set(doc) - set(known))
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {', '.join(map(repr, unknown))}")


def is_real(value) -> bool:
    """Whether a document's ``value`` is a finite real number: an integer
    or a float, not a boolean, a string or null."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def check_real(doc: dict, keys, where: str) -> None:
    """ConfigError unless each of ``keys`` that ``doc`` sets, to anything
    but null, is a finite real number (:func:`is_real`) or a list of them,
    nested to any depth."""
    def ok(v):
        return all(map(ok, v)) if isinstance(v, list) else is_real(v)

    for key in keys:
        if doc.get(key) is not None and not ok(doc[key]):
            raise ConfigError(f"{where} key {key!r} must be a finite number or a list of them, got {doc[key]!r}")


# --- ingestion / parsing ---------------------------------------------------

class ParseError(VibroidentError):
    """Malformed cell or structure in an input file; carries row index."""

    def __init__(self, message, row=None):
        super().__init__(message)
        self.row = row


class SpacingError(ParseError):
    """Timestamps are not uniformly spaced within tolerance."""


class AlignmentError(VibroidentError):
    """Streams do not overlap enough to synchronize."""


class WindowError(VibroidentError):
    """Requested time window selects no usable samples."""


# --- numerics --------------------------------------------------------------

class NumericError(VibroidentError):
    pass


class AssemblyError(NumericError):
    """Assembled stiffness is singular (mechanism detected)."""


class EigenError(NumericError):
    pass


class SolveError(NumericError):
    """Dynamic matrix is singular at the requested frequency."""


class IntegrationError(NumericError):
    """Time stepping produced unstable growth."""


class DesignError(NumericError):
    """Filter design request is infeasible (e.g. corner above Nyquist)."""


class FilterError(NumericError):
    """Series too short for zero-phase filtering."""


class FitError(NumericError):
    """Sine fit impossible: a bad frequency, too short a window, or sums
    that are not finite."""


class DomainError(NumericError):
    """Argument outside the mathematical domain of a correlation/formula."""


class ForceEstimationError(NumericError):
    pass


class BuildError(NumericError):
    """Frequency response curve construction failed (missing force, ...)."""


class RankError(NumericError):
    """Rigid-body fit is rank deficient; names the unobservable direction."""

    def __init__(self, message, direction=None):
        super().__init__(message)
        self.direction = direction


class NormalizationError(NumericError):
    pass


class ComparisonError(NumericError):
    pass


class GeometryError(NumericError):
    pass


class InfinityError(NumericError):
    """Undamped amplification requested exactly at resonance."""

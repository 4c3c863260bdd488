"""Exception hierarchy shared across the package.

The CLI maps each family to a distinct exit code, so new exceptions
should subclass one of the four families below rather than Exception.
"""

from __future__ import annotations


class RmstgstError(Exception):
    """Base class for all package errors."""


class ConfigError(RmstgstError):
    """Invalid configuration: bad spending spec, malformed design JSON, bad flags."""


class DataError(RmstgstError):
    """Invalid input data: bad CSV rows, empty snapshots, immature datasets."""


class EstimationError(RmstgstError):
    """Model fitting or analysis failure."""


class SingularInformationError(EstimationError):
    """Observed information is singular along some direction, which the message names."""


class ConvergenceError(EstimationError):
    """Newton iteration failed to converge within the iteration budget."""


class InsufficientEventsError(EstimationError):
    """A look has an arm without events by min(u, tau): no analysis, and no fit, is made there."""


class StateError(RmstgstError):
    """Monitoring-state violation: stale analysis time, held lock, bad state file."""

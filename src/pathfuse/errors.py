"""Exception taxonomy.

Every error carries an ``exit_code`` so the CLI can map failure classes to
process exit codes without string matching:

    0  success
    2  configuration error (bad flags, bad config values, out-of-range request)
    3  data error (unreadable or invalid input, unknown source ids, an
       output file or directory that cannot be written)
    4  numeric error (singular systems, insufficient data)

Exit code 5 belongs to no error class: ``pathfuse experiment`` returns it
when a study finishes but one of its benchmark gates fails.
"""

from __future__ import annotations


class PathfuseError(Exception):
    exit_code = 1


class ConfigError(PathfuseError):
    exit_code = 2


class DataError(PathfuseError):
    exit_code = 3


class NumericError(PathfuseError):
    exit_code = 4


class GasRangeError(ConfigError):
    """Requested frequency lies outside the attenuation table's coverage; a
    sample's error reads ``sample {row} {detail}``, else ``row`` is None."""

    def __init__(self, detail: str, row: int | None = None):
        super().__init__(detail if row is None else f"sample {row} {detail}")
        self.detail, self.row = detail, row


class MetricError(NumericError):
    """A metric was evaluated on degenerate input (zero baseline/weights)."""


class InsufficientDataError(NumericError):
    """Fewer samples than free coefficients (or too few survivors)."""


class SingularSystemError(NumericError):
    """Near-singular normal equations.

    ``columns`` names the design columns implicated in the deficiency.
    """

    def __init__(self, message: str, columns: tuple[str, ...] = ()):
        super().__init__(message)
        self.columns = columns


class ConsensusFailureError(NumericError):
    """No random-sample consensus set reached the minimum viable size."""


class DegenerateDataError(NumericError):
    """Too few samples, or pairs with distinct abscissae, for a median line."""

"""Exception hierarchy shared by every module.

Two base classes split all failures into the categories the CLI maps to
exit statuses:

* ``InputError`` (exit 2): the inputs are malformed or violate a domain
  contract and no amount of data could make them valid.
* ``StatisticalRefusal`` (exit 1): the inputs are well-formed but the
  requested quantity is not statistically defined for them (zero
  variance, too few degrees of freedom, a score on the boundary of the
  transform's domain).
"""


class AdoptionIndexError(Exception):
    """Base class for all errors raised by this package."""


class InputError(AdoptionIndexError):
    """Malformed or contract-violating input."""


class StatisticalRefusal(AdoptionIndexError):
    """The requested inference is undefined for these data."""


# --- input errors -----------------------------------------------------------


class OutOfRangeStage(InputError):
    """A stage value falls outside 0..m for its model."""


class RowArityMismatch(InputError):
    """A data row does not have one value per model."""


class TooFewRows(InputError):
    """The dataset has no more rows than models (n <= k)."""


class DuplicateRowId(InputError):
    """Two rows share the same identifier."""


class IndexOutOfRange(InputError):
    """A model position is outside 0..k-1."""


class RowNotFound(InputError):
    """The requested row id does not exist in the dataset."""


class SpecMismatch(InputError):
    """Data or estimates do not conform to the study spec they are used with."""


class ScoreOutOfRange(InputError):
    """A score lies outside [0, m]."""


class UnsupportedArity(InputError):
    """The operation is only defined for a specific number of models."""


class InvalidResolution(InputError):
    """Grid resolution below the minimum of 2 points per axis."""


class InvalidLevel(InputError):
    """Confidence level or significance outside (0, 1)."""


class InvalidDf(InputError):
    """Degrees of freedom must be a positive finite number."""


# --- statistical refusals ---------------------------------------------------


class DegenerateVariance(StatisticalRefusal):
    """A model with positive weight has zero sample variance."""


class InsufficientDf(StatisticalRefusal):
    """The test's degrees of freedom would be below 1."""


class BoundaryScore(StatisticalRefusal):
    """The delta-method derivative is undefined at a boundary score."""


class BothVariancesZero(StatisticalRefusal):
    """Welch degrees of freedom need at least one positive variance."""


class InsufficientSample(StatisticalRefusal):
    """A sample is too small for the variance pooling it is used in."""

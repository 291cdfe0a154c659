"""Sub-index transforms, the weighted global index, and its gradient.

A score S in [0, m] is normalized to [0, 1] by

    f(S) = S^beta / (S^beta + alpha * (m - S)^beta)

which reduces to S/m when alpha = beta = 1. The implementation divides
numerator and denominator by the larger of S^beta and (m-S)^beta, so no
intermediate can overflow and the endpoints evaluate to exactly 0 and 1.
The ratio form 1 / (1 + alpha * ((m-S)/S)^beta) is equivalent on the
open interval but divides by zero at S = 0; it appears only in tests.

The delta-method derivative of f is evaluated through the identity

    f'(S) = beta * m * f(S) * (1 - f(S)) / (S * (m - S))

which is algebraically equal to the quotient-rule expansion
alpha*beta*m*S^(beta-1)*(m-S)^(beta-1) / (S^beta + alpha*(m-S)^beta)^2
and inherits the transform's numerical stability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .domain import ModelSpec, StudySpec, _number
from .errors import (
    BoundaryScore,
    InvalidResolution,
    ScoreOutOfRange,
    SpecMismatch,
    UnsupportedArity,
)
from .estimation import ScoreEstimate

# Named (alpha, beta) presets for the qualitative curve families. The
# values are illustrative choices, not calibrated constants.
SHAPE_PRESETS: dict[str, tuple[float, float]] = {
    "linear": (1.0, 1.0),
    "concave": (0.3, 1.0),
    "convex": (3.0, 1.0),
    "s-shaped": (1.0, 3.0),
}
# the grid and its rendered report are held in memory whole: `surface` at 1000 (10^6 points) took
# 2.6-2.8 s and a 300 MB peak RSS as a table, 7.6-8.0 s and 661 MB structured, on 2 vCPUs
_MAX_RESOLUTION = 1000


@dataclass(frozen=True)
class IndexValue:
    """Per-model sub-indices in [0, 1] and their weighted average, the global index."""

    sub_indices: tuple[float, ...]
    value: float


def subindex(score: float, model: ModelSpec) -> float:
    """Normalize one score into [0, 1] through the model's shape."""
    m = float(model.m)
    # a float needs no check, and every score on the per-replication path is one
    s = score if type(score) is float else _number(score, "score")
    if not (math.isfinite(s) and 0.0 <= s <= m):
        raise ScoreOutOfRange(
            f"score {score!r} outside [0, {model.m}] for model {model.name!r}"
        )
    alpha, beta = model.alpha, model.beta
    rest = m - s
    if s >= rest:
        # ((m-S)/S)^beta <= 1 here, no overflow for any beta
        return 1.0 / (1.0 + alpha * (rest / s) ** beta)
    ratio = (s / rest) ** beta
    return ratio / (ratio + alpha)


def global_index(scores: ScoreEstimate, spec: StudySpec) -> IndexValue:
    """Weighted average of per-model sub-indices."""
    if scores.k != spec.k:
        raise SpecMismatch(f"{scores.k} scores for a {spec.k}-model spec")
    subs = tuple(subindex(s, model) for s, model in zip(scores.scores, spec.models))
    value = math.fsum(w * i for w, i in zip(spec.weights, subs))
    return IndexValue(sub_indices=subs, value=value)


def delta_derivative(score: float, model: ModelSpec) -> float:
    """d f / d S at ``score``.

    A linear model has the constant derivative 1/m on the closed [0, m];
    any other shape is defined only on the open interval (0, m), and is
    refused where its float value is not finite (beta * m can overflow).
    """
    m = float(model.m)
    s = score if type(score) is float else _number(score, "score")
    linear = model.is_linear
    if not (0.0 <= s <= m if linear else 0.0 < s < m):
        bounds = f"0 <= S <= {model.m}" if linear else f"0 < S < {model.m}"
        raise BoundaryScore(
            f"derivative undefined at score {score!r} for model {model.name!r} "
            f"(needs {bounds})"
        )
    if linear:
        return 1.0 / m
    f = subindex(s, model)
    derivative = model.beta * m * f * (1.0 - f) / (s * (m - s))
    if not math.isfinite(derivative):
        raise BoundaryScore(
            f"derivative at score {score!r} for model {model.name!r} is not finite in floating point"
        )
    return derivative


def delta_gradient(scores: ScoreEstimate, spec: StudySpec) -> tuple[float, ...]:
    """Per-model derivatives at the estimated scores."""
    if scores.k != spec.k:
        raise SpecMismatch(f"{scores.k} scores for a {spec.k}-model spec")
    return tuple(delta_derivative(s, model) for s, model in zip(scores.scores, spec.models))


def surface_grid(
    spec: StudySpec, resolution: int
) -> list[tuple[float, float, float]]:
    """Evaluate the global index on a [0,m1] x [0,m2] lattice (k = 2 only).

    Returns (S1, S2, I) rows in row-major order with ``resolution`` points
    per axis (2 to 1000), endpoints included. The (0, 0) corner maps to 0
    and the (m1, m2) corner to 1. A point's index is the sum of its axis
    values' weighted sub-indices, each computed once: ``global_index``'s, bit for bit.
    """
    if spec.k != 2:
        raise UnsupportedArity(f"surface needs exactly 2 models, spec has {spec.k}")
    if not isinstance(resolution, int) or isinstance(resolution, bool) or resolution < 2:
        raise InvalidResolution(f"resolution must be an integer >= 2, got {resolution!r}")
    if resolution > _MAX_RESOLUTION:
        raise InvalidResolution(f"resolution must be at most {_MAX_RESOLUTION}, got {resolution}")
    last = resolution - 1
    # m / last divides the exact int: np.linspace rounds an m past 2^53 first, and fails past 2^64
    first, second = (
        [(s, w * subindex(s, model)) for s in [i * (model.m / last) for i in range(last)] + [float(model.m)]]
        for model, w in zip(spec.models, spec.weights)
    )
    return [(s1, s2, u + v) for s1, u in first for s2, v in second]

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

from .domain import ModelSpec, StudySpec
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


@dataclass(frozen=True)
class IndexValue:
    """Sub-indices, their weighted average, and the spec that shaped them."""

    sub_indices: tuple[float, ...]
    value: float
    spec: StudySpec


def subindex(score: float, model: ModelSpec) -> float:
    """Normalize one score into [0, 1] through the model's shape."""
    m = float(model.m)
    s = float(score)
    if not (math.isfinite(s) and 0.0 <= s <= m):
        raise ScoreOutOfRange(
            f"score {score!r} outside [0, {model.m}] for model {model.name!r}"
        )
    alpha, beta = model.alpha, model.beta
    rest = m - s
    if s >= rest:
        # ((m-S)/S)^beta <= 1 here, no overflow for any beta
        return 1.0 / (1.0 + alpha * (rest / s) ** beta)
    if s == 0.0:
        return 0.0
    ratio = (s / rest) ** beta
    return ratio / (ratio + alpha)


def global_index(scores: ScoreEstimate, spec: StudySpec) -> IndexValue:
    """Weighted average of per-model sub-indices."""
    if scores.k != spec.k:
        raise SpecMismatch(f"{scores.k} scores for a {spec.k}-model spec")
    subs = tuple(subindex(s, model) for s, model in zip(scores.scores, spec.models))
    value = math.fsum(w * i for w, i in zip(spec.weights, subs))
    return IndexValue(sub_indices=subs, value=value, spec=spec)


def delta_derivative(score: float, model: ModelSpec) -> float:
    """d f / d S at ``score``.

    A linear model has the constant derivative 1/m on the closed [0, m];
    any other shape is defined only on the open interval (0, m).
    """
    m = float(model.m)
    s = float(score)
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
    return model.beta * m * f * (1.0 - f) / (s * (m - s))


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
    per axis, endpoints included. The (0, 0) corner maps to 0 and the
    (m1, m2) corner to 1.
    """
    if spec.k != 2:
        raise UnsupportedArity(f"surface needs exactly 2 models, spec has {spec.k}")
    if not isinstance(resolution, int) or isinstance(resolution, bool) or resolution < 2:
        raise InvalidResolution(f"resolution must be an integer >= 2, got {resolution!r}")
    model_a, model_b = spec.models
    w_a, w_b = spec.weights

    def axis(m: int) -> list[float]:
        step = m / (resolution - 1)
        points = [i * step for i in range(resolution)]
        points[-1] = float(m)
        return points

    rows = []
    for s1 in axis(model_a.m):
        f1 = subindex(s1, model_a)
        for s2 in axis(model_b.m):
            rows.append((s1, s2, w_a * f1 + w_b * subindex(s2, model_b)))
    return rows

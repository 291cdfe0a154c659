"""Study definitions and validated ordinal datasets.

A study is an ordered collection of adoption models. Model ``j`` has
``m_j + 1`` ordered stages coded 0..m_j, where stage 0 always means "no
adoption at all". Observations are integer stage values, one column per
model, one row per corporation. Everything here is immutable after
construction and safe to share across threads.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    DuplicateRowId,
    InputError,
    OutOfRangeStage,
    RowArityMismatch,
    TooFewRows,
)

WEIGHT_SUM_TOL = 1e-9
PMF_SUM_TOL = 1e-12
PSD_EIGENVALUE_FLOOR = -1e-10

RawRows = Sequence[tuple[str, Sequence[int]]]


def _number(value: object, what: str) -> float:
    """``value`` as a float; bools, strings and other non-numbers are input errors."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise InputError(f"{what} must be a number, got {value!r}")
    return float(value)


def _number_rows(rows: object, what: str) -> list[tuple[float, ...]]:
    """A list of rows of numbers, every entry checked by ``_number``."""
    try:
        return [tuple(_number(x, f"{what} {i}: entry") for x in row) for i, row in enumerate(rows)]
    except TypeError as exc:
        raise InputError(f"{what} must be a list of lists of numbers, got {rows!r}") from exc


@dataclass(frozen=True)
class ModelSpec:
    """One adoption model: stage count, shape parameters, index weight.

    ``m`` is the maximum stage index, so the model has m+1 stages 0..m.
    ``alpha`` dampens how fast the sub-index grows; ``beta`` steepens its
    middle part. The linear sub-index is simply the configuration
    ``alpha == beta == 1``. ``weight`` may be left as None and filled in
    by :class:`StudySpec` (equal weights).
    """

    name: str
    m: int
    alpha: float = 1.0
    beta: float = 1.0
    weight: float | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise InputError("model name must be a non-empty string")
        if not isinstance(self.m, int) or isinstance(self.m, bool) or self.m < 1:
            raise InputError(f"model {self.name!r}: m must be an integer >= 1, got {self.m!r}")
        alpha = _number(self.alpha, f"model {self.name!r}: alpha")
        if not (math.isfinite(alpha) and alpha > 0):
            raise InputError(f"model {self.name!r}: alpha must be > 0, got {alpha!r}")
        beta = _number(self.beta, f"model {self.name!r}: beta")
        if not (math.isfinite(beta) and beta >= 1):
            raise InputError(f"model {self.name!r}: beta must be >= 1, got {beta!r}")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)
        if self.weight is not None:
            weight = _number(self.weight, f"model {self.name!r}: weight")
            if not (math.isfinite(weight) and 0 < weight <= 1):
                raise InputError(
                    f"model {self.name!r}: weight must lie in (0, 1], got {weight!r}"
                )
            object.__setattr__(self, "weight", weight)

    @property
    def is_linear(self) -> bool:
        return self.alpha == 1.0 and self.beta == 1.0


@dataclass(frozen=True)
class StudySpec:
    """Ordered collection of k models defining one composite index.

    Weights must sum to one (within 1e-9). If no model carries a weight,
    every model gets 1/k. Mixing explicit and missing weights is
    rejected as ambiguous.
    """

    models: tuple[ModelSpec, ...]

    def __init__(self, models: Sequence[ModelSpec]):
        models = tuple(models)
        if len(models) < 1:
            raise InputError("a study needs at least one model")
        names = [mod.name for mod in models]
        if len(set(names)) != len(names):
            raise InputError(f"model names must be unique, got {names}")
        missing = [mod.weight is None for mod in models]
        if all(missing):
            w = 1.0 / len(models)
            models = tuple(dataclasses.replace(mod, weight=w) for mod in models)
        elif any(missing):
            raise InputError("either give every model a weight or none of them")
        total = math.fsum(mod.weight for mod in models)  # type: ignore[misc]
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise InputError(f"weights must sum to 1 (got {total!r})")
        object.__setattr__(self, "models", models)

    @property
    def k(self) -> int:
        return len(self.models)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(mod.name for mod in self.models)

    @property
    def stage_maxima(self) -> tuple[int, ...]:
        return tuple(mod.m for mod in self.models)

    @property
    def weights(self) -> tuple[float, ...]:
        return tuple(mod.weight for mod in self.models)  # type: ignore[misc]

    def structure(self) -> tuple[tuple[int, float, float, float], ...]:
        """Structural identity: (m, alpha, beta, weight) per model, names ignored."""
        return tuple((mod.m, mod.alpha, mod.beta, mod.weight) for mod in self.models)  # type: ignore[misc]


@dataclass(frozen=True, eq=False)
class AdoptionDataset:
    """n x k matrix of observed stages with row identities.

    Construction enforces every invariant: integer cells within 0..m_j,
    unique row ids, and strictly more rows than models.
    """

    row_ids: tuple[str, ...]
    values: np.ndarray
    spec: StudySpec

    def __post_init__(self) -> None:
        values = np.asarray(self.values)
        if values.ndim != 2:
            raise InputError(f"values must be a 2-d matrix, got shape {values.shape}")
        if not np.issubdtype(values.dtype, np.integer):
            raise InputError(f"stage values must be integers, got dtype {values.dtype}")
        n, k = values.shape
        if k != self.spec.k:
            raise RowArityMismatch(f"expected {self.spec.k} columns, got {k}")
        if len(self.row_ids) != n:
            raise InputError(f"{len(self.row_ids)} row ids for {n} rows")
        seen: set[str] = set()
        for row_id in self.row_ids:
            if row_id in seen:
                raise DuplicateRowId(f"row id {row_id!r} appears more than once")
            seen.add(row_id)
        if n <= self.spec.k:
            raise TooFewRows(f"need more rows than models, got n={n} with k={self.spec.k}")
        for j, model in enumerate(self.spec.models):
            col = values[:, j]
            bad = np.nonzero((col < 0) | (col > model.m))[0]
            if bad.size:
                i = int(bad[0])
                raise OutOfRangeStage(
                    f"stage {int(col[i])} out of range 0..{model.m} "
                    f"for model {model.name!r} at row {self.row_ids[i]!r}"
                )
        values = values.astype(np.int64, copy=True)
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "row_ids", tuple(self.row_ids))

    @property
    def n(self) -> int:
        return self.values.shape[0]

    def row_position(self, row_id: str) -> int | None:
        try:
            return self.row_ids.index(row_id)
        except ValueError:
            return None

    def without_row(self, position: int) -> "AdoptionDataset":
        keep = [i for i in range(self.n) if i != position]
        return AdoptionDataset(
            row_ids=tuple(self.row_ids[i] for i in keep),
            values=self.values[keep, :],
            spec=self.spec,
        )


@dataclass(frozen=True, eq=False)
class PmfSpec:
    """Known stage distributions for simulation, one pmf per model.

    ``pmfs[j]`` lists P(stage = 0..m_j) for model j. The optional latent
    correlation matrix drives cross-model dependence in the sampler
    (correlated standard normals pushed through each model's quantile
    function); it must be symmetric with unit diagonal and positive
    semi-definite.
    """

    pmfs: tuple[tuple[float, ...], ...]
    latent_correlation: np.ndarray | None = None

    def __init__(
        self,
        pmfs: Sequence[Sequence[float]],
        latent_correlation: Sequence[Sequence[float]] | np.ndarray | None = None,
    ):
        clean = _number_rows(pmfs, "pmf")
        for j, pmf in enumerate(clean):
            if len(pmf) < 2:
                raise InputError(f"pmf {j}: needs at least two stages")
            if any(not math.isfinite(p) or p < 0 for p in pmf):
                raise InputError(f"pmf {j}: probabilities must be finite and >= 0")
            total = math.fsum(pmf)
            if abs(total - 1.0) > PMF_SUM_TOL:
                raise InputError(f"pmf {j}: probabilities sum to {total!r}, not 1")
        object.__setattr__(self, "pmfs", tuple(clean))
        if latent_correlation is None:
            object.__setattr__(self, "latent_correlation", None)
            return
        k = len(clean)
        rows = _number_rows(latent_correlation, "latent correlation")
        if len(rows) != k or any(len(row) != k for row in rows):
            raise InputError(f"latent correlation must be {k}x{k}")
        corr = np.array(rows)
        if not np.allclose(corr, corr.T, atol=1e-12):
            raise InputError("latent correlation must be symmetric")
        if not np.allclose(np.diag(corr), 1.0, atol=1e-12):
            raise InputError("latent correlation must have a unit diagonal")
        if np.linalg.eigvalsh(corr).min() < PSD_EIGENVALUE_FLOOR:
            raise InputError("latent correlation must be positive semi-definite")
        corr.setflags(write=False)
        object.__setattr__(self, "latent_correlation", corr)

    @property
    def k(self) -> int:
        return len(self.pmfs)

    @property
    def stage_maxima(self) -> tuple[int, ...]:
        return tuple(len(pmf) - 1 for pmf in self.pmfs)


def validate_dataset(raw_rows: RawRows, spec: StudySpec) -> AdoptionDataset:
    """Turn labeled integer rows into a validated :class:`AdoptionDataset`.

    Rejects empty ids, rows of the wrong length, non-integer cells,
    stages outside 0..m_j, duplicate ids, and datasets with n <= k.
    """
    row_ids = []
    rows = []
    for row_id, cells in raw_rows:
        row_id = str(row_id)
        if not row_id:
            raise InputError(f"row {len(rows) + 1} has an empty id")
        cells = tuple(cells)
        if len(cells) != spec.k:
            raise RowArityMismatch(
                f"row {row_id!r} has {len(cells)} values, expected {spec.k}"
            )
        converted = []
        for j, cell in enumerate(cells):
            if isinstance(cell, bool) or not isinstance(cell, (int, np.integer)):
                raise InputError(
                    f"row {row_id!r}, model {spec.names[j]!r}: "
                    f"stage must be an integer, got {cell!r}"
                )
            converted.append(int(cell))
        row_ids.append(row_id)
        rows.append(converted)
    if len(rows) <= spec.k:
        raise TooFewRows(f"need more rows than models, got n={len(rows)} with k={spec.k}")
    values = np.array(rows, dtype=np.int64).reshape(len(rows), spec.k)
    return AdoptionDataset(row_ids=tuple(row_ids), values=values, spec=spec)


def shift_stages(raw_rows: RawRows, offset_flags: Sequence[bool]) -> list[tuple[str, tuple[int, ...]]]:
    """Prepend a "no adoption" stage to flagged models.

    Models whose recorded lowest stage does not mean "no adoption" get a
    zero stage added below their scale: every observed value in a flagged
    column is incremented by one. The study spec's m_j must already count
    the added stage. Range violations caused by shifting an already
    shifted column surface in the subsequent validation.
    """
    flags = tuple(bool(f) for f in offset_flags)
    shifted = []
    for row_id, cells in raw_rows:
        cells = tuple(cells)
        if len(cells) != len(flags):
            raise RowArityMismatch(
                f"row {row_id!r} has {len(cells)} values, expected {len(flags)}"
            )
        shifted.append(
            (str(row_id), tuple(int(c) + 1 if f else int(c) for c, f in zip(cells, flags)))
        )
    return shifted

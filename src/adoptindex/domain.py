"""Study definitions and validated ordinal datasets.

A study is an ordered collection of adoption models. Model ``j`` has
``m_j + 1`` ordered stages coded 0..m_j, where stage 0 always means "no
adoption at all". Observations are integer stage values, one column per
model, one row per corporation. Everything here is immutable after
construction and safe to share across threads. A dataset fills four caches
on demand: its exact sums on first use, its ids as a tuple of ``str`` on
first read of ``row_ids``, an id -> position dict once its row lookups
have searched 8n ids, and what leaving out a row gives, per distinct stage
tuple, for up to 1,024 tuples.

A dataset keeps a sequence of ids as a tuple of ``str`` and checks them as
strings. A plain data file hands over its ids as byte ranges of the file
(``_RowIds``) without making a string per row: the blank and duplicate checks
key each id by a hash of its bytes in numpy (one pass over every id's first 8
bytes, a second over the rest of only the longer ids), a lookup is one search
of the file's bytes, and the first read of ``row_ids`` decodes them all at
once, so a file whose ids are never read never decodes them.

A dataset's stage matrix keeps the memory order it comes in: a plain data
file's is column-major, so the checks and sums over its columns read
contiguous memory. Nothing here depends on the order.

Every dataset rule (ids, row count, stage ranges, sums exact in int64) is checked
only by :class:`AdoptionDataset`, when it is built; ``validate_dataset`` and
``cli.load_dataset`` check only what their format needs (an int64 matrix; a zero-stage
column's 0..m-1, through the same ``_require_stages``). ``AdoptionDataset.without_row``
downdates the dataset's exact sums by one row, without building a reduced dataset.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import numbers
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    DuplicateRowId,
    InputError,
    OutOfRangeStage,
    RowArityMismatch,
    RowNotFound,
    TooFewRows,
)

WEIGHT_SUM_TOL = 1e-9
PMF_SUM_TOL = 1e-12
PSD_EIGENVALUE_FLOOR = -1e-10
_INT64 = np.iinfo(np.int64)
# sums and cross-products are accumulated in int64; n * max_stage^2 must stay below this
_INT64_LIMIT = 2**63
# row lookups search the ids until they have searched this many times n ids, then build an
# id -> position dict; decoding a plain file's ids and building the dict cost about 16 of
# its slowest searches (a missing id that starts like every id) at 2,000 rows, 30 at 10^6
_SCANS_BEFORE_DICT = 8
# a dataset keeps what leaving out a row gives for at most this many distinct stage tuples,
# about 2.7 MB at k = 3; a tuple past them is computed and not kept. Threads that race past
# the check may each add one tuple, and two that compute one entry compute the same values
_LEFT_OUT_BOUND = 1024
# splitmix64's multipliers (Steele, Lea and Flood, 2014) and the golden-ratio word salt
_MIX_FACTORS = (np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB))
_WORD_SALT = np.uint64(0x9E3779B97F4A7C15)
# _BYTE_MASKS[b] keeps the low b bytes of a uint64
_BYTE_MASKS = np.array([(1 << 8 * b) - 1 for b in range(9)], np.uint64)

RawRows = Sequence[tuple[str, Sequence[int]]]


def _require_exact(n: int, peak: int) -> None:
    """Refuse sums and cross-products that could wrap in int64."""
    if n * peak * peak >= _INT64_LIMIT:
        raise InputError(f"stages up to {peak} over {n} rows overflow exact int64 moments")


def _exact_sums(values: np.ndarray) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """Column sums and cross-product matrix, as Python ints, of a matrix ``_require_exact`` passed."""
    cross = (values.T @ values).tolist()
    return tuple(values.sum(axis=0, dtype=np.int64).tolist()), tuple(map(tuple, cross))


def _require_stages(values: np.ndarray, spec: StudySpec, tops: dict[int, int],
                    ids: Sequence[str], after: str = "") -> int:
    """Refuse the first stage, in row order, outside 0..tops[j] in a column j of ``tops``,
    ``after`` ending the message; return the largest stage in those columns (0 if none).
    A column costs one min and one max, and only one that fails is masked."""
    bad, peak = [], 0
    for j, top in tops.items():
        column = values[:, j]  # a view, contiguous for a plain file's column-major matrix
        high = int(column.max(initial=0))
        if column.min(initial=0) < 0 or high > top:
            bad.append((int(np.argmax((column < 0) | (column > top))), j))
        peak = max(peak, high)
    if bad:
        i, j = min(bad)
        raise OutOfRangeStage(f"stage {values[i, j]} out of range 0..{tops[j]} for model "
                              f"{spec.names[j]!r} at row {ids[i]!r}{after}", row=i)
    return peak


def _require_rows(n: int, k: int) -> None:
    """Refuse a sample of no more rows than models (n <= k)."""
    if n <= k:
        raise TooFewRows(f"need more rows than models, got n={n} with k={k}")


def _number(value: object, what: str, error: type[InputError] = InputError) -> float:
    """``value`` as a float; bools, strings and other non-numbers raise ``error``."""
    # float and int are Reals too; testing them first skips the slow abstract-class check
    if isinstance(value, bool) or not isinstance(value, (float, int, numbers.Real)):
        raise error(f"{what} must be a number, got {value!r}")
    return float(value)


def _integer(value: object, what: str, low: int) -> None:
    """Refuse ``value`` (named ``what``) unless it is an int, not a bool, of at least ``low``."""
    if not isinstance(value, int) or isinstance(value, bool) or value < low:
        raise InputError(f"{what} must be an integer >= {low}, got {value!r}")


def _number_rows(rows: object, what: str) -> list[tuple[float, ...]]:
    """A list of rows of numbers, every entry checked by ``_number``."""
    try:
        return [tuple(_number(x, f"{what} {i}: entry") for x in row) for i, row in enumerate(rows)]
    except TypeError as exc:
        raise InputError(f"{what} must be a list of lists of numbers, got {rows!r}") from exc


def _pmf(row: object, what: str) -> tuple[float, ...]:
    """``row`` as a pmf, named ``what`` in errors: two or more finite probabilities >= 0 summing to 1."""
    try:
        pmf = tuple(_number(x, f"{what}: entry") for x in row)
    except TypeError as exc:
        raise InputError(f"{what} must be a list of numbers, got {row!r}") from exc
    if len(pmf) < 2:
        raise InputError(f"{what}: needs at least two stages")
    if any(not math.isfinite(p) or p < 0 for p in pmf):
        raise InputError(f"{what}: probabilities must be finite and >= 0")
    total = math.fsum(pmf)
    if abs(total - 1.0) > PMF_SUM_TOL:
        raise InputError(f"{what}: probabilities sum to {total!r}, not 1")
    return pmf


def correlation_matrix(value: object, k: int, what: str) -> np.ndarray:
    """``value`` (named ``what`` in errors) as a read-only k x k correlation matrix."""
    rows = _number_rows(value, what)
    if len(rows) != k or any(len(row) != k for row in rows):
        raise InputError(f"{what} must be {k}x{k}")
    corr = np.array(rows)
    if not np.isfinite(corr).all():  # np.allclose reads inf as close to inf, and eigvalsh gives NaN
        raise InputError(f"{what} entries must be finite")
    if not np.allclose(corr, corr.T, atol=1e-12):
        raise InputError(f"{what} must be symmetric")
    if not np.allclose(np.diag(corr), 1.0, atol=1e-12):
        raise InputError(f"{what} must have a unit diagonal")
    if np.linalg.eigvalsh(corr).min() < PSD_EIGENVALUE_FLOOR:
        raise InputError(f"{what} must be positive semi-definite")
    corr.setflags(write=False)
    return corr


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
        if not isinstance(self.name, str) or not self.name:
            raise InputError(f"model name must be a non-empty string, got {self.name!r}")
        _integer(self.m, f"model {self.name!r}: m", 1)
        if self.m > sys.float_info.max:  # every score, sub-index and derivative works in float(m)
            raise InputError(f"model {self.name!r}: m must be at most {sys.float_info.max!r}, "
                             f"got an integer of {self.m.bit_length()} bits")
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
        # derived once; not fields, so equality, hashing and repr still see only the models
        object.__setattr__(self, "k", len(models))
        object.__setattr__(self, "names", tuple(mod.name for mod in models))
        object.__setattr__(self, "stage_maxima", tuple(mod.m for mod in models))
        object.__setattr__(self, "weights", tuple(mod.weight for mod in models))
        object.__setattr__(self, "_hash", hash((models,)))  # the dataclass hash; caches ask it per lookup

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self) -> tuple[type[StudySpec], tuple[tuple[ModelSpec, ...]]]:
        # rebuilt, not copied: a str's hash differs between processes, so ``_hash`` must be too
        return StudySpec, (self.models,)

    def structure(self) -> tuple[tuple[int, float, float, float], ...]:
        """Structural identity: (m, alpha, beta, weight) per model, names ignored."""
        return tuple((mod.m, mod.alpha, mod.beta, mod.weight) for mod in self.models)  # type: ignore[misc]


def _mix(words: np.ndarray) -> np.ndarray:
    """splitmix64's finaliser of each uint64: a bijection in which every input bit
    moves about half the output bits."""
    words = words ^ (words >> np.uint64(30))
    words *= _MIX_FACTORS[0]
    words ^= words >> np.uint64(27)
    words *= _MIX_FACTORS[1]
    words ^= words >> np.uint64(31)
    return words


def _plain_text(body: np.ndarray, starts: np.ndarray, stops: np.ndarray) -> str:
    """The byte ranges ``body[starts[i]:stops[i]]``, in file order, joined and
    decoded; the caller has checked that the body is UTF-8."""
    low, high = (starts[0], stops[-1]) if starts.size else (0, 0)
    inside = np.zeros(high - low + 1, np.int8)
    inside[starts - low] = 1
    inside[stops - low] -= 1  # a range may start where the one before it stops
    return str(body[low:high][np.cumsum(inside, dtype=np.int8, out=inside)[:-1].view(bool)], "utf-8")


class _RowIds:
    """A plain data file's row ids: id i is the bytes ``data[starts[i]:stops[i]]``.

    ``data`` is the whole file, checked to be UTF-8. Each id starts and ends with a byte in
    0x21-0x7f, so it is not blank and ``str.strip`` keeps it whole; it holds no comma, and
    is preceded by a newline and followed by a comma, so ``strings`` decodes them all in
    one gather and split, and ``index`` finds one in one search. Two ids are equal exactly
    when their bytes are. The ids keep the file's bytes in memory as long as the dataset does.
    """

    __slots__ = ("data", "starts", "stops")

    def __init__(self, data: bytes, starts: np.ndarray, stops: np.ndarray):
        self.data, self.starts, self.stops = data, starts, stops

    def __len__(self) -> int:
        return len(self.starts)

    def __getitem__(self, i: int) -> str:
        """Id ``i``, decoded alone."""
        return self.data[self.starts[i]:self.stops[i]].decode("utf-8")

    def strings(self) -> tuple[str, ...]:
        """Every id as a ``str``, in row order: each id's bytes and the comma after
        it gathered, decoded at once and split at the commas."""
        text = _plain_text(np.frombuffer(self.data, np.uint8), self.starts, self.stops + 1)
        return tuple(text.split(",")[:-1])

    def _words(self, at: np.ndarray, stops: np.ndarray) -> np.ndarray:
        """The bytes from each offset in ``at`` up to 8 or to its stop (not before
        it), whichever is nearer, as a little-endian uint64 with zeros above them."""
        data = np.frombuffer(self.data, np.uint8)
        if data.size < 8:
            data = np.concatenate([data, np.zeros(8 - data.size, np.uint8)])
        last = data.size - 8
        windows = np.ndarray((last + 1,), "<u8", data, 0, (1,))  # one starting at each byte
        words = windows[np.minimum(at, last)]  # take() would first copy every window
        tail = np.flatnonzero(at > last)  # a word in the last 8 bytes shifts their window down
        if tail.size:
            words[tail] >>= (8 * (at[tail] - last)).astype(np.uint64)
        return words & _BYTE_MASKS[np.minimum(stops - at, 8)]

    def keys(self) -> np.ndarray:
        """Each id's 64-bit key: the sum, wrapping, of ``_mix`` of each of its
        zero-padded 8-byte words xor its place times ``_WORD_SALT``, then ``_mix``
        of that sum xor the id's byte length.

        Every id's first word is mixed in one pass, and the further words of only
        the ids longer than 8 bytes in a second, added to the first pass's sums;
        wrapping uint64 addition commutes, so the split leaves every key as if all
        of an id's words were summed at once. Time and memory are O(total id
        bytes)."""
        lengths = self.stops - self.starts
        sums = _mix(self._words(self.starts, self.stops))
        long = np.flatnonzero(lengths > 8)
        if long.size:
            counts = (lengths[long] - 1) // 8  # words after the first, at least 1
            firsts = np.cumsum(counts) - counts
            places = np.arange(1, counts.sum() + 1) - np.repeat(firsts, counts)
            at = np.repeat(self.starts[long], counts) + 8 * places
            words = self._words(at, np.repeat(self.stops[long], counts))
            sums[long] += np.add.reduceat(_mix(words ^ places.astype(np.uint64) * _WORD_SALT), firsts)
        return _mix(sums ^ lengths.astype(np.uint64))

    def needs_exact_check(self) -> bool:
        """False when no two ids share a key (``keys``), so every id, none blank, is unique;
        True asks for an exact check."""
        keys = self.keys()
        keys.sort()
        return bool((keys[1:] == keys[:-1]).any())

    def index(self, row_id: object) -> int:
        """Position of the first id equal to ``row_id``, by one search of the file for it
        between a newline and a comma, where a query of no comma matches only a whole id
        (every line holds a comma); ValueError if none is, as ``tuple.index`` raises."""
        if isinstance(row_id, str) and "," not in row_id:
            # an id typed in may hold a lone surrogate, which no UTF-8 file's bytes match
            at = self.data.find(b"\n" + row_id.encode("utf-8", "surrogatepass") + b",")
            if at >= 0:
                return int(np.searchsorted(self.starts, at + 1))
        raise ValueError(f"{row_id!r} is not a row id")


@dataclass(frozen=True, eq=False)
class AdoptionDataset:
    """n x k matrix of observed stages with row identities.

    Construction enforces every invariant: integer cells within 0..m_j, non-empty unique
    ``str`` row ids, strictly more rows than models, and sums exact in int64. An error
    about one row carries its 0-based position in ``InputError.row``.

    ``row_ids`` may be any sequence of ``str``, kept as a tuple, or a plain data
    file's ids (``_RowIds``), decoded on the first read of ``row_ids``; the
    checks, lookups and error messages of such a dataset read the file's bytes.
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
        if isinstance(self.row_ids, _RowIds):
            ids = self.row_ids
            del self.__dict__["row_ids"]  # decoded from the file's bytes on first read
            unsure = ids.needs_exact_check()
        else:
            ids = tuple(self.row_ids)
            object.__setattr__(self, "row_ids", ids)
            try:
                "".join(ids)  # refuses an id that is not a str, but does not say which
            except TypeError:
                i = next(i for i, row_id in enumerate(ids) if not isinstance(row_id, str))
                raise InputError(f"row {i + 1} id must be a string, got {ids[i]!r}", row=i) from None
            unsure = len(set(ids)) < len(ids) or not all(ids)
        object.__setattr__(self, "_ids", ids)
        if len(ids) != n:
            raise InputError(f"{len(ids)} row ids for {n} rows")
        _require_rows(n, self.spec.k)
        if unsure:  # some id may be blank or repeated: name the first, in row order
            seen: set[str] = set()
            for i, row_id in enumerate(self.row_ids):
                if not row_id:
                    raise InputError(f"row {i + 1} has an empty id", row=i)
                if row_id in seen:
                    raise DuplicateRowId(f"row id {row_id!r} appears more than once", row=i)
                seen.add(row_id)
        _require_exact(n, _require_stages(values, self.spec, dict(enumerate(self.spec.stage_maxima)), ids))
        values = values.astype(np.int64, copy=True)
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    def __getattr__(self, name: str) -> tuple[str, ...]:
        # only reached for row_ids when the ids came from a plain file: decode them once, then cache
        if name != "row_ids" or "_ids" not in self.__dict__:
            raise AttributeError(name)
        row_ids = self.__dict__["row_ids"] = self.__dict__["_ids"].strings()
        return row_ids

    @property
    def n(self) -> int:
        return self.values.shape[0]

    def row_position(self, row_id: str) -> int:
        """0-based position of ``row_id``.

        Lookups search the ids (a plain file's as one search of its bytes) until
        they have searched ``_SCANS_BEFORE_DICT`` * n ids in total, each search
        counting n. Later ones read an id -> position dict built then from
        ``row_ids`` and cached, like ``sufficient_stats``: one lookup, as a CLI call
        makes, decodes no id and builds no dict, and a few lookups of a large
        dataset search, which costs less.
        """
        positions = self.__dict__.get("_positions")
        try:
            if positions is None:
                scanned = self.__dict__.get("_scanned", 0)
                if scanned < _SCANS_BEFORE_DICT * self.n:
                    self.__dict__["_scanned"] = scanned + self.n
                    return self._ids.index(row_id)
                positions = self.__dict__["_positions"] = dict(zip(self.row_ids, range(self.n)))
            return positions[row_id]
        except (ValueError, KeyError, TypeError):  # TypeError: an unhashable id
            raise RowNotFound(f"row {row_id!r} not found in dataset") from None

    @functools.cached_property
    def sufficient_stats(self) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
        """Exact column sums s = X^T 1 and cross-products C = X^T X, reduced on first use."""
        return _exact_sums(self.values)

    def _left_out(self, position: int) -> tuple[list[int], dict]:
        """The stages of the row at ``position``, and the dict in which ``without_row`` and
        ``inference.one_sample_test`` keep what leaving out a row with them gives: one per
        distinct stage tuple, for up to ``_LEFT_OUT_BOUND`` tuples, and past them a new one."""
        memo = self.__dict__.setdefault("_left_outs", {})
        row = self.values[position].tolist()
        kept = memo.get(key := tuple(row))
        if kept is None:
            kept = {}
            if len(memo) < _LEFT_OUT_BOUND:
                memo[key] = kept
        return row, kept

    def without_row(self, position: int) -> tuple[int, tuple[int, ...], tuple[tuple[int, ...], ...]]:
        """``(n, sums, cross)`` of the rows left after removing the one at ``position``.

        They keep every rule but the row count, so only that is checked. Their exact
        sums are the parent's minus the row, computed once per distinct stage tuple.
        """
        n = self.n - 1
        if not 0 <= position <= n:
            raise IndexError(f"row position {position} outside 0..{n}")
        _require_rows(n, self.spec.k)
        x, kept = self._left_out(position)
        if "rest" not in kept:
            sums, cross = self.sufficient_stats
            kept["rest"] = n, tuple(s - a for s, a in zip(sums, x)), tuple(
                tuple(c - a * b for c, b in zip(row, x)) for row, a in zip(cross, x)
            )
        return kept["rest"]


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
        clean = [_pmf(row, f"pmf {j}") for j, row in enumerate(_number_rows(pmfs, "pmf"))]
        object.__setattr__(self, "pmfs", tuple(clean))
        if latent_correlation is None:
            object.__setattr__(self, "latent_correlation", None)
            return
        corr = correlation_matrix(latent_correlation, len(clean), "latent correlation")
        object.__setattr__(self, "latent_correlation", corr)

    @property
    def k(self) -> int:
        return len(self.pmfs)

    @property
    def stage_maxima(self) -> tuple[int, ...]:
        return tuple(len(pmf) - 1 for pmf in self.pmfs)


def validate_dataset(raw_rows: RawRows, spec: StudySpec) -> AdoptionDataset:
    """Turn labeled Python rows into a validated :class:`AdoptionDataset`.

    Checks here that each row has one cell per model and that each cell is
    an int (not a bool) within int64; :class:`AdoptionDataset` checks the rest,
    ids included: each must be a ``str``.
    """
    row_ids = []
    rows = []
    for row_id, cells in raw_rows:
        cells = tuple(cells)
        if len(cells) != spec.k:
            raise RowArityMismatch(
                f"row {row_id!r} has {len(cells)} values, expected {spec.k}", row=len(rows)
            )
        for j, cell in enumerate(cells):
            if (
                isinstance(cell, bool)
                or not isinstance(cell, (int, np.integer))
                or not _INT64.min <= cell <= _INT64.max
            ):
                raise InputError(
                    f"row {row_id!r}, model {spec.names[j]!r}: "
                    f"stage must be a 64-bit integer, got {cell!r}",
                    row=len(rows),
                )
        row_ids.append(row_id)
        rows.append(cells)
    values = np.array(rows, dtype=np.int64).reshape(len(rows), spec.k)
    return AdoptionDataset(row_ids=tuple(row_ids), values=values, spec=spec)

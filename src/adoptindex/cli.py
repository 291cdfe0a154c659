"""Command-line surface: ingestion, dispatch, and report emission.

Formats:

* Study spec: a JSON file with a "models" list. Each model carries
  name, m, alpha, beta, an optional weight (all or none), an optional
  "add_zero_stage" flag (the column is recorded on 0..m-1, its lowest
  stage not meaning "no adoption"; every value is shifted up by one),
  and an optional "pmf" used by the simulate command. Optional top-level
  keys: "latent_correlation" (k x k matrix) and "alternative_pmf" (list
  of per-model pmfs for the size study's shifted alternative). Any
  other key, in a model or at the top level, is refused.

* Data: UTF-8 CSV with a header row; first column is the corporation
  id, the remaining columns must be named exactly like the spec models,
  in order. Quoting follows the csv module's excel dialect. Whitespace
  around every cell is stripped, and a stage cell may then be anything
  int() accepts ("3", "03", "+3", "1_0") within the 64-bit integer
  range. Blank lines, including lines of only commas and whitespace, are
  skipped. Errors name the file and the physical line of the offending
  row, counting skipped lines and every line a quoted cell spans.
  Structurally plain files (UTF-8 with no quotes, NULs or carriage
  returns outside CRLF line ends, no blank lines, and every line an id
  and one cell per model) are read column-wise with identical results
  and messages, in blocks of whole lines of about 64 KB, so each pass's
  temporaries are one block's: stages of 1 to 18 ASCII digits in numpy
  passes, each over one contiguous row of a block's (k+1) x lines table
  of commas and line ends, written into a column-major stage matrix; any
  other cell through int() one at a time. Their ids go to the dataset as
  byte ranges of the file, and a string is made only for an id that is
  read (a message, or ``row_ids``). A file with an id that starts or ends
  with a byte that may be whitespace (ASCII up to the space, or any
  non-ASCII byte), or that is empty, is not plain. csv.reader reads every
  other file.

* Reports: either a human-readable table ("table") or JSON
  ("structured"); both carry the same fields, and the JSON form
  round-trips through a parser. Output is deterministic, so identical
  inputs (and seed) give byte-identical reports.

Exit status: 0 on success, 1 on a statistical refusal (for example a
zero-variance model), 2 on an input error or when memory runs out.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from collections.abc import Iterable, Iterator, Sequence
from contextlib import contextmanager
from dataclasses import asdict
from typing import Any

import numpy as np

from .domain import AdoptionDataset, ModelSpec, PmfSpec, StudySpec, _plain_text, _pmf, _require_stages, _RowIds
from .errors import (
    AdoptionIndexError,
    InputError,
    InvalidLevel,
    RowArityMismatch,
    SpecMismatch,
    StatisticalRefusal,
    TooFewRows,
)
from .estimation import estimate_moments
from .index import SHAPE_PRESETS, global_index, surface_grid
from .inference import (
    TestOutcome,
    _interval_df,
    confidence_interval,
    index_variance,
    one_sample_test,
    two_sample_test,
)
from .simulation import STUDY_KINDS, SimulationPlan, run_study
from .tdist import SIDEDNESS_VALUES, _require_level


# every key a spec may hold; any other is refused, so a misspelt key cannot pass unnoticed
_SPEC_KEYS = ("models", "latent_correlation", "alternative_pmf")
_MODEL_KEYS = ("name", "m", "alpha", "beta", "weight", "add_zero_stage", "pmf")


def _known_keys(entry: dict[str, Any], keys: tuple[str, ...], where: str) -> None:
    """Refuse the first key of ``entry`` that is not one of ``keys``."""
    for key in entry:
        if key not in keys:
            raise InputError(f"{where}: unknown key {key!r}; expected one of {', '.join(keys)}")


def load_spec(path: str, presets: tuple[str, ...] = ()) -> dict[str, Any]:
    """Parse the JSON study spec; returns the spec plus simulation extras."""
    try:
        with open(path, encoding="utf-8") as handle:
            raw = json.load(handle)
    except OSError as exc:
        raise InputError(f"{path}: cannot read spec file ({exc})") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: spec file is not UTF-8 text ({exc.reason})") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(raw, dict) or "models" not in raw:
        raise InputError(f"{path}: spec must be a JSON object with a 'models' list")
    _known_keys(raw, _SPEC_KEYS, path)
    entries = raw["models"]
    if not isinstance(entries, list) or not entries:
        raise InputError(f"{path}: 'models' must be a non-empty list")
    if presets and len(presets) not in (1, len(entries)):
        raise InputError(
            f"{path}: {len(presets)} presets given for {len(entries)} models; "
            "give one preset or one per model"
        )
    models = []
    flags = []
    pmfs = []
    for pos, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise InputError(f"{path}: model {pos} must be an object")
        _known_keys(entry, _MODEL_KEYS, f"{path}: model {pos}")
        try:
            name = entry["name"]
            m = entry["m"]
        except KeyError as exc:
            raise InputError(f"{path}: model {pos} is missing {exc}") from exc
        alpha = entry.get("alpha", 1.0)
        beta = entry.get("beta", 1.0)
        if presets:
            preset = presets[0] if len(presets) == 1 else presets[pos]
            if preset not in SHAPE_PRESETS:
                raise InputError(
                    f"{path}: unknown preset {preset!r}; choose from {sorted(SHAPE_PRESETS)}"
                )
            alpha, beta = SHAPE_PRESETS[preset]
        flag = entry.get("add_zero_stage", False)
        if not isinstance(flag, bool):
            raise InputError(f"{path}: model {pos}: add_zero_stage must be true or false, got {flag!r}")
        with _naming(path):
            models.append(ModelSpec(name, m, alpha, beta, entry.get("weight")))
        flags.append(flag)
        pmfs.append(entry.get("pmf"))
    with _naming(path):
        spec = StudySpec(models)
    extras = {
        "offset_flags": tuple(flags),
        "pmfs": pmfs,
        "latent_correlation": raw.get("latent_correlation"),
        "alternative_pmf": raw.get("alternative_pmf"),
    }
    return {"spec": spec, **extras}


def load_dataset(path: str, spec: StudySpec, offset_flags: tuple[bool, ...]) -> AdoptionDataset:
    """Read a CSV data file into a dataset.

    Checks encoding, header, row widths and integer cells, adds the zero stage to flagged
    columns once checked on 0..m-1, and names the line of any dataset rule broken.
    A structurally plain file is read by ``_read_plain``; any other file,
    and every message about a malformed one but a bad stage cell, comes
    from ``_read_csv``.
    """
    try:
        with open(path, "rb") as handle:
            raw = handle.read()
    except OSError as exc:
        raise InputError(f"{path}: cannot read data file ({exc})") from exc
    table = _read_plain(path, raw, spec)
    ids, values, lines = _read_csv(path, raw, spec) if table is None else table
    # a flagged column is recorded on 0..m-1: check it as written, so the add cannot wrap
    tops = {j: m - 1 for j, (m, flag) in enumerate(zip(spec.stage_maxima, offset_flags)) if flag}
    with _naming(path, lines):
        _require_stages(values, spec, tops, ids, " before adding the zero stage")
        for j in tops:
            column = values[:, j]
            column += 1  # in place: ``values[:, j] += 1`` would also copy the column onto itself
        return AdoptionDataset(ids, values, spec)


# A stage cell of 1 to 18 ASCII digits fits int64 and equals int(cell); any other is odd.
_PLAIN_DIGITS = 18
# A plain file's body is parsed in blocks of whole lines of about this many bytes, so the
# passes' temporaries stay a few hundred kilobytes at any file size.
_BLOCK_BYTES = 1 << 16


def _read_plain(path: str, raw: bytes, spec: StudySpec) -> tuple[_RowIds, np.ndarray, range] | None:
    """Ids, stages and line numbers of a structurally plain file, from numpy passes over its bytes.

    A file is structurally plain when it holds no quote, NUL or carriage
    return outside a CRLF line end (read as LF), its first line is the
    header, every later line is an id and ``spec.k`` cells of at most
    ``csv.field_size_limit()`` bytes, each line ending in a newline (the
    last may lack it), and every id starts and ends with a byte in
    0x21-0x7f. ``csv.reader`` splits such a file exactly on commas and line
    ends, skips none of its lines (none is blank or whitespace only), and
    ``str.strip``, which also removes ``\x1c``-``\x1f`` and Unicode
    whitespace, keeps each id whole, so the ids are the file's byte ranges
    (``_RowIds``) as they are. Cells of 1 to 18 ASCII digits are read
    column-wise by ``_plain_stages``, a block of lines at a time; every
    other (odd) cell goes through ``int()``, a column at a time, as
    ``_read_csv`` converts them, and the first it refuses raises the same
    error. Returns None for any other file and for one whose bytes are not
    UTF-8 (checked a block at a time).
    """
    if b"\r" in raw:
        if raw.count(b"\r") != raw.count(b"\r\n"):
            return None  # csv.reader ends a line at a lone carriage return too
        raw = raw.replace(b"\r\n", b"\n")  # csv.reader counts either as one line end
    if b'"' in raw or b"\0" in raw:
        return None
    if not raw.endswith(b"\n"):
        raw += b"\n"
    head_end = raw.index(b"\n")
    try:
        header = raw[:head_end].decode("utf-8").split(",")
    except UnicodeDecodeError:
        return None
    # spec names are non-empty and stripped names match them, so the header is not blank
    if head_end > csv.field_size_limit() or tuple(c.strip() for c in header[1:]) != spec.names:
        return None
    stages = _plain_stages(raw, head_end + 1, spec.k)
    if stages is None:
        return None
    values, odd, (id_starts, id_stops), cell_bounds = stages
    ids = _RowIds(raw, id_starts, id_stops)
    lines = range(2, len(values) + 2)
    if odd.any():
        rows, cols = np.nonzero(odd)
        data = np.frombuffer(raw, np.uint8)
        cells = np.array(_plain_text(data, *cell_bounds).split(",")[1:], dtype=object)
        for j, name in enumerate(spec.names):
            at = np.flatnonzero(cols == j)
            values[rows[at], j] = _int64_cells(path, name, rows[at], cells[at], ids, lines)
    return ids, values, lines


def _plain_stages(
    raw: bytes, begin: int, k: int
) -> tuple[np.ndarray, np.ndarray, tuple[np.ndarray, np.ndarray], np.ndarray] | None:
    """The stages of the lines of ``raw`` from offset ``begin`` on, which end in a newline:
    the stage matrix with its odd cells left unread, the mask of odd cells, the byte ranges
    in ``raw`` of every id, and the ranges of every odd cell with the comma before it, in
    file order (a 2 x c array); None if a line is not an id and ``k`` cells of at most
    ``csv.field_size_limit()`` bytes, if an id starts or ends with a byte of at most 0x20
    or at least 0x80 (an empty id ends with the newline before it), or if a block of a file
    not all ASCII is not UTF-8.

    The lines are read in blocks that end at the first line end at or after
    ``_BLOCK_BYTES`` bytes. In each, the separators (each line's k commas and its
    line end) are held as a (k+1, lines) table, one contiguous row per separator,
    so that every pass over a column of cells reads contiguous memory, and the
    block's stages and odd mask are written into columns of (k, n) arrays: the
    stage matrix and the odd mask are their (n, k) transposes."""
    n = raw.count(b"\n", begin)
    values, odd = np.zeros((k, n), np.int64), np.empty((k, n), bool)
    id_starts, id_stops = np.empty(n, np.int64), np.empty(n, np.int64)
    odd_bounds = [np.empty((2, 0), np.int64)]
    limit = csv.field_size_limit()
    utf8 = not raw.isascii()
    lo, row = begin, 0
    while lo < len(raw):
        hi = raw.find(b"\n", lo + _BLOCK_BYTES) + 1 or len(raw)
        if utf8:  # a block ends at a line end, so no character spans two blocks
            try:
                str(memoryview(raw)[lo:hi], "utf-8")
            except UnicodeDecodeError:
                return None  # csv.reader reports the first byte that is not UTF-8
        block = np.frombuffer(raw, np.uint8, hi - lo, lo)
        flat = np.flatnonzero((block == ord(",")) | (block == ord("\n")))
        if flat.size % (k + 1):
            return None
        seps = np.ascontiguousarray(flat.reshape(-1, k + 1).T)
        del flat  # the table is a copy: free the flat array before the passes below
        kinds = block[seps]
        if not ((kinds[:k] == ord(",")).all() and (kinds[k] == ord("\n")).all()):
            return None
        here = slice(row, row + seps.shape[1])
        starts_here = np.zeros(seps.shape[1], np.int64)
        starts_here[1:] = seps[k, :-1] + 1
        starts, ends = seps[:k], seps[1:]  # each cell's comma before it and the separator after it
        widths = ends - starts
        widths -= 1
        if max(widths.max(initial=0), (seps[0] - starts_here).max(initial=0)) > limit:
            return None
        # an empty id's last byte, at -1, is the newline that ends the block or the line before
        edges = np.concatenate([block[starts_here], block[seps[0] - 1]])
        if ((edges <= 0x20) | (edges >= 0x80)).any():
            return None  # csv.reader strips such an id, or skips its line if it is whitespace only
        id_starts[here] = starts_here + lo
        id_stops[here] = seps[0] + lo
        block_values, block_odd = values[:, here], odd[:, here]
        np.greater(widths, _PLAIN_DIGITS, out=block_odd)
        # Horner's rule, first digit first; bytes left of a narrow cell count as 0.
        # Both updates are in place on int64, so no promotion rule can narrow them.
        # The d = 0 pass always runs: it reads the comma left of an empty cell, so marks it odd.
        for d in reversed(range(min(int(widths.max(initial=1)), _PLAIN_DIGITS))):
            digits = block[np.maximum(ends - (d + 1), 0)] - np.uint8(ord("0"))
            if d:
                digits[widths <= d] = 0
            block_odd |= digits > 9
            block_values *= 10
            block_values += digits
        if block_odd.any():
            # indexing the (lines, k) transposes takes the odd cells in file order
            at = block_odd.T
            odd_bounds.append(np.stack([starts.T[at], ends.T[at]]) + lo)
        lo, row = hi, here.stop
    return values.T, odd.T, (id_starts, id_stops), np.concatenate(odd_bounds, axis=1)


def _read_csv(path: str, raw: bytes, spec: StudySpec) -> tuple[list[str], np.ndarray, list[int]]:
    """Ids, stages and physical line numbers of any data file, through ``csv.reader``.

    Blank lines are skipped and whitespace around cells is stripped. This
    is the reference for ``_read_plain`` and writes every message about a
    malformed file but the bad-cell one, which both readers share.
    """
    rows: list[list[str]] = []
    lines: list[int] = []
    # decoded lazily, as reading the file in text mode would
    reader = csv.reader(io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8", newline=""))
    try:
        kept = (row for row in reader if "".join(row).strip())
        header = next(kept, None)
        if header is None:
            raise TooFewRows(f"{path}: data file is empty")
        names = tuple(cell.strip() for cell in header[1:])
        if names != spec.names:
            raise SpecMismatch(
                f"{path}: data columns {names} do not match spec models {spec.names}"
            )
        for row in kept:
            if len(row) != len(header):
                raise RowArityMismatch(
                    f"{path}: row {row[0].strip()!r} (line {reader.line_num}) "
                    f"has {len(row) - 1} values, expected {spec.k}"
                )
            rows.append(row)
            lines.append(reader.line_num)
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: data file is not UTF-8 text ({exc.reason})") from exc
    except csv.Error as exc:
        raise InputError(f"{path}: line {reader.line_num}: {exc}") from exc
    cells = np.array(rows, dtype=object).reshape(len(rows), spec.k + 1)
    ids = [cell.strip() for cell in cells[:, 0]]
    values = np.stack([_int64_cells(path, name, range(len(rows)), cells[:, j + 1], ids, lines)
                       for j, name in enumerate(spec.names)], axis=1)
    return ids, values, lines


def _int64_cells(path: str, name: str, rows: Iterable[int], cells: np.ndarray,
                 ids: Sequence[str], lines: Sequence[int]) -> np.ndarray:
    """``cells`` (an object array of str) of column ``name``, rows ``rows``, as int64 by int();
    an error names the first that is not a 64-bit integer, with its row's id, already stripped, and line."""
    try:
        return cells.astype(np.int64)  # an object array converts cell by cell with int()
    except (ValueError, OverflowError):
        pass
    for row, cell in zip(rows, cells):
        try:
            if -(2**63) <= int(cell) < 2**63:
                continue
        except ValueError:
            pass
        raise InputError(f"{path}: row {ids[row]!r} (line {lines[row]}): "
                         f"stage for {name!r} must be a 64-bit integer, got {cell.strip()!r}")


@contextmanager
def _naming(path: str, lines: Sequence[int] | None = None) -> Iterator[None]:
    """Prefix an input error raised in the block with its file and the line of its row."""
    try:
        yield
    except InputError as exc:
        line = "" if exc.row is None or lines is None else f"line {lines[exc.row]}: "
        raise type(exc)(f"{path}: {line}{exc}", row=exc.row) from exc


# --- commands -----------------------------------------------------------------


def _load(args: argparse.Namespace, *paths: str) -> tuple[StudySpec, list[AdoptionDataset]]:
    """Check ``--alpha-level``, then load the spec and each data file in turn."""
    _require_level(args.alpha_level, "--alpha-level")
    loaded = load_spec(args.spec)
    spec = loaded["spec"]
    return spec, [load_dataset(path, spec, loaded["offset_flags"]) for path in paths]


def _report(args: argparse.Namespace, spec: StudySpec, inputs: dict[str, Any],
            results: dict[str, Any], notes: Iterable[str] = ()) -> dict[str, Any]:
    """A command's report: the spec path, ``inputs``, the spec's models, then results and notes."""
    return {
        "command": args.command,
        "inputs": {"spec": args.spec, **inputs, "models": [asdict(mod) for mod in spec.models]},
        "results": results,
        "notes": list(notes),
    }


def _test_report(args: argparse.Namespace, spec: StudySpec, inputs: dict[str, Any],
                 outcome: TestOutcome) -> dict[str, Any]:
    results = asdict(outcome)
    note = results.pop("note")
    return _report(args, spec, inputs, results, [note] if note else [])


def cmd_compute(args: argparse.Namespace) -> dict[str, Any]:
    spec, (dataset,) = _load(args, args.data)
    level = 1.0 - args.alpha_level
    if 0.5 * (1.0 + level) == 1.0:  # the interval's quantile level, as confidence_interval forms it
        raise InvalidLevel(f"--alpha-level {args.alpha_level!r} is too small: the interval's "
                           "quantile level 1 - alpha/2 rounds to 1 in floating point")
    moments = estimate_moments(dataset)
    index = global_index(moments.scores, spec)
    variance = index_variance(moments, spec)
    df = _interval_df(dataset.n, spec.k)
    ci = confidence_interval(index, variance, level, df)
    report = _report(args, spec, {"data": args.data, "n": dataset.n}, {
        "scores": dict(zip(spec.names, moments.scores.scores)),
        "sub_indices": dict(zip(spec.names, index.sub_indices)),
        "index": index.value,
        "variance": variance.value,
        "interval": asdict(ci),
    })
    report["inputs"]["alpha_level"] = args.alpha_level  # the table lists it after the models
    return report


def cmd_test_one(args: argparse.Namespace) -> dict[str, Any]:
    spec, (dataset,) = _load(args, args.data)
    with _naming(args.data):  # a --row the file lacks
        outcome = one_sample_test(
            dataset, row_id=args.row, sidedness=args.sided, significance=args.alpha_level
        )
    return _test_report(args, spec, {"data": args.data, "row": args.row}, outcome)


def cmd_test_two(args: argparse.Namespace) -> dict[str, Any]:
    spec, datasets = _load(args, args.data_a, args.data_b)
    outcome = two_sample_test(*datasets, sidedness=args.sided, significance=args.alpha_level)
    return _test_report(args, spec, {"data_a": args.data_a, "data_b": args.data_b}, outcome)


def _pmf_spec(spec: StudySpec, field: str, rows: object, correlation: object) -> PmfSpec:
    """The spec file's ``field`` ("pmf" or "alternative_pmf") as a PmfSpec; errors name the field and model."""
    if not isinstance(rows, list) or len(rows) != spec.k:
        raise InputError(f"{field} must be a list of {spec.k} pmfs, one per model")
    for row, model in zip(rows, spec.models):
        what = f"{field} of model {model.name!r}"
        if len(_pmf(row, what)) != model.m + 1:
            raise SpecMismatch(f"{what} has {len(row)} stages, not the model's {model.m + 1} (0 to {model.m})")
    return PmfSpec(rows, latent_correlation=correlation)


def cmd_simulate(args: argparse.Namespace) -> dict[str, Any]:
    loaded = load_spec(args.spec)
    spec = loaded["spec"]
    correlation = loaded["latent_correlation"]
    alternative = loaded["alternative_pmf"] if args.study == "size" else None
    with _naming(args.spec):
        missing = [n for n, p in zip(spec.names, loaded["pmfs"]) if p is None]
        if missing:
            raise InputError(f"simulate needs a 'pmf' for every model; missing for {missing}")
        pmf = _pmf_spec(spec, "pmf", loaded["pmfs"], correlation)
        pmf_alt = None if alternative is None else _pmf_spec(spec, "alternative_pmf", alternative, correlation)
    plan = SimulationPlan(
        pmf=pmf,
        spec=spec,
        n=args.n,
        replications=args.replications,
        seed=args.seed,
        study=args.study,
        pmf_alternative=pmf_alt,
    )
    results = asdict(run_study(plan))
    notes = results.pop("notes")
    inputs = {key: results.pop(key) for key in ("study", "n", "replications", "seed")}
    return _report(args, spec, inputs, results, notes)


def cmd_surface(args: argparse.Namespace) -> dict[str, Any]:
    presets = tuple(p.strip() for p in args.preset.split(",")) if args.preset else ()
    spec = load_spec(args.spec, presets=presets)["spec"]
    rows = surface_grid(spec, args.resolution)
    inputs = {"resolution": args.resolution, "presets": presets}
    return _report(args, spec, inputs, {"header": ["S_1", "S_2", "I"], "rows": rows})


# --- rendering ----------------------------------------------------------------


def render_structured(report: dict[str, Any]) -> str:
    """Strict JSON: a metric that is undefined (a NaN or infinite float) is written as null."""
    return json.dumps(_finite_or_null(report), sort_keys=True, indent=2, allow_nan=False) + "\n"


def _finite_or_null(value: Any) -> Any:
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {key: _finite_or_null(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(item) for item in value]
    return value


def _fmt(value: Any) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:.10g}"
    return str(value)


def _model_table(models: list[dict[str, Any]]) -> list[str]:
    headers = ("name", "m", "alpha", "beta", "weight")
    rows = [tuple(_fmt(mod[h]) for h in headers) for mod in models]
    widths = [max(len(h), *(len(row[i]) for row in rows)) for i, h in enumerate(headers)]
    lines = ["  " + "  ".join(h.ljust(w) for h, w in zip(headers, widths))]
    for row in rows:
        lines.append("  " + "  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return lines


def render_table(report: dict[str, Any]) -> str:
    lines = [f"command: {report['command']}"]
    inputs = report["inputs"]
    for key, value in inputs.items():
        if key == "models":
            lines.append("models:")
            lines.extend(_model_table(value))
        elif isinstance(value, (list, tuple)):
            lines.append(f"{key}: {', '.join(_fmt(v) for v in value)}")
        else:
            lines.append(f"{key}: {_fmt(value)}")
    results = report["results"]
    if report["command"] == "surface":
        lines.append("grid:")
        lines.append(",".join(results["header"]))
        for row in results["rows"]:
            lines.append(",".join(_fmt(v) for v in row))
    else:
        lines.append("results:")
        for key, value in results.items():
            if isinstance(value, dict):
                lines.append(f"  {key}:")
                for sub_key, sub_value in value.items():
                    lines.append(f"    {sub_key}: {_fmt(sub_value)}")
            elif isinstance(value, (list, tuple)):
                lines.append(f"  {key}: {', '.join(_fmt(v) for v in value)}")
            else:
                lines.append(f"  {key}: {_fmt(value)}")
    for note in report.get("notes", []):
        lines.append(f"note: {note}")
    return "\n".join(lines) + "\n"


def emit(report: dict[str, Any], args: argparse.Namespace) -> str:
    text = render_structured(report) if args.format == "structured" else render_table(report)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            raise InputError(f"{args.out}: cannot write report ({exc})") from exc
    return text


# --- argument parsing -----------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adoptindex",
        description=(
            "Composite technology adoption index from ordinal survey data: "
            "estimation, hypothesis tests, surface grids, and Monte Carlo "
            "validation of the asymptotics."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, run, summary: str, *, alpha: bool = False, sided: bool = False):
        p = sub.add_parser(name, help=summary)
        p.set_defaults(run=run)
        p.add_argument("--spec", required=True, help="study spec JSON file")
        if alpha:
            p.add_argument("--alpha-level", type=float, default=0.05, dest="alpha_level")
        if sided:
            p.add_argument("--sided", choices=SIDEDNESS_VALUES, default="two")
        p.add_argument("--out", default=None, help="also write the report to this file")
        p.add_argument("--format", choices=("table", "structured"), default="table")
        return p

    p = command("compute", cmd_compute, "index, variance, and confidence interval", alpha=True)
    p.add_argument("--data", required=True)

    p = command("test-one", cmd_test_one, "leave-one-out test of one corporation",
                alpha=True, sided=True)
    p.add_argument("--data", required=True)
    p.add_argument("--row", required=True)

    p = command("test-two", cmd_test_two, "two-industry comparison", alpha=True, sided=True)
    p.add_argument("--data-a", required=True, dest="data_a")
    p.add_argument("--data-b", required=True, dest="data_b")

    p = command("simulate", cmd_simulate, "Monte Carlo validation study")
    p.add_argument("--study", required=True, choices=STUDY_KINDS)
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--replications", required=True, type=int)
    p.add_argument("--seed", required=True, type=int)

    p = command("surface", cmd_surface, "global index grid over two models")
    p.add_argument("--resolution", required=True, type=int)
    p.add_argument(
        "--preset",
        default=None,
        help="shape preset(s), e.g. 'linear' or 's-shaped,convex'",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        text = emit(args.run(args), args)
    except StatisticalRefusal as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (AdoptionIndexError, MemoryError) as exc:  # numpy's MemoryError names its allocation
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2
    sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())

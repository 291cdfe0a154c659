"""Command-line surface: ingestion, dispatch, and report emission.

Formats:

* Study spec: a JSON file with a "models" list. Each model carries
  name, m, alpha, beta, an optional weight (all or none), an optional
  "add_zero_stage" flag (the recorded lowest stage does not mean "no
  adoption", so every observed value is shifted up by one), and an
  optional "pmf" used by the simulate command. Optional top-level keys:
  "latent_correlation" (k x k matrix) and "alternative_pmf" (list of
  per-model pmfs for the size study's shifted alternative).

* Data: CSV with a header row; first column is the corporation id, the
  remaining columns must be named exactly like the spec models, in
  order. Cells are integer stages.

* Reports: either a human-readable table ("table") or JSON
  ("structured"); both carry the same fields, and the JSON form
  round-trips through a parser. Output is deterministic, so identical
  inputs (and seed) give byte-identical reports.

Exit status: 0 on success, 1 on a statistical refusal (for example a
zero-variance model), 2 on an input error.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import dataclass
from typing import Any

from .domain import ModelSpec, PmfSpec, StudySpec, shift_stages, validate_dataset
from .errors import (
    AdoptionIndexError,
    InputError,
    InsufficientDf,
    InvalidLevel,
    RowArityMismatch,
    SpecMismatch,
    StatisticalRefusal,
    TooFewRows,
)
from .estimation import estimate_moments
from .index import SHAPE_PRESETS, global_index, surface_grid
from .inference import confidence_interval, index_variance, one_sample_test, two_sample_test
from .simulation import STUDY_KINDS, SimulationPlan, run_study


@dataclass(frozen=True)
class RunConfig:
    """Everything a single command invocation needs."""

    command: str
    spec_path: str
    data_paths: tuple[str, ...] = ()
    row_id: str | None = None
    significance: float = 0.05
    sidedness: str = "two"
    resolution: int = 2
    study: str | None = None
    n: int | None = None
    replications: int | None = None
    seed: int | None = None
    presets: tuple[str, ...] = ()
    out_path: str | None = None
    out_format: str = "table"

    def __post_init__(self) -> None:
        if not 0.0 < self.significance < 1.0:
            raise InvalidLevel(
                f"--alpha-level must lie in (0, 1), got {self.significance}"
            )


def _fail(message: str) -> InputError:
    return InputError(message)


def load_spec(path: str, presets: tuple[str, ...] = ()) -> dict[str, Any]:
    """Parse the JSON study spec; returns the spec plus simulation extras."""
    try:
        with open(path, encoding="utf-8") as handle:
            raw = json.load(handle)
    except OSError as exc:
        raise _fail(f"{path}: cannot read spec file ({exc})") from exc
    except json.JSONDecodeError as exc:
        raise _fail(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(raw, dict) or "models" not in raw:
        raise _fail(f"{path}: spec must be a JSON object with a 'models' list")
    entries = raw["models"]
    if not isinstance(entries, list) or not entries:
        raise _fail(f"{path}: 'models' must be a non-empty list")
    if presets and len(presets) not in (1, len(entries)):
        raise _fail(
            f"{len(presets)} presets given for {len(entries)} models; "
            "give one preset or one per model"
        )
    models = []
    flags = []
    pmfs = []
    for pos, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise _fail(f"{path}: model {pos} must be an object")
        try:
            name = entry["name"]
            m = entry["m"]
        except KeyError as exc:
            raise _fail(f"{path}: model {pos} is missing {exc}") from exc
        alpha = entry.get("alpha", 1.0)
        beta = entry.get("beta", 1.0)
        if presets:
            preset = presets[0] if len(presets) == 1 else presets[pos]
            if preset not in SHAPE_PRESETS:
                raise _fail(
                    f"unknown preset {preset!r}; choose from {sorted(SHAPE_PRESETS)}"
                )
            alpha, beta = SHAPE_PRESETS[preset]
        flag = entry.get("add_zero_stage", False)
        if not isinstance(flag, bool):
            raise _fail(f"{path}: model {pos}: add_zero_stage must be true or false, got {flag!r}")
        models.append(ModelSpec(str(name), m, alpha, beta, entry.get("weight")))
        flags.append(flag)
        pmfs.append(entry.get("pmf"))
    spec = StudySpec(models)
    extras = {
        "offset_flags": tuple(flags),
        "pmfs": pmfs,
        "latent_correlation": raw.get("latent_correlation"),
        "alternative_pmf": raw.get("alternative_pmf"),
    }
    return {"spec": spec, **extras}


def load_dataset(path: str, spec: StudySpec, offset_flags: tuple[bool, ...]):
    """Read a CSV data file and validate it against the spec."""
    try:
        with open(path, newline="", encoding="utf-8") as handle:
            reader = csv.reader(handle)
            rows = [row for row in reader if row and any(cell.strip() for cell in row)]
    except OSError as exc:
        raise _fail(f"{path}: cannot read data file ({exc})") from exc
    if not rows:
        raise TooFewRows(f"{path}: data file is empty")
    header, *body = rows
    got_names = tuple(cell.strip() for cell in header[1:])
    if got_names != spec.names:
        raise SpecMismatch(
            f"{path}: data columns {got_names} do not match spec models {spec.names}"
        )
    raw_rows = []
    for line_no, row in enumerate(body, start=2):
        row_id, *cells = [cell.strip() for cell in row]
        if not row_id:
            raise _fail(f"{path}: line {line_no}: empty corporation id")
        if len(cells) != spec.k:
            raise RowArityMismatch(
                f"{path}: row {row_id!r} (line {line_no}) has {len(cells)} values, expected {spec.k}"
            )
        parsed = []
        for name, cell in zip(spec.names, cells):
            if cell == "":
                raise _fail(f"{path}: row {row_id!r} (line {line_no}): missing value for {name!r}")
            try:
                parsed.append(int(cell))
            except ValueError as exc:
                raise _fail(
                    f"{path}: row {row_id!r} (line {line_no}): "
                    f"stage for {name!r} must be an integer, got {cell!r}"
                ) from exc
        raw_rows.append((row_id, tuple(parsed)))
    if any(offset_flags):
        raw_rows = shift_stages(raw_rows, offset_flags)
    try:
        return validate_dataset(raw_rows, spec)
    except AdoptionIndexError as exc:
        raise type(exc)(f"{path}: {exc}") from exc


def _build_pmf_spec(loaded: dict[str, Any], which: str = "pmfs") -> PmfSpec:
    spec: StudySpec = loaded["spec"]
    if which == "pmfs":
        pmfs = loaded["pmfs"]
        if any(p is None for p in pmfs):
            missing = [n for n, p in zip(spec.names, pmfs) if p is None]
            raise _fail(f"simulate needs a 'pmf' for every model; missing for {missing}")
    else:
        pmfs = loaded["alternative_pmf"]
        if pmfs is None:
            raise _fail("spec file has no 'alternative_pmf' entry")
    return PmfSpec(pmfs, latent_correlation=loaded["latent_correlation"])


def _spec_fields(spec: StudySpec) -> list[dict[str, Any]]:
    return [
        {
            "name": mod.name,
            "m": mod.m,
            "alpha": mod.alpha,
            "beta": mod.beta,
            "weight": mod.weight,
        }
        for mod in spec.models
    ]


# --- commands -----------------------------------------------------------------


def cmd_compute(config: RunConfig) -> dict[str, Any]:
    loaded = load_spec(config.spec_path)
    spec = loaded["spec"]
    dataset = load_dataset(config.data_paths[0], spec, loaded["offset_flags"])
    moments = estimate_moments(dataset)
    index = global_index(moments.scores, spec)
    variance = index_variance(moments, spec)
    level = 1.0 - config.significance
    df = dataset.n - spec.k - 1
    if df < 1:
        raise InsufficientDf(
            f"confidence interval needs n - k - 1 >= 1, got n={dataset.n}, k={spec.k}"
        )
    ci = confidence_interval(index, variance, level, df)
    return {
        "command": "compute",
        "inputs": {
            "spec": config.spec_path,
            "data": config.data_paths[0],
            "n": dataset.n,
            "models": _spec_fields(spec),
            "alpha_level": config.significance,
        },
        "results": {
            "scores": {n: s for n, s in zip(spec.names, moments.scores.scores)},
            "sub_indices": {n: v for n, v in zip(spec.names, index.sub_indices)},
            "index": index.value,
            "variance": variance.value,
            "interval": {
                "lower": ci.lower,
                "upper": ci.upper,
                "level": ci.level,
                "df": ci.df,
                "clamped": ci.clamped,
            },
        },
        "notes": [],
    }


def _test_report(command: str, outcome, extra_inputs: dict[str, Any]) -> dict[str, Any]:
    return {
        "command": command,
        "inputs": extra_inputs,
        "results": {
            "statistic": outcome.statistic,
            "df": outcome.df,
            "p_value": outcome.p_value,
            "sidedness": outcome.sidedness,
            "significance": outcome.significance,
            "reject": outcome.reject,
            "indices": list(outcome.indices),
            "variances": list(outcome.variances),
            "sample_sizes": list(outcome.sample_sizes),
        },
        "notes": [outcome.note] if outcome.note else [],
    }


def cmd_test_one(config: RunConfig) -> dict[str, Any]:
    loaded = load_spec(config.spec_path)
    spec = loaded["spec"]
    dataset = load_dataset(config.data_paths[0], spec, loaded["offset_flags"])
    if config.row_id is None:
        raise _fail("test-one needs --row")
    outcome = one_sample_test(
        dataset,
        spec,
        row_id=config.row_id,
        sidedness=config.sidedness,
        significance=config.significance,
    )
    return _test_report(
        "test-one",
        outcome,
        {
            "spec": config.spec_path,
            "data": config.data_paths[0],
            "row": config.row_id,
            "models": _spec_fields(spec),
        },
    )


def cmd_test_two(config: RunConfig) -> dict[str, Any]:
    loaded = load_spec(config.spec_path)
    spec = loaded["spec"]
    flags = loaded["offset_flags"]
    dataset_a = load_dataset(config.data_paths[0], spec, flags)
    dataset_b = load_dataset(config.data_paths[1], spec, flags)
    outcome = two_sample_test(
        dataset_a,
        dataset_b,
        spec,
        sidedness=config.sidedness,
        significance=config.significance,
    )
    return _test_report(
        "test-two",
        outcome,
        {
            "spec": config.spec_path,
            "data_a": config.data_paths[0],
            "data_b": config.data_paths[1],
            "models": _spec_fields(spec),
        },
    )


def cmd_simulate(config: RunConfig) -> dict[str, Any]:
    loaded = load_spec(config.spec_path)
    spec = loaded["spec"]
    pmf = _build_pmf_spec(loaded)
    pmf_alt = None
    if config.study == "size" and loaded["alternative_pmf"] is not None:
        pmf_alt = _build_pmf_spec(loaded, which="alternative_pmf")
    if config.n is None or config.replications is None or config.seed is None:
        raise _fail("simulate needs --n, --replications, and --seed")
    plan = SimulationPlan(
        pmf=pmf,
        spec=spec,
        n=config.n,
        replications=config.replications,
        seed=config.seed,
        study=config.study or "",
        pmf_alternative=pmf_alt,
    )
    report = run_study(plan)
    return {
        "command": "simulate",
        "inputs": {
            "spec": config.spec_path,
            "study": report.study,
            "n": report.n,
            "replications": report.replications,
            "seed": report.seed,
            "models": _spec_fields(spec),
        },
        "results": {
            "metrics": dict(report.metrics),
            "checks": dict(report.checks),
            "passed": report.passed,
        },
        "notes": list(report.notes),
    }


def cmd_surface(config: RunConfig) -> dict[str, Any]:
    loaded = load_spec(config.spec_path, presets=config.presets)
    spec = loaded["spec"]
    rows = surface_grid(spec, config.resolution)
    return {
        "command": "surface",
        "inputs": {
            "spec": config.spec_path,
            "resolution": config.resolution,
            "presets": list(config.presets),
            "models": _spec_fields(spec),
        },
        "results": {
            "header": ["S_1", "S_2", "I"],
            "rows": [list(row) for row in rows],
        },
        "notes": [],
    }


# --- rendering ----------------------------------------------------------------


def render_structured(report: dict[str, Any]) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


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
        elif isinstance(value, list):
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
            elif isinstance(value, list):
                lines.append(f"  {key}: {', '.join(_fmt(v) for v in value)}")
            else:
                lines.append(f"  {key}: {_fmt(value)}")
    for note in report.get("notes", []):
        lines.append(f"note: {note}")
    return "\n".join(lines) + "\n"


def emit(report: dict[str, Any], config: RunConfig) -> str:
    text = (
        render_structured(report)
        if config.out_format == "structured"
        else render_table(report)
    )
    if config.out_path:
        with open(config.out_path, "w", encoding="utf-8") as handle:
            handle.write(text)
    return text


# --- argument parsing -----------------------------------------------------------


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--spec", required=True, help="study spec JSON file")
    parser.add_argument("--alpha-level", type=float, default=0.05, dest="alpha_level")
    parser.add_argument("--sided", choices=("two", "greater", "less"), default="two")
    parser.add_argument("--out", default=None, help="also write the report to this file")
    parser.add_argument("--format", choices=("table", "structured"), default="table")


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

    p = sub.add_parser("compute", help="index, variance, and confidence interval")
    _add_common(p)
    p.add_argument("--data", required=True)

    p = sub.add_parser("test-one", help="leave-one-out test of one corporation")
    _add_common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--row", required=True)

    p = sub.add_parser("test-two", help="two-industry comparison")
    _add_common(p)
    p.add_argument("--data-a", required=True, dest="data_a")
    p.add_argument("--data-b", required=True, dest="data_b")

    p = sub.add_parser("simulate", help="Monte Carlo validation study")
    _add_common(p)
    p.add_argument("--study", required=True, choices=STUDY_KINDS)
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--replications", required=True, type=int)
    p.add_argument("--seed", required=True, type=int)

    p = sub.add_parser("surface", help="global index grid over two models")
    _add_common(p)
    p.add_argument("--resolution", required=True, type=int)
    p.add_argument(
        "--preset",
        default=None,
        help="shape preset(s), e.g. 'linear' or 's-shaped,convex'",
    )
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    data_paths: tuple[str, ...] = ()
    if getattr(args, "data", None):
        data_paths = (args.data,)
    elif getattr(args, "data_a", None):
        data_paths = (args.data_a, args.data_b)
    presets: tuple[str, ...] = ()
    if getattr(args, "preset", None):
        presets = tuple(p.strip() for p in args.preset.split(","))
    return RunConfig(
        command=args.command,
        spec_path=args.spec,
        data_paths=data_paths,
        row_id=getattr(args, "row", None),
        significance=args.alpha_level,
        sidedness=args.sided,
        resolution=getattr(args, "resolution", 2),
        study=getattr(args, "study", None),
        n=getattr(args, "n", None),
        replications=getattr(args, "replications", None),
        seed=getattr(args, "seed", None),
        presets=presets,
        out_path=args.out,
        out_format=args.format,
    )


COMMANDS = {
    "compute": cmd_compute,
    "test-one": cmd_test_one,
    "test-two": cmd_test_two,
    "simulate": cmd_simulate,
    "surface": cmd_surface,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = config_from_args(args)
        report = COMMANDS[args.command](config)
    except StatisticalRefusal as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except AdoptionIndexError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(emit(report, config))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Seeded input generator for the benchmark workloads (numpy only).

Every workload's inputs are a pure function of ``(workload, seed, smoke)``:
the same seed writes the same files and returns the same matrices. The
program under test only ever sees the files written here; the matrices
returned alongside them feed the oracles in ``oracle.py``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Full and smoke sizes. The full sizes make one ingest round a few seconds,
# one Monte Carlo round under a second and one leave-one-out block a
# fraction of a second on a 2-core machine, so a 20 s run holds enough
# rounds for steady medians.
SIZES = {
    False: {"ingest_rows": 100_000, "loo_rows": 2_000, "loo_block": 100,
            "mc": {"coverage": (500, 300), "size": (300, 200), "variance-ratio": (500, 300)}},
    True: {"ingest_rows": 300, "loo_rows": 60, "loo_block": 20,
           "mc": {"coverage": (60, 20), "size": (60, 20), "variance-ratio": (60, 20)}},
}

# The acceptance gate's specs and pmfs (tests/test_acceptance.py).
NONLINEAR_MODELS = [
    {"name": "A", "m": 5, "alpha": 1.0, "beta": 2.0},
    {"name": "B", "m": 5, "alpha": 2.0, "beta": 1.0},
]
NONLINEAR_PMFS = [
    [0.1, 0.15, 0.25, 0.25, 0.15, 0.1],
    [0.05, 0.15, 0.2, 0.3, 0.2, 0.1],
]
LINEAR_MODELS = [{"name": "A", "m": 5}, {"name": "B", "m": 5}]
UNIFORM_PMFS = [[1 / 6] * 6, [1 / 6] * 6]
LATENT_CORRELATION = [[1.0, 0.5], [0.5, 1.0]]

# Ingest: one linear, one s-shaped and one concave model; the concave one
# is recorded without its zero stage, so the CLI shifts it up by one.
INGEST_MODELS = [
    {"name": "TAM", "m": 5},
    {"name": "CMM", "m": 5, "alpha": 1.0, "beta": 3.0},
    {"name": "DIG", "m": 5, "alpha": 0.3, "beta": 1.0, "add_zero_stage": True},
]
LOO_MODELS = [
    {"name": "TAM", "m": 5},
    {"name": "CMM", "m": 6, "alpha": 1.0, "beta": 3.0},
]


@dataclass
class Inputs:
    """Paths handed to the worker plus what the oracles need."""

    workload: str
    job: dict
    matrices: dict


def _pmf(rng: np.random.Generator, stages: int) -> np.ndarray:
    # Dirichlet(4) keeps every stage well populated, so no column of a
    # generated sample is constant and no score sits on a boundary.
    return rng.dirichlet(np.full(stages, 4.0))


def _draw(rng: np.random.Generator, models: list[dict], n: int, pmfs) -> np.ndarray:
    """n x k recorded stages (before any zero-stage shift)."""
    columns = []
    for model, pmf in zip(models, pmfs):
        recorded_max = model["m"] - 1 if model.get("add_zero_stage") else model["m"]
        columns.append(rng.choice(recorded_max + 1, size=n, p=pmf))
    return np.column_stack(columns).astype(np.int64)


def _write_csv(path: Path, names: list[str], ids: list[str], recorded: np.ndarray) -> None:
    lines = ["corporation," + ",".join(names)]
    lines.extend(
        rid + "," + ",".join(map(str, row)) for rid, row in zip(ids, recorded.tolist())
    )
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _spec_file(path: Path, models: list[dict], **extra) -> None:
    path.write_text(json.dumps({"models": models, **extra}, indent=1), encoding="utf-8")


def _shifted(models: list[dict], recorded: np.ndarray) -> np.ndarray:
    flags = np.array([bool(m.get("add_zero_stage")) for m in models], dtype=np.int64)
    return recorded + flags


def make_ingest(seed: int, work: Path, smoke: bool) -> Inputs:
    n = SIZES[smoke]["ingest_rows"]
    rng = np.random.default_rng([seed, 1])
    pmfs = [
        _pmf(rng, (m["m"] if m.get("add_zero_stage") else m["m"] + 1)) for m in INGEST_MODELS
    ]
    names = [m["name"] for m in INGEST_MODELS]
    # Both industries come from the same population, so the two-sample
    # statistic is O(1) and its p-value is a non-trivial number to check.
    rec_a = _draw(rng, INGEST_MODELS, n, pmfs)
    rec_b = _draw(rng, INGEST_MODELS, n, pmfs)
    ids_a = [f"a{i:07d}" for i in range(n)]
    ids_b = [f"b{i:07d}" for i in range(n)]
    test_row = int(rng.integers(n))
    bad_column = int(rng.integers(len(names)))

    spec, a, b, bad = (work / f for f in ("ingest.json", "a.csv", "b.csv", "a_bad.csv"))
    _spec_file(spec, INGEST_MODELS)
    _write_csv(a, names, ids_a, rec_a)
    _write_csv(b, names, ids_b, rec_b)
    text = a.read_text(encoding="utf-8").rstrip("\n").split("\n")
    cells = text[-1].split(",")
    cells[1 + bad_column] = f"{rec_a[-1, bad_column]}.5"
    text[-1] = ",".join(cells)
    bad.write_text("\n".join(text) + "\n", encoding="utf-8")

    job = {
        "spec": str(spec), "a": str(a), "b": str(b), "bad": str(bad),
        "row": ids_a[test_row],
    }
    matrices = {
        "models": INGEST_MODELS, "a": _shifted(INGEST_MODELS, rec_a),
        "b": _shifted(INGEST_MODELS, rec_b), "test_row": test_row,
        "bad_line": n + 1, "bad_row": ids_a[-1], "bad_model": names[bad_column],
        "bad_path": str(bad),
    }
    return Inputs("ingest", job, matrices)


def make_montecarlo(seed: int, work: Path, smoke: bool) -> Inputs:
    sizes = SIZES[smoke]["mc"]
    studies = [
        {"study": "coverage", "models": NONLINEAR_MODELS, "pmfs": NONLINEAR_PMFS,
         "latent_correlation": None},
        {"study": "size", "models": LINEAR_MODELS, "pmfs": UNIFORM_PMFS,
         "latent_correlation": None},
        {"study": "variance-ratio", "models": NONLINEAR_MODELS, "pmfs": NONLINEAR_PMFS,
         "latent_correlation": LATENT_CORRELATION},
    ]
    for study in studies:
        study["n"], study["replications"] = sizes[study["study"]]
        study["seed"] = seed
    path = work / "montecarlo.json"
    path.write_text(json.dumps({"studies": studies}, indent=1), encoding="utf-8")
    return Inputs("montecarlo", {"studies": str(path)}, {"studies": studies})


def make_loo(seed: int, work: Path, smoke: bool) -> Inputs:
    n = SIZES[smoke]["loo_rows"]
    rng = np.random.default_rng([seed, 3])
    pmfs = [_pmf(rng, m["m"] + 1) for m in LOO_MODELS]
    recorded = _draw(rng, LOO_MODELS, n, pmfs)
    ids = [f"corp-{i:05d}" for i in range(n)]
    spec, data = work / "loo.json", work / "industry.csv"
    _spec_file(spec, LOO_MODELS)
    _write_csv(data, [m["name"] for m in LOO_MODELS], ids, recorded)
    job = {"spec": str(spec), "data": str(data), "block": SIZES[smoke]["loo_block"]}
    return Inputs("loo-scan", job, {"models": LOO_MODELS, "x": recorded, "ids": ids})


MAKERS = {"ingest": make_ingest, "montecarlo": make_montecarlo, "loo-scan": make_loo}


def make(workload: str, seed: int, work: Path, smoke: bool = False) -> Inputs:
    work.mkdir(parents=True, exist_ok=True)
    inputs = MAKERS[workload](seed, work, smoke)
    inputs.job["workload"] = workload
    return inputs

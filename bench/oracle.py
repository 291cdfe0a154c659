"""Independent oracles for every workload: numpy and scipy, never adoptindex.

Each oracle recomputes the expected outputs from the generated inputs by a
different route than the library takes:

* moments come from exact integer sums and cross-products,
  ``cov = (n * C - s s^T) / (n (n - 1))``, instead of ``np.cov``;
* sub-indices and derivatives use the textbook quotient forms instead of
  the library's overflow-safe rearrangements;
* t quantiles and p-values come from ``scipy.stats.t``;
* the leave-one-out scan downdates the full-sample sums once per row,
  for all rows at once;
* the Monte Carlo studies rebuild the documented random streams (one
  ``SeedSequence.spawn`` child per replication, two grandchildren per
  replication of the size study, the eigh-based copula transform) and
  reduce all replications of a study in one vectorised pass; the copula's
  bivariate normal orthant probabilities come from adaptive quadrature.

``check`` compares every recorded operation against these values and
returns one failure message per operation that raised, disagreed with the
oracle or differed from an earlier identical operation.
"""

from __future__ import annotations

import json
import math

import numpy as np
from scipy import integrate, stats

SIGNIFICANCE = 0.05
CI_LEVEL = 0.95
REL_TIGHT = 1e-12  # index, variance, interval, scores' derived quantities
REL_STAT = 1e-10  # t statistics and Welch df, relative to max(1, |value|)
REL_PVALUE = 1e-8  # relative, so tiny tail probabilities are checked too
REL_MC = 1e-9  # continuous Monte Carlo metrics


# --- shared arithmetic --------------------------------------------------------


def _params(models: list[dict]):
    m = np.array([mod["m"] for mod in models], dtype=float)
    alpha = np.array([mod.get("alpha", 1.0) for mod in models], dtype=float)
    beta = np.array([mod.get("beta", 1.0) for mod in models], dtype=float)
    w = np.full(len(models), 1.0 / len(models))
    return m, alpha, beta, w


def subindex(s: np.ndarray, models: list[dict]) -> np.ndarray:
    m, alpha, beta, _ = _params(models)
    up = s**beta
    return up / (up + alpha * (m - s) ** beta)


def derivative(s: np.ndarray, models: list[dict]) -> np.ndarray:
    m, alpha, beta, _ = _params(models)
    linear = (alpha == 1.0) & (beta == 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        d = (
            alpha * beta * m * s ** (beta - 1) * (m - s) ** (beta - 1)
            / (s**beta + alpha * (m - s) ** beta) ** 2
        )
    return np.where(linear, 1.0 / m, d)


def from_sums(n, sums: np.ndarray, cross: np.ndarray, models: list[dict]) -> dict:
    """Scores, index and delta-method variance from integer sums (batched)."""
    n = np.asarray(n)
    nf = n.astype(float)
    outer = sums[..., :, None] * sums[..., None, :]
    cov = (n[..., None, None] * cross - outer) / (nf * (nf - 1.0))[..., None, None]
    scores = sums / nf[..., None]
    _, _, _, w = _params(models)
    index = subindex(scores, models) @ w
    g = w * derivative(scores, models)
    variance = np.einsum("...i,...ij,...j->...", g, cov, g) / nf
    return {"index": index, "variance": variance, "subs": subindex(scores, models)}


def pvalue_two_sided(t, df):
    return np.minimum(1.0, 2.0 * stats.t.sf(np.abs(t), df))


def loo_all(x: np.ndarray, models: list[dict]) -> dict:
    """One-sample leave-one-out test of every row, from downdated sums."""
    n, k = x.shape
    sums = x.sum(axis=0)
    cross = x.T @ x
    red = from_sums(
        np.full(n, n - 1), sums[None, :] - x, cross[None] - x[:, :, None] * x[:, None, :], models
    )
    _, _, _, w = _params(models)
    own = subindex(x.astype(float), models) @ w
    stat = (red["index"] - own) / np.sqrt(red["variance"])
    df = float(n - 1 - k - 1)
    p = pvalue_two_sided(stat, df)
    return {"statistic": stat, "df": df, "p_value": p, "index": red["index"], "own": own,
            "variance": red["variance"]}


# --- comparison helpers ---------------------------------------------------------


class Mismatch(Exception):
    pass


def _close(label: str, got, want, rel: float, floor: float = 0.0) -> None:
    got, want = float(got), float(want)
    scale = max(abs(want), floor)
    if not abs(got - want) <= rel * scale:
        raise Mismatch(f"{label}: got {got!r}, oracle {want!r} (rel tol {rel:g})")


def _equal(label: str, got, want) -> None:
    if got != want:
        raise Mismatch(f"{label}: got {got!r}, oracle {want!r}")


def _reject(label: str, got, p_oracle) -> None:
    # a p-value within the oracle's tolerance of the level may go either way
    if abs(float(p_oracle) - SIGNIFICANCE) > REL_PVALUE * SIGNIFICANCE:
        _equal(label, got, bool(p_oracle < SIGNIFICANCE))


def _test_outcome(res: dict, stat, df, p, label: str) -> None:
    _close(f"{label} statistic", res["statistic"], stat, REL_STAT, 1.0)
    _close(f"{label} df", res["df"], df, REL_STAT, 1.0)
    _close(f"{label} p_value", res["p_value"], p, REL_PVALUE, 1e-300)
    _reject(f"{label} reject", res["reject"], p)


# --- ingest -----------------------------------------------------------------------


def _full(x: np.ndarray, models: list[dict]) -> dict:
    return from_sums(x.shape[0], x.sum(axis=0), x.T @ x, models)


def ingest_expectations(mat: dict) -> dict:
    models, a, b = mat["models"], mat["a"], mat["b"]
    names = [m["name"] for m in models]
    n, k = a.shape
    fa, fb = _full(a, models), _full(b, models)
    df_ci = n - k - 1
    half = stats.t.ppf(0.5 * (1.0 + CI_LEVEL), df_ci) * math.sqrt(fa["variance"])
    va, vb = float(fa["variance"]), float(fb["variance"])
    welch_df = (va + vb) ** 2 / (va**2 / (n - k) + vb**2 / (b.shape[0] - k))
    welch_t = (float(fa["index"]) - float(fb["index"])) / math.sqrt(va + vb)
    # test-one: the same downdate as the scan, for the single tested row
    row = mat["test_row"]
    one = loo_all(a, models)
    return {
        "names": names, "n": n, "sums": a.sum(axis=0),
        "compute": {"full": fa, "lower": max(0.0, float(fa["index"]) - half),
                    "upper": min(1.0, float(fa["index"]) + half), "df": float(df_ci)},
        "test-two": {"statistic": welch_t, "df": welch_df,
                     "p": float(pvalue_two_sided(welch_t, welch_df)),
                     "indices": (float(fa["index"]), float(fb["index"])), "variances": (va, vb),
                     "sizes": [n, b.shape[0]]},
        "test-one": {key: (val[row] if isinstance(val, np.ndarray) else val)
                     for key, val in one.items()},
    }


def check_ingest_op(key: str, out: dict, exp: dict, mat: dict) -> None:
    if key == "reject":
        _equal("reject exit status", out["exit"], 2)
        _equal("reject stdout", out["stdout"], "")
        message = out["stderr"]
        for part in (mat["bad_path"], f"line {mat['bad_line']}", repr(mat["bad_row"]),
                     repr(mat["bad_model"])):
            if part not in message:
                raise Mismatch(f"reject message {message.strip()!r} does not name {part}")
        return
    _equal(f"{key} exit status", out["exit"], 0)
    _equal(f"{key} stderr", out["stderr"], "")
    report = json.loads(out["stdout"])
    res = report["results"]
    if key == "compute":
        e = exp["compute"]
        _equal("compute n", report["inputs"]["n"], exp["n"])
        for j, name in enumerate(exp["names"]):
            # integer column sum divided by n: bitwise
            _equal(f"compute score {name}", res["scores"][name], float(exp["sums"][j] / exp["n"]))
            _close(f"compute sub-index {name}", res["sub_indices"][name],
                   e["full"]["subs"][j], REL_TIGHT)
        _close("compute index", res["index"], e["full"]["index"], REL_TIGHT)
        _close("compute variance", res["variance"], e["full"]["variance"], REL_TIGHT)
        _close("compute interval lower", res["interval"]["lower"], e["lower"], REL_TIGHT)
        _close("compute interval upper", res["interval"]["upper"], e["upper"], REL_TIGHT)
        _equal("compute interval df", res["interval"]["df"], e["df"])
        _close("compute interval level", res["interval"]["level"], CI_LEVEL, REL_TIGHT)
    elif key == "test-two":
        e = exp["test-two"]
        _test_outcome(res, e["statistic"], e["df"], e["p"], "test-two")
        for label, got, want in zip(("a", "b"), res["indices"], e["indices"]):
            _close(f"test-two index {label}", got, want, REL_TIGHT)
        for label, got, want in zip(("a", "b"), res["variances"], e["variances"]):
            _close(f"test-two variance {label}", got, want, REL_TIGHT)
        _equal("test-two sample sizes", res["sample_sizes"], e["sizes"])
    elif key == "test-one":
        e = exp["test-one"]
        _test_outcome(res, e["statistic"], e["df"], e["p_value"], "test-one")
        _close("test-one index", res["indices"][0], e["index"], REL_TIGHT)
        _close("test-one own index", res["indices"][1], e["own"], REL_TIGHT)
        _close("test-one variance", res["variances"][0], e["variance"], REL_TIGHT)
        _equal("test-one sample size", res["sample_sizes"], [exp["n"] - 1])
    else:
        raise Mismatch(f"unexpected ingest operation {key!r}")


# --- montecarlo ---------------------------------------------------------------------


def _cumulative(pmf) -> np.ndarray:
    cum = np.cumsum(np.asarray(pmf, dtype=float))
    cum[-1] = 1.0
    return cum


def _sample(study: dict, seeds, n: int) -> np.ndarray:
    """R x n x k stages, one documented stream per seed sequence."""
    k = len(study["pmfs"])
    corr = study["latent_correlation"]
    if corr is None:
        cuts = [_cumulative(p) for p in study["pmfs"]]
        draws = np.stack([np.random.default_rng(s).random((n, k)) for s in seeds])
    else:
        vals, vecs = np.linalg.eigh(np.asarray(corr, dtype=float))
        root = vecs * np.sqrt(np.clip(vals, 0.0, None))
        cuts = [stats.norm.ppf(_cumulative(p)) for p in study["pmfs"]]
        draws = np.stack([np.random.default_rng(s).standard_normal((n, k)) @ root.T for s in seeds])
    x = np.empty(draws.shape, dtype=np.int64)
    for j in range(k):
        x[..., j] = np.searchsorted(cuts[j], draws[..., j], side="left")
    return x


def _batch(x: np.ndarray, models: list[dict]) -> dict:
    r, n, _ = x.shape
    return from_sums(np.full(r, n), x.sum(axis=1), np.einsum("rni,rnj->rij", x, x), models)


def _bvn_upper(a: float, b: float, rho: float) -> float:
    """P(Z1 > a, Z2 > b) for a standard bivariate normal with correlation rho."""
    h, k = -a, -b

    def integrand(theta: float) -> float:
        return math.exp(-(h * h + k * k - 2 * h * k * math.sin(theta)) / (2 * math.cos(theta) ** 2))

    extra, _ = integrate.quad(integrand, 0.0, math.asin(rho), epsabs=1e-15, epsrel=1e-13, limit=200)
    return stats.norm.cdf(h) * stats.norm.cdf(k) + extra / (2 * math.pi)


def _population(study: dict) -> dict:
    models = study["models"]
    pmfs = [np.asarray(p, dtype=float) for p in study["pmfs"]]
    scores = np.array([np.arange(len(p)) @ p for p in pmfs])
    variances = np.array([(np.arange(len(p)) ** 2) @ p for p in pmfs]) - scores**2
    _, _, _, w = _params(models)
    truth = float(subindex(scores, models) @ w)
    g = w * derivative(scores, models)
    avar = float(np.sum(g**2 * variances))
    corr = study["latent_correlation"]
    if corr is not None:
        k = len(models)
        for j in range(k):
            for l in range(j + 1, k):
                taus_j = stats.norm.ppf(_cumulative(pmfs[j])[:-1])
                taus_l = stats.norm.ppf(_cumulative(pmfs[l])[:-1])
                moment = sum(_bvn_upper(a, b, corr[j][l]) for a in taus_j for b in taus_l)
                avar += 2.0 * g[j] * g[l] * (moment - scores[j] * scores[l])
    return {"truth": truth, "avar": avar}


def study_expectations(study: dict) -> dict:
    """The report metrics run_study should produce for this plan."""
    n, reps, models = study["n"], study["replications"], study["models"]
    children = np.random.SeedSequence(study["seed"]).spawn(reps)
    pop = _population(study)
    kind = study["study"]
    if kind == "coverage":
        est = _batch(_sample(study, children, n), models)
        half = stats.t.ppf(0.5 * (1.0 + CI_LEVEL), n - len(models) - 1) * np.sqrt(est["variance"])
        lower = np.maximum(0.0, est["index"] - half)
        upper = np.minimum(1.0, est["index"] + half)
        rate = int(np.sum((lower <= pop["truth"]) & (pop["truth"] <= upper))) / reps
        se = math.sqrt(max(rate * (1.0 - rate), 1e-12) / reps)
        return {"coverage_rate": rate, "se_coverage_rate": se, "nominal_level": CI_LEVEL,
                "true_index": pop["truth"]}
    if kind == "size":
        pairs = [child.spawn(2) for child in children]
        est_a = _batch(_sample(study, [p[0] for p in pairs], n), models)
        est_b = _batch(_sample(study, [p[1] for p in pairs], n), models)
        va, vb = est_a["variance"], est_b["variance"]
        k = len(models)
        t = (est_a["index"] - est_b["index"]) / np.sqrt(va + vb)
        df = (va + vb) ** 2 / (va**2 / (n - k) + vb**2 / (n - k))
        rate = int(np.sum(pvalue_two_sided(t, df) < SIGNIFICANCE)) / reps
        se = math.sqrt(max(rate * (1.0 - rate), 1e-12) / reps)
        return {"rejection_rate": rate, "se_rejection_rate": se, "significance": SIGNIFICANCE}
    if kind == "variance-ratio":
        est = _batch(_sample(study, children, n), models)
        mean_v = float(est["variance"].mean())
        emp = float(est["index"].var(ddof=1))
        return {"ratio_vs_empirical": mean_v / emp, "ratio_vs_population": mean_v * n / pop["avar"],
                "mean_estimated_variance": mean_v, "empirical_index_variance": emp,
                "population_asymptotic_variance": pop["avar"]}
    raise ValueError(f"unknown study {kind!r}")


COUNT_METRICS = {"coverage_rate", "rejection_rate"}


def check_study_op(key: str, out: dict, exp: dict) -> None:
    got = out["metrics"]
    _equal(f"{key} metric names", sorted(got), sorted(exp))
    for name, want in exp.items():
        if name in COUNT_METRICS:
            _equal(f"{key} {name}", got[name], want)
        else:
            _close(f"{key} {name}", got[name], want, REL_MC)


# --- dispatch ---------------------------------------------------------------------------


def expectations(inputs) -> dict:
    mat = inputs.matrices
    if inputs.workload == "ingest":
        return ingest_expectations(mat)
    if inputs.workload == "montecarlo":
        return {s["study"]: study_expectations(s) for s in mat["studies"]}
    scan = loo_all(mat["x"], mat["models"])
    return {"scan": scan, "position": {rid: i for i, rid in enumerate(mat["ids"])}}


def check_op(inputs, exp: dict, key: str, out: dict) -> None:
    if inputs.workload == "ingest":
        check_ingest_op(key, out, exp, inputs.matrices)
    elif inputs.workload == "montecarlo":
        check_study_op(key, out, exp[key])
    else:
        i = exp["position"][key]
        scan = exp["scan"]
        _test_outcome(out, scan["statistic"][i], scan["df"], scan["p_value"][i], f"row {key}")


def check(inputs, rounds: list[dict]) -> tuple[int, list[str]]:
    """(operations attempted, one message per failed operation)."""
    exp = expectations(inputs)
    first_seen: dict[str, str] = {}
    attempted, failures = 0, []
    for rnd in rounds:
        for op in rnd["ops"]:
            attempted += 1
            key = op["key"]
            try:
                if op["error"] is not None:
                    raise Mismatch(f"{key} raised {op['error']}")
                check_op(inputs, exp, key, op["out"])
                # identical inputs must give byte-identical outputs, traced or not
                text = json.dumps(op["out"], sort_keys=True)
                if first_seen.setdefault(key, text) != text:
                    raise Mismatch(f"{key}: output differs from an earlier identical call")
            except (Mismatch, KeyError, TypeError, ValueError) as exc:
                failures.append(f"{type(exc).__name__}: {exc}")
    return attempted, failures

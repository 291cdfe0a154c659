"""Synthetic ordinal data and Monte Carlo checks of the asymptotics.

Random generation uses numpy's PCG64 as ``default_rng`` seeds it. Streams
are split as ``SeedSequence.spawn`` splits them: replication r always owns
child r of the plan's seed (and grandchild i for sample i when it needs two
samples), so replications are reproducible independently of execution order
and the aggregates are order-independent sums.

Studies build one ``SeedSequence`` (about 11 us) per block of spawn keys, for the
pool its seed hashes to, not one per stream. ``_stream_words`` mixes the block's
keys into that pool at once with ``SeedSequence``'s own arithmetic in uint32
numpy, and numpy's PCG64 seeds itself from each sample's four hashed words: the
streams are bit for bit those of ``spawn`` and ``default_rng``, which
``sample_dataset`` still calls.

Studies draw replications in chunks of at most ``_CHUNK_CELLS`` stage cells, each
from its own stream into one buffer (the stream of a lone draw, which ``sample_dataset``
makes). A copula chunk is rotated by one stacked product, bitwise equal to each sample's
own; a chunk's stages are counted in the narrowest unsigned type that holds the largest
m, then widened to int64 and reduced to integer sums in its seed block's arrays. Once per
seed block, ``_chunk_arguments`` computes the moments, indices and variances with the scalar
chain's kernels, bit for bit, into one ``_Block`` record per pmf. A study's statistic reads
replication r's index from the records and builds an object only where it grades one; a flagged
sample's variance comes from ``index_variance``, so refusals are those users get.

Cross-model dependence is induced by a latent normal copula: correlated
standard normals are pushed through each model's stage quantile
function. The ordinal correlation this induces is not the latent value;
population cross-moments are therefore computed from the copula itself
(a one-dimensional angular integral for the bivariate normal orthant
probability) rather than assumed.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from statistics import NormalDist
from types import SimpleNamespace

import numpy as np

from .domain import AdoptionDataset, PmfSpec, StudySpec, _integer, _require_exact
from .errors import DegenerateVariance, InputError, SpecMismatch, StatisticalRefusal
from .estimation import MomentEstimate, ScoreEstimate, _correlations, _moments
from .index import IndexValue, delta_gradient, global_index, subindex
from .inference import (VARIANCE_EXPANSION_TOL, VarianceEstimate, _delta_form, _interval_df, _psd_sum,
                        _welch, confidence_interval, index_variance)
from .tdist import student_t_pvalue

STUDY_KINDS = ("normality", "coverage", "size", "variance-ratio")

# stage cells drawn and reduced at once; bounds the study's buffers, never its streams
_CHUNK_CELLS = 1 << 14
# replications seeded at once (rounded down to whole chunks); a few hundred keys
# amortise the hash's numpy calls, and the block never changes a stream
_SEED_BLOCK = 512

# numpy's SeedSequence constants (numpy/random/bit_generator.pyx)
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


# Acceptance bands, calibrated to R = 10,000 replications: the binomial Monte
# Carlo standard error of a 5% rate is about 0.22%, so the bands sit 4 to 5
# standard errors out. Fewer replications need wider bands.
_CI_LEVEL = 0.95
_SIGNIFICANCE = 0.05
_VARIANCE_RATIO_BAND = (0.95, 1.05)
_COVERAGE_BAND = (0.94, 0.96)
_SIZE_BAND = (0.04, 0.06)
_POWER_FLOOR = 0.95
_NORMALITY_SE_MULTIPLIER = 4.0


@dataclass(frozen=True)
class SimulationPlan:
    """One reproducible Monte Carlo study, refused when built if a sample's sums could wrap int64."""

    pmf: PmfSpec
    spec: StudySpec
    n: int
    replications: int
    seed: int
    study: str
    pmf_alternative: PmfSpec | None = None

    def __post_init__(self) -> None:
        if self.study not in STUDY_KINDS:
            raise InputError(f"study must be one of {STUDY_KINDS}, got {self.study!r}")
        for name, low in (("n", self.spec.k + 1), ("replications", 1), ("seed", 0)):
            _integer(getattr(self, name), name, low)
        if self.replications > 1 << 32:  # replication r seeds from spawn-key word r, 32 bits wide
            raise InputError(f"replications must be at most 2^32 = {1 << 32}, got {self.replications}")
        _check_pmf_alignment(self.pmf, self.spec)
        if self.pmf_alternative is not None:
            if self.study != "size":
                raise InputError(f"pmf_alternative is for the size study, not {self.study!r}")
            _check_pmf_alignment(self.pmf_alternative, self.spec)
        _require_exact(self.n, max(self.spec.stage_maxima))


@dataclass(frozen=True)
class SimulationReport:
    """Observed statistics, their Monte Carlo errors, and pass flags.

    Fully reproducible from the plan: same plan, same report.
    """

    study: str
    n: int
    replications: int
    seed: int
    metrics: dict[str, float]
    checks: dict[str, bool]
    passed: bool
    notes: tuple[str, ...] = ()


@dataclass(frozen=True)
class TruePopulation:
    """Exact population quantities implied by a pmf under a study spec."""

    scores: tuple[float, ...]
    variances: tuple[float, ...]
    index: float


def _check_pmf_alignment(pmf: PmfSpec, spec: StudySpec) -> None:
    if pmf.k != spec.k or pmf.stage_maxima != spec.stage_maxima:
        raise SpecMismatch(
            f"pmf stages {pmf.stage_maxima} do not match spec stages {spec.stage_maxima}"
        )


# --- scalar normal helpers (thresholds only, never bulk data) ---------------


def _norm_cdf(x: float) -> float:
    # erfc keeps the lower tail's relative accuracy, which NormalDist.cdf's 1 + erf loses
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


_STANDARD_NORMAL = NormalDist()


def _norm_ppf(p: float) -> float:
    if p <= 0.0:
        return -math.inf
    if p >= 1.0:
        return math.inf
    return _STANDARD_NORMAL.inv_cdf(p)


def _simpson_nodes(rho: float) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """The step of ``_bvn_lower``'s Simpson rule over [0, asin rho], for |rho| < 1, then
    sin t, 2 cos^2 t and the rule's weight (1, 4 or 2) at its nodes t: both ends, then
    the inner nodes in order."""
    upper = math.asin(rho)
    steps = 256  # even; Simpson error ~ (range/steps)^4, far below 1e-12 here
    width = upper / steps
    sines = np.array([math.sin(t) for t in (0.0, upper, *(i * width for i in range(1, steps)))])
    weights = np.array([1.0, 1.0] + [4.0, 2.0] * (steps // 2 - 1) + [4.0])
    return width, sines, 2.0 * (1.0 - sines * sines), weights


def _bvn_lower(h: float, k: float, rho: float, nodes) -> float:
    """P(Z1 <= h, Z2 <= k) for standard bivariate normal, correlation rho.

    Evaluated with the angular form of Plackett's identity,

        Phi2(h, k; rho) = Phi(h) Phi(k)
            + (1/2pi) * Integral_0^{asin rho} exp(-(h^2 + k^2 - 2 h k sin t)
                                                   / (2 cos^2 t)) dt

    whose integrand is smooth and bounded on the whole range, so a fixed
    Simpson rule is accurate to ~1e-12 for |rho| < 1. ``nodes`` is
    ``_simpson_nodes(rho)``, which depends on rho alone; it is read only
    when |rho| < 1 and both limits are finite.
    """
    if math.isinf(h) or math.isinf(k):
        if h == -math.inf or k == -math.inf:
            return 0.0
        if h == math.inf:
            return 1.0 if k == math.inf else _norm_cdf(k)
        return _norm_cdf(h)
    if rho >= 1.0:
        return _norm_cdf(min(h, k))
    if rho <= -1.0:
        return max(0.0, _norm_cdf(h) - _norm_cdf(-k))
    width, sines, twice_cos2, weights = nodes
    # h * h + k * k - 2.0 * h * k * sin t as Python groups it, each pair's parts hoisted;
    # math.exp, not np.exp, whose last bit differs on some arguments
    squares, cross = h * h + k * k, 2.0 * h * k
    exponents = (-(squares - cross * sines) / twice_cos2).tolist()
    terms = np.fromiter(map(math.exp, exponents), float, len(exponents))
    # the weighted terms summed one by one, left to right, as a scalar loop would
    acc = float(np.add.accumulate(weights * terms)[-1])
    integral = acc * width / 3.0
    return _norm_cdf(h) * _norm_cdf(k) + integral / (2.0 * math.pi)


def _cumulative(pmf: tuple[float, ...]) -> np.ndarray:
    cum = np.cumsum(np.asarray(pmf, dtype=float))
    cum[-1] = 1.0
    return cum


def true_index(pmf: PmfSpec, spec: StudySpec) -> TruePopulation:
    """Exact population scores, variances, and global index."""
    _check_pmf_alignment(pmf, spec)
    scores = []
    variances = []
    for probs in pmf.pmfs:
        stages = np.arange(len(probs), dtype=float)
        p = np.asarray(probs, dtype=float)
        mean = float(stages @ p)
        scores.append(mean)
        variances.append(float((stages**2) @ p) - mean**2)
    return TruePopulation(
        scores=tuple(scores),
        variances=tuple(max(0.0, v) for v in variances),
        index=global_index(ScoreEstimate(scores=tuple(scores), n=0), spec).value,
    )


def latent_cross_covariance(pmf: PmfSpec, spec: StudySpec, j: int, l: int) -> float:
    """Population covariance of stage columns j and l (ints in 0..k-1) under the copula.

    Uses X = sum_{a>=1} 1[X >= a] so E[X_j X_l] is a sum of bivariate
    normal orthant probabilities over the latent thresholds.
    """
    _check_pmf_alignment(pmf, spec)
    for name, position in (("j", j), ("l", l)):
        _integer(position, name, 0)
        if position >= spec.k:
            raise InputError(f"{name} must be a model position below k = {spec.k}, got {position}")
    if pmf.latent_correlation is None or pmf.latent_correlation[j, l] == 0.0:
        return 0.0
    return _pair_covariance(pmf, _sampler(pmf)[1], true_index(pmf, spec).scores, j, l)


def _pair_covariance(pmf: PmfSpec, cuts: list, scores: tuple[float, ...], j: int, l: int) -> float:
    """``latent_cross_covariance`` from ``_sampler(pmf)``'s cut points and the true scores."""
    rho = 0.0 if pmf.latent_correlation is None else float(pmf.latent_correlation[j, l])
    if rho == 0.0:
        return 0.0
    nodes = _simpson_nodes(rho) if abs(rho) < 1.0 else None
    cross_moment = 0.0
    for tau_a in cuts[j]:
        for tau_b in cuts[l]:
            # P(Z_j > tau_a, Z_l > tau_b) = Phi2(-tau_a, -tau_b; rho)
            cross_moment += _bvn_lower(-tau_a, -tau_b, rho, nodes)
    return cross_moment - scores[j] * scores[l]


def _nondegenerate_truth(pmf: PmfSpec, spec: StudySpec, what: str = "pmf") -> TruePopulation:
    """``true_index`` of a pmf (named ``what``) that gives every model a positive variance."""
    truth = true_index(pmf, spec)
    for v, model in zip(truth.variances, spec.models):
        if v == 0.0:
            raise DegenerateVariance(
                f"{what} for model {model.name!r} is degenerate; inference is impossible"
            )
    return truth


def population_asymptotic_variance(pmf: PmfSpec, spec: StudySpec) -> float:
    """Asymptotic variance of sqrt(n) * (I_hat - I) under the pmf.

    Needs every model non-degenerate (else the delta-method gradient or the variance itself
    is zero and the studies refuse to run). Its sum is judged as ``index_variance``'s is, by
    ``inference._psd_sum``: refused, 0.0 within rounding of zero, or the sum.
    """
    truth = _nondegenerate_truth(pmf, spec)
    gradients = delta_gradient(ScoreEstimate(scores=truth.scores, n=0), spec)
    # Python floats: an overflow reads inf without a numpy warning
    g = [w * d for w, d in zip(spec.weights, gradients)]
    terms = [gj * gj * v for gj, v in zip(g, truth.variances)]
    cuts = _sampler(pmf)[1]  # taken once: each pair's integral reads them
    with np.errstate(over="ignore"):  # and so may numpy's sums of finite terms
        total = float(np.sum(terms))
        for j in range(spec.k):
            for l in range(j + 1, spec.k):
                terms.append(2.0 * g[j] * g[l] * _pair_covariance(pmf, cuts, truth.scores, j, l))
                total += terms[-1]
        return _psd_sum(total, float(np.abs(terms).sum()), "index's population asymptotic variance")


def _psd_transform(corr: np.ndarray) -> np.ndarray:
    """Matrix L with L L^T = corr, tolerating semi-definite inputs."""
    eigenvalues, eigenvectors = np.linalg.eigh(corr)
    eigenvalues = np.clip(eigenvalues, 0.0, None)
    return eigenvectors * np.sqrt(eigenvalues)


def _hashmix(value, h: int, multiplier: int = _MULT_A):
    """SeedSequence's ``hashmix`` of a uint32 word (an int or a uint32 array) under hash
    constant ``h``, and the next constant; ``generate_state`` hashes so with ``_MULT_B``."""
    following = h * multiplier & _MASK32
    value = (value ^ h) * following & _MASK32
    return value ^ value >> 16, following


def _mix(x, y):
    """SeedSequence's ``mix`` of two uint32 words (ints or uint32 arrays)."""
    value = ((_MIX_L * x & _MASK32) - (_MIX_R * y & _MASK32)) & _MASK32
    return value ^ value >> 16


def _stream_words(seed: int, replications: range, samples: int) -> np.ndarray:
    """uint64 [len(replications), samples, 4]: for replication r and sample i,
    ``SeedSequence(seed, spawn_key=key).generate_state(4, np.uint64)`` with key (r,) for
    one sample and (r, i) for several, that is the seed of child r of ``SeedSequence(seed)``
    (grandchild i) as ``default_rng`` reads it.

    Every key starts from the pool of ``SeedSequence(seed)``, which numpy fills with
    16 + 4 max(0, w - 4) hashmix calls over the seed's w 32-bit words. The hash constant
    is advanced past those calls, and the key's words are then mixed in, one uint32 array
    over the block.
    """
    if replications.stop > 1 << 32:
        # numpy splits a key word past 32 bits in two; this hash would seed another stream
        raise ValueError(f"replication indices must be below 2^32, got {replications.stop - 1}")
    pool = np.random.SeedSequence(seed).pool.tolist()
    calls = 16 + 4 * max(0, -(-seed.bit_length() // 32) - 4)  # hashmix calls the pool took
    h = _INIT_A * pow(_MULT_A, calls, 1 << 32) & _MASK32
    r = np.arange(replications.start, replications.stop, dtype=np.uint32)
    keys = [r] if samples == 1 else [
        np.repeat(r, samples), np.tile(np.arange(samples, dtype=np.uint32), len(r))]
    for word in keys:
        for dst in range(4):
            value, h = _hashmix(word, h)
            pool[dst] = _mix(pool[dst], value)
    # generate_state: eight words cycling the pool, read as four little-endian uint64
    state = np.empty((len(r) * samples, 8), dtype="<u4")
    h = _INIT_B
    for i in range(8):
        state[:, i], h = _hashmix(pool[i % 4], h, _MULT_B)
    return state.view("<u8").reshape(len(r), samples, 4).astype(np.uint64, copy=False)  # native order


def sample_dataset(pmf: PmfSpec, spec: StudySpec, n: int, seed) -> AdoptionDataset:
    """Draw n iid stage rows from the pmf, deterministically in the seed.

    ``seed`` may be an integer >= 0, a SeedSequence, or a Generator. Without a
    latent correlation matrix the columns are sampled independently from
    uniform variates; with one, correlated normals go through each
    model's quantile thresholds.
    """
    _check_pmf_alignment(pmf, spec)
    _integer(n, "n", spec.k + 1)
    if not isinstance(seed, (np.random.SeedSequence, np.random.Generator)):
        _integer(seed, "seed", 0)
    row_ids = tuple(f"r{i + 1}" for i in range(n))
    stages = _draw(*_sampler(pmf), [np.random.default_rng(seed)], np.empty((1, n, spec.k)))
    return AdoptionDataset(row_ids=row_ids, values=stages[0].T.copy(), spec=spec)


def _sampler(pmf: PmfSpec) -> tuple[np.ndarray | None, list]:
    """The copula's transposed root (None for independent columns) and each
    model's cut points on the variate scale, the last one (1 or +inf) left out."""
    cums = [_cumulative(probs)[:-1] for probs in pmf.pmfs]
    if pmf.latent_correlation is None:
        return None, cums
    return _psd_transform(pmf.latent_correlation).T, [[_norm_ppf(c) for c in cum] for cum in cums]


def _variates(root: np.ndarray | None, rngs, draws: np.ndarray) -> np.ndarray:
    """The chunk's len(draws) x n x k variates: sample r's uniforms, or its standard
    normals, drawn into ``draws[r]`` by the r-th Generator of the iterable ``rngs``, taken
    one at a time and no further than ``draws`` reaches. With a copula, the whole chunk is
    then rotated by one stacked product, which makes each sample's own BLAS call and so
    equals ``rng.standard_normal((n, k)) @ root`` bitwise (pinned by
    ``test_stacked_rotation_matches_per_sample_products``)."""
    for out, rng in zip(draws, rngs):
        if root is None:
            rng.random(out=out)
        else:
            rng.standard_normal(out=out)
    return draws if root is None else np.matmul(draws, root)


def _draw(root: np.ndarray | None, cuts: list, rngs, draws: np.ndarray) -> np.ndarray:
    """len(draws) x k x n int64 stages of ``_variates(root, rngs, draws)``. A variate
    above c of its model's cut points is stage c, which is ``searchsorted(cut points,
    variate, side="left")``. Stages are counted in the narrowest unsigned type that holds
    the largest m (uint8 up to m = 255, where an add takes about half its int64 time),
    then widened to int64 once for the exact sums and cross-products."""
    variates = _variates(root, rngs, draws)
    stages = np.zeros((len(cuts), *draws.shape[:2]),
                      dtype=np.min_scalar_type(max(map(len, cuts))))
    for j, model_cuts in enumerate(cuts):
        column = variates[..., j].copy()  # contiguous, so each comparison runs at full speed
        for c in model_cuts:
            stages[j] += (column > c).view(np.uint8)  # a bool is a byte: no bool -> uint8 cast
    return stages.transpose(1, 0, 2).astype(np.int64)


def _sampled_sums(plan: SimulationPlan, pmfs: tuple[PmfSpec, ...]) -> Iterator[list]:
    """Each seed block's int64 column sums [B, k] and cross-products [B, k, k], one pair
    per pmf, filled chunk by chunk. Replication r owns child r of the plan's seed, and with
    two pmfs sample i its grandchild i. A block of whole chunks is hashed at once, and numpy's PCG64
    seeds itself from each sample's words, which ``Words`` hands it as a seed sequence
    would; ``Words`` is made per study, as a subclass made at import would load
    ``numpy.random`` with the CLI."""

    class Words(np.random.bit_generator.ISeedSequence):
        def __init__(self, words: np.ndarray) -> None:
            self.words = words

        def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
            # PCG64 asks for 4 uint64 and reads their memory unchecked: a row of the
            # C-ordered, native uint64 words is just that
            return self.words

    n, k = plan.n, plan.spec.k
    per_chunk = max(1, _CHUNK_CELLS // (n * k))
    per_block = per_chunk * max(1, _SEED_BLOCK // per_chunk)
    samplers = [_sampler(pmf) for pmf in pmfs]
    draws = np.empty((min(per_chunk, plan.replications), n, k))
    for block in range(0, plan.replications, per_block):
        words = _stream_words(
            plan.seed, range(block, min(block + per_block, plan.replications)), len(pmfs))
        sums = [(np.empty((len(words), k), np.int64), np.empty((len(words), k, k), np.int64))
                for _ in pmfs]
        for start in range(0, len(words), per_chunk):
            chunk = words[start : start + per_chunk]
            for i, sampler in enumerate(samplers):
                # each _draw returns fresh stages, so the shared buffer may be reused at once
                x = _draw(*sampler, (np.random.Generator(np.random.PCG64(Words(row)))
                                     for row in chunk[:, i]), draws[: len(chunk)])
                x.sum(axis=2, out=sums[i][0][start : start + len(chunk)])
                np.matmul(x, x.swapaxes(-1, -2), out=sums[i][1][start : start + len(chunk)])
        yield sums


class _Block(SimpleNamespace):
    """One pmf's samples of a seed block: replication r's ``global_index`` value and sub-indices
    are ``index[r]`` and ``subs[r]``, and ``moments(r)`` and ``variance(r)`` build ``_from_sums``'s
    MomentEstimate and ``index_variance``'s VarianceEstimate, bit for bit, only when asked."""

    def variance(self, r: int) -> VarianceEstimate:
        if self.flagged[r]:  # index_variance's own refusal, or its 0.0 for a form within rounding of zero
            return index_variance(self.moments(r), self.spec)
        return VarianceEstimate(self.value[r], self.terms[r], tuple(self.gradients[r]), self.n)

    def moments(self, r: int) -> MomentEstimate:
        cov = self.cov[r].copy()  # read-only and owning its memory, so index_variance may keep on it
        cov.setflags(write=False)
        moments = MomentEstimate(ScoreEstimate(tuple(self.scores[r]), self.n), cov, self.corr[r],
                                 tuple(self.degenerate[r]))
        if not self.flagged[r]:  # index_variance's memo holds the kernel's variance
            moments.__dict__["_index_variances"] = {self.spec: self.variance(r)}
        return moments


def _chunk_arguments(n: int, spec: StudySpec, block: list) -> list[_Block]:
    """A seed block from ``_sampled_sums``, as one ``_Block`` per pmf. Per sample, once per block:
    moments from ``_moments`` and ``_correlations`` (Python ints past 2^53), sub-indices and their
    weighted ``fsum``, derivatives in ``delta_derivative``'s order, variances from ``_delta_form``, and
    a flag where a model is degenerate or ``_psd_sum`` would not return the form's sum unchanged. Bit
    for bit: numpy does only + - * /, sqrt, comparisons; powers, ``fsum`` stay in math."""
    m, beta, linear = np.array([(float(x.m), x.beta, x.is_linear) for x in spec.models]).T
    records = []
    for sums, cross in block:
        scores, cov, degenerate = _moments(n, sums, cross)
        subs = np.array([[subindex(s, model) for s in column]
                         for column, model in zip(scores.T.tolist(), spec.models)]).T
        # subindex refuses S outside [0, m], and a nonlinear f is 0 or 1 at S = 0 or m: 0/0, NaN;
        # a NaN or infinite derivative, which delta_derivative refuses, gives a form that is flagged
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            gradients = np.where(linear, 1.0 / m, beta * m * subs * (1.0 - subs) / (scores * (m - scores)))
        terms, value, scale = _delta_form(gradients, spec.weights, cov, n)
        # _psd_sum returns a finite sum unchanged only above VARIANCE_EXPANSION_TOL * scale; NaN fails
        kept = ~np.isinf(value) & (value > VARIANCE_EXPANSION_TOL * scale)
        records.append(_Block(
            n=n, spec=spec, cov=cov, corr=_correlations(cov, degenerate), scores=scores.tolist(),
            degenerate=degenerate.tolist(), subs=subs.tolist(), value=value.tolist(),
            index=[math.fsum(row) for row in (subs * spec.weights).tolist()], gradients=gradients.tolist(),
            terms=terms, flagged=(degenerate.any(axis=1) | ~kept).tolist()))
    return records


# --- studies -----------------------------------------------------------------


def _sample_variance(x: np.ndarray) -> float:
    return float(x.var(ddof=1)) if x.size >= 2 else math.nan


def _moments_of(z: np.ndarray) -> tuple[float, float, float, float]:
    mean = float(z.mean())
    centered = z - mean
    m2 = float((centered**2).mean())
    if m2 == 0.0:
        return mean, _sample_variance(z), math.nan, math.nan
    m3 = float((centered**3).mean())
    m4 = float((centered**4).mean())
    skewness = m3 / m2**1.5
    excess_kurtosis = m4 / m2**2 - 3.0
    return mean, _sample_variance(z), skewness, excess_kurtosis


def _accepted(plan: SimulationPlan, pmfs: tuple[PmfSpec, ...], statistic) -> tuple[np.ndarray, tuple[str, ...]]:
    """``statistic`` of every replication that it does not refuse, one column per replication and
    one row per value, and a note counting the refused ones; raises the first refusal when it
    refuses every replication. ``statistic`` takes a replication's position r in its seed block
    and one ``_Block`` per pmf, from one ``_chunk_arguments`` call per seed block."""
    values, accepted, first = None, 0, None
    for block in _sampled_sums(plan, pmfs):
        records = _chunk_arguments(plan.n, plan.spec, block)
        for r in range(len(records[0].index)):
            try:
                value = statistic(r, *records)
            except StatisticalRefusal as exc:
                first = first or exc
                continue
            if values is None:
                values = np.empty((np.size(value), plan.replications))
            values[:, accepted] = value
            accepted += 1
        del records  # they hold the block's arrays: drop them before the next is drawn
    if values is None:
        raise first
    note = () if first is None else (
        f"{plan.replications - accepted} of {plan.replications} replications refused: {first}",)
    return values[:, :accepted], note


def run_study(plan: SimulationPlan) -> SimulationReport:
    """Execute one Monte Carlo study and grade it against its acceptance bands.

    Rates, errors and means are taken over the replications whose statistics
    are defined; a replication refused (say, one with a constant column) is
    counted in a note, and a study whose every replication is refused raises.
    Every study (a power study by its null pmf) refuses before drawing a pmf
    under which the index cannot vary, its population asymptotic variance 0.
    A ``variance-ratio`` study whose accepted replications all give the same
    index raises ``DegenerateVariance``, since it divides by their variance.
    """
    truth = _nondegenerate_truth(plan.pmf, plan.spec)
    if plan.pmf_alternative is not None:
        _nondegenerate_truth(plan.pmf_alternative, plan.spec, "alternative pmf")
    avar = population_asymptotic_variance(plan.pmf, plan.spec)
    if avar == 0.0:
        raise DegenerateVariance(
            f"the index's population asymptotic variance is zero under this pmf; "
            f"the {plan.study} study needs an index that varies"
        )
    notes = (
        "observations are treated as iid within each sample; clustered or "
        "stratified sampling is out of scope",
    )

    if plan.study == "normality":
        scale = math.sqrt(avar)

        def z_score(r, sample):
            return math.sqrt(plan.n) * (sample.index[r] - truth.index) / scale

        (z,), refusals = _accepted(plan, (plan.pmf,), z_score)
        mean, variance, skewness, kurtosis = _moments_of(z)
        se_mean = math.sqrt(variance / z.size)
        se_skew = math.sqrt(6.0 / z.size)
        se_kurt = math.sqrt(24.0 / z.size)
        mult = _NORMALITY_SE_MULTIPLIER
        metrics = {
            "mean": mean,
            "variance": variance,
            "skewness": skewness,
            "excess_kurtosis": kurtosis,
            "se_mean": se_mean,
            "se_skewness": se_skew,
            "se_excess_kurtosis": se_kurt,
            "population_asymptotic_variance": avar,
        }
        checks = {
            "mean_within_se": abs(mean) <= mult * se_mean,
            "skewness_within_se": abs(skewness) <= mult * se_skew,
            "excess_kurtosis_within_se": abs(kurtosis) <= mult * se_kurt,
        }

    elif plan.study == "coverage":
        df = _interval_df(plan.n, plan.spec.k)

        def covered(r, sample):
            index = IndexValue(tuple(sample.subs[r]), sample.index[r])
            ci = confidence_interval(index, sample.variance(r), _CI_LEVEL, df)
            return ci.lower <= truth.index <= ci.upper

        (hits,), refusals = _accepted(plan, (plan.pmf,), covered)
        rate = int(hits.sum()) / hits.size
        se = math.sqrt(max(rate * (1.0 - rate), 1e-12) / hits.size)
        lo, hi = _COVERAGE_BAND
        metrics = {
            "coverage_rate": rate,
            "se_coverage_rate": se,
            "nominal_level": _CI_LEVEL,
            "true_index": truth.index,
        }
        checks = {"coverage_in_band": lo <= rate <= hi}

    elif plan.study == "size":
        pmf_b = plan.pmf_alternative if plan.pmf_alternative is not None else plan.pmf

        def rejects(r, a, b):
            statistic, df = _welch((a.index[r], b.index[r]),
                                   (a.variance(r).value, b.variance(r).value), (plan.n, plan.n), plan.spec.k)
            return student_t_pvalue(statistic, df, "two") < _SIGNIFICANCE

        (rejections,), refusals = _accepted(plan, (plan.pmf, pmf_b), rejects)
        rate = int(rejections.sum()) / rejections.size
        se = math.sqrt(max(rate * (1.0 - rate), 1e-12) / rejections.size)
        metrics = {
            "rejection_rate": rate,
            "se_rejection_rate": se,
            "significance": _SIGNIFICANCE,
        }
        if plan.pmf_alternative is None:
            lo, hi = _SIZE_BAND
            checks = {"size_in_band": lo <= rate <= hi}
        else:
            checks = {"power_above_floor": rate >= _POWER_FLOOR}

    else:  # variance-ratio
        def index_and_variance(r, sample):  # an unflagged sample's variance is a memo hit
            return sample.index[r], index_variance(sample.moments(r), plan.spec).value

        (i_hat, v_hat), refusals = _accepted(plan, (plan.pmf,), index_and_variance)
        empirical_variance = _sample_variance(i_hat)
        if empirical_variance == 0.0:
            raise DegenerateVariance(
                "every accepted replication gave the same index; "
                "the variance-ratio study divides by their variance"
            )
        ratio_empirical = float(v_hat.mean()) / empirical_variance
        ratio_population = float(v_hat.mean()) * plan.n / avar
        lo, hi = _VARIANCE_RATIO_BAND
        metrics = {
            "ratio_vs_empirical": ratio_empirical,
            "ratio_vs_population": ratio_population,
            "mean_estimated_variance": float(v_hat.mean()),
            "empirical_index_variance": empirical_variance,
            "population_asymptotic_variance": avar,
        }
        checks = {
            "empirical_ratio_in_band": lo <= ratio_empirical <= hi,
            "population_ratio_in_band": lo <= ratio_population <= hi,
        }

    return SimulationReport(
        study=plan.study,
        n=plan.n,
        replications=plan.replications,
        seed=plan.seed,
        metrics=metrics,
        checks=checks,
        passed=all(checks.values()),
        notes=notes + refusals,
    )

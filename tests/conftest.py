import math

import pytest

from adoptindex import ModelSpec, StudySpec, validate_dataset


@pytest.fixture
def tam_cmm_spec():
    """Two linear six-stage models with equal weights."""
    return StudySpec([ModelSpec("TAM", 5), ModelSpec("CMM", 5)])


@pytest.fixture
def single_model_spec():
    return StudySpec([ModelSpec("M", 5)])


@pytest.fixture
def ladder_dataset(single_model_spec):
    """k=1 column holding stages 1..5, one per row."""
    rows = [(str(v), (v,)) for v in (1, 2, 3, 4, 5)]
    return validate_dataset(rows, single_model_spec)


def make_dataset(spec, columns):
    """Build a dataset from per-model columns of equal length."""
    rows = [
        (f"r{i}", tuple(int(col[i]) for col in columns))
        for i in range(len(columns[0]))
    ]
    return validate_dataset(rows, spec)


def record_two_sample_calls(monkeypatch, module):
    """Wrap ``module._two_sample`` so that each call's variances, sizes and k are kept."""
    calls = []
    original = module._two_sample

    def recording(indices, variances, sizes, k, *rest):
        calls.append((variances, sizes, k))
        return original(indices, variances, sizes, k, *rest)

    monkeypatch.setattr(module, "_two_sample", recording)
    return calls


def assert_welch_inputs_judged(calls):
    """What ``_two_sample`` takes on trust: finite, non-negative variances and int sizes above k."""
    assert calls
    for variances, sizes, k in calls:
        assert all(isinstance(v, float) and math.isfinite(v) and v >= 0 for v in variances), variances
        assert all(type(n) is int and n > k for n in sizes), (sizes, k)

import numpy as np
import pytest
from hypothesis import settings

# property tests draw the same examples on every run
settings.register_profile("deterministic", derandomize=True, database=None,
                          deadline=None, max_examples=200)
settings.load_profile("deterministic")


@pytest.fixture
def lapack_svds(monkeypatch):
    """The shapes of the np.linalg.svd calls that return U and V^H, in
    call order; `linalg.rank`'s singular-value-only calls are left out."""
    calls = []
    lapack = np.linalg.svd

    def recording(m, *args, **kwargs):
        if kwargs.get("compute_uv", True):
            calls.append(np.shape(m))
        return lapack(m, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording)
    return calls


@pytest.fixture
def lapack_dets(monkeypatch):
    """The shapes of the np.linalg.det calls, in call order."""
    calls = []
    lapack = np.linalg.det

    def recording(m):
        calls.append(np.shape(m))
        return lapack(m)

    monkeypatch.setattr(np.linalg, "det", recording)
    return calls

"""Fixtures shared across the test modules."""

import numpy as np
import pytest

from detline import modules


@pytest.fixture
def refuse_carrier_matrices(monkeypatch):
    """refuse_carrier_matrices(limit) makes the lazy direct-sum builders
    raise, and np.eye refuse sizes above limit (numpy-wide, for the rest of
    the test).  It returns the original np.eye."""
    eye = np.eye

    def refuse(total):
        raise AssertionError(f"built a carrier matrix of size {total.carrier_dim}")

    def refuse_above(limit):
        def small_eye(n, *args, **kwargs):
            if n > limit:
                raise AssertionError(f"built a carrier identity of size {n}")
            return eye(n, *args, **kwargs)

        monkeypatch.setattr(modules, "_direct_sum_basis_map", refuse)
        monkeypatch.setattr(modules, "_direct_sum_gram_matrix", refuse)
        monkeypatch.setattr(np, "eye", small_eye)
        return eye

    return refuse_above

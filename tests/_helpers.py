"""Small shared utilities for the test modules."""

from __future__ import annotations

import numpy as np

from bellchain import ChainSpec, Pattern, StateVector


def random_state(rng: np.random.Generator, n_sites: int) -> StateVector:
    amps = rng.normal(size=1 << n_sites) + 1j * rng.normal(size=1 << n_sites)
    return StateVector(amps / np.linalg.norm(amps))


def random_custom_spec(rng: np.random.Generator, n_sites: int) -> ChainSpec:
    """A custom chain with dense random couplings and fields."""
    bonds = n_sites - 1
    return ChainSpec(
        n_sites,
        pattern=Pattern.CUSTOM,
        fields_b=tuple(rng.uniform(-1.0, 1.0, size=n_sites)),
        j_x=tuple(rng.uniform(-1.5, 1.5, size=bonds)),
        j_y=tuple(rng.uniform(-1.5, 1.5, size=bonds)),
    )

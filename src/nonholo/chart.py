"""What every flat chart answers for the command line, with shared defaults.

A chart maps one system's states to flat coordinates.  Besides the flow
(``field``, ``log_density``, ``constraints``) it carries everything the
``nonholo`` command needs to know about its system, so the command itself
holds no per-system code:

* ``config_keys`` and ``from_config(cfg)``: the top-level config keys the
  system reads, and the chart built from a validated ``cli.RunConfig``;
* ``n``, ``r``, ``k``: the sizes reported in ``verify`` rows;
* ``check_density()``: raises where ``log_density`` is undefined, so the
  command can refuse such a run before integrating;
* ``random_state(rng, zero_constants=False)``: a seeded random state;
* ``columns()`` and ``row(coords)``: the CSV state block;
* ``integrals(coords)``: named first integrals at one sample;
* ``extra_drifts(states)``: drifts of conserved quantities that are not
  first integrals;
* ``gated(first)``: the drift names the theory bounds, given the first
  sample's observables.
"""

from __future__ import annotations

import numpy as np

from .errors import ParameterError
from .liealg import wedge_index_pairs


def pair_labels(n: int, prefix: str) -> list[str]:
    """CSV labels of wedge coordinates: prefix12, prefix13, ..."""
    return [f"{prefix}{i + 1}{j + 1}" for i, j in wedge_index_pairs(n)]


class Chart:
    """Defaults of the chart interface; subclasses add the rest."""

    config_keys: tuple = ()
    r = k = 0
    constraints = None  # an ambient chart: the flow lives on the whole space
    eps_in_density = False  # True where the density exponent divides by eps

    def check_density(self):
        """Raise ParameterError where ``log_density`` is undefined: at eps = 0
        when the density exponent divides by eps."""
        if self.eps_in_density and self.eps == 0.0:
            raise ParameterError("density is undefined at eps = 0")

    def renormalize(self, coords):
        return coords

    def invariant_residual(self, coords) -> float:
        if self.constraints is None:
            return 0.0
        return float(np.max(np.abs(self.constraints(coords))))

    def row(self, coords):
        return np.asarray(coords, dtype=float)

    def extra_drifts(self, states) -> dict:
        return {}

    def gated(self, first) -> set:
        return set()

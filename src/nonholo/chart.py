"""What every flat chart answers for the command line, with shared defaults.

A chart gives one system's states as flat coordinates, the only state the
``nonholo`` command handles.  Besides the flow (``field``, ``log_density``)
it carries everything the command needs to know about its system, so the
command itself holds no per-system code.  Every method that takes
coordinates takes a batch (..., d) and answers with arrays over the same
leading axes; the command calls each one once per trajectory.  A run starts
from ``random_coords`` or from the configured coordinates, and a crosscheck
partner (``cli.PAIRS``) lifts those coordinates to its own chart.
``log_density`` and ``divergence`` refuse non-finite coordinates with
ParameterError.  The interface:

* ``density_exponent`` and ``log_base(coords)``: every density here is a
  base to a power, and ``Chart`` defines ``log_density`` as their product.
  The exponent is an attribute where it does not depend on eps, else a
  property that raises ParameterError where it divides by eps = 0 (every
  chart builds there); ``check_density()`` evaluates it, the command's one
  eps check, to refuse a run whose density is undefined before integrating;
* ``log_base_grad(coords)``: the closed-form gradient (..., d) of
  ``log_base`` on the two ambient charts, from which ``Chart`` makes
  ``log_density_grad`` for ``verify --check liouville``;
* ``_rates(coords)`` and ``_divergence(*parts)``: the chart's two flow
  kernels.  ``_rates`` gives the field (..., d) at coords (..., d) and the
  intermediate arrays ``parts`` that its divergence reuses; ``_divergence``
  gives the divergence (...) from them in closed form.  ``Chart`` has no
  default for either, and ``numerics.fd_divergence`` is the
  central-difference oracle the tests hold each closed form to.  From them
  ``Chart`` defines ``field(coords)`` and ``divergence(coords)`` (...),
  for volume transport and ``verify --check liouville``.  Volume transport
  integrates this divergence over the whole chart as the divergence on the
  constraint manifold.  That holds because
  each constrained flow moves its frame F (the rows at ``frame_index``)
  by F' = F Omega(x) with Omega skew: f' = eps [f, w] for
  ``elr_momentum``, U' = -eps W U for ``veselova`` and ``lpr_stiefel``,
  gamma' = eps gamma x w for the balls.  The normal space at F is
  {S F : S symmetric}, on which the frame block of the Jacobian has no
  trace, so a new chart must keep this frame law or transport by basis;
* ``frame_index``: the (p, m) coordinates of the frame whose rows the flow
  keeps orthonormal, from which ``constraints`` follows; an ambient chart
  sets ``constraints = None`` instead;
* ``config_keys`` and ``from_config(cfg)``: the top-level config keys the
  system reads, and the chart built from a validated ``cli.RunConfig``;
* ``n``, ``r``, ``k``: the sizes reported in ``verify`` rows;
* ``random_coords(rng, zero_constants=False)``: seeded random coordinates
  (d,), on the zero level of the constants where the system has them and
  ``zero_constants`` is true;
* ``flatten(sample)``: the chart coordinates of a module's ``random_*_state``
  draw.  The samplers draw chart coordinates, so ``Chart`` returns its
  argument; ``LPRChart`` solves w from the drawn k_bold, and the ball charts
  read a ``ball3d.BallState``;
* ``columns()`` and ``row(coords)``: the CSV state block, (..., d) to
  (..., len(columns()));
* ``integrals(coords)``: named first integrals, each (...);
* ``extra_drifts(states)``: drifts over the samples (..., T, d) of
  conserved quantities that are not first integrals, each (...);
* ``gated(first)``: the drift names the theory bounds, given the first
  sample's observables.
"""

from __future__ import annotations

import numpy as np

from .errors import ParameterError
from .liealg import wedge_index_pairs
from .numerics import _finite_state


def pair_labels(n: int, prefix: str) -> list[str]:
    """CSV labels of wedge coordinates: prefix12, prefix13, ..."""
    return [f"{prefix}{i + 1}{j + 1}" for i, j in wedge_index_pairs(n)]


class Chart:
    """Defaults of the chart interface; subclasses add the rest."""

    config_keys: tuple = ()
    r = k = 0
    frame_index = None  # (p, m) coordinates of the orthonormal frame

    def _half_inverse_eps(self):
        """1 / (2 eps), the factor of every exponent that divides by eps."""
        if self.eps == 0.0:
            raise ParameterError("density is undefined at eps = 0")
        return 1.0 / (2.0 * self.eps)

    def field(self, coords):
        return self._rates(coords)[0]

    def divergence(self, coords):
        return self._divergence(*self._rates(_finite_state(coords, "coords"))[1])

    def check_density(self):
        return self.density_exponent

    def log_density(self, coords):
        """The exponent comes first: an undefined density raises before
        non-finite coords do."""
        return self.density_exponent * self.log_base(_finite_state(coords, "coords"))

    def log_density_grad(self, coords):
        return self.density_exponent * self.log_base_grad(_finite_state(coords, "coords"))

    def constraints(self, coords):
        """Upper triangle of F F^T - I for the frame F at coords (..., d)."""
        F = np.asarray(coords, dtype=float)[..., self.frame_index]
        p = F.shape[-2]
        iu = np.triu_indices(p)
        return (F @ np.swapaxes(F, -1, -2) - np.eye(p))[..., iu[0], iu[1]]

    def invariant_residual(self, coords):
        """Largest |constraint| at each point of coords (..., d); zero on an
        ambient chart."""
        if self.constraints is None:
            return np.zeros(np.shape(coords)[:-1])
        return np.max(np.abs(self.constraints(coords)), axis=-1)

    def flatten(self, coords):
        return coords

    def row(self, coords):
        return np.asarray(coords, dtype=float)

    def extra_drifts(self, states) -> dict:
        return {}

    def gated(self, first) -> set:
        return set()

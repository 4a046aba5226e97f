"""Controls that break a hypothesis of the paper's theorems rather than the
exponent: how far a flow may leave the paper's class before the volume
check notices.

The Veselova measure needs the wedge-product inertia I(Ei ^ Ej) = a_i a_j.
The flow below moves by the inertia wedge_products(a) + delta S, with S
symmetric of unit spectral norm, while the density, the constraints and the
starting states stay those of wedge_products(a).  The frame law holds for
any inertia, so the flow's own closed-form divergence stays exact and the
residual measures only the broken hypothesis.
"""

import numpy as np
import pytest

from conftest import rng_for
from nonholo.liealg import InertiaOperator
from nonholo.numerics import IntegratorConfig, tangent_volume_transport
from nonholo.veselova import VeselovaChart

GATE = 1e-6  # the volume check's default tolerance


def veselova_off_wedge_products(delta):
    """Worst volume residual over 4 seeds (n = 4, r = 1, eps = 2, t_end 5)
    of the flow with inertia wedge_products(a) + delta S, measured against
    the density of wedge_products(a)."""
    base = InertiaOperator.wedge_products([0.7, 1.0, 1.4, 1.9])
    B = rng_for(7).standard_normal((6, 6))
    S = B + B.T
    S /= np.linalg.norm(S, 2)
    truth = VeselovaChart(base, 1, 2.0)
    flow = VeselovaChart(InertiaOperator.general(4, base.dense_matrix + delta * S), 1, 2.0)
    xs = np.stack([truth.random_coords(rng_for(seed)) for seed in range(4)])
    results = tangent_volume_transport(
        flow.field, truth.log_density, xs, truth.constraints, IntegratorConfig(t_end=5.0),
        divergence_fn=flow.field_divergence,
    )
    return max(r.max_abs_residual for r in results)


def test_unperturbed_general_operator_passes():
    # delta = 0 runs the general-operator kernels on the wedge-product matrix
    assert veselova_off_wedge_products(0.0) <= 1e-9


def test_inertia_off_wedge_products_fails_the_gate():
    assert veselova_off_wedge_products(1e-4) > GATE


def test_residual_is_linear_in_the_violation():
    # slope residual / delta about 0.48: the gate detects delta of about 2e-6
    slopes = [veselova_off_wedge_products(delta) / delta for delta in (1e-6, 1e-4, 1e-2)]
    assert max(slopes) <= 1.1 * min(slopes), slopes
    assert min(slopes) == pytest.approx(0.48, rel=0.05)

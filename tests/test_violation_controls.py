"""Controls that break a hypothesis of the paper's theorems rather than the
exponent: how far a flow may leave the paper's class before the volume
check notices.

Each control perturbs one hypothesis by delta times S, a seeded symmetric
matrix of unit spectral norm, while the density, the constraints and the
starting states stay those of the unperturbed chart (n = 4, r = 1,
eps = 2, four seeds, t_end 5):

* the Veselova measure needs the wedge-product inertia I(Ei ^ Ej) =
  a_i a_j; the flow moves by the inertia wedge_products(a) + delta S;
* the L+R Stiefel measure needs the transfer operator I + D pr_{D_r} with
  I = wedge_products_chaplygin(a, D); the flow moves by I + delta S;
* both need the eps-modified frame law; the Veselova flow moves its frame
  at eps and its momentum at eps + delta.

The frame law holds in the first two, so the flow's own closed-form
divergence stays exact and the residual measures only the broken
hypothesis.  The third breaks the frame law itself, so it runs the basis
transport, which assumes nothing of the frame.  A ball's inertia is a free
parameter of its measure, so the balls have no such control.
"""

import numpy as np
import pytest

from conftest import rng_for
from nonholo.elpr import LPRStiefelChart
from nonholo.liealg import InertiaOperator
from nonholo.numerics import IntegratorConfig, tangent_volume_transport
from nonholo.veselova import VeselovaChart

GATE = 1e-6  # the volume check's default tolerance
A = [0.7, 1.0, 1.4, 1.9]


def _perturbation():
    B = rng_for(7).standard_normal((6, 6))
    S = B + B.T
    return S / np.linalg.norm(S, 2)


def _worst_residual(truth, field, divergence=None):
    """Worst volume residual over 4 seeds of field, measured against the
    density and constraints of truth."""
    xs = np.stack([truth.random_coords(rng_for(seed)) for seed in range(4)])
    results = tangent_volume_transport(
        field, truth.log_density, xs, truth.constraints, IntegratorConfig(t_end=5.0),
        divergence_fn=divergence,
    )
    return max(r.max_abs_residual for r in results)


def veselova_off_wedge_products(delta):
    base = InertiaOperator.wedge_products(A)
    flow = VeselovaChart(InertiaOperator.general(4, base.dense_matrix + delta * _perturbation()),
                         1, 2.0)
    return _worst_residual(VeselovaChart(base, 1, 2.0), flow.field, flow.divergence)


def lpr_stiefel_off_transfer_operator(delta):
    D = 1.01 * 1.1 * max(A) ** 2
    truth, flow = LPRStiefelChart(A, D, 1, 2.0), LPRStiefelChart(A, D, 1, 2.0)
    flow.op = InertiaOperator.general(4, truth.op.dense_matrix + delta * _perturbation())
    return _worst_residual(truth, flow.field, flow.divergence)


def veselova_eps_split_frame_law(delta):
    op = InertiaOperator.wedge_products(A)
    truth, shifted = VeselovaChart(op, 1, 2.0), VeselovaChart(op, 1, 2.0 + delta)

    def field(x):
        # w does not depend on eps, so the frame block is that of eps alone
        f = truth.field(x)
        f[..., : truth.N] = shifted.field(x)[..., : truth.N]
        return f

    return _worst_residual(truth, field)


# control -> (residual at delta = 0, slope residual / delta): the gate
# detects delta of about GATE / slope
CONTROLS = {
    "veselova_wedge_products": (veselova_off_wedge_products, 1e-9, 0.48),
    "lpr_stiefel_transfer_operator": (lpr_stiefel_off_transfer_operator, 1e-9, 0.20),
    # the basis transport's central differences leave a higher floor
    "veselova_eps_split_frame_law": (veselova_eps_split_frame_law, 1e-8, 0.69),
}


def residual(control, delta):
    return CONTROLS[control][0](delta)


@pytest.mark.parametrize("control", CONTROLS)
def test_unperturbed_flow_passes(control):
    # delta = 0 runs the perturbed flow's own code on the unperturbed data
    assert residual(control, 0.0) <= CONTROLS[control][1]


@pytest.mark.parametrize("control", CONTROLS)
def test_violation_fails_the_gate(control):
    assert residual(control, 1e-4) > GATE


@pytest.mark.parametrize("control", CONTROLS)
def test_residual_is_linear_in_the_violation(control):
    slopes = [residual(control, delta) / delta for delta in (1e-6, 1e-4, 1e-2)]
    assert max(slopes) <= 1.1 * min(slopes), slopes
    assert min(slopes) == pytest.approx(CONTROLS[control][2], rel=0.05)

"""Sphere-sphere rolling of a dynamically nonsymmetric ball, in 3-vector form.

Two systems on R^3 x S^2 with inertia I = diag(I1, I2, I3), offset D >= 0
and a real parameter eps (eps = sigma/(sigma +- rho) for rolling over a
sphere of radius sigma; eps = 1 recovers rolling over a plane):

marble (no-slip) ball:

    dk/dt = k x w,   dgamma/dt = eps gamma x w,
    k = I w + D w - D (w, gamma) gamma,

with invariant density sqrt(det(I + D)(1 - D (gamma, (I + D)^{-1} gamma)))
in the (w, gamma) variables.  The field there needs K(gamma)^{-1}, with
K(gamma) = diag(I + D) - D gamma gamma^T the map w -> k at fixed gamma;
by Sherman-Morrison, with u = (I + D)^{-1} gamma and s = 1 - D (gamma, u),

    K^{-1} v = (I + D)^{-1} v + D (u, v) / s u,

and the field's divergence is D (u, dgamma/dt) / s.

rubber (no-slip, no-twist) ball, multiplier form:

    dm/dt = m x w + lam gamma,   dgamma/dt = eps gamma x w,
    m = (I + D) w = I_tot w,

where lam is fixed by d/dt (w, gamma) = 0 (the (w, eps gamma x w) term
vanishes),

    lam = -(gamma, I_tot^{-1} (m x w)) / (gamma, I_tot^{-1} gamma),

so (w, gamma) = c is a first integral.  The invariant density is
(I_tot^{-1} gamma, gamma)^(1/(2 eps)) in both the (m, gamma) and
(w, gamma) variables, and so is the field's divergence,
(I_tot^{-1} gamma, w x gamma) / (I_tot^{-1} gamma, gamma).
The equivalent momentum form carries
m_bold = I_tot w + (gamma, w - I_tot w) gamma:

    d(m_bold)/dt = eps m_bold x w
                   + (1 - eps)(I_tot w x w - (I_tot w x w, gamma) gamma).

Everything here is written with plain cross products, independent of the
wedge-coordinate machinery, so these flows can serve as oracles for the
so(3) specializations of the general modules (see the crosscheck partners
below, which lift ball coordinates onto them).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import elpr, elr, veselova
from .chart import Chart
from .elr import _dot
from .errors import DimensionError, ParameterError
from .liealg import InertiaOperator, from_wedge, hat, to_wedge, unhat

__all__ = [
    "BallState",
    "densities_3d",
    "epsilon_from_radii",
    "ChaplyginChart",
    "RubberChart",
    "elpr_partner",
    "elr_partner",
    "veselova_partner",
    "random_ball_state",
]


def _vec3(v, name):
    v = np.asarray(v, dtype=float)
    if v.shape != (3,):
        raise DimensionError(f"{name}: must be a 3-vector, got shape {v.shape}")
    return v


# a x b by gathering: component i is a[i+1] b[i+2] - a[i+2] b[i+1] (mod 3),
# the products np.cross forms, without its per-call moveaxis overhead
_C1, _C2 = np.array([1, 2, 0]), np.array([2, 0, 1])


def _cross(a, b):
    return a[..., _C1] * b[..., _C2] - a[..., _C2] * b[..., _C1]


@dataclass(frozen=True, eq=False)
class BallState:
    """Ball state (w, gamma) with parameters (inertia, D, eps); |gamma| is
    1 within 1e-10."""

    omega: np.ndarray
    gamma: np.ndarray
    inertia: np.ndarray
    D: float = 0.0
    eps: float = 1.0

    def __post_init__(self):
        omega = _vec3(self.omega, "omega")
        gamma = _vec3(self.gamma, "gamma")
        inertia = _vec3(self.inertia, "inertia")
        if np.any(inertia <= 0.0):
            raise ParameterError("principal inertia moments must be positive")
        D = float(self.D)
        if D < 0.0:
            raise ParameterError("D must be nonnegative")
        if abs(_dot(gamma, gamma) - 1.0) > 1e-10:
            raise ParameterError("gamma must be a unit vector")
        object.__setattr__(self, "omega", omega)
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "inertia", inertia)
        object.__setattr__(self, "D", D)
        object.__setattr__(self, "eps", float(self.eps))

    @property
    def total_inertia(self) -> np.ndarray:
        """Principal moments of I_tot = I + D."""
        return self.inertia + self.D


def _k_vector(w, g, inertia, D):
    """Marble-ball momentum k = I w + D w - D (w, gamma) gamma, batched."""
    return inertia * w + D * (w - _dot(w, g)[..., None] * g)


def _momentum_vector(w, g, it):
    """Rubber-ball momentum m_bold = I_tot w + (gamma, w - I_tot w) gamma,
    batched; it holds the principal moments of I_tot."""
    v = it * w
    return v + _dot(g, w - v)[..., None] * g


def _k_solve(v, g, it, D):
    """K(gamma)^-1 v by the Sherman-Morrison formula above, batched; it holds
    the principal moments of I + D.  Returns K^-1 v, u and s, which the
    marble-ball divergence shares."""
    u = g / it
    s = 1.0 - D * _dot(g, u)
    return v / it + (D * _dot(u, v) / s)[..., None] * u, u, s


def densities_3d(state: BallState, which: str) -> float:
    """Closed-form invariant densities.

    "chaplygin": sqrt(det(I + D)(1 - D (gamma, (I + D)^{-1} gamma))) in the
    (w, gamma) variables.  "rubber": (I_tot^{-1} gamma, gamma)^(1/(2 eps))
    in the (m, gamma) or (w, gamma) variables.
    """
    if which == "chaplygin":
        it = state.total_inertia
        g = state.gamma
        return float(np.sqrt(np.prod(it) * (1.0 - state.D * _dot(g, g / it))))
    if which == "rubber":
        if state.eps == 0.0:
            raise ParameterError("density is undefined at eps = 0")
        base = _dot(state.gamma, state.gamma / state.total_inertia)
        return float(base ** (1.0 / (2.0 * state.eps)))
    raise ParameterError(f"unknown density selector {which!r}")


def epsilon_from_radii(sigma: float, rho: float, contact: str = "outer") -> float:
    """eps = sigma/(sigma + rho) for rolling over the outer surface of the
    fixed sphere, sigma/(sigma - rho) for rolling inside it (or for a
    spherical shell enclosing it); sigma -> infinity gives eps -> 1.
    """
    sigma, rho = float(sigma), float(rho)
    if sigma <= 0.0 or rho <= 0.0:
        raise ParameterError("radii must be positive")
    if contact == "outer":
        return sigma / (sigma + rho)
    if contact == "inner":
        if sigma == rho:
            raise ParameterError("inner contact needs sigma != rho")
        return sigma / (sigma - rho)
    raise ParameterError(f"unknown contact {contact!r}")


# ---------------------------------------------------------------------------
# flat charts on (R^3 x S^2)


class _BallChart(Chart):
    dim = 6
    n, r, k = 3, 1, 1
    config_keys = ("inertia", "D")
    frame_index = np.array([[3, 4, 5]])  # gamma

    def __init__(self, inertia, D, eps):
        self.inertia = _vec3(inertia, "inertia")
        if np.any(self.inertia <= 0.0):
            raise ParameterError("inertia: principal moments must be positive")
        self.D = float(D)
        if self.D < 0.0:
            raise ParameterError("D: must be nonnegative")
        self.eps = float(eps)
        self.it = self.inertia + self.D

    @classmethod
    def from_config(cls, cfg, **kwargs):
        inertia, D = cfg.vector("inertia", 3), cfg.get("D", float, default=0.0)
        return cls(inertia, D, cfg.epsilon, **kwargs)

    def random_coords(self, rng, zero_constants=False):
        state = random_ball_state(
            rng, inertia=self.inertia, D=self.D, eps=self.eps, zero_constraint=zero_constants
        )
        return self.flatten(state)

    def _split(self, coords):
        """w and gamma (..., 3) at coords (..., 6)."""
        coords = np.asarray(coords, dtype=float)
        return self._omega(coords[..., :3]), coords[..., 3:]

    def _omega(self, lead):
        return lead


class ChaplyginChart(_BallChart):
    """Marble ball in the (w, gamma) variables."""

    def _rates(self, coords):
        """The field at coords (..., d), then u, s of _k_solve and dgamma."""
        w, g = self._split(coords)
        dk = _cross(_k_vector(w, g, self.inertia, self.D), w)
        dg = self.eps * _cross(g, w)
        # dk = K(gamma) dw - D ((w, dg) gamma + (w, gamma) dg)
        rhs = dk + self.D * (_dot(w, dg)[..., None] * g + _dot(w, g)[..., None] * dg)
        dw, u, s = _k_solve(rhs, g, self.it, self.D)
        return np.concatenate([dw, dg], axis=-1), (u, s, dg)

    def _divergence(self, u, s, dg):
        """D (u, dgamma) / s, the trace D (gamma, K^-1 dgamma) of the w
        block; the gamma block (gamma -> eps gamma x w) is skew and has no
        trace."""
        return self.D * _dot(u, dg) / s

    density_exponent = 0.5

    def log_base(self, coords):
        """log det K(gamma) = log prod(I + D) (1 - D (gamma, (I + D)^-1 gamma))."""
        g = coords[..., 3:]
        return np.log(np.prod(self.it) * (1.0 - self.D * _dot(g, g / self.it)))

    def flatten(self, state: BallState) -> np.ndarray:
        return np.concatenate([state.omega, state.gamma])

    def columns(self):
        return ["k1", "k2", "k3", "g1", "g2", "g3"]

    def row(self, coords):
        w, g = self._split(coords)
        return np.concatenate([_k_vector(w, g, self.inertia, self.D), g], axis=-1)

    def integrals(self, coords):
        w, g = self._split(coords)
        return {"H": 0.5 * _dot(_k_vector(w, g, self.inertia, self.D), w)}

    def gated(self, first):
        return {"H_drift"}


class RubberChart(_BallChart):
    """Rubber ball in the (m, gamma) or (w, gamma) variables."""

    config_keys = ("inertia", "D", "variables")
    density_exponent = property(Chart._half_inverse_eps)

    def __init__(self, inertia, D, eps, variables: str = "m"):
        super().__init__(inertia, D, eps)
        if variables not in ("m", "omega"):
            raise ParameterError(f"variables: expected 'm' or 'omega', got {variables!r}")
        self.variables = variables

    @classmethod
    def from_config(cls, cfg):
        return super().from_config(cfg, variables=cfg.get("variables", str, default="m"))

    def _omega(self, lead):
        return lead / self.it if self.variables == "m" else lead

    def _rates(self, coords):
        """The field at coords (..., d), then (I + D)^-1 gamma, its product
        with gamma, and gamma x w."""
        w, g = self._split(coords)
        m = self.it * w
        mw = _cross(m, w)
        u = g / self.it
        gu = _dot(g, u)
        lam = -_dot(g, mw / self.it) / gu
        dm = mw + lam[..., None] * g
        gw = _cross(g, w)
        dg = self.eps * gw
        dlead = dm if self.variables == "m" else dm / self.it
        return np.concatenate([dlead, dg], axis=-1), (u, gu, gw)

    def _divergence(self, u, gu, gw):
        """(u, w x gamma) / (gamma, u), u = (I + D)^-1 gamma: the w block's
        trace, through lam, in either variable set (m = (I + D) w is
        linear); the gamma block is skew and has no trace."""
        return -_dot(u, gw) / gu

    def log_base(self, coords):
        """log (gamma, (I + D)^-1 gamma)."""
        g = coords[..., 3:]
        return np.log(_dot(g, g / self.it))

    def flatten(self, state: BallState) -> np.ndarray:
        lead = self.it * state.omega if self.variables == "m" else state.omega
        return np.concatenate([lead, state.gamma])

    def columns(self):
        lead = "m" if self.variables == "m" else "w"
        return [f"{lead}{i}" for i in (1, 2, 3)] + ["g1", "g2", "g3"]

    def integrals(self, coords):
        w, g = self._split(coords)
        return {"H": 0.5 * _dot(self.it * w, w), "phi1": _dot(w, g)}

    def gated(self, first):
        return {"phi1_drift", "H_drift"} if abs(first["phi1"]) <= 1e-12 else {"phi1_drift"}


# ---------------------------------------------------------------------------
# crosscheck partners: lifts to the general so(3) modules
#
# Each takes ball coordinates (d,) and returns the general chart, the lifted
# coordinates, and the deviation of ball samples from lifted samples.


def _lift_split(chart, coords):
    """w and gamma of the ball coordinates coords (d,) that a partner lifts;
    a gamma whose squared norm is off 1 by more than 1e-10 raises
    ParameterError."""
    if chart.invariant_residual(coords) > 1e-10:
        raise ParameterError("a lift needs a unit gamma (|gamma|^2 within 1e-10 of 1)")
    return chart._split(coords)


def _vec(c):
    """The 3-vectors of so(3) wedge coordinates c (..., 3)."""
    return unhat(from_wedge(c, 3))


def _max_abs(*diffs):
    """Largest |entry| over the last axis of all diffs (..., 3): the
    deviation of a ball sample from its lift's."""
    return np.max(np.abs(np.concatenate(diffs, axis=-1)), axis=-1)


def elpr_partner(chart: ChaplyginChart, coords):
    """Marble ball as the symmetric-operator flow with Pi = D pr_{gamma-perp},
    k_bold = hat(k) and the so(3) inertia of I."""
    w, g = _lift_split(chart, coords)
    other = elpr.LPRChart(InertiaOperator.so3_vector(chart.inertia), chart.eps)
    Pi = elpr.pi_variants(hat(g), chart.D)
    kc = to_wedge(hat(_k_vector(w, g, chart.inertia, chart.D)))

    def deviation(rb, rg):
        return _max_abs(chart._split(rb)[0] - _vec(other.velocity(rg)))

    return other, other._pack(elpr._velocity(kc, Pi, other.op), Pi), deviation


def elr_partner(chart: RubberChart, coords):
    """Rubber ball as the multiplier-form frame flow with k = 1, e1 =
    hat(gamma) and inertia I + D."""
    w, g = _lift_split(chart, coords)
    other = elr.MultiplierChart(InertiaOperator.so3_vector(chart.it), 1, chart.eps)

    def deviation(rb, rg):
        w, g = chart._split(rb)
        return _max_abs(w - _vec(rg[..., :3]), g - _vec(rg[..., 3:]))

    return other, np.concatenate([to_wedge(hat(w)), to_wedge(hat(g))]), deviation


def veselova_partner(chart: RubberChart, coords):
    """Rubber ball as the r = 1 moving-frame flow with U = gamma,
    m_bold = hat of the momentum-form vector and the shifted inertia (its
    wedge-product density formula does not apply to this operator)."""
    w, g = _lift_split(chart, coords)
    op = InertiaOperator.shifted(InertiaOperator.so3_vector(chart.inertia), chart.D)
    other = veselova.VeselovaChart(op, 1, chart.eps)
    mc = to_wedge(hat(_momentum_vector(w, g, chart.it)))

    def deviation(rb, rg):
        w, g = chart._split(rb)
        return _max_abs(_momentum_vector(w, g, chart.it) - _vec(rg[..., :3]), g - rg[..., 3:])

    return other, np.concatenate([mc, g]), deviation


def random_ball_state(
    rng: np.random.Generator,
    inertia,
    D: float = 1.0,
    eps: float = 1.0,
    zero_constraint: bool = False,
) -> BallState:
    """Seeded random state of the ball with principal moments inertia (3,);
    zero_constraint makes (w, gamma) = 0 exactly."""
    g = rng.standard_normal(3)
    g = g / np.linalg.norm(g)
    w = rng.standard_normal(3)
    if zero_constraint:
        w = w - _dot(w, g) * g
    w = w / np.linalg.norm(w)
    return BallState(w, g, inertia, D, eps)

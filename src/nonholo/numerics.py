"""Integration and measure-verification tools on flat coordinate charts.

Every callable this module takes (a field, a log density, constraints) is
batched: it maps states (..., d) to values (..., m), or to (...) for a
scalar, row by row, so that a finite-difference stencil or an ensemble is
evaluated in one call.  A field returns time derivatives (..., d).  Wrap a
function of one point (d,) in ``pointwise`` to make it batched; a stacked
evaluation whose result has any other shape raises DimensionError.

Two verification primitives are provided:

* ``liouville_residual_ambient``: pointwise div(X) + d/dt log(mu) on a full
  linear chart, with the divergence taken from a central finite-difference
  Jacobian (deliberately independent of any closed-form divergence).

* ``tangent_volume_transport``: propagates an orthonormal basis of the
  constraint-manifold tangent space with the variational equation
  dV/dt = J(x(t)) V and accumulates the log volume of the transported
  parallelepiped; for an invariant measure mu the sum
  log mu(x(t)) + log vol(V(t)) stays constant.  J V is never formed from
  J: each of its q columns is a central difference of the field along the
  matching column of V.  The constraint Jacobian is taken once, for the
  initial basis: the flow keeps V tangent, so later samples only check
  the constraint drift and re-orthonormalize V.  An ensemble of initial
  states (S, d) is transported together: each stage evaluates the field
  once, on every member's point and its 2q directional points stacked.

The default integrator is the embedded Dormand-Prince 8(5,3) pair of
Hairer's DOP853 with a proportional step controller; a fixed-step classical
RK4 is available for convergence studies.  Both are deterministic.  The
adaptive driver also steps an ensemble state (S, D) with one shared step
sequence; its error norm is the largest member error, so no member is
under-controlled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from numbers import Integral

import numpy as np

from .errors import (
    ConstraintDriftError,
    DimensionError,
    IntegrationAbort,
    NonholoError,
    ParameterError,
    SingularityError,
    StiffnessError,
)

__all__ = [
    "IntegratorConfig",
    "IntegrationStats",
    "Trajectory",
    "TransportResult",
    "rk4_step",
    "integrate",
    "fd_jacobian",
    "fd_gradient",
    "divergence",
    "liouville_residual_ambient",
    "constraint_tangent_basis",
    "tangent_volume_transport",
    "polar_orthonormalize",
    "pointwise",
    "skew_symmetrize",
]

_FD_H = float(np.finfo(float).eps) ** (1.0 / 3.0)
# Upper bound on one stacked field batch of an ensemble transport stage.
_ENSEMBLE_BATCH_BYTES = 64 * 2**20
# Constraint drift at a sample time beyond this aborts a transport.
_DRIFT_TOL = 1e-6
# Relative singular-value cut of the constraint Jacobian's rank.
_RANK_RTOL = 1e-9


# ---------------------------------------------------------------------------
# steppers


def rk4_step(f, x, dt):
    """One classical fourth-order Runge-Kutta step for autonomous f."""
    x = np.asarray(x, dtype=float)
    k1 = np.asarray(f(x))
    k2 = np.asarray(f(x + 0.5 * dt * k1))
    k3 = np.asarray(f(x + 0.5 * dt * k2))
    k4 = np.asarray(f(x + dt * k3))
    return x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


# Dormand-Prince 8(5,3), the coefficients of Hairer's DOP853 (Hairer,
# Norsett & Wanner, Solving Ordinary Differential Equations I, sec. II.10).
# Stage i is the field at x + h * (_DOP853_A[i] @ K[:i]).  The last row of A
# is the first 12 weights of B, so the 13th stage is the field at the new
# point and starts the next step (FSAL): a step costs 12 evaluations.
_DOP853_A = (
    np.array([]),
    np.array([5.26001519587677318785587544488e-2]),
    np.array([1.97250569845378994544595329183e-2, 5.91751709536136983633785987549e-2]),
    np.array([2.95875854768068491816892993775e-2, 0, 8.87627564304205475450678981324e-2]),
    np.array([
        2.41365134159266685502369798665e-1, 0, -8.84549479328286085344864962717e-1,
        9.24834003261792003115737966543e-1,
    ]),
    np.array([
        3.7037037037037037037037037037e-2, 0, 0, 1.70828608729473871279604482173e-1,
        1.25467687566822425016691814123e-1,
    ]),
    np.array([
        3.7109375e-2, 0, 0, 1.70252211019544039314978060272e-1,
        6.02165389804559606850219397283e-2, -1.7578125e-2,
    ]),
    np.array([
        3.70920001185047927108779319836e-2, 0, 0, 1.70383925712239993810214054705e-1,
        1.07262030446373284651809199168e-1, -1.53194377486244017527936158236e-2,
        8.27378916381402288758473766002e-3,
    ]),
    np.array([
        6.24110958716075717114429577812e-1, 0, 0, -3.36089262944694129406857109825,
        -8.68219346841726006818189891453e-1, 2.75920996994467083049415600797e1,
        2.01540675504778934086186788979e1, -4.34898841810699588477366255144e1,
    ]),
    np.array([
        4.77662536438264365890433908527e-1, 0, 0, -2.48811461997166764192642586468,
        -5.90290826836842996371446475743e-1, 2.12300514481811942347288949897e1,
        1.52792336328824235832596922938e1, -3.32882109689848629194453265587e1,
        -2.03312017085086261358222928593e-2,
    ]),
    np.array([
        -9.3714243008598732571704021658e-1, 0, 0, 5.18637242884406370830023853209,
        1.09143734899672957818500254654, -8.14978701074692612513997267357,
        -1.85200656599969598641566180701e1, 2.27394870993505042818970056734e1,
        2.49360555267965238987089396762, -3.0467644718982195003823669022,
    ]),
    np.array([
        2.27331014751653820792359768449, 0, 0, -1.05344954667372501984066689879e1,
        -2.00087205822486249909675718444, -1.79589318631187989172765950534e1,
        2.79488845294199600508499808837e1, -2.85899827713502369474065508674,
        -8.87285693353062954433549289258, 1.23605671757943030647266201528e1,
        6.43392746015763530355970484046e-1,
    ]),
)
_DOP853_B = np.array([
    5.42937341165687622380535766363e-2, 0, 0, 0, 0, 4.45031289275240888144113950566,
    1.89151789931450038304281599044, -5.8012039600105847814672114227,
    3.1116436695781989440891606237e-1, -1.52160949662516078556178806805e-1,
    2.01365400804030348374776537501e-1, 4.47106157277725905176885569043e-2, 0,
])
_DOP853_A += (_DOP853_B[:12],)
_STAGES = len(_DOP853_A)
# fifth-order error weights, and B minus the third-order weights bhh1, bhh2,
# bhh3 on stages 1, 9 and 12
_DOP853_E5 = np.array([
    0.1312004499419488073250102996e-1, 0, 0, 0, 0,
    -0.1225156446376204440720569753e1, -0.4957589496572501915214079952,
    0.1664377182454986536961530415e1, -0.3503288487499736816886487290,
    0.3341791187130174790297318841, 0.8192320648511571246570742613e-1,
    -0.2235530786388629525884427845e-1, 0,
])
_DOP853_E3 = _DOP853_B - np.array([
    0.244094488188976377952755905512, 0, 0, 0, 0, 0, 0, 0,
    0.733846688281611857341361741547, 0, 0, 0.220588235294117647058823529412e-1, 0,
])
# names of the adaptive method; "embedded_adaptive" and "dp45" are kept for
# configs written when the method was Dormand-Prince 5(4)
_ADAPTIVE = ("dop853", "embedded_adaptive", "dp45")


def _error_norm(h, K, sc):
    """Largest member error of a step, blended from the fifth- and third-order
    estimates as in Hairer's DOP853; sc (..., D) holds the error scales."""
    e5 = np.sum(((_DOP853_E5 @ K).reshape(sc.shape) / sc) ** 2, axis=-1)
    e3 = np.sum(((_DOP853_E3 @ K).reshape(sc.shape) / sc) ** 2, axis=-1)
    denom = e5 + 0.01 * e3
    # both estimates zero: a zero error, not 0/0
    denom = np.where(denom == 0.0, 1.0, denom) * sc.shape[-1]
    return float(np.max(h * e5 / np.sqrt(denom)))


@dataclass
class IntegratorConfig:
    """Settings for ``integrate``.

    method is "dop853" (the adaptive Dormand-Prince 8(5,3) pair, default;
    "embedded_adaptive" and "dp45" name the same method) or "rk4_fixed"
    (requires dt).  samples is the number of equally spaced output times on
    [0, t_end] including both ends.  renormalize_every applies a chart
    renormalization after that many accepted steps; it is disabled by
    default and must stay disabled during measure checks.  samples,
    max_steps and renormalize_every are integers; samples and
    renormalize_every are at least 1.
    """

    method: str = "dop853"
    t_end: float = 5.0
    dt: float | None = None
    abs_tol: float = 1e-10
    rel_tol: float = 1e-10
    samples: int = 33
    max_steps: int = 2_000_000
    renormalize_every: int | None = None

    def __post_init__(self):
        if self.method not in _ADAPTIVE + ("rk4_fixed",):
            raise ParameterError(f"unknown integrator method {self.method!r}")
        for name in ("t_end", "abs_tol", "rel_tol", "dt"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ParameterError(f"{name} must be finite, got {value!r}")
        if self.method == "rk4_fixed" and (self.dt is None or self.dt <= 0.0):
            raise ParameterError("rk4_fixed requires a positive dt")
        if self.abs_tol <= 0.0 or self.rel_tol < 0.0:
            raise ParameterError("tolerances must be positive")
        if self.t_end < 0.0:
            raise ParameterError("t_end must be nonnegative")
        counts = {"samples": self.samples, "max_steps": self.max_steps}
        if self.renormalize_every is not None:
            counts["renormalize_every"] = self.renormalize_every
        for name, value in counts.items():
            if isinstance(value, bool) or not isinstance(value, Integral):
                raise ParameterError(f"{name} must be an integer, got {value!r}")
        if self.samples < 1:
            raise ParameterError("need at least one sample")
        if self.renormalize_every is not None and self.renormalize_every < 1:
            raise ParameterError("renormalize_every must be at least 1")

    def sample_times(self) -> np.ndarray:
        if self.samples == 1 or self.t_end == 0.0:
            return np.array([0.0])
        return np.linspace(0.0, self.t_end, self.samples)


@dataclass
class IntegrationStats:
    """What a driver did.  The adaptive pair reuses its last stage (FSAL), so
    evaluations == 1 + 12 * (accepted + rejected) + fsal_resets.

    h_min and h_max are the smallest and largest accepted step, the last
    step before each sample time included; they stay inf and 0 until a
    step is accepted.
    """

    accepted: int = 0
    rejected: int = 0
    evaluations: int = 0
    fsal_resets: int = 0
    h_min: float = float("inf")
    h_max: float = 0.0

    def _accept(self, h):
        self.accepted += 1
        self.h_min = min(self.h_min, h)
        self.h_max = max(self.h_max, h)


@dataclass
class Trajectory:
    times: np.ndarray
    states: np.ndarray
    stats: IntegrationStats = field(default_factory=IntegrationStats)


def _rms(a):
    """Root mean square over the last axis: one value per ensemble member."""
    return np.sqrt(np.mean(a**2, axis=-1))


class _AdaptiveDriver:
    """Dormand-Prince 8(5,3) stepping between target times, FSAL reused.

    The state is (D,) or an ensemble (S, D) stepped with one shared step
    sequence; the step is controlled by the largest member error.  A step
    shortened to end on a target time leaves the step size it was cut from
    for the next step, unless its own error allows a longer one.
    """

    def __init__(self, f, x, cfg):
        self.f = f
        self.x = np.asarray(x, dtype=float).copy()
        self.cfg = cfg
        self.t = 0.0
        self.h = None
        self.f0 = None
        self.accepted_since_renorm = 0
        self.stats = IntegrationStats()

    def _eval(self, x):
        self.stats.evaluations += 1
        try:
            return np.asarray(self.f(x), dtype=float)
        except NonholoError as exc:
            raise IntegrationAbort(self.t, exc) from exc

    def _fsal_start(self):
        if self.f0 is None:  # first call, or FSAL value dropped by a reset
            if self.stats.evaluations:
                self.stats.fsal_resets += 1
            self.f0 = self._eval(self.x)
            if not np.all(np.isfinite(self.f0)):
                raise IntegrationAbort(self.t, "non-finite field value")

    def _initial_h(self, span):
        sc = self.cfg.abs_tol + self.cfg.rel_tol * np.abs(self.x)
        d0 = np.atleast_1d(_rms(self.x / sc))
        d1 = np.atleast_1d(_rms(self.f0 / sc))
        h = min(
            0.01 * a / b if b > 1e-12 and a > 1e-12 else 1e-3 * span
            for a, b in zip(d0.tolist(), d1.tolist())
        )
        return min(max(h, 1e-8 * span), span)

    def advance(self, t_target, on_accept=None):
        cfg = self.cfg
        self._fsal_start()
        if self.h is None:
            self.h = self._initial_h(max(t_target - self.t, 1e-12))
        while self.t < t_target - 1e-14 * max(1.0, abs(t_target)):
            self._fsal_start()
            if self.stats.accepted + self.stats.rejected >= cfg.max_steps:
                raise IntegrationAbort(self.t, "max_steps exceeded")
            h = min(self.h, t_target - self.t)
            if h < 1e-14 * max(1.0, abs(self.t)):
                raise StiffnessError(
                    f"step size underflow at t={self.t:.6g} (h={h:.3e})"
                )
            # stage i is row i of K; K[:i] feeds stage i, all of K the update
            K = np.empty((_STAGES, self.x.size))
            stages = K.reshape((_STAGES,) + self.x.shape)
            stages[0] = self.f0
            x = self.x.reshape(-1)
            for i in range(1, _STAGES):
                stages[i] = self._eval((x + h * (_DOP853_A[i] @ K[:i])).reshape(self.x.shape))
            x_new = (x + h * (_DOP853_B @ K)).reshape(self.x.shape)
            sc = cfg.abs_tol + cfg.rel_tol * np.maximum(np.abs(self.x), np.abs(x_new))
            err_norm = _error_norm(h, K, sc)
            if not np.isfinite(err_norm):
                raise IntegrationAbort(self.t, "non-finite field value")
            if err_norm <= 1.0:
                self.stats._accept(h)
                self.t += h
                self.x = x_new
                self.f0 = stages[-1]  # FSAL: last stage is f at the accepted point
                self.accepted_since_renorm += 1
                if on_accept is not None:
                    on_accept(self)
                factor = 5.0 if err_norm == 0.0 else min(
                    5.0, max(0.2, 0.9 * err_norm ** -0.125)
                )
                # a step cut short to end on t_target keeps the size it was cut from
                self.h = max(self.h, h * factor) if h < self.h else h * factor
            else:
                self.stats.rejected += 1
                self.h = h * max(0.2, 0.9 * err_norm ** -0.125)
        return self.x

    def reset_fsal(self):
        self.f0 = None


class _FixedDriver:
    """Classical RK4 with a fixed step, shortened to hit target times."""

    def __init__(self, f, x, cfg):
        self.f = f
        self.x = np.asarray(x, dtype=float).copy()
        self.cfg = cfg
        self.t = 0.0
        self.accepted_since_renorm = 0
        self.stats = IntegrationStats()

    def advance(self, t_target, on_accept=None):
        dt = self.cfg.dt
        while self.t < t_target - 1e-14 * max(1.0, abs(t_target)):
            if self.stats.accepted >= self.cfg.max_steps:
                raise IntegrationAbort(self.t, "max_steps exceeded")
            h = min(dt, t_target - self.t)
            try:
                x = rk4_step(self.f, self.x, h)
            except NonholoError as exc:
                raise IntegrationAbort(self.t, exc) from exc
            if not np.all(np.isfinite(x)):
                raise IntegrationAbort(self.t, "non-finite state")
            self.x = x
            self.t += h
            self.stats._accept(h)
            self.stats.evaluations += 4
            self.accepted_since_renorm += 1
            if on_accept is not None:
                on_accept(self)
        return self.x

    def reset_fsal(self):
        pass


def _make_driver(f, x0, cfg):
    if cfg.method == "rk4_fixed":
        return _FixedDriver(f, x0, cfg)
    return _AdaptiveDriver(f, x0, cfg)


def integrate(field_fn, x0, cfg: IntegratorConfig, renormalize_fn=None):
    """Integrate dx/dt = field_fn(x) and sample at cfg.sample_times().

    x0 is one state (d,) or an ensemble (S, d); states then has shape
    (T, d) or (T, S, d).  An ensemble shares one driver: field_fn is called
    on all S members at once, so it must broadcast over a leading batch
    dimension, and the adaptive pair controls the step by the largest member
    error, so a member can differ from its own (d,) run at the
    integrator-error level.
    renormalize_fn, if given together with cfg.renormalize_every, projects
    the state back onto its manifold after that many accepted steps.
    """
    x0 = np.asarray(x0, dtype=float)
    times = cfg.sample_times()
    driver = _make_driver(field_fn, x0, cfg)

    every = cfg.renormalize_every

    def on_accept(drv):
        if renormalize_fn is not None and every and drv.accepted_since_renorm >= every:
            drv.x = np.asarray(renormalize_fn(drv.x), dtype=float)
            drv.accepted_since_renorm = 0
            drv.reset_fsal()

    states = [driver.x.copy()]
    for t in times[1:]:
        driver.advance(float(t), on_accept=on_accept)
        states.append(driver.x.copy())
    return Trajectory(times=times, states=np.array(states), stats=driver.stats)


# ---------------------------------------------------------------------------
# finite differences


def _fd_points(x, h_scale):
    """Central-difference stencil of x (..., d): points (..., 2d, d), steps (..., d).

    Row i of the stencil is x + h_i e_i and row d + i is x - h_i e_i, with
    h_i = h_scale * max(1, |x_i|).
    """
    d = x.shape[-1]
    h = h_scale * np.maximum(1.0, np.abs(x))
    step = h[..., :, None] * np.eye(d)
    pts = np.concatenate([x[..., None, :] + step, x[..., None, :] - step], axis=-2)
    return pts, h


def pointwise(fn):
    """Batched form of fn, a function of one point (d,) with a scalar or (m,)
    value: the returned callable maps (..., d) to (..., m), calling fn once
    per row."""

    def batched(x):
        x = np.asarray(x, dtype=float)
        rows = [np.asarray(fn(p), dtype=float).ravel() for p in x.reshape(-1, x.shape[-1])]
        return np.array(rows).reshape(x.shape[:-1] + (-1,))

    return batched


def _eval_rows(fn, pts):
    """Batched fn on every row of pts (..., d) in one call: values (..., m),
    m = 1 for a scalar fn."""
    flat = pts.reshape(-1, pts.shape[-1])
    vals = np.asarray(fn(flat), dtype=float)
    if vals.ndim not in (1, 2) or vals.shape[0] != flat.shape[0]:
        raise DimensionError(
            f"a batched callable returned shape {vals.shape} for {flat.shape[0]} rows; "
            "wrap a function of one point in numerics.pointwise"
        )
    return vals.reshape(pts.shape[:-1] + (-1,))


def _field_and_jv(field_fn, x, Vt):
    """field_fn at x (S, d) and (J V)^T (S, q, d) from one call on S (1 + 2q) rows.

    Vt (S, q, d) holds the columns v_j of each member's V as rows.  Row j of
    (J V)^T is the central difference of the field along v_j with step
    t_j = _FD_H * max(1, |x|_inf) / |v_j|, which puts every point of a member
    at the same distance from x; a zero column gives a zero row.
    """
    S, q, d = Vt.shape
    xr = x[:, None, :]
    scale = _FD_H * np.abs(xr).max(axis=-1, initial=1.0)
    t = scale / np.sqrt(np.maximum((Vt * Vt).sum(axis=-1), 1e-300))
    step = t[..., None] * Vt
    # filled in place: a concatenate would copy every point once more
    pts = np.empty((S, 1 + 2 * q, d))
    pts[:, 0] = x
    np.add(xr, step, out=pts[:, 1 : q + 1])
    np.subtract(xr, step, out=pts[:, q + 1 :])
    vals = _eval_rows(field_fn, pts)
    jvt = vals[:, 1 : q + 1] - vals[:, q + 1 :]
    jvt /= 2.0 * t[..., None]
    return vals[:, 0], jvt


def fd_jacobian(fn, x, h_scale: float | None = None) -> np.ndarray:
    """Central finite-difference Jacobian of fn at x (..., d), shape (..., m, d).

    The step along coordinate i is h_scale * max(1, |x_i|) with
    h_scale = eps**(1/3) by default.  fn, batched, is called once on the
    stacked stencils of every point (2d rows each).
    """
    x = np.asarray(x, dtype=float)
    d = x.shape[-1]
    pts, h = _fd_points(x, _FD_H if h_scale is None else h_scale)
    vals = _eval_rows(fn, pts)
    diff = (vals[..., :d, :] - vals[..., d:, :]) / (2.0 * h[..., :, None])
    return np.swapaxes(diff, -1, -2)


# fd_gradient calls the stencil by this name, so that a wrapper installed on
# fd_jacobian (a profiler, say) sees only the Jacobians asked for as such
_jacobian = fd_jacobian


def fd_gradient(fn, x, h_scale: float | None = None) -> np.ndarray:
    """Gradient (..., d) of scalar fn at x (..., d): row 0 of its Jacobian."""
    return _jacobian(fn, x, h_scale)[..., 0, :]


def divergence(field_fn, x, h_scale: float | None = None):
    """Divergence (...) of the field at x (..., d): the trace of fd_jacobian."""
    return np.trace(fd_jacobian(field_fn, x, h_scale), axis1=-2, axis2=-1)


def liouville_residual_ambient(field_fn, log_density_fn, x) -> float:
    """div(X)(x) + <grad log mu, X>(x) on a full linear chart, at one point x (d,).

    Vanishes identically when mu is the density of an invariant measure in
    these coordinates.  Both terms come from central finite differences, so
    the residual is independent of any closed-form divergence.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise DimensionError(f"x: expected one point (d,), got shape {x.shape}")
    div = divergence(field_fn, x)
    grad = fd_gradient(log_density_fn, x)
    fx = np.asarray(field_fn(x), dtype=float).ravel()
    return float(div + grad @ fx)


# ---------------------------------------------------------------------------
# constrained volume transport


def _check_drift(times, drift):
    """Raise ConstraintDriftError at the first of the sample times whose
    constraint drift (largest |constraint|, one value per time) exceeds
    _DRIFT_TOL."""
    over = np.flatnonzero(np.asarray(drift) > _DRIFT_TOL)
    if over.size:
        i = over[0]
        raise ConstraintDriftError(
            f"constraint drift {drift[i]:.3e} exceeds {_DRIFT_TOL:g} at t={times[i]:.4g}"
        )


def constraint_tangent_basis(constraints_fn, x) -> np.ndarray:
    """Orthonormal basis (..., d, q) of the null space of the constraint Jacobian
    at x (..., d), from one stacked fd_jacobian; every point must leave the same q.
    Singular values at or below _RANK_RTOL times the largest count as zero."""
    jac = fd_jacobian(constraints_fn, x)
    _, s, vt = np.linalg.svd(jac)
    ranks = np.unique(np.sum(s > _RANK_RTOL * s[..., :1], axis=-1))
    if ranks.size > 1:
        raise DimensionError("ensemble members have tangent spaces of different dimension")
    basis = np.swapaxes(vt[..., int(ranks[0]) :, :], -1, -2)
    if basis.shape[-1] == 0:
        raise SingularityError("constraints leave no tangent directions")
    return basis


@dataclass
class TransportResult:
    """Sampled log-density, transported log-volume, and their combined drift.

    residual[i] = (log_density + log_tangent_volume) at times[i] minus the
    same quantity at times[0]; it stays near zero exactly when the density
    defines an invariant measure on the constraint manifold.  stats counts
    the steps of the driver, shared by every member of an ensemble.
    """

    times: np.ndarray
    log_density: np.ndarray
    log_tangent_volume: np.ndarray
    residual: np.ndarray
    stats: IntegrationStats = field(default_factory=IntegrationStats)

    @property
    def max_abs_residual(self) -> float:
        return float(np.max(np.abs(self.residual)))


def tangent_volume_transport(
    field_fn,
    log_density_fn,
    x0,
    constraints_fn=None,
    cfg: IntegratorConfig | None = None,
    n_samples: int = 11,
) -> TransportResult | list[TransportResult]:
    """Transport a tangent-space volume element along the flow.

    The tangent basis (columns of V) starts as constraint_tangent_basis and
    solves dV/dt = J(x(t)) V with J the Jacobian of the field; J V is taken
    column by column, as the central difference of the field along each
    column of V.  The flow's linearisation keeps V tangent, so V is never
    projected.  At each sample time V is re-orthonormalized by QR and
    |det R| is accumulated into a running log volume, which keeps the
    computation well scaled over long runs.  Constraint drift beyond 1e-6
    aborts.

    With constraints_fn None the transport runs on the full chart (the
    basis starts as the identity), which turns the check into an integrated
    ambient Liouville test.

    x0 is one state (d,), which returns one TransportResult, or an ensemble
    (S, d), which returns a list with one TransportResult per member.  The
    members share one driver: every stage calls field_fn once, on each
    member's state and its 2q directional points stacked (q the number of
    columns of V), and the step is controlled by the largest member error.
    A member's residual can therefore differ from its own (d,) transport at
    the integrator-error level.  Any failure of one member raises for the
    whole ensemble.  The initial basis and every later sample time make one
    call each of constraints_fn and log_density_fn on all members.
    Members run in consecutive groups small enough that one stacked field
    batch stays under 64 MB.
    """
    x0 = np.asarray(x0, dtype=float)
    if x0.ndim not in (1, 2):
        raise DimensionError(f"x0: expected shape (d,) or (S, d), got {x0.shape}")
    xs = x0.reshape(-1, x0.shape[-1])
    S, d = xs.shape
    if cfg is None:
        cfg = IntegratorConfig()
    # a member's batch has 1 + 2q rows of d values, and q <= d
    group = max(1, _ENSEMBLE_BATCH_BYTES // (8 * (1 + 2 * d) * d))
    results = []
    for lo in range(0, S, group):
        results += _transport_group(
            field_fn, log_density_fn, xs[lo : lo + group], constraints_fn, cfg, n_samples
        )
    return results[0] if x0.ndim == 1 else results


def _transport_group(field_fn, log_density_fn, xs, constraints_fn, cfg, n_samples):
    """tangent_volume_transport of an ensemble xs (S, d) on one shared driver."""
    S, d = xs.shape
    if constraints_fn is None:
        V = np.tile(np.eye(d), (S, 1, 1))
    else:
        V = constraint_tangent_basis(constraints_fn, xs)
    q = V.shape[-1]

    # the driver state of a member is x, then V^T row by row
    def aug_field(y):
        fx, JVt = _field_and_jv(field_fn, y[:, :d], y[:, d:].reshape(S, q, d))
        return np.concatenate([fx, JVt.reshape(S, q * d)], axis=1)

    t_grid = np.linspace(0.0, cfg.t_end, n_samples) if cfg.t_end > 0 else np.array([0.0])
    logvol = np.zeros(S)
    lds = [_eval_rows(log_density_fn, xs).reshape(S)]
    lvs = [logvol.copy()]

    Vt = np.swapaxes(V, 1, 2).reshape(S, q * d)
    driver = _make_driver(aug_field, np.concatenate([xs, Vt], axis=1), cfg)
    for t in t_grid[1:]:
        y = driver.advance(float(t)).copy()
        x = y[:, :d]
        if constraints_fn is not None:
            _check_drift([t], [np.max(np.abs(_eval_rows(constraints_fn, x)), initial=0.0)])
        Q, R = np.linalg.qr(np.swapaxes(y[:, d:].reshape(S, q, d), 1, 2))
        diag = np.abs(np.diagonal(R, axis1=1, axis2=2))
        if np.any(diag <= 0.0):
            raise SingularityError("transported tangent volume collapsed")
        logvol += np.sum(np.log(diag), axis=1)
        y[:, d:] = np.swapaxes(Q, 1, 2).reshape(S, q * d)
        driver.x = y
        driver.reset_fsal()
        lds.append(_eval_rows(log_density_fn, x).reshape(S))
        lvs.append(logvol.copy())
    lds, lvs = np.array(lds), np.array(lvs)
    res = lds + lvs - lds[0]
    return [
        TransportResult(
            times=t_grid.copy(),
            log_density=lds[:, i],
            log_tangent_volume=lvs[:, i],
            residual=res[:, i],
            stats=driver.stats,
        )
        for i in range(S)
    ]


# ---------------------------------------------------------------------------
# renormalization helpers


def polar_orthonormalize(U: np.ndarray) -> np.ndarray:
    """Closest matrix with orthonormal columns, or rows where U (..., a, b) is
    wider than tall: the polar factor, via SVD."""
    U = np.asarray(U, dtype=float)
    u, s, vt = np.linalg.svd(U, full_matrices=False)
    if np.any(s <= 1e-12 * np.maximum(s[..., :1], 1e-300)):
        raise SingularityError("matrix is rank deficient; polar factor undefined")
    return u @ vt

def skew_symmetrize(M: np.ndarray) -> np.ndarray:
    """Skew part (M - M^T)/2, the nearest skew-symmetric matrix."""
    M = np.asarray(M, dtype=float)
    return 0.5 * (M - np.swapaxes(M, -1, -2))

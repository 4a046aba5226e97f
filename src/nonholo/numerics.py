"""Integration and measure-verification tools on flat coordinate charts.

Every callable this module takes (a field, a log density, constraints) is
batched: it maps states (..., d) to values (..., m), or to (...) for a
scalar, row by row, so that a finite-difference stencil or an ensemble is
evaluated in one call.  A field returns time derivatives (..., d).  Wrap a
function of one point (d,) in ``pointwise`` to make it batched; a stacked
evaluation whose result has any other shape raises DimensionError.

Two verification primitives are provided:

* ``liouville_residual_ambient``: div(X) + d/dt log(mu) at each point of a
  batch (..., d) on a full linear chart.  By default the divergence and the
  log-density gradient come from central finite differences, independent
  of any closed form; ``verify --check liouville`` passes the chart's
  closed-form ``divergence`` and ``log_density_grad`` instead.

* ``tangent_volume_transport``: integrates the log volume of a tangent
  volume element along the flow; for an invariant measure mu the sum
  log mu(x(t)) + log vol(t) stays constant.  ``verify --check volume``
  passes the chart's ``divergence`` as ``divergence_fn``: the log
  volume is then one more number per state, a pure quadrature of
  ``integrate`` at the rate div X (Liouville's formula), which on a
  constrained chart is the manifold divergence as long as the flow moves
  its frame F by F' = F Omega, Omega skew.  The state steps by the field
  alone, and the divergence is one call per step on the stage points that
  carry a weight.  Without divergence_fn, the default propagates an
  orthonormal basis V of the constraint-manifold tangent space with the
  variational equation dV/dt = J(x(t)) V, J V from ``fd_jvp``: each of the
  q columns as a central difference of the field along it, from one field
  call on 1 + 2q rows per state.  The constraint Jacobian is taken once,
  for the initial basis: the flow keeps V tangent, so later samples only
  check the constraint drift.  Every accepted step re-orthonormalizes V
  and adds log |det R| to the log volume, which is one more number per
  state as on the divergence path.  This basis transport is the
  independent check of the divergence path.  Both paths are one
  ``integrate`` call, and an ensemble of initial states (S, d) is
  transported together: each stage and each quadrature makes one call on
  every member at once.

The one integrator is the embedded Dormand-Prince 8(5,3) pair of Hairer's
DOP853 with a proportional step controller; it is deterministic.  Its step
follows the tolerance, not the sample grid: each sample time inside a trial
step is reached by a branch, a step of that length from the same start,
stacked as one more row of the same field calls.  Its error norm is the
largest over the step, its branches and the members of an ensemble state
(S, D), which share one step sequence, so no sample and no member is
under-controlled.  A last column that never feeds back into the others can
be a pure quadrature (see ``integrate``): it is evaluated once per step, on
the stage points that carry a weight, instead of at every stage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import partial
from numbers import Integral, Real

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
    "integrate",
    "fd_jacobian",
    "fd_gradient",
    "fd_jvp",
    "fd_divergence",
    "liouville_residual_ambient",
    "constraint_tangent_basis",
    "tangent_volume_transport",
    "pointwise",
]

_FD_H = float(np.finfo(float).eps) ** (1.0 / 3.0)
# Upper bound on the stacked arrays of one ensemble group: a transport
# group's fd_jvp stencil, an integrate group's stages and samples.
_ENSEMBLE_BATCH_BYTES = 64 * 2**20
# Constraint drift at a sample time beyond this aborts a transport.
_DRIFT_TOL = 1e-6
# Relative singular-value cut of the constraint Jacobian's rank.
_RANK_RTOL = 1e-9


# ---------------------------------------------------------------------------
# integration


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
# the stages that carry a weight in the update or in either error estimate,
# the only ones a pure quadrature enters: the start and stages 6-12
_WEIGHTED = np.flatnonzero((_DOP853_B != 0) | (_DOP853_E5 != 0) | (_DOP853_E3 != 0))


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

    samples is the number of equally spaced output times on [0, t_end]
    including both ends.  t_end, abs_tol and rel_tol are finite real
    numbers, not booleans.  samples and max_steps are integers; max_steps is
    nonnegative, samples is at least 1, and at least 2 when t_end > 0,
    since one sample is the initial state alone.
    """

    t_end: float = 5.0
    abs_tol: float = 1e-10
    rel_tol: float = 1e-10
    samples: int = 33
    max_steps: int = 2_000_000

    def __post_init__(self):
        for name in ("t_end", "abs_tol", "rel_tol"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, Real):
                raise ParameterError(f"{name} must be a real number, got {value!r}")
            if not math.isfinite(value):
                raise ParameterError(f"{name} must be finite, got {value!r}")
        if self.abs_tol <= 0.0:
            raise ParameterError(f"abs_tol must be positive, got {self.abs_tol!r}")
        if self.rel_tol < 0.0:
            raise ParameterError(f"rel_tol must be nonnegative, got {self.rel_tol!r}")
        if self.t_end < 0.0:
            raise ParameterError("t_end must be nonnegative")
        for name in ("samples", "max_steps"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, Integral):
                raise ParameterError(f"{name} must be an integer, got {value!r}")
        if self.samples < 1:
            raise ParameterError("need at least one sample")
        if self.samples < 2 and self.t_end > 0.0:
            raise ParameterError("samples must be at least 2 when t_end > 0")
        if self.max_steps < 0:
            raise ParameterError(f"max_steps must be nonnegative, got {self.max_steps!r}")

    def sample_times(self) -> np.ndarray:
        if self.t_end == 0.0:
            return np.array([0.0])
        return np.linspace(0.0, self.t_end, self.samples)


@dataclass
class IntegrationStats:
    """What ``integrate`` did.  The pair reuses its last stage (FSAL), so
    evaluations == 1 + 12 * (accepted + rejected) + fsal_resets, where
    fsal_resets counts the steps that start after a renormalization; a
    branch (see ``integrate``) rides on its step's field calls and is not a
    step.  With a quadrature (see ``integrate``), quadrature_calls == 1 +
    accepted + rejected, the initial step size taking one more call;
    without one it stays 0.

    h_min and h_max are the smallest and largest accepted step, the last
    step before the end time included; a step ends on a sample time only
    where the branch cap cuts it there.  They stay inf and 0 until a step is
    accepted.
    """

    accepted: int = 0
    rejected: int = 0
    evaluations: int = 0
    fsal_resets: int = 0
    quadrature_calls: int = 0
    h_min: float = float("inf")
    h_max: float = 0.0


@dataclass
class Trajectory:
    times: np.ndarray
    states: np.ndarray
    stats: IntegrationStats = field(default_factory=IntegrationStats)


def _rms(a):
    """Root mean square over the last axis: one value per ensemble member."""
    return np.sqrt(np.mean(a**2, axis=-1))


def integrate(field_fn, x0, cfg: IntegratorConfig, renormalize_fn=None, quadrature_fn=None):
    """Integrate dx/dt = field_fn(x) and sample at cfg.sample_times().

    x0 is one state (d,) or an ensemble (S, d); states then has shape
    (T, d) or (T, S, d).  field_fn is batched: it maps states (..., d) of
    any leading shape to their time derivatives, as every callable of this
    module does.  A non-finite x0 raises ParameterError.

    This is the one Dormand-Prince 8(5,3) loop of the package.  The step
    size follows the tolerance alone, and the last stage of a step is the
    first of the next (FSAL).  Each sample time that a trial step covers is
    reached by a branch, a step of that length from the same start, stacked
    as one more row on the main row, so each stage stays one field call.
    The error norm is the largest over the main row and its branches, each
    with its own length, and the largest member error within a row, so a
    sample carries the integrator error at the tolerance, not the error of
    a step ended there.  An ensemble shares one step sequence, controlled
    by the largest member error, so a member can differ from its own (d,)
    run at the integrator-error level.  A step covers at most as many
    sample times as keep its stage array under _ENSEMBLE_BATCH_BYTES and
    otherwise ends on the next one.  A step cut short, to end on t_end or
    on a sample time, leaves the step size it was cut from for the next
    step, unless its own error allows a longer one.

    renormalize_fn, if given, maps states (..., d) to their renormalized
    form after every accepted step, the samples inside the step included,
    all in one call; the basis transport rescales its tangent basis this
    way.  The FSAL value is then the field at the old state, so the next
    step starts with one more field call.

    quadrature_fn, if given, makes the last column of the state a pure
    quadrature, q' = quadrature_fn(x) (Serban & Hindmarsh, CVODES, 2005):
    x is every other column, field_fn and quadrature_fn see x (..., d - 1)
    and return (..., d - 1) and (...).  q never feeds back into x, so the
    loop steps x with field_fn alone, on the same rows as without q, and
    evaluates quadrature_fn once per trial step, on the stacked stage
    points that carry a weight in the update or an error estimate: the
    start and stages 6-12.  q enters the error norm like any column, so the
    steps are those of field_fn and quadrature_fn concatenated into one
    field; a zero-weight stage, whose value could not change the step, is
    never evaluated.  A NonholoError in field_fn or quadrature_fn raises
    IntegrationAbort at the time of the step.
    """
    x = _finite_state(x0, "x0")
    times = cfg.sample_times()
    stats = IntegrationStats()
    states = [x]
    if times.size == 1:
        return Trajectory(times=times, states=np.array(states), stats=stats)
    t_stop, samples = float(times[-1]), times[1:-1]
    quadrature = quadrature_fn is not None
    cols = slice(None, -1) if quadrature else slice(None)  # the columns field_fn sees
    max_branches = max(0, _ENSEMBLE_BATCH_BYTES // (8 * _STAGES * x.size) - 1)

    def call(fn, y):
        """fn on the states y (..., D) less any quadrature column; a
        NonholoError in it aborts at time t."""
        try:
            return fn(y[..., cols])
        except NonholoError as exc:
            raise IntegrationAbort(t, exc) from exc

    t, h, f0 = 0.0, None, None
    while h is None or t < t_stop - 1e-14 * max(1.0, abs(t_stop)):
        if f0 is None:  # at t = 0, or after a renormalization dropped the FSAL value
            if h is not None:
                stats.fsal_resets += 1
            stats.evaluations += 1
            f0 = np.asarray(call(field_fn, x), dtype=float)
            if not np.all(np.isfinite(f0)):
                raise IntegrationAbort(t, "non-finite field value")
        if h is None:  # the initial step size, from the rates at t = 0
            rates = f0
            if quadrature:
                stats.quadrature_calls += 1
                q0 = call(partial(_eval_rows, quadrature_fn), x)[..., 0]
                rates = np.concatenate([f0, q0[..., None]], axis=-1)
                if not np.all(np.isfinite(rates)):
                    raise IntegrationAbort(t, "non-finite field value")
            sc = cfg.abs_tol + cfg.rel_tol * np.abs(x)
            d0 = np.atleast_1d(_rms(x / sc))
            d1 = np.atleast_1d(_rms(rates / sc))
            span = max(t_stop, 1e-12)
            h = min(
                0.01 * a / b if b > 1e-12 and a > 1e-12 else 1e-3 * span
                for a, b in zip(d0.tolist(), d1.tolist())
            )
            h = min(max(h, 1e-8 * span), span)
            continue  # a run within rounding of t = 0 takes no step
        if stats.accepted + stats.rejected >= cfg.max_steps:
            raise IntegrationAbort(t, "max_steps exceeded")
        dt = min(h, t_stop - t)
        if dt < 1e-14 * max(1.0, abs(t)):
            raise StiffnessError(f"step size underflow at t={t:.6g} (h={dt:.3e})")
        # samples[i:j] lie in the step; past the cap it ends on samples[j]
        i = len(states) - 1
        j = max(i, int(np.searchsorted(samples, t + dt, side="right")))
        ends_on_sample = j - i > max_branches
        if ends_on_sample:
            j = i + max_branches
            dt = samples[j] - t
        # one trial step of each length in hs (R,) from x: the rows (R, ...)
        hs = np.concatenate([[dt], samples[i:j] - t])
        shape = hs.shape + x.shape
        hr = hs.reshape(hs.shape + (1,) * x.ndim)
        # stage k is row k of K; K[:k] feeds stage k, all of K the update.  A
        # quadrature column is zero in K until the stages are done, then one
        # call fills it on the weighted stage points.
        K = (np.zeros if quadrature else np.empty)((_STAGES, hs.size * x.size))
        stages = K.reshape((_STAGES,) + shape)
        stages[0, ..., cols] = f0
        points = np.empty((_STAGES,) + shape) if quadrature else None
        for k in range(1, _STAGES):
            p = x + hr * (_DOP853_A[k] @ K[:k]).reshape(shape)
            if quadrature:
                points[k] = p
            stats.evaluations += 1
            stages[k, ..., cols] = np.asarray(call(field_fn, p), dtype=float)
        if quadrature:
            stats.quadrature_calls += 1
            points[0] = x
            stages[_WEIGHTED, ..., -1] = call(
                partial(_eval_rows, quadrature_fn), points[_WEIGHTED]
            )[..., 0]
        x_new = x + hr * (_DOP853_B @ K).reshape(shape)
        sc = cfg.abs_tol + cfg.rel_tol * np.maximum(np.abs(x), np.abs(x_new))
        err_norm = _error_norm(hr[..., 0], K, sc)
        if not np.isfinite(err_norm):
            raise IntegrationAbort(t, "non-finite field value")
        if err_norm <= 1.0:
            f0 = stages[-1, 0, ..., cols]  # FSAL: the last stage is f at the new point
            stats.accepted += 1
            stats.h_min = min(stats.h_min, dt)
            stats.h_max = max(stats.h_max, dt)
            t += dt
            if renormalize_fn is not None:
                # every row in one call, so a branch sample gets what a step
                # ending at its time would get
                x_new = np.asarray(renormalize_fn(x_new), dtype=float)
                f0 = None  # the FSAL value is the field at the old state
            x = x_new[0]
            states += list(x_new[1:])
            if ends_on_sample:
                states.append(x)
            factor = 5.0 if err_norm == 0.0 else min(5.0, max(0.2, 0.9 * err_norm ** -0.125))
            # a step cut short keeps the size it was cut from
            h = max(h, dt * factor) if dt < h else dt * factor
        else:
            stats.rejected += 1
            h = dt * max(0.2, 0.9 * err_norm ** -0.125)
    # the state at t_end, which sample times within rounding of it take too
    states += [x] * (times.size - len(states))
    return Trajectory(times=times, states=np.array(states), stats=stats)


# ---------------------------------------------------------------------------
# finite differences


def _fd_points(x):
    """Central-difference stencil of x (..., d): points (..., 2d, d), steps (..., d).

    Row i of the stencil is x + h_i e_i and row d + i is x - h_i e_i, with
    h_i = _FD_H * max(1, |x_i|).
    """
    h = _FD_H * np.maximum(1.0, np.abs(x))
    step = h[..., :, None] * np.eye(x.shape[-1])
    xr = x[..., None, :]
    return np.concatenate([xr + step, xr - step], axis=-2), h


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


def fd_jvp(field_fn, x, Vt):
    """field_fn at x (S, d) and (J V)^T (S, q, d) from one call on S (1 + 2q) rows.

    Vt (S, q, d) holds the columns v_j of each member's V as rows.  Row j of
    (J V)^T is the central difference of the field along v_j with step
    t_j = _FD_H * max(1, |x|_inf) / |v_j|, which puts every point of a member
    at the same distance from x; a zero column gives a zero row.
    """
    q = Vt.shape[1]
    xr = x[:, None, :]
    scale = _FD_H * np.abs(xr).max(axis=-1, initial=1.0)
    t = scale / np.sqrt(np.maximum((Vt * Vt).sum(axis=-1), 1e-300))
    step = t[..., None] * Vt
    vals = _eval_rows(field_fn, np.concatenate([xr, xr + step, xr - step], axis=1))
    return vals[:, 0], (vals[:, 1 : q + 1] - vals[:, q + 1 :]) / (2.0 * t[..., None])


def fd_jacobian(fn, x) -> np.ndarray:
    """Central finite-difference Jacobian of fn at x (..., d), shape (..., m, d).

    The step along coordinate i is _FD_H * max(1, |x_i|), _FD_H = eps**(1/3).
    fn, batched, is called once on the stacked stencils of every point (2d
    rows each).
    """
    x = np.asarray(x, dtype=float)
    d = x.shape[-1]
    pts, h = _fd_points(x)
    vals = _eval_rows(fn, pts)
    diff = (vals[..., :d, :] - vals[..., d:, :]) / (2.0 * h[..., :, None])
    return np.swapaxes(diff, -1, -2)


# fd_gradient calls the stencil by this name, so that a wrapper installed on
# fd_jacobian (a profiler, say) sees only the Jacobians asked for as such
_jacobian = fd_jacobian


def fd_gradient(fn, x) -> np.ndarray:
    """Gradient (..., d) of scalar fn at x (..., d): row 0 of its Jacobian."""
    return _jacobian(fn, x)[..., 0, :]


def fd_divergence(field_fn, x):
    """Divergence (...) of field_fn at x (..., d), from one field_fn call on
    the 2d stacked rows per point of fd_jacobian's stencil, whose diagonal
    central differences are summed."""
    x = np.asarray(x, dtype=float)
    d = x.shape[-1]
    pts, h = _fd_points(x)
    vals = _eval_rows(field_fn, pts)
    plus = np.diagonal(vals[..., :d, :], axis1=-2, axis2=-1)
    minus = np.diagonal(vals[..., d:, :], axis1=-2, axis2=-1)
    return np.sum((plus - minus) / (2.0 * h), axis=-1)


def _finite_state(x, name="x"):
    """The state x as a float array; ParameterError unless every entry is
    finite."""
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ParameterError(f"{name}: non-finite state")
    return x


def liouville_residual_ambient(field_fn, log_density_fn, x, divergence_fn=None, grad_fn=None):
    """div(X) + <grad log mu, X> on a full linear chart, at each point of x
    (..., d): the residuals (...).

    Vanishes identically when mu is the density of an invariant measure in
    these coordinates.  X is field_fn(x), one call on every point.
    divergence_fn(x) -> (...), as tangent_volume_transport takes it, and
    grad_fn(x) -> (..., d), the gradient of log mu, supply either term in
    closed form.  None takes the term from central differences of field_fn
    or log_density_fn, so with neither the residual is independent of any
    closed-form term.  A non-finite x raises ParameterError before any call.
    """
    x = _finite_state(x)
    div = fd_divergence(field_fn, x) if divergence_fn is None else divergence_fn(x)
    grad = fd_gradient(log_density_fn, x) if grad_fn is None else grad_fn(x)
    fx = np.asarray(field_fn(x), dtype=float)
    # a per-row BLAS dot, which rounds as grad @ fx does for one point
    return div + (grad[..., None, :] @ fx[..., :, None])[..., 0, 0]


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
    Singular values at or below _RANK_RTOL times the largest count as zero.
    A non-finite x raises ParameterError before any constraints_fn call."""
    jac = fd_jacobian(constraints_fn, _finite_state(x, "x"))
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
    the steps of its ``integrate`` call, shared by every member of an
    ensemble.
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
    divergence_fn=None,
) -> TransportResult | list[TransportResult]:
    """Transport a tangent-space volume element along the flow.

    With divergence_fn(x (S, d)) -> div (S,), the log volume follows
    Liouville's formula d/dt log vol = div X: each member's integrated
    state is x and one more number, whose rate is div X(x).  That number is a pure
    quadrature of ``integrate``, which takes divergence_fn as its
    quadrature_fn: field_fn steps x, 12 calls a step, and divergence_fn is
    called once a step, on the 8 stage points that carry a weight.  A
    non-finite divergence at a stage without weight is never evaluated, so
    it cannot abort the transport.
    The log volume enters the error norm, so the steps are those of the
    divergence taken at every stage as one more field column (the tests
    hold the two to every bit on the sample configs).  The divergence
    is the trace of the field's Jacobian over the whole chart.  That equals
    the trace over the tangent space of the constraint manifold when the
    flow moves its frame F as F' = F Omega with Omega skew: the normal space
    at F is {S F : S symmetric}, and the frame block of the Jacobian has no
    trace on it.

    With divergence_fn None, a tangent basis (columns of V) starts as
    constraint_tangent_basis and solves dV/dt = J(x(t)) V with J the
    Jacobian of the field, J V from fd_jvp of field_fn: the central
    difference of the field along each column of V.  The flow's
    linearisation keeps V tangent, so V is never projected.  After every
    accepted step V = QR is replaced by Q and log |det R| is added to the
    log volume (the discrete QR method), which keeps V well scaled however
    far apart the samples are.  This basis transport assumes nothing of the
    frame, so it checks the other path.

    Constraint drift beyond 1e-6 at a sample time aborts, and a non-finite
    x0 raises ParameterError.  With constraints_fn None the transport runs
    on the full chart (the basis starts as the identity), which turns the
    check into an integrated ambient Liouville test.

    x0 is one state (d,), which returns one TransportResult, or an ensemble
    (S, d), which returns a list with one TransportResult per member.  The
    members share one step sequence: every stage makes one field_fn call,
    on each member's state or, on the basis path, on it and its 2q
    directional points stacked, on all members; every step's divergence_fn
    call is on all members too.  The step is controlled by the largest
    member error.  A member's residual can therefore differ from its own
    (d,) transport at the integrator-error level.  Any failure of one
    member raises for the whole ensemble.  Either path is one ``integrate``
    call, so the samples are branches of free steps; constraints_fn is
    called once on the members at t = 0, before any step, and then it and
    log_density_fn once each on every sample of every member.  Members run
    in consecutive groups small enough that an fd_jvp stencil of S (1 + 2d)
    points of d values stays under 64 MB, whichever path runs; ``integrate``
    keeps its stage array, branch rows included, under the same bound on
    its own.
    """
    x0 = np.asarray(x0, dtype=float)
    if x0.ndim not in (1, 2):
        raise DimensionError(f"x0: expected shape (d,) or (S, d), got {x0.shape}")
    _finite_state(x0, "x0")
    xs = x0.reshape(-1, x0.shape[-1])
    S, d = xs.shape
    if cfg is None:
        cfg = IntegratorConfig()
    # a member's fd_jvp batch has 1 + 2q rows of d values, and q <= d
    group = max(1, _ENSEMBLE_BATCH_BYTES // (8 * (1 + 2 * d) * d))
    results = []
    for lo in range(0, S, group):
        results += _transport_group(
            field_fn, divergence_fn, log_density_fn, xs[lo : lo + group], constraints_fn, cfg,
            n_samples,
        )
    return results[0] if x0.ndim == 1 else results


def _transport_group(field_fn, divergence_fn, log_density_fn, xs, constraints_fn, cfg, n_samples):
    """tangent_volume_transport of an ensemble xs (S, d) in one ``integrate``
    call.  The state of a member is x, then V^T row by row on the basis
    path, then its log volume."""
    S, d = xs.shape
    cfg = replace(cfg, samples=n_samples)
    times = cfg.sample_times()

    def check_drift(times, x):
        """Drift check of the members x (T, S, d) at the T times."""
        if constraints_fn is not None:
            c = np.abs(_eval_rows(constraints_fn, x))
            _check_drift(times, np.max(c.reshape(len(times), -1), axis=-1, initial=0.0))

    renormalize_fn = quadrature_fn = None
    if divergence_fn is None:
        if constraints_fn is None:
            V = np.tile(np.eye(d), (S, 1, 1))
        else:
            V = constraint_tangent_basis(constraints_fn, xs)
        q = V.shape[-1]
        y0 = np.concatenate([xs, np.swapaxes(V, 1, 2).reshape(S, q * d), np.zeros((S, 1))], axis=1)

        def aug_field(y):
            flat = y.reshape(-1, y.shape[-1])
            fx, JVt = fd_jvp(field_fn, flat[:, :d], flat[:, d:-1].reshape(-1, q, d))
            rates = [fx, JVt.reshape(-1, q * d), np.zeros((len(flat), 1))]
            return np.concatenate(rates, axis=1).reshape(y.shape)

        def renormalize_fn(y):
            """V = QR becomes Q, and log |det R| joins the log volume."""
            y = y.copy()
            Q, R = np.linalg.qr(np.swapaxes(y[..., d:-1].reshape(y.shape[:-1] + (q, d)), -1, -2))
            diag = np.abs(np.diagonal(R, axis1=-2, axis2=-1))
            if np.any(diag <= 0.0):
                raise SingularityError("transported tangent volume collapsed")
            y[..., d:-1] = np.swapaxes(Q, -1, -2).reshape(y.shape[:-1] + (q * d,))
            y[..., -1] += np.sum(np.log(diag), axis=-1)
            return y

    else:
        y0 = np.concatenate([xs, np.zeros((S, 1))], axis=1)
        aug_field, quadrature_fn = field_fn, divergence_fn

    check_drift(times[:1], xs[None])  # a bad start is named at t=0, before any step
    traj = integrate(aug_field, y0, cfg, renormalize_fn, quadrature_fn)
    x, lvs = traj.states[..., :d], traj.states[..., -1]
    check_drift(times, x)
    lds = _eval_rows(log_density_fn, x).reshape(lvs.shape)
    res = lds + lvs - lds[0]
    return [
        TransportResult(
            times=times.copy(),
            log_density=lds[:, i],
            log_tangent_volume=lvs[:, i],
            residual=res[:, i],
            stats=traj.stats,
        )
        for i in range(S)
    ]

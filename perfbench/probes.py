"""Layer probes: field, FD Jacobian, DP45 step and transport-sample timings.

Each probe calls one public function directly on seeded states and reports
the median of five repeats, each repeat long enough to span several clock
ticks.  They run with the tracer's wrappers removed.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

_REPEATS = 5
_MIN_REPEAT_S = 0.005
GENERAL_SIZES = (3, 5, 8)
JACOBIAN_N = 5


def _per_call(fn):
    """Median seconds per call of ``fn`` over five repeats."""
    number = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(number):
            fn()
        elapsed = time.perf_counter() - t0
        if elapsed >= _MIN_REPEAT_S:
            break
        number *= 2
    samples = [elapsed / number]
    for _ in range(_REPEATS - 1):
        t0 = time.perf_counter()
        for _ in range(number):
            fn()
        samples.append((time.perf_counter() - t0) / number)
    return statistics.median(samples)


def _chart(nonholo, system, n, rng):
    """(chart, state sampler) for ``system`` at size ``n``, rank 1, eps = 1/2."""
    elr, veselova, elpr, ball3d, liealg = (
        nonholo.elr, nonholo.veselova, nonholo.elpr, nonholo.ball3d, nonholo.liealg)
    eps = 0.5
    if system in ("ball_chaplygin", "ball_rubber"):
        inertia, D = np.array([1.0, 2.0, 3.0]), 0.5
        cls = ball3d.ChaplyginChart if system == "ball_chaplygin" else ball3d.RubberChart
        chart = cls(inertia, D, eps)
        return chart, lambda: ball3d.random_ball_state(rng, inertia=inertia, D=D, eps=eps)
    a = np.linspace(0.8, 1.6, n)
    if system == "lpr_stiefel":
        chart = elpr.LPRStiefelChart(a, 2.0 * a[-1] ** 2, 1, eps)
        return chart, lambda: elpr.random_lpr_stiefel_state(n, 1, rng)
    op = liealg.InertiaOperator.wedge_products(a)
    if system == "elr_multiplier":
        return elr.MultiplierChart(op, 1, eps), lambda: elr.random_multiplier_state(n, 1, rng)
    if system == "elr_momentum":
        return elr.MomentumChart(op, 1, eps), lambda: elr.random_momentum_state(n, 1, rng)
    if system == "veselova":
        return veselova.VeselovaChart(op, 1, eps), lambda: veselova.random_veselova_state(n, 1, rng)
    return elpr.LPRChart(op, eps), lambda: elpr.random_elpr_state(n, rng)


GENERAL = ("elr_multiplier", "elr_momentum", "veselova", "elpr", "lpr_stiefel")
BALLS = ("ball_chaplygin", "ball_rubber")


def run_probes(nonholo, seed: int) -> dict:
    """All probe metrics as ``{name: (value, unit)}``."""
    numerics = nonholo.numerics
    rng = np.random.default_rng(seed)
    out = {}
    cases = [(s, n) for s in GENERAL for n in GENERAL_SIZES] + [(s, 3) for s in BALLS]
    for system, n in cases:
        chart, draw = _chart(nonholo, system, n, rng)
        batch = np.stack([chart.flatten(draw()) for _ in range(64)])
        x = batch[0].copy()
        out[f"probe.{system}.n{n}.field_b1_us"] = (_per_call(lambda: chart.field(x)) * 1e6, "us")
        out[f"probe.{system}.n{n}.field_b64_us_per_row"] = (
            _per_call(lambda: chart.field(batch)) * 1e6 / 64, "us")
        if n == (3 if system in BALLS else JACOBIAN_N):
            out[f"probe.{system}.n{n}.fd_jacobian_ms"] = (
                _per_call(lambda: numerics.fd_jacobian(chart.field, x)) * 1e3, "ms")

    calls = [0]

    def trivial(y):
        calls[0] += 1
        return -y

    cfg = numerics.IntegratorConfig(t_end=10.0, abs_tol=1e-10, rel_tol=1e-10, samples=2)
    x0 = np.linspace(0.5, 1.5, 6)
    seconds = _per_call(lambda: numerics.integrate(trivial, x0, cfg))
    calls[0] = 0
    numerics.integrate(trivial, x0, cfg)
    steps = (calls[0] - 1) // 6
    out["probe.dp45_step_us"] = (seconds / steps * 1e6, "us")

    chart, draw = _chart(nonholo, "elr_momentum", 4, rng)
    x = chart.flatten(draw())
    tcfg = numerics.IntegratorConfig(t_end=0.25, abs_tol=1e-10, rel_tol=1e-10)
    out["probe.transport_sample_ms"] = (_per_call(lambda: numerics.tangent_volume_transport(
        chart.field, chart.log_density, x, constraints_fn=chart.constraints, cfg=tcfg, n_samples=2,
    )) * 1e3, "ms")
    return out

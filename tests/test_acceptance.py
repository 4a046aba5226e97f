"""Acceptance suite: every advertised guarantee at its stated tolerance.

Each test covers one numbered criterion and prints a single summary line;
pytest -v therefore shows one pass/fail line per criterion.
"""

import time

import numpy as np

from conftest import (
    ball_momentum_rate,
    chaplygin_params,
    gamma_projector,
    pluecker_base,
    random_skew,
    random_spd_operator,
    rng_for,
)
from nonholo import ball3d
from nonholo.ball3d import BallState, ChaplyginChart, RubberChart, densities_3d, random_ball_state
from nonholo.elpr import (
    LPRChart,
    LPRStiefelChart,
    random_elpr_state,
    random_lpr_stiefel_state,
    stiefel_total_inertia,
)
from nonholo.elr import (
    MomentumChart,
    MultiplierChart,
    momentum_partner,
    random_momentum_state,
    random_multiplier_state,
)
from nonholo.liealg import (
    InertiaOperator,
    ad_coords,
    from_wedge,
    hat,
    orthonormalize_rows,
    random_stiefel,
    to_wedge,
    unhat,
    wedge_dim,
    wedge_index_pairs,
)
from nonholo.numerics import (
    IntegratorConfig,
    integrate,
    liouville_residual_ambient,
    pointwise,
    tangent_volume_transport,
)
from nonholo.veselova import (
    VeselovaChart,
    _velocity,
    random_veselova_state,
)

EPS_GRID = (-1.0, 0.5, 1.0, 2.0)


def report(name):
    print(f"ACCEPTANCE {name}: PASS")


# ---------------------------------------------------------------------------
# 1. ambient Liouville identity for the frame-constrained density


def test_criterion_1_frame_density_liouville_suite():
    t0 = time.monotonic()
    worst = 0.0
    for n in (3, 4, 5):
        for k in (1, 2):
            op = random_spd_operator(n, rng_for(1000 * n + k))
            for eps in EPS_GRID:
                chart = MultiplierChart(op, k=k, eps=eps)
                controls = []
                for seed in range(20):
                    st = random_multiplier_state(n, k, rng_for(seed + 10 * n + 100 * k))
                    x = chart.flatten(st)
                    res = abs(
                        liouville_residual_ambient(chart.field, chart.log_density, x)
                    )
                    worst = max(worst, res)
                    assert res <= 1e-6, (n, k, eps, seed, res)
                    # negative control: exponent 1/(2 eps) replaced by 1/eps
                    controls.append(
                        abs(
                            liouville_residual_ambient(
                                chart.field, lambda c: 2.0 * chart.log_density(c), x
                            )
                        )
                    )
                assert max(controls) > 1e-3, (n, k, eps)
    elapsed = time.monotonic() - t0
    assert elapsed <= 60.0, f"runtime {elapsed:.1f}s exceeds 1 min"
    report(f"criterion 1 (ambient Liouville, worst {worst:.2e}, {elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# 2. constrained volume transport for the three constrained densities


def test_criterion_2_volume_transport_suite():
    t0 = time.monotonic()
    cfg = IntegratorConfig(t_end=5.0, abs_tol=1e-10, rel_tol=1e-10)
    worst = 0.0

    # momentum form of the frame-constrained flow
    for n in (3, 4, 5):
        for k in (1, 2):
            op = random_spd_operator(n, rng_for(300 + 10 * n + k))
            st = random_momentum_state(n, k, rng_for(400 + 10 * n + k))
            for eps in EPS_GRID:
                chart = MomentumChart(op, k, eps)
                res = tangent_volume_transport(
                    chart.field, chart.log_density, chart.flatten(st), chart.constraints, cfg
                )
                worst = max(worst, res.max_abs_residual)
                assert res.max_abs_residual <= 1e-6, ("momentum", n, k, eps)

    # moving-frame flow on so(n) x V_{n,r}
    for n in (3, 4, 5):
        for r in (1, 2):
            if r > n - 1:
                continue
            rng = rng_for(500 + 10 * n + r)
            a = rng.uniform(0.5, 2.0, size=n)
            op = InertiaOperator.wedge_products(a)
            st = random_veselova_state(n, r, rng)
            for eps in EPS_GRID:
                chart = VeselovaChart(op, r, eps)
                res = tangent_volume_transport(
                    chart.field, chart.log_density, chart.flatten(st), chart.constraints, cfg
                )
                worst = max(worst, res.max_abs_residual)
                assert res.max_abs_residual <= 1e-6, ("veselova", n, r, eps)

    # Stiefel-carried flow with the pair-ratio inertia
    for n in (3, 4, 5):
        for r in (1, 2):
            rng = rng_for(600 + 10 * n + r)
            a, D = chaplygin_params(n, rng)
            st = random_lpr_stiefel_state(n, r, rng)
            for eps in EPS_GRID:
                chart = LPRStiefelChart(a, D, r, eps)
                res = tangent_volume_transport(
                    chart.field, chart.log_density, chart.flatten(st), chart.constraints, cfg
                )
                worst = max(worst, res.max_abs_residual)
                assert res.max_abs_residual <= 1e-6, ("stiefel", n, r, eps)

    # negative controls: each family with its exponent perturbed
    n, k = 4, 1
    N = wedge_dim(n)
    op = random_spd_operator(n, rng_for(341))
    stm = random_momentum_state(n, k, rng_for(441))
    for eps in EPS_GRID:
        chart = MomentumChart(op, k, eps)

        @pointwise
        def wrong_m(c, eps=eps):
            fc = np.asarray(c)[N:].reshape(N - k, N)
            return (1.0 / eps - 1.0) * np.linalg.slogdet(fc @ op.dense_matrix @ fc.T)[1]

        res = tangent_volume_transport(
            chart.field, wrong_m, chart.flatten(stm), chart.constraints, cfg
        )
        assert res.max_abs_residual > 1e-3, ("momentum control", eps)

    n, r = 4, 1
    rng = rng_for(541)
    a = rng.uniform(0.5, 2.0, size=n)
    opv = InertiaOperator.wedge_products(a)
    stv = random_veselova_state(n, r, rng)
    for eps in EPS_GRID:
        chart = VeselovaChart(opv, r, eps)

        @pointwise
        def wrong_v(c, eps=eps):
            U = np.asarray(c)[N:].reshape(n, r)
            return float((1.0 / eps - 1.0) * (n - r - 1) * np.log(pluecker_base(U, a)))

        res = tangent_volume_transport(
            chart.field, wrong_v, chart.flatten(stv), chart.constraints, cfg
        )
        assert res.max_abs_residual > 1e-3, ("veselova control", eps)

    rng = rng_for(641)
    a, D = chaplygin_params(n, rng)
    sts = random_lpr_stiefel_state(n, r, rng)
    chart = LPRStiefelChart(a, D, r, 0.5)

    @pointwise
    def wrong_s(c):
        # doubled exponent (the density carries no eps to perturb)
        U = np.asarray(c)[N:].reshape(n, r)
        return float(-(n - r - 1) * np.log(pluecker_base(U, 1.0 / np.asarray(a))))

    res = tangent_volume_transport(
        chart.field, wrong_s, chart.flatten(sts), chart.constraints, cfg
    )
    assert res.max_abs_residual > 1e-3, "stiefel control"

    elapsed = time.monotonic() - t0
    assert elapsed <= 300.0, f"runtime {elapsed:.1f}s exceeds 5 min"
    report(f"criterion 2 (volume transport, worst {worst:.2e}, {elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# 3. symmetric-operator flow: Liouville, energy, spectrum


def test_criterion_3_operator_flow_suite():
    worst = 0.0
    for n in (3, 4):
        op = random_spd_operator(n, rng_for(20 + n))
        for eps in EPS_GRID:
            chart = LPRChart(op, eps)
            for seed in range(5):
                st = random_elpr_state(n, rng_for(30 + 10 * n + seed))
                res = abs(
                    liouville_residual_ambient(
                        chart.field, chart.log_density, chart.flatten(st)
                    )
                )
                worst = max(worst, res)
                assert res <= 1e-6, (n, eps, seed, res)

    cfg = IntegratorConfig(t_end=10.0, samples=21)
    for n in (3, 4):
        op = random_spd_operator(n, rng_for(40 + n))
        st = random_elpr_state(n, rng_for(50 + n))
        for eps in EPS_GRID:
            chart = LPRChart(op, eps)
            traj = integrate(chart.field, chart.flatten(st), cfg)
            H = chart.integrals(traj.states)["H"]
            eigs = np.linalg.eigvalsh(chart._split(traj.states)[1])
            assert np.max(np.abs(H - H[0])) <= 1e-8 * abs(H[0]), (n, eps)
            assert np.max(np.abs(eigs - eigs[0])) <= 1e-8, (n, eps)
    report(f"criterion 3 (operator flow, worst Liouville {worst:.2e})")


# ---------------------------------------------------------------------------
# 4. hand-coded 3-D densities


def test_criterion_4_three_dimensional_suite():
    cfg = IntegratorConfig(t_end=5.0)
    worst = 0.0
    for eps in EPS_GRID:
        st = random_ball_state(rng_for(60), inertia=[1.0, 2.0, 3.0], D=1.0, eps=eps)
        chart = ChaplyginChart(st.inertia, st.D, eps)
        res = tangent_volume_transport(
            chart.field, chart.log_density, chart.flatten(st), chart.constraints, cfg
        )
        worst = max(worst, res.max_abs_residual)
        assert res.max_abs_residual <= 1e-6, ("chaplygin", eps)

        st = random_ball_state(rng_for(61), inertia=[1.0, 2.0, 3.0], D=0.5, eps=eps)
        for variables in ("m", "omega"):
            chart = RubberChart(st.inertia, st.D, eps, variables=variables)
            res = tangent_volume_transport(
                chart.field, chart.log_density, chart.flatten(st), chart.constraints, cfg
            )
            worst = max(worst, res.max_abs_residual)
            assert res.max_abs_residual <= 1e-6, ("rubber", variables, eps)

    # worked values, bit-exact
    st = BallState([0.3, -0.2, 0.5], [1.0, 0.0, 0.0], [1.0, 2.0, 3.0], D=1.0, eps=1.0)
    assert densities_3d(st, "chaplygin") == np.sqrt(12.0)
    st = BallState([0.3, -0.2, 0.5], [1.0, 0.0, 0.0], [2.0, 3.0, 4.0], D=0.0, eps=1.0)
    assert densities_3d(st, "rubber") == 0.5**0.5
    report(f"criterion 4 (3-D densities, worst transport {worst:.2e})")


# ---------------------------------------------------------------------------
# 5. first integrals


def test_criterion_5_first_integral_suite():
    n, k = 4, 2
    op = random_spd_operator(n, rng_for(70))
    cfg = IntegratorConfig(t_end=10.0, samples=21)

    # phi_i for every eps
    st = random_multiplier_state(n, k, rng_for(71))
    for eps in EPS_GRID:
        chart = MultiplierChart(op, k=k, eps=eps)
        traj = integrate(chart.field, chart.flatten(st), cfg)
        obs = chart.integrals(traj.states)
        phis = np.stack([obs[f"phi{i + 1}"] for i in range(k)], axis=-1)
        assert np.max(np.abs(phis - phis[0])) <= 1e-8, ("phi", eps)

    # energy of the operator flow for every eps
    st_op = random_elpr_state(n, rng_for(72))
    for eps in EPS_GRID:
        chart = LPRChart(op, eps)
        traj = integrate(chart.field, chart.flatten(st_op), cfg)
        H = chart.integrals(traj.states)["H"]
        assert np.max(np.abs(H - H[0])) <= 1e-8 * max(1.0, abs(H[0])), ("H op", eps)

    # energy of the frame flow on the zero-constant level
    st0 = random_multiplier_state(n, k, rng_for(73), zero_constants=True)
    for eps in (0.5, 2.0):
        chart = MultiplierChart(op, k=k, eps=eps)
        traj = integrate(chart.field, chart.flatten(st0), cfg)
        H = chart.integrals(traj.states)["H"]
        assert np.max(np.abs(H - H[0])) <= 1e-8 * max(1.0, abs(H[0])), ("H c=0", eps)

    # the modified energy holds exactly at eps = 1 and breaks at eps = 2
    st = random_multiplier_state(n, k, rng_for(74))

    def f_drift(eps):
        chart = MultiplierChart(op, k=k, eps=eps)
        traj = integrate(chart.field, chart.flatten(st), cfg)
        F = chart.integrals(traj.states)["F"]
        return float(np.max(np.abs(F - F[0])))

    assert f_drift(1.0) <= 1e-8
    assert f_drift(2.0) > 1e-3
    report("criterion 5 (first integrals)")


# ---------------------------------------------------------------------------
# 6. structural identities


def test_criterion_6_structural_identities():
    # det(I) det<e_i, I^{-1} e_j> = det(I|_D) over 100 cases per n
    for n in (3, 4, 5, 6):
        N = wedge_dim(n)
        for case in range(100):
            rng = rng_for(10_000 * n + case)
            if case % 2 == 0:
                op = random_spd_operator(n, rng)
            else:
                op = InertiaOperator.wedge_products(rng.uniform(0.5, 2.5, size=n))
            k = int(rng.integers(1, N))
            ec = orthonormalize_rows(rng.standard_normal((k, N)))
            fc = np.linalg.svd(ec)[2][k:]  # orthonormal rows of D, the complement
            lhs = np.exp(op.logdet()) * np.linalg.det(ec @ op.solve_coords(ec).T)
            rhs = np.linalg.det(fc @ op.apply_coords(fc).T)
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs)), (n, case)

    # total-inertia identities behind the Stiefel density
    for n, r in ((3, 1), (4, 1), (4, 2), (5, 2)):
        for seed in range(5):
            rng = rng_for(20_000 + 100 * n + 10 * r + seed)
            a, D = chaplygin_params(n, rng)
            op = InertiaOperator.wedge_products_chaplygin(a, D)
            tot = stiefel_total_inertia(a, D)
            pairs = wedge_index_pairs(n)
            expect = np.array([D / (a[i] * a[j]) for i, j in pairs])
            assert np.max(np.abs(tot.diag - expect)) <= 1e-12
            U = random_stiefel(n, r, rng)
            _, pr = gamma_projector(U)
            w = random_skew(n, rng)
            v = op.apply(w)
            m_bold = pr(tot.apply(v)) + (v - pr(v))
            k_bold = v + D * pr(w)
            assert np.max(np.abs(m_bold - k_bold)) <= 1e-12
    report("criterion 6 (structural identities)")


# ---------------------------------------------------------------------------
# 7. cross-form and cross-module equivalences


def test_criterion_7_equivalences():
    # multiplier <-> momentum trajectories
    for n, k, eps in ((3, 1, 2.0), (4, 2, 0.5)):
        op = random_spd_operator(n, rng_for(80 + n))
        st = random_multiplier_state(n, k, rng_for(81 + n))
        cfg = IntegratorConfig(t_end=5.0, samples=11)
        c1 = MultiplierChart(op, k=k, eps=eps)
        x = c1.flatten(st)
        c2, y, _ = momentum_partner(c1, x)
        t1 = integrate(c1.field, x, cfg)
        t2 = integrate(c2.field, y, cfg)
        dev = float(np.max(np.abs(c1._split(t1.states)[0] - c2.velocity(t2.states))))
        assert dev <= 1e-8, (n, k, eps, dev)

    # each ball chart's field matches its partner's general so(3) field
    # pointwise, at the coordinates the crosscheck partner lifts the ball's to
    ball = random_ball_state(rng_for(85), inertia=[1.0, 2.0, 3.0], D=1.0, eps=0.5)
    bchart = ChaplyginChart(ball.inertia, ball.D, ball.eps)
    xb = bchart.flatten(ball)
    gchart, yg, _ = ball3d.elpr_partner(bchart, xb)
    fb = bchart.field(xb)
    dwg, dPi = gchart._split(gchart.field(yg))
    assert np.max(np.abs(unhat(from_wedge(dwg, 3)) - fb[:3])) <= 1e-12
    # Pi = D (Id - c c^T) with c the wedge coordinates of hat(gamma)
    c, dc = to_wedge(hat(ball.gamma)), to_wedge(hat(fb[3:]))
    assert np.max(np.abs(dPi + ball.D * (np.outer(dc, c) + np.outer(c, dc)))) <= 1e-12

    rubber = random_ball_state(rng_for(86), inertia=[1.0, 2.0, 3.0], D=0.5, eps=0.7)
    rchart = RubberChart(rubber.inertia, rubber.D, rubber.eps, variables="omega")
    xr = rchart.flatten(rubber)
    echart, ye, _ = ball3d.elr_partner(rchart, xr)
    fr, fe = rchart.field(xr), echart.field(ye)
    assert np.max(np.abs(from_wedge(fe[:3], 3) - hat(fr[:3]))) <= 1e-12
    assert np.max(np.abs(from_wedge(fe[3:], 3) - hat(fr[3:]))) <= 1e-12

    # the momentum form: the rate of the ball's m_bold along its field
    vchart, yv, _ = ball3d.veselova_partner(rchart, xr)
    op_v = vchart.op
    fv = vchart.field(yv)
    assert np.max(np.abs(from_wedge(fv[:3], 3) - hat(ball_momentum_rate(rchart, xr)))) <= 1e-12
    assert np.max(np.abs(fv[3:] - fr[3:])) <= 1e-12

    # ... and along trajectories over t in [0, 10]
    cfg10 = IntegratorConfig(t_end=10.0, samples=21)
    tb = integrate(bchart.field, xb, cfg10)
    tg = integrate(gchart.field, yg, cfg10)
    dev = float(np.max(np.abs(tb.states[:, :3] - unhat(from_wedge(gchart.velocity(tg.states), 3)))))
    assert dev <= 1e-8, f"marble trajectory deviation {dev}"

    tr = integrate(rchart.field, xr, cfg10)
    te = integrate(echart.field, ye, cfg10)
    dev = 0.0
    for a, b in zip(tr.states, te.states):
        dev = max(dev, float(np.max(np.abs(a[:3] - unhat(from_wedge(b[:3], 3))))))
        dev = max(dev, float(np.max(np.abs(hat(a[3:]) - from_wedge(b[3:], 3)))))
    assert dev <= 1e-8, f"rubber/frame trajectory deviation {dev}"

    tv = integrate(vchart.field, yv, cfg10)
    dev = 0.0
    for a, b in zip(tr.states, tv.states):
        mc, U = vchart._split(b)
        w_v = unhat(from_wedge(_velocity(mc, U, op_v)[0], 3))
        dev = max(dev, float(np.max(np.abs(a[:3] - w_v))))
        dev = max(dev, float(np.max(np.abs(a[3:] - U[:, 0]))))
    assert dev <= 1e-8, f"rubber/moving-frame trajectory deviation {dev}"

    # eps = 1 operator flow equals the unmodified flow exactly: the chart's
    # (1 - eps) Pi w term is an exact zero and eps (Pi A + (Pi A)^T) an
    # exact copy, against (I + Pi) w' = [I w, w], Pi' = Pi ad_w - ad_w Pi
    op4 = random_spd_operator(4, rng_for(88))
    chart4 = LPRChart(op4, 1.0)
    x4 = chart4.flatten(random_elpr_state(4, rng_for(87)))
    wc, Pi = chart4._split(x4)
    A = ad_coords(wc, 4)
    rhs = -np.einsum("ij,j->i", A, op4.apply_coords(wc))
    dw = np.linalg.solve(op4.dense_matrix + Pi, rhs[:, None])[:, 0]
    assert np.array_equal(chart4.field(x4), chart4._pack(dw, Pi @ A - A @ Pi))
    report("criterion 7 (equivalences)")


# ---------------------------------------------------------------------------
# 8. the eps = 1 density reduction


def test_criterion_8_density_reduction_at_eps_one():
    cases = [(3, 1), (3, 2), (4, 1), (4, 2), (5, 2)]
    count = 0
    for i in range(20):
        n, k = cases[i % len(cases)]
        rng = rng_for(90 + i)
        op = (
            random_spd_operator(n, rng)
            if i % 2
            else InertiaOperator.wedge_products(rng.uniform(0.5, 2.5, size=n))
        )
        x = random_multiplier_state(n, k, rng)
        chart = MultiplierChart(op, k, 1.0)
        ec = chart._split(x)[1]
        expect = np.sqrt(np.linalg.det(ec @ op.solve_coords(ec).T))
        got = np.exp(chart.log_density(x))
        assert abs(got - expect) <= 1e-12 * expect, (n, k, i)
        count += 1
    assert count == 20
    report("criterion 8 (eps = 1 reduction at 20 states)")

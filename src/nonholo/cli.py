"""Configuration-driven command line: simulate, verify, crosscheck.

Commands (see README for the config schema):

    nonholo simulate  --config cfg.json [--seed N] [--out DIR]
    nonholo verify    --config cfg.json --check liouville|volume|integrals
                      [--seeds N] [--out DIR]
    nonholo crosscheck --config cfg.json --pair A:B [--out DIR]

Exit codes: 0 success, 2 tolerance failure, 3 configuration error,
4 numerical abort.  The environment variable NONHOLO_DEFAULT_TOL replaces
the built-in default tolerances; an explicit "tolerance" config key wins
over both.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

import numpy as np

from . import ball3d, elpr, elr, veselova
from .errors import ConfigError, IntegrationAbort, NonholoError, ParameterError
from .liealg import InertiaOperator, inner_product, unhat, _windex
from .numerics import (
    IntegratorConfig,
    integrate,
    liouville_residual_ambient,
    tangent_volume_transport,
)

EXIT_OK = 0
EXIT_TOLERANCE = 2
EXIT_CONFIG = 3
EXIT_ABORT = 4

SYSTEMS = (
    "elr_multiplier",
    "elr_momentum",
    "veselova",
    "elpr",
    "lpr_stiefel",
    "ball_chaplygin",
    "ball_rubber",
)
# ambient linear charts admit the pointwise Liouville check; the rest are
# constraint manifolds and use tangent-volume transport instead
AMBIENT_SYSTEMS = ("elr_multiplier", "elpr")
BALL_SYSTEMS = ("ball_chaplygin", "ball_rubber")
CHECKS = ("liouville", "volume", "integrals")

PAIRS = (
    ("elr_multiplier", "elr_momentum"),
    ("ball_chaplygin", "elpr"),
    ("ball_rubber", "elr_multiplier"),
    ("ball_rubber", "veselova"),
)

_DEFAULT_TOL = {"liouville": 1e-6, "volume": 1e-6, "integrals": 1e-8, "crosscheck": 1e-8}


# ---------------------------------------------------------------------------
# configuration


def _cfg_get(raw, key, typ, default=None, required=False):
    if key not in raw:
        if required:
            raise ConfigError(f"{key}: required for system {raw.get('system')!r}")
        return default
    val = raw[key]
    try:
        return typ(val)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{key}: {exc}") from exc


def _parse_inertia_spec(node, n):
    """Build an InertiaOperator from a config mapping."""
    if not isinstance(node, dict) or "kind" not in node:
        raise ConfigError('inertia: expected a mapping with a "kind" key')
    kind = node["kind"]
    try:
        if kind == "wedge_products":
            return InertiaOperator.wedge_products(np.asarray(node["a"], dtype=float))
        if kind == "wedge_products_chaplygin":
            return InertiaOperator.wedge_products_chaplygin(
                np.asarray(node["a"], dtype=float), float(node["D"])
            )
        if kind == "wedge_diagonal":
            return InertiaOperator.wedge_diagonal(n, np.asarray(node["diag"], dtype=float))
        if kind == "shifted":
            return InertiaOperator.shifted(
                _parse_inertia_spec(node["base"], n), float(node["D"])
            )
        if kind == "general":
            return InertiaOperator.general(n, np.asarray(node["matrix"], dtype=float))
        if kind == "identity":
            return InertiaOperator.identity(n)
        if kind == "so3_vector":
            return InertiaOperator.so3_vector(np.asarray(node["principal"], dtype=float))
    except KeyError as exc:
        raise ConfigError(f"inertia: missing key {exc.args[0]!r} for kind {kind!r}") from exc
    except (ParameterError, ValueError) as exc:
        raise ConfigError(f"inertia: {exc}") from exc
    raise ConfigError(f"inertia: unknown kind {kind!r}")


class RunConfig:
    """Validated run description; see load_config."""

    def __init__(self, raw: dict):
        if not isinstance(raw, dict):
            raise ConfigError("top level: expected a JSON object")
        self.raw = raw
        system = raw.get("system")
        if system not in SYSTEMS:
            raise ConfigError(f"system: expected one of {', '.join(SYSTEMS)}, got {system!r}")
        self.system = system
        self.epsilon = _cfg_get(raw, "epsilon", float, required=True)
        self.tolerance = _cfg_get(raw, "tolerance", float)

        initial = raw.get("initial", {})
        if not isinstance(initial, dict):
            raise ConfigError("initial: expected a mapping")
        self.seed = int(initial.get("seed", 0))
        self.coords = (
            np.asarray(initial["coords"], dtype=float) if "coords" in initial else None
        )
        self.zero_constants = bool(initial.get("zero_constants", False))

        checks = raw.get("checks", ["volume", "integrals"])
        if not isinstance(checks, list) or any(c not in CHECKS for c in checks):
            raise ConfigError(f"checks: expected a list drawn from {', '.join(CHECKS)}")
        self.checks = checks
        if "liouville" in checks and system not in AMBIENT_SYSTEMS:
            raise ConfigError(
                "checks: liouville applies to the ambient charts "
                f"({', '.join(AMBIENT_SYSTEMS)}); use volume for {system}"
            )
        if self.epsilon == 0.0 and ("liouville" in checks or "volume" in checks):
            raise ConfigError("epsilon: must be nonzero, density exponents diverge at 0")

        node = raw.get("integrator", {})
        if not isinstance(node, dict):
            raise ConfigError("integrator: expected a mapping")
        try:
            self.integrator = IntegratorConfig(**node)
        except (TypeError, ParameterError) as exc:
            raise ConfigError(f"integrator: {exc}") from exc

        if system in BALL_SYSTEMS:
            inertia = raw.get("inertia")
            try:
                self.inertia_vec = np.asarray(inertia, dtype=float).reshape(3)
            except (TypeError, ValueError) as exc:
                raise ConfigError("inertia: expected three principal moments") from exc
            if np.any(self.inertia_vec <= 0.0):
                raise ConfigError("inertia: principal moments must be positive")
            self.D = _cfg_get(raw, "D", float, default=0.0)
            if self.D < 0.0:
                raise ConfigError("D: must be nonnegative")
            self.n, self.r, self.k = 3, 1, 1
            self.variables = raw.get("variables", "m")
            if self.system == "ball_rubber" and self.variables not in ("m", "omega"):
                raise ConfigError('variables: expected "m" or "omega"')
            return

        if system == "lpr_stiefel":
            a = raw.get("a")
            if a is None:
                raise ConfigError("a: required for system lpr_stiefel")
            self.a = np.asarray(a, dtype=float)
            self.D = _cfg_get(raw, "D", float, required=True)
            self.n = self.a.size
            self.r = _cfg_get(raw, "r", int, required=True)
            if not 1 <= self.r <= self.n:
                raise ConfigError(f"r: need 1 <= r <= {self.n}")
            self.k = 0
            try:
                self.op = InertiaOperator.wedge_products_chaplygin(self.a, self.D)
            except (ParameterError, ValueError) as exc:
                raise ConfigError(f"a/D: {exc}") from exc
            return

        self.n = _cfg_get(raw, "n", int, required=True)
        if self.n < 3:
            raise ConfigError("n: need n >= 3")
        self.op = _parse_inertia_spec(raw.get("inertia", {"kind": "identity"}), self.n)
        if self.op.n != self.n:
            raise ConfigError(f"inertia: operator is for so({self.op.n}), config has n={self.n}")
        N = self.n * (self.n - 1) // 2
        if system in ("elr_multiplier", "elr_momentum"):
            self.k = _cfg_get(raw, "k", int, required=True)
            if not 1 <= self.k < N:
                raise ConfigError(f"k: need 1 <= k < {N}")
            self.r = 0
        elif system == "veselova":
            self.r = _cfg_get(raw, "r", int, required=True)
            if not 1 <= self.r <= self.n - 1:
                raise ConfigError(f"r: need 1 <= r <= {self.n - 1}")
            self.k = 0
        else:  # elpr
            self.k = 0
            self.r = 0


def load_config(path: str) -> RunConfig:
    """Read and validate a JSON run configuration."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config parse error in {path}: {exc}") from exc
    return RunConfig(raw)


def default_tolerance(check: str, cfg: RunConfig) -> float:
    """Explicit config tolerance > NONHOLO_DEFAULT_TOL > built-in default."""
    if cfg.tolerance is not None:
        return cfg.tolerance
    env = os.environ.get("NONHOLO_DEFAULT_TOL")
    if env is not None:
        try:
            return float(env)
        except ValueError as exc:
            raise ConfigError(f"NONHOLO_DEFAULT_TOL: not a number: {env!r}") from exc
    return _DEFAULT_TOL[check]


# ---------------------------------------------------------------------------
# chart plumbing


def build_chart(cfg: RunConfig):
    if cfg.system == "elr_multiplier":
        return elr.MultiplierChart(cfg.op, cfg.k, cfg.epsilon)
    if cfg.system == "elr_momentum":
        return elr.MomentumChart(cfg.op, cfg.k, cfg.epsilon)
    if cfg.system == "veselova":
        return veselova.VeselovaChart(cfg.op, cfg.r, cfg.epsilon)
    if cfg.system == "elpr":
        return elpr.LPRChart(cfg.op, cfg.epsilon)
    if cfg.system == "lpr_stiefel":
        return elpr.LPRStiefelChart(cfg.a, cfg.D, cfg.r, cfg.epsilon)
    if cfg.system == "ball_chaplygin":
        return ball3d.ChaplyginChart(cfg.inertia_vec, cfg.D, cfg.epsilon)
    return ball3d.RubberChart(cfg.inertia_vec, cfg.D, cfg.epsilon, variables=cfg.variables)


def initial_coords(cfg: RunConfig, chart, seed: int) -> np.ndarray:
    if cfg.coords is not None:
        x0 = np.asarray(cfg.coords, dtype=float)
        if x0.shape != (chart.dim,):
            raise ConfigError(
                f"initial.coords: expected {chart.dim} values for this chart, got {x0.size}"
            )
        return x0
    rng = np.random.default_rng(seed)
    if cfg.system == "elr_multiplier":
        st = elr.random_multiplier_state(cfg.n, cfg.k, rng, zero_constants=cfg.zero_constants)
    elif cfg.system == "elr_momentum":
        st = elr.random_momentum_state(cfg.n, cfg.k, rng)
    elif cfg.system == "veselova":
        st = veselova.random_veselova_state(cfg.n, cfg.r, rng)
    elif cfg.system == "elpr":
        st = elpr.random_elpr_state(cfg.n, rng)
    elif cfg.system == "lpr_stiefel":
        st = elpr.random_lpr_stiefel_state(cfg.n, cfg.r, rng)
    else:
        st = ball3d.random_ball_state(
            rng,
            inertia=cfg.inertia_vec,
            D=cfg.D,
            eps=cfg.epsilon,
            zero_constraint=cfg.zero_constants,
        )
    return chart.flatten(st)


def _pair_labels(n, prefix):
    return [f"{prefix}{i + 1}{j + 1}" for i, j in _windex(n).pairs]


def state_columns(cfg: RunConfig, chart):
    """(column names, row function) for the flattened-state CSV block."""
    if cfg.system == "ball_chaplygin":
        names = ["k1", "k2", "k3", "g1", "g2", "g3"]

        def values(coords):
            st = chart.unflatten(coords)
            return np.concatenate([ball3d.k_vector(st), st.gamma])

        return names, values
    names = []
    if cfg.system == "elr_multiplier":
        names = _pair_labels(cfg.n, "w")
        for s in range(cfg.k):
            names += [f"e{s + 1}_{lab[1:]}" for lab in _pair_labels(cfg.n, "w")]
    elif cfg.system == "elr_momentum":
        names = _pair_labels(cfg.n, "m")
        N = len(names)
        p = N - cfg.k
        for s in range(p):
            names += [f"f{s + 1}_{lab[1:]}" for lab in _pair_labels(cfg.n, "m")]
    elif cfg.system == "veselova":
        names = _pair_labels(cfg.n, "m")
        names += [f"U{i + 1}{j + 1}" for i in range(cfg.n) for j in range(cfg.r)]
    elif cfg.system == "elpr":
        names = _pair_labels(cfg.n, "w")
        iu = np.triu_indices(len(names))
        names += [f"Pi{i + 1}_{j + 1}" for i, j in zip(*iu)]
    elif cfg.system == "lpr_stiefel":
        names = _pair_labels(cfg.n, "k")
        names += [f"U{i + 1}{j + 1}" for i in range(cfg.n) for j in range(cfg.r)]
    else:  # ball_rubber
        lead = "m" if cfg.variables == "m" else "w"
        names = [f"{lead}{i}" for i in (1, 2, 3)] + ["g1", "g2", "g3"]
    return names, lambda coords: np.asarray(coords, dtype=float)


def observables(cfg: RunConfig, chart, coords) -> dict:
    """Named scalars for one sample: integrals, log_density, residual."""
    out = {}
    if cfg.system == "elr_multiplier":
        st = chart.unflatten(coords)
        fi = elr.first_integrals(st, cfg.op)
        out["H"] = fi.energy
        out["F"] = fi.modified_energy
        for i, v in enumerate(fi.phi):
            out[f"phi{i + 1}"] = float(v)
    elif cfg.system == "elr_momentum":
        st = chart.unflatten(coords)
        w = elr.omega_of(st, cfg.op)
        out["H"] = 0.5 * float(inner_product(cfg.op.apply(w), w))
    elif cfg.system == "veselova":
        st = chart.unflatten(coords)
        w = veselova.omega_of_veselova(st, cfg.op)
        out["H"] = 0.5 * float(inner_product(cfg.op.apply(w), w))
    elif cfg.system == "elpr":
        st = chart.unflatten(coords)
        out["H"] = elpr.energy(st, cfg.op)
    elif cfg.system == "lpr_stiefel":
        st = chart.unflatten(coords)
        w = elpr.omega_from_k_stiefel(st, cfg.a, cfg.D)
        out["H"] = 0.5 * float(inner_product(st.k_bold, w))
    elif cfg.system == "ball_chaplygin":
        st = chart.unflatten(coords)
        out["H"] = 0.5 * float(np.dot(ball3d.k_vector(st), st.omega))
    else:
        st = chart.unflatten(coords)
        out["H"] = 0.5 * float(np.dot(ball3d.m_vector(st), st.omega))
        out["phi1"] = float(np.dot(st.omega, st.gamma))
    out["log_density"] = float(np.asarray(chart.log_density(coords)))
    out["residual"] = float(chart.invariant_residual(coords))
    return out


# ---------------------------------------------------------------------------
# output


def _fmt(value) -> str:
    if isinstance(value, float):
        return "%.17g" % value
    return str(value)


def write_csv(path: str, header, rows):
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            for row in rows:
                writer.writerow([_fmt(v) for v in row])
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def _out_path(cfg: RunConfig, out_dir, name) -> str:
    base = out_dir or cfg.raw.get("output", {}).get("dir", ".")
    os.makedirs(base, exist_ok=True)
    return os.path.join(base, name)


# ---------------------------------------------------------------------------
# commands


def cmd_simulate(cfg: RunConfig, seed, out_dir) -> int:
    chart = build_chart(cfg)
    x0 = initial_coords(cfg, chart, cfg.seed if seed is None else seed)
    try:
        traj = integrate(chart.field, x0, cfg.integrator)
    except IntegrationAbort as exc:
        print(f"integration abort: {exc}", file=sys.stderr)
        return EXIT_ABORT
    names, values = state_columns(cfg, chart)
    obs_names = list(observables(cfg, chart, x0).keys())
    header = ["t"] + names + obs_names
    rows = []
    for t, coords in zip(traj.times, traj.states):
        obs = observables(cfg, chart, coords)
        rows.append([float(t)] + [float(v) for v in values(coords)] + [obs[k] for k in obs_names])
    path = _out_path(cfg, out_dir, f"{cfg.system}_trajectory.csv")
    write_csv(path, header, rows)
    print(f"simulate {cfg.system}: {len(rows)} samples -> {path}")
    return EXIT_OK


def _integral_drifts(cfg: RunConfig, chart, traj) -> dict:
    """Max drift of each conserved quantity along the trajectory."""
    series = {}
    for coords in traj.states:
        for name, val in observables(cfg, chart, coords).items():
            series.setdefault(name, []).append(val)
    drifts = {}
    for name, vals in series.items():
        if name == "log_density":
            continue
        if name == "residual":
            drifts["constraint_drift"] = max(abs(v) for v in vals)
            continue
        drifts[f"{name}_drift"] = max(vals) - min(vals)
    if cfg.system == "elpr":
        eigs = [
            np.linalg.eigvalsh(chart.unflatten(coords).Pi) for coords in traj.states
        ]
        drifts["spectrum_drift"] = float(
            max(np.max(np.abs(e - eigs[0])) for e in eigs)
        )
    return drifts


def _gated_quantities(cfg: RunConfig, first_obs) -> set:
    """Quantities whose drift the theory bounds, hence gated by tolerance."""
    gated = {"constraint_drift"}
    if cfg.system == "elr_multiplier":
        gated.update(f"phi{i + 1}_drift" for i in range(cfg.k))
        phis = [abs(first_obs[f"phi{i + 1}"]) for i in range(cfg.k)]
        if max(phis) <= 1e-12:
            gated.add("H_drift")
        if cfg.epsilon == 1.0:
            gated.add("F_drift")
    elif cfg.system in ("elpr", "lpr_stiefel", "ball_chaplygin"):
        gated.add("H_drift")
        if cfg.system == "elpr":
            gated.add("spectrum_drift")
    elif cfg.system == "ball_rubber":
        gated.add("phi1_drift")
        if abs(first_obs["phi1"]) <= 1e-12:
            gated.add("H_drift")
    return gated


def _volume_residuals(cfg: RunConfig, chart, x0) -> list:
    """Max tangent-volume residual of each state of x0 (S, d), one ensemble."""
    results = tangent_volume_transport(
        chart.field,
        chart.log_density,
        x0,
        constraints_fn=chart.constraints,
        cfg=cfg.integrator,
    )
    return [r.max_abs_residual for r in results]


def _volume_ensemble(cfg: RunConfig, chart, seeds) -> dict:
    """{seed: volume residual} from one ensemble transport of all seeds.

    Empty when any member fails: the caller then transports each seed on
    its own, so every seed's row or abort is what a one-seed run gives.
    """
    try:
        x0 = np.array([initial_coords(cfg, chart, seed) for seed in seeds])
        return dict(zip(seeds, _volume_residuals(cfg, chart, x0)))
    except ConfigError:
        raise
    except NonholoError:
        return {}


def cmd_verify(cfg: RunConfig, check, seeds, out_dir) -> int:
    if check not in CHECKS:
        raise ConfigError(f"--check: expected one of {', '.join(CHECKS)}")
    if check == "liouville" and cfg.system not in AMBIENT_SYSTEMS:
        raise ConfigError(
            f"--check liouville applies to {', '.join(AMBIENT_SYSTEMS)}, not {cfg.system}"
        )
    chart = build_chart(cfg)
    tol = default_tolerance(check, cfg)
    header = [
        "system", "n", "r", "k", "epsilon", "seed", "check",
        "quantity", "value", "tolerance", "status",
    ]
    rows = []
    any_fail = False
    any_abort = False

    def add(seed, quantity, value, status):
        rows.append(
            [cfg.system, cfg.n, cfg.r, cfg.k, cfg.epsilon, seed, check,
             quantity, value, tol, status]
        )

    seed_list = [cfg.seed + i for i in range(seeds)]
    volume = _volume_ensemble(cfg, chart, seed_list) if check == "volume" and seeds > 1 else {}
    for seed in seed_list:
        try:
            x0 = initial_coords(cfg, chart, seed)
            if check == "liouville":
                value = abs(liouville_residual_ambient(chart.field, chart.log_density, x0))
                status = "pass" if value <= tol else "fail"
                add(seed, "liouville_residual", float(value), status)
                any_fail |= status == "fail"
            elif check == "volume":
                value = volume.get(seed)
                if value is None:
                    (value,) = _volume_residuals(cfg, chart, x0[None])
                status = "pass" if value <= tol else "fail"
                add(seed, "volume_residual", float(value), status)
                any_fail |= status == "fail"
            else:
                traj = integrate(chart.field, x0, cfg.integrator)
                drifts = _integral_drifts(cfg, chart, traj)
                gated = _gated_quantities(cfg, observables(cfg, chart, traj.states[0]))
                for name, value in sorted(drifts.items()):
                    if name in gated:
                        status = "pass" if value <= tol else "fail"
                        any_fail |= status == "fail"
                    else:
                        status = "info"
                    add(seed, name, float(value), status)
        except ConfigError:
            raise
        except NonholoError as exc:
            cause = exc.cause if isinstance(exc, IntegrationAbort) else exc
            add(seed, "abort", float("nan"), f"abort: {cause}")
            any_abort = True
    path = _out_path(cfg, out_dir, f"{cfg.system}_{check}.csv")
    write_csv(path, header, rows)
    n_pass = sum(1 for r in rows if r[-1] == "pass")
    print(f"verify {cfg.system} {check}: {n_pass}/{len(rows)} rows pass -> {path}")
    if any_abort:
        return EXIT_ABORT
    return EXIT_TOLERANCE if any_fail else EXIT_OK


def _crosscheck_deviations(cfg: RunConfig, pair):
    """Integrate both sides of a pair; per-sample max deviation."""
    rng_seed = cfg.seed
    icfg = cfg.integrator
    if pair == ("elr_multiplier", "elr_momentum"):
        chart_a = elr.MultiplierChart(cfg.op, cfg.k, cfg.epsilon)
        st = elr.random_multiplier_state(cfg.n, cfg.k, np.random.default_rng(rng_seed))
        mst = elr.momentum_of(st, cfg.op)
        chart_b = elr.MomentumChart(cfg.op, cfg.k, cfg.epsilon)
        ta = integrate(chart_a.field, chart_a.flatten(st), icfg)
        tb = integrate(chart_b.field, chart_b.flatten(mst), icfg)
        devs = []
        for ra, rb in zip(ta.states, tb.states):
            wa = chart_a.unflatten(ra).omega
            wb = elr.omega_of(chart_b.unflatten(rb), cfg.op)
            devs.append(float(np.max(np.abs(wa - wb))))
        return ta.times, devs

    if cfg.system not in BALL_SYSTEMS:
        raise ConfigError(f"pair: config system must be {pair[0]} for this pair")
    ball_chart = build_chart(cfg)
    st = ball3d.random_ball_state(
        np.random.default_rng(rng_seed),
        inertia=cfg.inertia_vec,
        D=cfg.D,
        eps=cfg.epsilon,
    )
    tb_ball = integrate(ball_chart.field, ball_chart.flatten(st), icfg)
    target = {"elpr": "elpr", "elr_multiplier": "elr", "veselova": "veselova"}[pair[1]]
    lifted, op = ball3d.lift_to_so3(st, target)
    devs = []
    if pair[1] == "elpr":
        chart = elpr.LPRChart(op, cfg.epsilon)
        tg = integrate(chart.field, chart.flatten(lifted), icfg)
        for rb, rg in zip(tb_ball.states, tg.states):
            wb = ball_chart.unflatten(rb).omega
            wg = unhat(elpr.omega_from_k(chart.unflatten(rg), op))
            devs.append(float(np.max(np.abs(wb - wg))))
    elif pair[1] == "elr_multiplier":
        chart = elr.MultiplierChart(op, 1, cfg.epsilon)
        tg = integrate(chart.field, chart.flatten(lifted), icfg)
        for rb, rg in zip(tb_ball.states, tg.states):
            sb = ball_chart.unflatten(rb)
            sg = chart.unflatten(rg)
            dev = np.max(np.abs(sb.omega - unhat(sg.omega)))
            dev = max(dev, np.max(np.abs(sb.gamma - unhat(sg.frames.elems[0]))))
            devs.append(float(dev))
    else:
        chart = veselova.VeselovaChart(op, 1, cfg.epsilon)
        tg = integrate(chart.field, chart.flatten(lifted), icfg)
        for rb, rg in zip(tb_ball.states, tg.states):
            sb = ball_chart.unflatten(rb)
            sg = chart.unflatten(rg)
            dev = np.max(np.abs(ball3d.momentum_vector(sb) - unhat(sg.m_bold)))
            dev = max(dev, np.max(np.abs(sb.gamma - sg.U.U[:, 0])))
            devs.append(float(dev))
    return tb_ball.times, devs


def cmd_crosscheck(cfg: RunConfig, pair_arg, out_dir) -> int:
    parts = tuple(pair_arg.split(":"))
    if len(parts) != 2:
        raise ConfigError("--pair: expected the form A:B")
    pair = parts if parts in PAIRS else (parts[1], parts[0])
    if pair not in PAIRS:
        known = ", ".join(":".join(p) for p in PAIRS)
        raise ConfigError(f"--pair: unknown pair {pair_arg!r}; known pairs: {known}")
    if cfg.system != pair[0]:
        raise ConfigError(f"pair: config system must be {pair[0]!r} for {pair_arg!r}")
    tol = default_tolerance("crosscheck", cfg)
    try:
        times, devs = _crosscheck_deviations(cfg, pair)
    except IntegrationAbort as exc:
        print(f"integration abort: {exc}", file=sys.stderr)
        return EXIT_ABORT
    rows = [[float(t), float(d)] for t, d in zip(times, devs)]
    path = _out_path(cfg, out_dir, f"crosscheck_{pair[0]}_{pair[1]}.csv")
    write_csv(path, ["t", "deviation"], rows)
    worst = max(devs)
    status = "pass" if worst <= tol else "fail"
    print(f"crosscheck {pair[0]}:{pair[1]}: max deviation {worst:.3e} ({status}) -> {path}")
    return EXIT_OK if status == "pass" else EXIT_TOLERANCE


# ---------------------------------------------------------------------------
# entry point


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nonholo",
        description="Simulate and verify nonholonomic flows on so(n) "
        "and their 3-d ball specializations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="integrate one trajectory and write CSV")
    sim.add_argument("--config", required=True)
    sim.add_argument("--seed", type=int, default=None)
    sim.add_argument("--out", default=None)

    ver = sub.add_parser("verify", help="run a verification campaign")
    ver.add_argument("--config", required=True)
    ver.add_argument("--check", required=True, choices=CHECKS)
    ver.add_argument("--seeds", type=int, default=1)
    ver.add_argument("--out", default=None)

    cross = sub.add_parser("crosscheck", help="compare paired formulations")
    cross.add_argument("--config", required=True)
    cross.add_argument("--pair", required=True)
    cross.add_argument("--out", default=None)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.command == "simulate":
            return cmd_simulate(cfg, args.seed, args.out)
        if args.command == "verify":
            if args.seeds < 1:
                raise ConfigError("--seeds: need at least 1")
            return cmd_verify(cfg, args.check, args.seeds, args.out)
        return cmd_crosscheck(cfg, args.pair, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except IntegrationAbort as exc:
        print(f"integration abort: {exc}", file=sys.stderr)
        return EXIT_ABORT
    except NonholoError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_ABORT


if __name__ == "__main__":
    sys.exit(main())

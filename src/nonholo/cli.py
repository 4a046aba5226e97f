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
import math
import os
import sys
from dataclasses import fields
from numbers import Integral

import numpy as np

from . import ball3d, elpr, elr, veselova
from .errors import ConfigError, IntegrationAbort, NonholoError, ParameterError
from .liealg import InertiaOperator
from .numerics import (
    _ENSEMBLE_BATCH_BYTES,
    _STAGES,
    IntegratorConfig,
    _check_drift,
    integrate,
    liouville_residual_ambient,
    tangent_volume_transport,
)

EXIT_OK = 0
EXIT_TOLERANCE = 2
EXIT_CONFIG = 3
EXIT_ABORT = 4

# Every per-system question the commands ask goes to the chart class (see
# nonholo.chart); a system is ambient when its chart has no constraints.
SYSTEMS = {
    "elr_multiplier": elr.MultiplierChart,
    "elr_momentum": elr.MomentumChart,
    "veselova": veselova.VeselovaChart,
    "elpr": elpr.LPRChart,
    "lpr_stiefel": elpr.LPRStiefelChart,
    "ball_chaplygin": ball3d.ChaplyginChart,
    "ball_rubber": ball3d.RubberChart,
}
COMMON_KEYS = ("system", "epsilon", "tolerance", "initial", "checks", "integrator", "output")
CHECKS = ("liouville", "volume", "integrals")

# (config system, partner) -> function (chart, state) returning the partner
# chart, its initial coordinates, and deviation(samples, partner samples),
# batched over (..., d): the largest difference of the quantities both sides
# carry
PAIRS = {
    ("elr_multiplier", "elr_momentum"): elr.momentum_partner,
    ("ball_chaplygin", "elpr"): ball3d.elpr_partner,
    ("ball_rubber", "elr_multiplier"): ball3d.elr_partner,
    ("ball_rubber", "veselova"): ball3d.veselova_partner,
}

_DEFAULT_TOL = {"liouville": 1e-6, "volume": 1e-6, "integrals": 1e-8, "crosscheck": 1e-8}


# ---------------------------------------------------------------------------
# configuration


def _cfg_get(node, key, typ, default=None, required=False, where=""):
    """node[key] converted by typ.  With typ int or bool the value must
    already be a JSON integer or boolean: int(4.7) truncates, and
    bool("false") is true."""
    if key not in node:
        if required:
            raise ConfigError(f"{where}{key}: required")
        return default
    value = node[key]
    if typ is bool and not isinstance(value, bool):
        raise ConfigError(f"{where}{key}: expected true or false, got {value!r}")
    if typ is int and (isinstance(value, bool) or not isinstance(value, Integral)):
        raise ConfigError(f"{where}{key}: expected an integer, got {value!r}")
    try:
        return typ(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{where}{key}: {exc}") from exc


def _reject_unknown(node, allowed, where=""):
    unknown = sorted(set(node) - set(allowed))
    if unknown:
        raise ConfigError(f"{where}{unknown[0]}: unknown key")


def _reject_non_finite(raw):
    """Python's json reads NaN and Infinity; name the dotted key holding one."""
    todo = [(None, raw)]  # a loop, not recursion: the nesting depth is the file's
    while todo:
        key, node = todo.pop()
        if isinstance(node, float) and not math.isfinite(node):
            raise ConfigError(f"{key}: not a finite number: {node}")
        if isinstance(node, dict):
            todo += [(k if key is None else f"{key}.{k}", v) for k, v in node.items()]
        elif isinstance(node, list):
            todo += [(key, v) for v in node]


def _mapping(raw, key, allowed):
    """raw[key] ({} when absent), checked to be a mapping of known keys."""
    node = raw.get(key, {})
    if not isinstance(node, dict):
        raise ConfigError(f"{key}: expected a mapping")
    _reject_unknown(node, allowed, f"{key}.")
    return node


def _float_array(value):
    return np.asarray(value, dtype=float)


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
    except (NonholoError, TypeError, ValueError) as exc:
        raise ConfigError(f"inertia: {exc}") from exc
    raise ConfigError(f"inertia: unknown kind {kind!r}")


class RunConfig:
    """Validated run description and its chart; see load_config.

    The chart's ``from_config`` reads its own keys through ``get``,
    ``vector`` and ``inertia_operator``.
    """

    def __init__(self, raw: dict):
        if not isinstance(raw, dict):
            raise ConfigError("top level: expected a JSON object")
        self.raw = raw
        system = raw.get("system")
        if not isinstance(system, str) or system not in SYSTEMS:
            raise ConfigError(f"system: expected one of {', '.join(SYSTEMS)}, got {system!r}")
        self.system = system
        _reject_unknown(raw, COMMON_KEYS + SYSTEMS[system].config_keys)
        _reject_non_finite(raw)
        self.epsilon = self.get("epsilon", float, required=True)
        self.tolerance = self.get("tolerance", float)
        if self.tolerance is not None and self.tolerance < 0.0:
            raise ConfigError(f"tolerance: must be nonnegative, got {self.tolerance!r}")

        initial = _mapping(raw, "initial", ("seed", "coords", "zero_constants"))
        self.seed = _cfg_get(initial, "seed", int, default=0, where="initial.")
        if self.seed < 0:
            raise ConfigError("initial.seed: must be nonnegative")
        self.coords = _cfg_get(initial, "coords", _float_array, where="initial.")
        self.zero_constants = _cfg_get(
            initial, "zero_constants", bool, default=False, where="initial."
        )
        output = _mapping(raw, "output", ("dir",))
        self.output_dir = _cfg_get(output, "dir", os.fspath, default=".", where="output.")

        checks = raw.get("checks", [])
        if not isinstance(checks, list) or any(c not in CHECKS for c in checks):
            raise ConfigError(f"checks: expected a list drawn from {', '.join(CHECKS)}")
        self.checks = checks
        for check in checks:
            self.require(check, "checks")

        node = _mapping(raw, "integrator", [f.name for f in fields(IntegratorConfig)])
        try:
            self.integrator = IntegratorConfig(**node)
        except (TypeError, ParameterError) as exc:
            raise ConfigError(f"integrator: {exc}") from exc

        try:
            self.chart = SYSTEMS[system].from_config(self)
        except ParameterError as exc:  # the chart's own parameter checks
            raise ConfigError(f"{system}: {exc}") from exc

    def get(self, key, typ, default=None, required=False):
        """raw[key] converted by typ; a ConfigError naming the key if it fails."""
        return _cfg_get(self.raw, key, typ, default, required)

    def vector(self, key, size=None):
        """A required list of numbers, of ``size`` entries if given."""
        v = self.get(key, _float_array, required=True)
        if v.ndim != 1 or v.size == 0 or size not in (None, v.size):
            raise ConfigError(f"{key}: expected a list of {size or 'some'} numbers")
        return v

    def inertia_operator(self) -> InertiaOperator:
        """The so(n) inertia operator of the keys n and inertia."""
        n = self.get("n", int, required=True)
        if n < 3:
            raise ConfigError("n: need n >= 3")
        op = _parse_inertia_spec(self.raw.get("inertia", {"kind": "identity"}), n)
        if op.n != n:
            raise ConfigError(f"inertia: operator is for so({op.n}), config has n={n}")
        return op

    def require(self, check, where):
        """Raise a ConfigError unless ``check`` can run on this config."""
        if check == "liouville" and SYSTEMS[self.system].constraints is not None:
            raise ConfigError(
                f"{where}: liouville applies to the ambient charts only; "
                f"use volume for {self.system}"
            )
        if check != "integrals" and self.epsilon == 0.0:
            raise ConfigError("epsilon: must be nonzero, density exponents diverge at 0")

    def require_density(self):
        """Raise a ConfigError naming epsilon unless the chart's density is
        defined; simulate and verify record log_density at every sample."""
        try:
            self.chart.check_density()
        except ParameterError as exc:
            raise ConfigError(f"epsilon: {exc} for {self.system}") from exc

    def initial_coords(self, seed: int) -> np.ndarray:
        """The configured coordinates, else a seeded random state."""
        if self.coords is not None:
            if self.coords.shape != (self.chart.dim,):
                raise ConfigError(
                    f"initial.coords: expected {self.chart.dim} values for this chart, "
                    f"got {self.coords.size}"
                )
            return self.coords
        rng = np.random.default_rng(seed)
        return self.chart.flatten(self.chart.random_state(rng, self.zero_constants))


def load_config(path: str) -> RunConfig:
    """Read and validate a JSON run configuration."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except (json.JSONDecodeError, RecursionError) as exc:  # too deep a nesting
        raise ConfigError(f"config parse error in {path}: {exc}") from exc
    return RunConfig(raw)


def default_tolerance(check: str, cfg: RunConfig) -> float:
    """Explicit config tolerance > NONHOLO_DEFAULT_TOL > built-in default."""
    if cfg.tolerance is not None:
        return cfg.tolerance
    env = os.environ.get("NONHOLO_DEFAULT_TOL")
    if env is not None:
        try:
            tol = float(env)
        except ValueError as exc:
            raise ConfigError(f"NONHOLO_DEFAULT_TOL: not a number: {env!r}") from exc
        if not math.isfinite(tol):
            raise ConfigError(f"NONHOLO_DEFAULT_TOL: not a finite number: {env!r}")
        if tol < 0.0:
            raise ConfigError(f"NONHOLO_DEFAULT_TOL: must be nonnegative, got {env!r}")
        return tol
    return _DEFAULT_TOL[check]


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
    base = out_dir or cfg.output_dir
    try:
        os.makedirs(base, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"output.dir: cannot create {base!r}: {exc}") from exc
    return os.path.join(base, name)


# ---------------------------------------------------------------------------
# commands


def observables(chart, states) -> dict:
    """Named columns (...) of scalars at the samples states (..., d), each
    from one chart call on all samples: the first integrals, log_density
    and residual, the largest constraint violation."""
    states = np.asarray(states, dtype=float)
    out = dict(chart.integrals(states))
    out["log_density"] = np.asarray(chart.log_density(states), dtype=float)
    out["residual"] = chart.invariant_residual(states)
    return out


def cmd_simulate(cfg: RunConfig, seed, out_dir) -> int:
    cfg.require_density()
    chart = cfg.chart
    x0 = cfg.initial_coords(cfg.seed if seed is None else seed)
    traj = integrate(chart.field, x0, cfg.integrator, renormalize_fn=chart.renormalize)
    obs = observables(chart, traj.states)
    _check_drift(traj.times, obs["residual"])
    header = ["t"] + chart.columns() + list(obs)
    rows = np.column_stack([traj.times, chart.row(traj.states), *obs.values()]).tolist()
    path = _out_path(cfg, out_dir, f"{cfg.system}_trajectory.csv")
    write_csv(path, header, rows)
    print(f"simulate {cfg.system}: {len(rows)} samples -> {path}")
    return EXIT_OK


def _integral_drifts(chart, states, obs) -> dict:
    """Max drift of each conserved quantity over the sample columns ``obs``."""
    drifts = {}
    for name, vals in obs.items():
        if name == "residual":
            drifts["constraint_drift"] = float(np.max(np.abs(vals)))
        elif name != "log_density":
            drifts[f"{name}_drift"] = float(np.max(vals) - np.min(vals))
    drifts.update({k: float(v) for k, v in chart.extra_drifts(states).items()})
    return drifts


# Each check's runner maps the initial states x0 (S, d) of S seeds to one
# (results, gated) pair per seed: results lists (quantity, value), and gated
# names the quantities held to the tolerance.


def _liouville_results(cfg: RunConfig, x0) -> list:
    """Pointwise Liouville residual of each state."""
    chart = cfg.chart
    values = [abs(liouville_residual_ambient(chart.field, chart.log_density, x)) for x in x0]
    return [([("liouville_residual", v)], {"liouville_residual"}) for v in values]


def _volume_results(cfg: RunConfig, x0) -> list:
    """Max tangent-volume residual of each state, from one ensemble transport."""
    chart = cfg.chart
    results = tangent_volume_transport(
        chart.field,
        chart.log_density,
        x0,
        constraints_fn=chart.constraints,
        cfg=cfg.integrator,
    )
    return [([("volume_residual", r.max_abs_residual)], {"volume_residual"}) for r in results]


def _integral_results(cfg: RunConfig, x0) -> list:
    """Drift of each conserved quantity from each state.

    The states are integrated as one ensemble, in consecutive groups whose
    stage array and stored samples stay under _ENSEMBLE_BATCH_BYTES; a group
    of one state is integrated as a (d,) state, as a one-seed run is.
    """
    chart = cfg.chart
    S, d = x0.shape
    group = max(1, _ENSEMBLE_BATCH_BYTES // (8 * d * (_STAGES + cfg.integrator.samples)))
    out = []
    for lo in range(0, S, group):
        xs = x0[lo : lo + group]
        traj = integrate(chart.field, xs[0] if len(xs) == 1 else xs, cfg.integrator)
        for states in np.swapaxes(traj.states.reshape(len(traj.times), len(xs), d), 0, 1):
            obs = observables(chart, states)
            _check_drift(traj.times, obs["residual"])
            gated = {"constraint_drift"} | chart.gated({k: v[0] for k, v in obs.items()})
            out.append((sorted(_integral_drifts(chart, states, obs).items()), gated))
    return out


_RUNNERS = {
    "liouville": _liouville_results,
    "volume": _volume_results,
    "integrals": _integral_results,
}


def _ensemble(cfg: RunConfig, seeds, run) -> dict:
    """{seed: (results, gated)} from one call of ``run`` on every seed's state.

    Empty when any member fails: the caller then runs each seed on its own,
    so every seed's row or abort is what a one-seed run gives.
    """
    try:
        x0 = np.array([cfg.initial_coords(seed) for seed in seeds])
        return dict(zip(seeds, run(cfg, x0)))
    except ConfigError:
        raise
    except NonholoError:
        return {}


def cmd_verify(cfg: RunConfig, check, seeds, out_dir) -> int:
    if check not in CHECKS:
        raise ConfigError(f"--check: expected one of {', '.join(CHECKS)}")
    cfg.require(check, "--check")
    cfg.require_density()
    chart = cfg.chart
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
            [cfg.system, chart.n, chart.r, chart.k, cfg.epsilon, seed, check,
             quantity, value, tol, status]
        )

    run = _RUNNERS[check]
    seed_list = [cfg.seed + i for i in range(seeds)]
    done = _ensemble(cfg, seed_list, run) if seeds > 1 else {}
    for seed in seed_list:
        try:
            if seed in done:
                results, gated = done[seed]
            else:
                ((results, gated),) = run(cfg, cfg.initial_coords(seed)[None])
            for name, value in results:
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


def _crosscheck_deviations(cfg: RunConfig, partner):
    """Integrate both sides of a pair from one seeded state; per-sample deviation."""
    chart = cfg.chart
    state = chart.random_state(np.random.default_rng(cfg.seed))
    other, y0, deviation = partner(chart, state)
    ta = integrate(chart.field, chart.flatten(state), cfg.integrator)
    tb = integrate(other.field, y0, cfg.integrator)
    for side, traj in ((chart, ta), (other, tb)):
        _check_drift(traj.times, side.invariant_residual(traj.states))
    return ta.times, deviation(ta.states, tb.states)


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
    times, devs = _crosscheck_deviations(cfg, PAIRS[pair])
    path = _out_path(cfg, out_dir, f"crosscheck_{pair[0]}_{pair[1]}.csv")
    write_csv(path, ["t", "deviation"], np.column_stack([times, devs]).tolist())
    worst = float(np.max(devs))
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
            if args.seed is not None and args.seed < 0:
                raise ConfigError("--seed: must be nonnegative")
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

"""Configuration-driven command line: simulate, verify, crosscheck.

Commands (see README for the config schema):

    nonholo simulate  --config cfg.json [--seed N] [--out DIR]
    nonholo verify    --config cfg.json --check liouville|volume|integrals
                      [--seeds N] [--out DIR]
    nonholo crosscheck --config cfg.json --pair A:B [--out DIR]

Exit codes: 0 success, 2 tolerance failure, 3 configuration error,
4 numerical abort.  A "tolerance" config key replaces each check's built-in
default tolerance.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import fields, replace
from functools import cache
from numbers import Integral, Real

import numpy as np

from . import ball3d, elpr, elr, veselova
from .errors import ConfigError, DimensionError, IntegrationAbort, NonholoError, ParameterError
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
COMMON_KEYS = ("system", "epsilon", "tolerance", "initial", "integrator", "output")
CHECKS = ("liouville", "volume", "integrals")

# (config system, partner) -> function (chart, coords) that lifts the
# chart's initial coordinates (d,) to the partner: it returns the partner
# chart, its initial coordinates, and deviation(samples, partner samples),
# batched over (..., d): the largest difference of the quantities both sides
# carry.  A NonholoError means the pair cannot lift those coordinates.
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
    """node[key] converted by typ.  With typ int, float or bool the value
    must already be a JSON integer, number or boolean: int(4.7) truncates,
    float(true) is 1.0, float("nan") is NaN and bool("false") is true."""
    if key not in node:
        if required:
            raise ConfigError(f"{where}{key}: required")
        return default
    value = node[key]
    if typ is bool and not isinstance(value, bool):
        raise ConfigError(f"{where}{key}: expected true or false, got {value!r}")
    if typ in (int, float) and (
        isinstance(value, bool) or not isinstance(value, Integral if typ is int else Real)
    ):
        kind = "an integer" if typ is int else "a number"
        raise ConfigError(f"{where}{key}: expected {kind}, got {value!r}")
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
    """value, a JSON number or nested lists of them, as a float array.  numpy
    would read null as NaN, true as 1.0 and the string "nan" as NaN, so every
    entry must be a number; _reject_non_finite has refused NaN and Infinity."""
    entries = np.asarray(value, dtype=object).ravel()
    if not all(isinstance(x, Real) and not isinstance(x, bool) for x in entries):
        raise ValueError(f"expected finite numbers, got {value!r}")
    return np.asarray(value, dtype=float)


def _parse_inertia_spec(node, n, where="inertia"):
    """Build an InertiaOperator from the config mapping at the dotted key where."""
    if not isinstance(node, dict) or "kind" not in node:
        raise ConfigError(f'{where}: expected a mapping with a "kind" key')
    kind = node["kind"]

    def number(key, typ=_float_array):
        return _cfg_get(node, key, typ, required=True, where=f"{where}.")

    try:
        if kind == "wedge_products":
            return InertiaOperator.wedge_products(number("a"))
        if kind == "wedge_products_chaplygin":
            return InertiaOperator.wedge_products_chaplygin(number("a"), number("D", float))
        if kind == "wedge_diagonal":
            return InertiaOperator.wedge_diagonal(n, number("diag"))
        if kind == "shifted":
            base = _parse_inertia_spec(node.get("base"), n, f"{where}.base")
            return InertiaOperator.shifted(base, number("D", float))
        if kind == "general":
            return InertiaOperator.general(n, number("matrix"))
        if kind == "identity":
            return InertiaOperator.identity(n)
        if kind == "so3_vector":
            return InertiaOperator.so3_vector(number("principal"))
    except ConfigError:
        raise
    except NonholoError as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    raise ConfigError(f"{where}: unknown kind {kind!r}")


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

        node = _mapping(raw, "integrator", [f.name for f in fields(IntegratorConfig)])
        try:
            self.integrator = IntegratorConfig(**node)
        except (TypeError, ParameterError) as exc:
            raise ConfigError(f"integrator: {exc}") from exc
        try:  # a sample count numpy cannot allocate is refused here, not mid-run
            self.integrator.sample_times()
        except (ValueError, MemoryError) as exc:
            raise ConfigError(f"integrator.samples: {exc}") from exc

        try:  # each of the chart's own refusals starts with its config key
            self.chart = SYSTEMS[system].from_config(self)
        except (DimensionError, ParameterError) as exc:
            raise ConfigError(str(exc)) from exc

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

    def require_density(self):
        """Raise a ConfigError naming epsilon unless the chart's density is
        defined: the one epsilon rule.  simulate and verify evaluate the
        density, so they call this before integrating; crosscheck does not."""
        try:
            self.chart.check_density()
        except ParameterError as exc:
            raise ConfigError(f"epsilon: {exc} for {self.system}") from exc

    def initial_coords(self, seed: int) -> np.ndarray:
        """The configured coordinates, else the chart's seeded random ones."""
        if self.coords is not None:
            if self.coords.shape != (self.chart.dim,):
                raise ConfigError(
                    f"initial.coords: expected a flat list of {self.chart.dim} values for "
                    f"this chart, got shape {self.coords.shape}"
                )
            return self.coords
        return self.chart.random_coords(np.random.default_rng(seed), self.zero_constants)


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
    """The config's tolerance, else the check's built-in default."""
    return _DEFAULT_TOL[check] if cfg.tolerance is None else cfg.tolerance


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
    if seed is not None and cfg.coords is not None:
        raise ConfigError("--seed: the config's initial.coords give the initial state")
    cfg.require_density()
    chart = cfg.chart
    x0 = cfg.initial_coords(cfg.seed if seed is None else seed)
    traj = integrate(chart.field, x0, cfg.integrator)
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
    """Pointwise Liouville residual of each state, from one call on all of
    them with the chart's divergence and log-density gradient, both in
    closed form."""
    chart = cfg.chart
    values = np.abs(liouville_residual_ambient(
        chart.field, chart.log_density, x0,
        divergence_fn=chart.divergence, grad_fn=chart.log_density_grad,
    ))
    return [([("liouville_residual", v)], {"liouville_residual"}) for v in values]


def _volume_results(cfg: RunConfig, x0) -> list:
    """Max tangent-volume residual of each state, from one ensemble transport
    whose log volume integrates the chart's ``divergence``."""
    chart = cfg.chart
    results = tangent_volume_transport(
        chart.field,
        chart.log_density,
        x0,
        constraints_fn=chart.constraints,
        cfg=cfg.integrator,
        divergence_fn=chart.divergence,
    )
    return [([("volume_residual", r.max_abs_residual)], {"volume_residual"}) for r in results]


def _integral_results(cfg: RunConfig, x0) -> list:
    """Drift of each conserved quantity from each state.

    The states are integrated as one ensemble, in consecutive groups whose
    stored samples, with the stages of a step that covers no sample, stay
    under _ENSEMBLE_BATCH_BYTES.  The bound leaves the branch rows out:
    ``integrate`` gives a step only as many as keep its stage array under
    the same bound, so a larger group gets fewer branches per step, not a
    larger stage array.
    """
    chart = cfg.chart
    S, d = x0.shape
    group = max(1, _ENSEMBLE_BATCH_BYTES // (8 * d * (_STAGES + cfg.integrator.samples)))
    out = []
    for lo in range(0, S, group):
        xs = x0[lo : lo + group]
        traj = integrate(chart.field, xs, cfg.integrator)
        for states in np.swapaxes(traj.states, 0, 1):
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
    if seeds != 1 and cfg.coords is not None:
        raise ConfigError(
            f"--seeds: the config's initial.coords give one state, which --seeds {seeds} "
            f"would certify {seeds} times; use --seeds 1"
        )
    chart = cfg.chart
    if check == "liouville" and chart.constraints is not None:
        raise ConfigError(
            f"--check: liouville applies to the ambient charts only; use volume for {cfg.system}"
        )
    cfg.require_density()
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
            bad = [name for name, value in results if name in gated and not np.isfinite(value)]
            if bad:  # an abort, as a non-finite field value is
                raise NonholoError(f"non-finite {bad[0]}")
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
            cause = f"{exc.cause} at t={exc.t:.6g}" if isinstance(exc, IntegrationAbort) else exc
            add(seed, "abort", float("nan"), f"abort: {cause}")
            any_abort = True
    path = _out_path(cfg, out_dir, f"{cfg.system}_{check}.csv")
    write_csv(path, header, rows)
    n_pass = sum(1 for r in rows if r[-1] == "pass")
    print(f"verify {cfg.system} {check}: {n_pass}/{len(rows)} rows pass -> {path}")
    if any_abort:
        return EXIT_ABORT
    return EXIT_TOLERANCE if any_fail else EXIT_OK


def _crosscheck_deviations(cfg: RunConfig, partner, integ):
    """Integrate both sides of a pair from the configured coordinates, seeded
    or given, and the partner's lift of them, with the integrator settings
    integ; per-sample deviation."""
    chart = cfg.chart
    x0 = cfg.initial_coords(cfg.seed)
    try:
        other, y0, deviation = partner(chart, x0)
    except NonholoError as exc:
        key = "initial.seed" if cfg.coords is None else "initial.coords"
        raise ConfigError(f"{key}: the pair cannot lift this state: {exc}") from exc
    ta = integrate(chart.field, x0, integ)
    tb = integrate(other.field, y0, integ)
    for side, traj in ((chart, ta), (other, tb)):
        _check_drift(traj.times, side.invariant_residual(traj.states))
    return ta.times, deviation(ta.states, tb.states)


# The tightest integrator tolerance a crosscheck reruns at (see cmd_crosscheck).
_CROSSCHECK_TOL_FLOOR = 1e-13


def _tol_text(integ) -> str:
    return f"abs_tol {integ.abs_tol:.3g}, rel_tol {integ.rel_tol:.3g}"


def cmd_crosscheck(cfg: RunConfig, pair_arg, out_dir) -> int:
    """Both sides of a pair at the configured integrator tolerance.  A
    deviation above the gate may be integrator error, so both sides run
    again at abs_tol and rel_tol ten times smaller until the deviation
    passes (exit 0), changes by less than 10% from the level before (a real
    disagreement, exit 2), or would need a tolerance below 1e-13 (exit 4).
    The CSV is that of the last run."""
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
    integ = cfg.integrator
    times, devs = _crosscheck_deviations(cfg, PAIRS[pair], integ)
    worst = float(np.max(devs))
    status = "pass" if worst <= tol else None
    while status is None:
        tighter = replace(integ, abs_tol=integ.abs_tol / 10, rel_tol=integ.rel_tol / 10)
        # the slack absorbs the rounding of the divisions
        if max(tighter.abs_tol, tighter.rel_tol) < _CROSSCHECK_TOL_FLOOR * (1.0 - 1e-9):
            status = "unresolved"
            break
        try:
            times, devs = _crosscheck_deviations(cfg, PAIRS[pair], tighter)
        except IntegrationAbort as exc:
            raise IntegrationAbort(
                exc.t, f"{exc.cause} (integrator rerun at {_tol_text(tighter)})"
            ) from exc
        integ, previous, worst = tighter, worst, float(np.max(devs))
        if worst <= tol:
            status = "pass"
        elif abs(worst - previous) < 0.1 * previous:
            status = "fail"
    path = _out_path(cfg, out_dir, f"crosscheck_{pair[0]}_{pair[1]}.csv")
    write_csv(path, ["t", "deviation"], np.column_stack([times, devs]).tolist())
    print(f"crosscheck {pair[0]}:{pair[1]}: max deviation {worst:.3e} ({status}) "
          f"at {_tol_text(integ)} -> {path}")
    if status == "unresolved":
        print(
            f"integrator error: deviation {worst:.3e} above the tolerance {tol:.3g} and "
            f"still shrinking at {_tol_text(integ)}; the integrator reruns no tighter "
            f"than {_CROSSCHECK_TOL_FLOOR:.0e}",
            file=sys.stderr,
        )
        return EXIT_ABORT
    return EXIT_OK if status == "pass" else EXIT_TOLERANCE


# ---------------------------------------------------------------------------
# entry point


class _Parser(argparse.ArgumentParser):
    """Bad arguments are a config error (exit 3); exit 2 is a failed gate."""

    def error(self, message):
        raise ConfigError(message)


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first ``main`` call of a
    process and reused: parsing keeps no state between calls."""
    parser = _Parser(
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
    try:
        args = _build_parser().parse_args(argv)
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

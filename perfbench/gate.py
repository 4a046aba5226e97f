"""Correctness gate for one CLI invocation, built from the README's spec.

``check`` returns ``(results, problem)``: the number of seed-level results
the invocation certified (verify seeds, one simulate trajectory or one
crosscheck pair) and ``None``, or ``0`` and a one-line cause.
"""

from __future__ import annotations

import csv
import hashlib
import math
import os

VERIFY_HEADER = [
    "system", "n", "r", "k", "epsilon", "seed", "check",
    "quantity", "value", "tolerance", "status",
]
DEFAULT_TOL = {"liouville": 1e-6, "volume": 1e-6, "integrals": 1e-8, "crosscheck": 1e-8}


def _pairs(n, prefix):
    return [f"{prefix}{i}{j}" for i in range(1, n + 1) for j in range(i + 1, n + 1)]


def state_columns(cfg):
    """Flattened-state CSV columns as the README lists them."""
    system = cfg["system"]
    if system == "ball_chaplygin":
        return ["k1", "k2", "k3", "g1", "g2", "g3"]
    if system == "ball_rubber":
        lead = "m" if cfg.get("variables", "m") == "m" else "w"
        return [f"{lead}{i}" for i in (1, 2, 3)] + ["g1", "g2", "g3"]
    n = len(cfg["a"]) if system == "lpr_stiefel" else cfg["n"]
    N = n * (n - 1) // 2
    labels = [p[1:] for p in _pairs(n, "x")]
    if system == "elr_multiplier":
        return _pairs(n, "w") + [f"e{s}_{lab}" for s in range(1, cfg["k"] + 1) for lab in labels]
    if system == "elr_momentum":
        rows = range(1, N - cfg["k"] + 1)
        return _pairs(n, "m") + [f"f{s}_{lab}" for s in rows for lab in labels]
    if system == "elpr":
        return _pairs(n, "w") + [f"Pi{a}_{b}" for a in range(1, N + 1) for b in range(a, N + 1)]
    lead = "m" if system == "veselova" else "k"
    return _pairs(n, lead) + [f"U{i}{j}" for i in range(1, n + 1) for j in range(1, cfg["r"] + 1)]


def observable_names(cfg):
    system = cfg["system"]
    if system == "elr_multiplier":
        extra = ["F"] + [f"phi{i}" for i in range(1, cfg["k"] + 1)]
    elif system == "ball_rubber":
        extra = ["phi1"]
    else:
        extra = []
    return ["H"] + extra + ["log_density", "residual"]


def integral_quantities(cfg):
    """Drift rows per seed: every observable but log_density, plus the spectrum for elpr."""
    names = [f"{o}_drift" for o in observable_names(cfg) if o not in ("log_density", "residual")]
    names.append("constraint_drift")
    if cfg["system"] == "elpr":
        names.append("spectrum_drift")
    return sorted(names)


def _read(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def _finite(cells):
    try:
        return all(math.isfinite(float(c)) for c in cells)
    except ValueError:
        return False


def sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _samples(cfg):
    return int(cfg.get("integrator", {}).get("samples", 33))


def check_simulate(cfg, out_dir):
    path = os.path.join(out_dir, f"{cfg['system']}_trajectory.csv")
    if not os.path.exists(path):
        return 0, "simulate wrote no trajectory CSV"
    rows = _read(path)
    header = ["t"] + state_columns(cfg) + observable_names(cfg)
    if rows[0] != header:
        return 0, f"simulate header {rows[0][:4]}... differs from the README"
    if len(rows) - 1 != _samples(cfg):
        return 0, f"simulate wrote {len(rows) - 1} rows, expected {_samples(cfg)}"
    if not all(len(r) == len(header) and _finite(r) for r in rows[1:]):
        return 0, "simulate wrote a ragged or non-finite row"
    return 1, None


def check_verify(cfg, check, seeds, out_dir):
    path = os.path.join(out_dir, f"{cfg['system']}_{check}.csv")
    if not os.path.exists(path):
        return 0, f"verify wrote no {check} CSV"
    rows = _read(path)
    if rows[0] != VERIFY_HEADER:
        return 0, "verify header differs from the README"
    body = rows[1:]
    first = int(cfg.get("initial", {}).get("seed", 0))
    if check == "integrals":
        expected = integral_quantities(cfg)
    else:
        expected = [f"{check}_residual"]
    for i in range(seeds):
        seed_rows = [r for r in body if r[5] == str(first + i)]
        quantities = sorted(r[7] for r in seed_rows)
        if quantities != expected:
            return 0, f"seed {first + i}: quantities {quantities} != {expected}"
    if len(body) != seeds * len(expected):
        return 0, f"verify wrote {len(body)} rows, expected {seeds * len(expected)}"
    tol = float(cfg.get("tolerance", DEFAULT_TOL[check]))
    for r in body:
        status = r[10]
        if status not in ("pass", "info"):
            return 0, f"{r[7]} seed {r[5]}: status {status!r}"
        if not _finite([r[8]]) or float(r[9]) != tol:
            return 0, f"{r[7]} seed {r[5]}: value {r[8]} tolerance {r[9]}"
        if status == "pass" and float(r[8]) > tol:
            return 0, f"{r[7]} seed {r[5]}: pass row with value {r[8]} > {tol}"
    return seeds, None


def check_crosscheck(cfg, pair, out_dir):
    path = os.path.join(out_dir, f"crosscheck_{pair[0]}_{pair[1]}.csv")
    if not os.path.exists(path):
        return 0, "crosscheck wrote no CSV"
    rows = _read(path)
    if rows[0] != ["t", "deviation"]:
        return 0, "crosscheck header differs from the README"
    if len(rows) - 1 != _samples(cfg):
        return 0, f"crosscheck wrote {len(rows) - 1} rows, expected {_samples(cfg)}"
    tol = float(cfg.get("tolerance", DEFAULT_TOL["crosscheck"]))
    if not all(_finite(r) for r in rows[1:]):
        return 0, "crosscheck wrote a non-finite row"
    worst = max(float(r[1]) for r in rows[1:])
    if worst > tol:
        return 0, f"crosscheck deviation {worst:.3e} > {tol:.1e}"
    return 1, None


def check(inv, out_dir):
    """Gate one finished invocation whose exit code was 0."""
    cmd = inv.command
    if cmd == "simulate":
        return check_simulate(inv.config, out_dir)
    if cmd == "verify":
        return check_verify(inv.config, inv.argv[inv.argv.index("--check") + 1], inv.seeds, out_dir)
    pair = tuple(inv.argv[inv.argv.index("--pair") + 1].split(":"))
    return check_crosscheck(inv.config, pair, out_dir)

"""Seeded campaign generators: the JSON configs and argv of every invocation.

A workload is a fixed design of cells (system, size, rank, epsilon,
subcommand).  One pass over the design is one campaign.  Pass ``p`` of a run
with seed ``s`` draws the free parameters of every cell (inertia values,
contact constants, initial-state seed) from ``numpy.random.default_rng((s, p))``,
so the same seed gives the same inputs and each pass covers new states.  The
cell structure is the same in every pass, which keeps the cost of a pass
nearly independent of the seed.

All parameters stay inside the README's valid ranges: positive inertia
values, ``a_i a_j < D`` for ``lpr_stiefel``, nonnegative ball ``D``,
``1 <= k < N``, ``1 <= r <= n - 1`` (veselova) or ``<= n`` (lpr_stiefel),
nonzero epsilon for every density check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

EPS = (-1.0, 0.5, 1.0, 2.0)
TOL = 1e-10
T_END = 5.0
SAMPLES = 33


@dataclass
class Invocation:
    """One CLI call: ``nonholo <argv> --config <config> --out <dir>``."""

    argv: list
    config: dict
    # index within the pass of an earlier simulate whose CSV must be identical
    repeat_of: int | None = None

    @property
    def command(self) -> str:
        return self.argv[0]

    @property
    def seeds(self) -> int:
        if "--seeds" in self.argv:
            return int(self.argv[self.argv.index("--seeds") + 1])
        return 1


# Inertia values come from narrow ranges: the DP45 step count, hence the cost
# of a call, grows with the spread of rotation rates that anisotropy allows.
def _wedge_inertia(rng, n):
    return {"kind": "wedge_products", "a": [round(float(v), 6) for v in rng.uniform(1.0, 1.6, n)]}


def _lpr_params(rng, n):
    a = rng.uniform(0.8, 1.2, n)
    # a_i a_j < D strictly for every pair, the diagonal included
    D = float(np.max(a)) ** 2 * float(rng.uniform(1.6, 2.4))
    return [round(float(v), 6) for v in a], round(D, 6)


def _ball_params(rng):
    inertia = [round(float(v), 6) for v in rng.uniform(1.0, 2.0, 3)]
    return inertia, round(float(rng.uniform(0.2, 1.0)), 6)


def make_config(rng, system, eps, n=3, rank=1, integrator=None, zero_constants=False,
                variables="m"):
    """One valid config for ``system`` with freshly drawn parameters."""
    cfg = {"system": system, "epsilon": eps}
    if system in ("ball_chaplygin", "ball_rubber"):
        cfg["inertia"], cfg["D"] = _ball_params(rng)
        if system == "ball_rubber":
            cfg["variables"] = variables
    elif system == "lpr_stiefel":
        cfg["a"], cfg["D"] = _lpr_params(rng, n)
        cfg["r"] = rank
    else:
        cfg["n"] = n
        cfg["inertia"] = _wedge_inertia(rng, n)
        if system in ("elr_multiplier", "elr_momentum"):
            cfg["k"] = rank
        elif system == "veselova":
            cfg["r"] = rank
    cfg["initial"] = {"seed": int(rng.integers(0, 2**31 - 1))}
    if zero_constants:
        cfg["initial"]["zero_constants"] = True
    if integrator is not None:
        cfg["integrator"] = dict(integrator)
    return cfg


# (system, n, rank, epsilon, seeds).  n = 3..5, ranks 1-2, each epsilon on
# several systems.  The seed counts bring most invocations to about one
# second on a 2-core Xeon, so that the latency percentiles fall inside a dense
# cluster of calls rather than between two cells.  elr_momentum at n = 5 runs
# at eps = 1/2: at eps = 2 one seed costs about 4 s.
VOLUME_CELLS = (
    ("elr_momentum", 3, 1, 2.0, 2),
    ("elr_momentum", 4, 2, -1.0, 2),
    ("elr_momentum", 5, 1, 0.5, 2),
    ("veselova", 3, 2, 1.0, 5),
    ("veselova", 4, 1, 2.0, 2),
    ("veselova", 5, 2, -1.0, 3),
    ("lpr_stiefel", 3, 1, -1.0, 12),
    ("lpr_stiefel", 4, 2, 0.5, 12),
    ("lpr_stiefel", 5, 1, 2.0, 4),
    ("elr_multiplier", 3, 2, 0.5, 8),
    ("elr_multiplier", 4, 1, 1.0, 4),
    ("elr_multiplier", 5, 2, 2.0, 2),
    ("ball_chaplygin", 3, 1, 1.0, 3),
    ("ball_rubber", 3, 1, -1.0, 4),
)


# Liouville checks ride along in the same campaign: one batched FD Jacobian
# and one batched FD gradient of log_density per seed, with no integrator,
# from d = 12 (elr_multiplier, n = 4) to d = 434 (elpr, n = 8).
LIOUVILLE_CELLS = (
    ("elr_multiplier", 4, 1, -1.0),
    ("elr_multiplier", 6, 2, 0.5),
    ("elr_multiplier", 8, 3, 2.0),
    ("elpr", 4, 1, 1.0),
    ("elpr", 5, 1, -1.0),
    ("elpr", 6, 1, 0.5),
    ("elpr", 7, 1, 1.0),
    ("elpr", 8, 1, 2.0),
)
LIOUVILLE_SEEDS = 3


def _shuffled(rng, invocations):
    # a run that stops inside a pass then samples its cells without bias
    return [invocations[i] for i in rng.permutation(len(invocations))]


def volume_campaign(rng):
    integ = {"t_end": T_END, "abs_tol": TOL, "rel_tol": TOL}
    out = []
    for system, n, rank, eps, seeds in VOLUME_CELLS:
        cfg = make_config(rng, system, eps, n=n, rank=rank, integrator=integ)
        out.append(Invocation(["verify", "--check", "volume", "--seeds", str(seeds)], cfg))
    for system, n, rank, eps in LIOUVILLE_CELLS:
        cfg = make_config(rng, system, eps, n=n, rank=rank)
        argv = ["verify", "--check", "liouville", "--seeds", str(LIOUVILLE_SEEDS)]
        out.append(Invocation(argv, cfg))
    return _shuffled(rng, out)


GENERAL = ("elr_multiplier", "elr_momentum", "veselova", "elpr", "lpr_stiefel")
PAIRS = (
    ("elr_multiplier", "elr_momentum"),
    ("ball_chaplygin", "elpr"),
    ("ball_rubber", "elr_multiplier"),
    ("ball_rubber", "veselova"),
)
TRAJECTORY_SEEDS = 2


def trajectory_campaign(rng):
    integ = {"t_end": T_END, "abs_tol": TOL, "rel_tol": TOL, "samples": SAMPLES}
    cells = [(s, n) for n in (3, 4) for s in GENERAL]
    cells += [("ball_chaplygin", 3), ("ball_rubber", 3)]
    out = []
    for j, (system, n) in enumerate(cells):
        for command in ("simulate", "verify"):
            eps = EPS[(2 * j + (command == "verify")) % len(EPS)]
            cfg = make_config(
                rng, system, eps, n=n, rank=1 + (j % 2) if system != "elpr" else 1,
                integrator=integ,
                zero_constants=system in ("elr_multiplier", "ball_rubber") and j % 2 == 0,
                variables="m" if j % 2 == 0 else "omega",
            )
            if command == "simulate":
                out.append(Invocation(["simulate"], cfg))
            else:
                out.append(Invocation(
                    ["verify", "--check", "integrals", "--seeds", str(TRAJECTORY_SEEDS)], cfg))
    for j, (a, b) in enumerate(PAIRS):
        cfg = make_config(rng, a, EPS[(j + 1) % len(EPS)], n=3 + j % 2, rank=1, integrator=integ)
        out.append(Invocation(["crosscheck", "--pair", f"{a}:{b}"], cfg))
    out = _shuffled(rng, out)
    first = next(i for i, inv in enumerate(out) if inv.command == "simulate")
    out.append(Invocation(["simulate"], dict(out[first].config), repeat_of=first))
    return out


WORKLOADS = {
    "volume_campaign": volume_campaign,
    "trajectory_campaign": trajectory_campaign,
}


def campaign(workload: str, seed: int, pass_index: int) -> list:
    """The invocations of pass ``pass_index`` of ``workload`` for ``seed``."""
    return WORKLOADS[workload](np.random.default_rng((seed, pass_index)))

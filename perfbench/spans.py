"""Timing wrappers installed from outside the program, and their per-layer sums.

``Tracer.install`` replaces, at the names the callers look up:

* ``cli.integrate``, ``cli.tangent_volume_transport``,
  ``cli.liouville_residual_ambient``, ``cli.load_config``,
  ``cli.observables``, ``cli.write_csv``;
* ``numerics.fd_jacobian`` and ``numerics.fd_gradient`` (``numerics``
  calls them through its module globals);
* ``field``, ``log_density`` and ``constraints`` of every chart class;
* ``apply``, ``solve``, ``apply_coords`` and ``solve_coords`` of
  ``liealg.InertiaOperator``.

Every wrapped call records a span (name, start, end, parent, invocation id)
in flat in-memory lists; ``dump`` writes them out once the run is over.
"""

from __future__ import annotations

import gzip
import os
import time
from collections import defaultdict

import numpy as np

_clock = time.perf_counter

CHART_CLASSES = (
    ("elr", "MultiplierChart"),
    ("elr", "MomentumChart"),
    ("veselova", "VeselovaChart"),
    ("elpr", "LPRChart"),
    ("elpr", "LPRStiefelChart"),
    ("ball3d", "ChaplyginChart"),
    ("ball3d", "RubberChart"),
)
CHART_MODULES = ("elr", "veselova", "elpr", "ball3d")
CHART_METHODS = ("field", "log_density", "constraints")
CLI_NAMES = (
    "integrate", "tangent_volume_transport", "liouville_residual_ambient",
    "load_config", "observables", "write_csv",
)
NUMERICS_NAMES = ("fd_jacobian", "fd_gradient")
INERTIA_METHODS = ("apply", "solve", "apply_coords", "solve_coords")
DRIVER_SPANS = ("cli.integrate", "cli.tangent_volume_transport")
NUMERICS_SPANS = DRIVER_SPANS + (
    "cli.liouville_residual_ambient", "numerics.fd_jacobian", "numerics.fd_gradient",
)


class Tracer:
    """Span store; one per traced run."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name_id = []
        self.start = []
        self.end = []
        self.parent = []
        self.invocation = []
        self.rows = []  # leading batch rows of a chart call, 0 for other spans
        self.csv_bytes = 0
        self._stack = []
        self.current_invocation = -1
        self.enabled = False
        self._originals = []

    # recording -------------------------------------------------------------

    def _intern(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, nid, rows):
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.invocation.append(self.current_invocation)
        self.rows.append(rows)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(_clock())
        return idx

    def _close(self, idx):
        self.end[idx] = _clock()
        self._stack.pop()

    def span(self, name, fn, *args, **kwargs):
        """Run ``fn`` inside a span named ``name`` (the invocation root)."""
        if not self.enabled:
            return fn(*args, **kwargs)
        idx = self._open(self._intern(name), 0)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx)

    def _wrap_function(self, name, fn):
        nid = self._intern(name)
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            idx = tracer._open(nid, 0)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(idx)

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_method(self, name, fn):
        nid = self._intern(name)
        tracer = self

        def method(obj, coords, *args, **kwargs):
            if not tracer.enabled:
                return fn(obj, coords, *args, **kwargs)
            rows = 1
            for extent in np.shape(coords)[:-1]:
                rows *= extent
            idx = tracer._open(nid, rows)
            try:
                return fn(obj, coords, *args, **kwargs)
            finally:
                tracer._close(idx)

        method.__wrapped__ = fn
        return method

    def _wrap_write_csv(self, fn):
        inner = self._wrap_function("cli.write_csv", fn)
        tracer = self

        def write_csv(path, header, rows):
            inner(path, header, rows)
            if tracer.enabled:
                tracer.csv_bytes += os.path.getsize(path)

        write_csv.__wrapped__ = fn
        return write_csv

    # installation ----------------------------------------------------------

    def _replace(self, owner, attr, new):
        self._originals.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self, nonholo):
        """Wrap the program's layers; call before any chart is built."""
        mods = {m: getattr(nonholo, m) for m in ("cli", "numerics", "liealg") + CHART_MODULES}
        cli, numerics = mods["cli"], mods["numerics"]
        for name in CLI_NAMES:
            fn = getattr(cli, name)
            if name == "write_csv":
                self._replace(cli, name, self._wrap_write_csv(fn))
            else:
                self._replace(cli, name, self._wrap_function(f"cli.{name}", fn))
        for name in NUMERICS_NAMES:
            fn = getattr(numerics, name)
            self._replace(numerics, name, self._wrap_function(f"numerics.{name}", fn))
        for module, cls_name in CHART_CLASSES:
            cls = getattr(mods[module], cls_name)
            for meth in CHART_METHODS:
                fn = getattr(cls, meth, None)
                if fn is None:
                    continue
                if meth not in cls.__dict__:  # inherited: wrap on this class
                    self._originals.append((cls, meth, None))
                    setattr(cls, meth, self._wrap_method(f"{module}.{meth}", fn))
                else:
                    self._replace(cls, meth, self._wrap_method(f"{module}.{meth}", fn))
        op_cls = mods["liealg"].InertiaOperator
        for meth in INERTIA_METHODS:
            self._replace(op_cls, meth, self._wrap_method("liealg.inertia", op_cls.__dict__[meth]))

    def uninstall(self):
        for owner, attr, orig in reversed(self._originals):
            if orig is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, orig)
        self._originals = []

    # output ----------------------------------------------------------------

    def dump(self, path):
        """Write every span as gzip'd CSV: name,start,end,parent,invocation,rows."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("name,start,end,parent,invocation,rows\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{self.names[self.name_id[i]]},{self.start[i]:.9f},{self.end[i]:.9f},"
                    f"{self.parent[i]},{self.invocation[i]},{self.rows[i]}\n"
                )


def per_layer(tracer: Tracer) -> tuple[dict, list]:
    """Per-layer sums over every recorded span.

    Returns ``(metrics, problems)``; ``problems`` lists integrate or
    transport spans whose field-call count breaks the DP45 FSAL identity.
    """
    span_name = np.asarray(tracer.names, dtype=object)[np.asarray(tracer.name_id, dtype=np.int64)]
    parent = np.asarray(tracer.parent, dtype=np.int64)
    rows = np.asarray(tracer.rows, dtype=np.int64)
    dur = np.asarray(tracer.end) - np.asarray(tracer.start)

    child_time = np.zeros(len(dur))
    has_parent = parent >= 0
    np.add.at(child_time, parent[has_parent], dur[has_parent])
    self_time = dur - child_time

    def mask(name):
        return span_name == name

    m = {}
    fd = mask("numerics.fd_jacobian")
    m["numerics.fd_jacobian_calls"] = (int(fd.sum()), "count")
    m["numerics.fd_jacobian_s"] = (float(dur[fd].sum()), "s")
    fg = mask("numerics.fd_gradient")
    m["numerics.fd_gradient_calls"] = (int(fg.sum()), "count")
    m["numerics.fd_gradient_s"] = (float(dur[fg].sum()), "s")
    # both fall back to one call per point when their batched call fails
    in_fd = np.zeros(len(dur), dtype=bool)
    in_fd[has_parent] = np.isin(parent[has_parent], np.flatnonzero(fd | fg))
    m["numerics.fd_fallback_calls"] = (int((in_fd & (rows == 1)).sum()), "count")
    numerics_self = np.isin(span_name, NUMERICS_SPANS)
    m["numerics.self_s"] = (float(self_time[numerics_self].sum()), "s")

    # DP45 with FSAL: field evaluations = 1 + 6 steps + FSAL resets.  The
    # driver's single-point field calls are the direct field children of an
    # integrate or transport span; transport resets FSAL after every sample
    # but the last, and evaluates log_density once per sample plus once at t=0.
    # us_per_step is the self time of those spans (stepping, and for transport
    # the J V products and re-orthonormalization) per step.
    steps = 0
    driver_self = 0.0
    problems = []
    driver_idx = np.flatnonzero(np.isin(span_name, DRIVER_SPANS))
    child_of = defaultdict(list)
    for i in np.flatnonzero(np.isin(parent, driver_idx)):
        child_of[int(parent[i])].append(i)
    for d in driver_idx:
        kids = child_of[int(d)]
        evals = sum(1 for i in kids if span_name[i].endswith(".field") and rows[i] == 1)
        if evals == 0:
            continue
        resets = 0
        if span_name[d] == "cli.tangent_volume_transport":
            resets = max(sum(1 for i in kids if span_name[i].endswith(".log_density")) - 2, 0)
        s, rem = divmod(evals - 1 - resets, 6)
        if rem:
            problems.append(f"{span_name[d]} span {d}: {evals} field calls break the FSAL identity")
        steps += s
        driver_self += float(self_time[d])
    m["numerics.dp45_steps"] = (steps, "count")
    m["numerics.us_per_step"] = (driver_self / steps * 1e6 if steps else 0.0, "us")

    for mod in CHART_MODULES:
        f = mask(f"{mod}.field")
        b1 = f & (rows == 1)
        batch = f & (rows > 1)
        m[f"{mod}.field_b1_calls"] = (int(b1.sum()), "count")
        m[f"{mod}.field_b1_s"] = (float(dur[b1].sum()), "s")
        m[f"{mod}.field_batch_calls"] = (int(batch.sum()), "count")
        m[f"{mod}.field_batch_rows"] = (int(rows[batch].sum()), "count")
        m[f"{mod}.field_batch_s"] = (float(dur[batch].sum()), "s")
        ld = mask(f"{mod}.log_density")
        m[f"{mod}.log_density_calls"] = (int(ld.sum()), "count")
        m[f"{mod}.log_density_rows"] = (int(rows[ld].sum()), "count")
        m[f"{mod}.log_density_s"] = (float(dur[ld].sum()), "s")
        c = mask(f"{mod}.constraints")
        m[f"{mod}.constraints_calls"] = (int(c.sum()), "count")
        m[f"{mod}.constraints_s"] = (float(dur[c].sum()), "s")

    inertia = mask("liealg.inertia")
    parent_name = np.where(has_parent, span_name[np.maximum(parent, 0)], None)
    outer = inertia & (parent_name != "liealg.inertia")
    m["liealg.inertia_calls"] = (int(inertia.sum()), "count")
    m["liealg.inertia_s"] = (float(dur[outer].sum()), "s")

    m["cli.invocations"] = (int(mask("cli.main").sum()), "count")
    m["cli.load_config_s"] = (float(dur[mask("cli.load_config")].sum()), "s")
    obs = mask("cli.observables")
    m["cli.observables_calls"] = (int(obs.sum()), "count")
    m["cli.observables_s"] = (float(dur[obs].sum()), "s")
    m["cli.write_csv_s"] = (float(dur[mask("cli.write_csv")].sum()), "s")
    m["cli.csv_bytes"] = (int(tracer.csv_bytes), "count")
    m["cli.self_s"] = (float(self_time[mask("cli.main")].sum()), "s")
    m["trace.spans"] = (len(dur), "count")
    return m, problems

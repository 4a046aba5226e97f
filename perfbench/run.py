"""Benchmark of the ``nonholo`` command line, run in-process in a closed loop.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it imports ``nonholo`` from
``src/``.  One client issues one ``nonholo.cli.main(argv)`` call at a time,
each on a JSON config generated from ``--seed`` (see ``workloads.py``), and
gates every output against the README (see ``gate.py``).  Configs, CSVs and
span dumps go under ``.perfbench/`` in the checkout.

``--trace 0`` runs campaign passes until ``--seconds`` have passed (the
first pass always whole) and reports the end-to-end metrics.  ``--trace 1`` runs
pass 0 once untraced and twice traced, with timing wrappers installed at
every layer boundary (see ``spans.py``), checks that every count repeats,
then runs the layer probes (``probes.py``) and reports the per-layer
metrics.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import os

# Fixed before numpy loads: BLAS would otherwise start one thread per core.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
# The README's tolerance precedence must not leak in from the caller.
os.environ.pop("NONHOLO_DEFAULT_TOL", None)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import gate  # noqa: E402
import probes  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SETUP_REPEATS = 11
SETUP_CHILD = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import nonholo.cli\n"
    "nonholo.cli.load_config(sys.argv[2])\n"
    "print(repr(time.perf_counter() - t0))\n"
)
# Small invocations run before timing so that lazy imports and numpy's
# first-call set-up are not charged to the first measured call.
WARMUP = (
    (["verify", "--check", "liouville", "--seeds", "1"],
     {"system": "elr_multiplier", "n": 3, "k": 1, "epsilon": 0.5}),
    (["verify", "--check", "volume", "--seeds", "1"],
     {"system": "ball_rubber", "inertia": [1.0, 2.0, 3.0], "D": 0.5, "epsilon": 0.5,
      "integrator": {"t_end": 0.5}}),
    (["simulate"],
     {"system": "veselova", "n": 3, "r": 1, "epsilon": 0.5, "integrator": {"t_end": 0.5}}),
)


class Bench:
    """One benchmark process: runs invocations and keeps their records."""

    def __init__(self, cli, tmp: Path):
        self.cli = cli
        self.tmp = tmp
        self.count = 0
        self.tracer = None
        self.records = []
        self.between = None  # called before every invocation when set

    def invoke(self, inv, pass_index, position, shas):
        """Run invocation ``position`` of a pass, gate it and append its record.

        ``shas`` maps pass positions of earlier simulate calls to the sha256
        of their CSV, for the repeated-simulate check.
        """
        idx = self.count
        self.count += 1
        d = self.tmp / f"inv{idx}"
        d.mkdir()
        cfg_path = d / "config.json"
        cfg_path.write_text(json.dumps(inv.config), encoding="utf-8")
        argv = inv.argv + ["--config", str(cfg_path), "--out", str(d / "out")]
        out, err = io.StringIO(), io.StringIO()
        escaped = None
        main = self.cli.main
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                if self.tracer is not None:
                    self.tracer.current_invocation = idx
                    rc = self.tracer.span("cli.main", main, argv)
                else:
                    rc = main(argv)
        except SystemExit as exc:
            escaped, rc = "SystemExit", exc.code
        except Exception as exc:  # an exception escaping main is a recorded failure
            escaped, rc = type(exc).__name__, None
        seconds = time.perf_counter() - t0

        results, cause = 0, None
        if escaped is not None:
            cause = f"{escaped} escaped main"
        elif rc != 0:
            last = (out.getvalue() + err.getvalue()).strip().splitlines()
            cause = f"exit {rc}: {last[-1] if last else ''}"
        else:
            results, cause = gate.check(inv, str(d / "out"))
        if cause is None and inv.command == "simulate":
            shas[position] = gate.sha256(d / "out" / f"{inv.config['system']}_trajectory.csv")
            if inv.repeat_of in shas and shas[position] != shas[inv.repeat_of]:
                results, cause = 0, "repeated simulate wrote a different CSV"
        shutil.rmtree(d)
        rec = {
            "pass": pass_index, "seconds": seconds, "results": results, "cause": cause,
            "argv": " ".join(inv.argv), "system": inv.config["system"],
        }
        self.records.append(rec)
        return rec

    def run_pass(self, invocations, pass_index, deadline=None):
        """Run a pass, stopping once ``deadline`` has passed.  True if whole."""
        shas = {}
        for position, inv in enumerate(invocations):
            if deadline is not None and time.perf_counter() >= deadline:
                return False
            if self.between is not None:
                self.between()
            self.invoke(inv, pass_index, position, shas)
        return True


def environment():
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip()
                       for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
        "numpy": np.__version__, "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def setup_once(cfg_path: Path) -> float:
    """Seconds to import nonholo.cli and load one config in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, "-c", SETUP_CHILD, str(SRC), str(cfg_path)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(out.stdout.strip().splitlines()[-1])


def warm_up(bench):
    for argv, cfg in WARMUP:
        bench.invoke(workloads.Invocation(list(argv), dict(cfg)), -1, 0, {})
    bench.records.clear()


def pass_seconds(records, pass_index):
    return sum(r["seconds"] for r in records if r["pass"] == pass_index)


def run_untraced(bench, workload, seed, seconds):
    first = workloads.campaign(workload, seed, 0)
    cfg_path = bench.tmp / "setup_config.json"
    cfg_path.write_text(json.dumps(first[0].config), encoding="utf-8")
    setup = [setup_once(cfg_path)]
    warm_up(bench)

    # The machine's speed drifts over tens of seconds, so the set-up samples
    # are spread over the run instead of all taken before it.
    t0 = time.perf_counter()

    def between():
        due = len(setup) * seconds / SETUP_REPEATS
        if len(setup) < SETUP_REPEATS and time.perf_counter() - t0 >= due:
            setup.append(setup_once(cfg_path))

    # The first pass always runs whole; wall_s is the median of whole passes.
    bench.between = between
    deadline = t0 + seconds
    whole = [0] if bench.run_pass(first, 0) else []
    p = 1
    while time.perf_counter() < deadline:
        if bench.run_pass(workloads.campaign(workload, seed, p), p, deadline):
            whole.append(p)
        p += 1
    bench.between = None
    while len(setup) < SETUP_REPEATS:
        setup.append(setup_once(cfg_path))

    recs = bench.records
    ms = [r["seconds"] * 1e3 for r in recs]
    busy = sum(r["seconds"] for r in recs)
    p90 = statistics.quantiles(ms, n=10, method="inclusive")[8]
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (statistics.median(pass_seconds(recs, q) for q in whole), "s"),
        "certs_per_s": (sum(r["results"] for r in recs) / busy, "1/s"),
        "call_ms_p50": (statistics.median(ms), "ms"),
        "call_ms_p90": (p90, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    notes = [
        f"passes whole={len(whole)} started={p}",
        f"call_ms_p50 and call_ms_p90 over {len(ms)} invocations, "
        f"{sum(1 for v in ms if v > p90)} beyond p90",
    ]
    return metrics, notes, True


def run_traced(bench, nonholo, workload, seed):
    invocations = workloads.campaign(workload, seed, 0)
    warm_up(bench)
    bench.run_pass(invocations, 0)
    untraced = pass_seconds(bench.records, 0)

    counts, first = [], None
    for rep in (1, 2):
        tracer = spans.Tracer()
        tracer.install(nonholo)
        bench.tracer = tracer
        tracer.enabled = True
        try:
            bench.run_pass(invocations, rep)
        finally:
            tracer.enabled = False
            bench.tracer = None
            tracer.uninstall()
        layer, problems = spans.per_layer(tracer)
        counts.append({k: v for k, (v, unit) in layer.items() if unit == "count"})
        if first is None:
            first, first_problems, first_tracer = layer, problems, tracer
    traced = pass_seconds(bench.records, 1)
    WORK.mkdir(exist_ok=True)
    dump = WORK / f"spans-{workload}-seed{seed}.csv.gz"
    first_tracer.dump(dump)

    mismatched = sorted(k for k in counts[0] if counts[0][k] != counts[1][k])
    metrics = dict(first)
    metrics["trace.overhead_s"] = (traced - untraced, "s")
    metrics["trace.count_mismatches"] = (len(mismatched), "count")
    metrics.update(probes.run_probes(nonholo, seed))
    notes = [f"spans written to {dump.relative_to(ROOT)}"]
    notes += [f"COUNT MISMATCH between traced passes: {k} {counts[0][k]} vs {counts[1][k]}"
              for k in mismatched]
    notes += [f"FSAL: {p}" for p in first_problems]
    return metrics, notes, not mismatched and not first_problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "nonholo" / "cli.py").is_file():
        print(f"perfbench: {SRC / 'nonholo'} not found; run from a nonholo checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import nonholo
    import nonholo.cli

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"known: {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if not nonholo.__file__.startswith(str(SRC)):
        print(f"perfbench: imported nonholo from {nonholo.__file__}, not {SRC}", file=sys.stderr)
        return 2

    env = environment()
    print("# env " + json.dumps(env, sort_keys=True))
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        bench = Bench(nonholo.cli, Path(tmp))
        if args.trace:
            metrics, notes, ok = run_traced(bench, nonholo, args.workload, args.seed)
        else:
            metrics, notes, ok = run_untraced(bench, args.workload, args.seed, args.seconds)

    recs = bench.records
    failed = [r for r in recs if r["cause"] is not None]
    print(f"# workload={args.workload} seed={args.seed} trace={args.trace} "
          f"invocations={len(recs)} failed={len(failed)} "
          f"fail_frac={len(failed) / len(recs):.6g}")
    for note in notes:
        print(f"# {note}")
    for r in failed:
        print(f"# FAIL pass={r['pass']} {r['system']} `{r['argv']}`: {r['cause']}")
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": ok and not failed,
        "attempted": len(recs),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""lotdp benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload narrow --seed 0 --seconds 25 --trace 0

Run from the repository root (the directory holding ``src/lotdp``).  The load
is a closed loop with one client in one process: each solve is issued after
the previous one returns.  ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` alternates untraced and traced passes over the pool and prints
the per-layer metrics.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  See
``perfbench/README.md`` for the metrics, workloads and checks.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from fractions import Fraction
from pathlib import Path

from tracing import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE_DIR = ROOT / ".lotdp_bench"
EXPECTED_DIGESTS = HERE / "expected_digests.json"

WORKLOADS = ("narrow", "wide", "multi", "cli-small")
MIN_POOL = 100  # with nearest-rank percentiles, p90 then has >= 10 instances beyond it
SETUP_REPEATS = 7
WARMUP_SEED = "warm-up"  # warm-up cases do not depend on --seed, so set-up time does not either
WARMUP_CASES = {"narrow": 2, "wide": 2, "multi": 2, "cli-small": 20}
MAX_REPORTED_FAILURES = 5
# host-speed normalization: the reference job's time at the reference speed,
# and how often it is run between solves
REFERENCE_MS = 3.0
PROBE_INTERVAL_S = 0.1

# counts that must repeat exactly across passes and across runs of one seed
EXACT_COUNTS = (
    "dp.fill.cells",
    "dp.fill.transitions",
    "dp.price.candidates",
    "dp.sweep.tables",
    "closed_form.multi_delivery_cost.calls",
)

END_TO_END_UNITS = {
    "solves_per_s": "1/s",
    "solve_ms.p50": "ms",
    "solve_ms.p90": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "dp.fill.ms": "ms",
    "dp.fill.cells": "count",
    "dp.fill.transitions": "count",
    "dp.fill.ns_per_transition": "ns",
    "dp.price.ms": "ms",
    "dp.price.candidates": "count",
    "dp.price.us_per_candidate": "us",
    "closed_form.multi_delivery_cost.calls": "count",
    "closed_form.multi_delivery_cost.ms": "ms",
    "dp.sweep.tables": "count",
    "dp.sweep.nonredundant_ratio": "ratio",
    "dp.backtrack.ms": "ms",
    "model.validate.ms": "ms",
    "model.make_solution.ms": "ms",
    "model.solution_cost.ms": "ms",
    "model.instance_from_json.ms": "ms",
    "model.solution_to_json.ms": "ms",
    "cli.self_ms": "ms",
    "trace.overhead_ratio": "ratio",
}


# --- arithmetic ----------------------------------------------------------------


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least q% of the
    samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100 * len(ordered)))
    return ordered[rank - 1]


def beyond(values, q: float) -> int:
    """Samples strictly after the nearest-rank q-th percentile's rank."""
    return len(values) - max(1, math.ceil(q / 100 * len(values)))


def failed_ratio(failed: int, attempted: int) -> float:
    if attempted < 1:
        raise ValueError("no operation was attempted")
    return failed / attempted


# --- running cases -------------------------------------------------------------


def attempt(case):
    """Run one case: returns (seconds spent in the solve, collected output or
    the exception it raised)."""
    t0 = time.perf_counter()
    try:
        raw = case.run()
    except Exception as exc:  # a failed operation is counted, not fatal
        return time.perf_counter() - t0, exc
    elapsed = time.perf_counter() - t0
    try:
        return elapsed, case.collect(raw)
    except Exception as exc:
        return elapsed, exc


class Checker:
    """Counts attempts and failures per case.  The first good output of a
    case is its reference; every later output must repeat it exactly.  The
    references are audited at the end."""

    def __init__(self, cases):
        self.cases = cases
        self.reference = [None] * len(cases)
        self.attempts = [0] * len(cases)
        self.failures = [0] * len(cases)
        self.messages: list[str] = []

    def _fail(self, idx, message):
        self.failures[idx] += 1
        if len(self.messages) < MAX_REPORTED_FAILURES:
            self.messages.append(f"case {idx}: {message}")

    def check(self, idx, outcome) -> bool:
        self.attempts[idx] += 1
        if isinstance(outcome, Exception):
            detail = "".join(traceback.format_exception_only(type(outcome), outcome)).strip()
            self._fail(idx, f"raised {detail}")
            return False
        key = self.cases[idx].repeat_key(outcome)
        if self.reference[idx] is None:
            self.reference[idx] = (key, outcome)
        elif key != self.reference[idx][0]:
            self._fail(idx, "output differs from the first solve of the same input")
            return False
        return True

    @property
    def attempted(self) -> int:
        return sum(self.attempts)

    def finish(self) -> tuple[int, str]:
        """Audit every reference; returns (failed operations, digest).  A
        reference that fails the audit fails every operation of its case."""
        from workloads import AuditError, digest

        records = []
        for idx, case in enumerate(self.cases):
            if self.reference[idx] is None:
                records.append(["failed"])
                continue
            try:
                records.append(case.audit(self.reference[idx][1]))
            except (AuditError, ValueError, KeyError, TypeError) as exc:
                self.failures[idx] = self.attempts[idx]
                self.messages.append(f"case {idx}: audit failed: {exc}")
                records.append(["failed"])
        return sum(self.failures), digest(records)


REFERENCE_DOC = {
    "P": 17,
    "lambda": {"num": 1, "den": 1},
    "suppliers": [{"alpha": k, "beta": 2 * k, "m": 1, "M": 9} for k in range(4)],
}


def reference_job() -> str:
    """A fixed piece of pure-Python work with the mix of operations the
    workloads spend their time in: argument parsing, JSON, Fraction
    arithmetic and comparisons, list and dict access, formatting.  It uses no
    ``lotdp`` code, so no change to the program can change its time."""
    for _ in range(3):
        parser = argparse.ArgumentParser(prog="reference")
        sub = parser.add_subparsers(dest="command")
        solve = sub.add_parser("solve")
        solve.add_argument("file")
        solve.add_argument("--out")
        parser.parse_args(["solve", "in.json", "--out", "out.json"])
        doc = json.loads(json.dumps(REFERENCE_DOC))
        shares = [Fraction(s["alpha"] + 1, s["M"]) for s in doc["suppliers"]]
        text = json.dumps({"objective": str(sum(shares)), "shares": [f"{q}" for q in shares]}, indent=2)
    table = [Fraction(0)] * 32
    best = {}
    for i in range(1, 300):
        q = Fraction(i % 13 + 1, i % 7 + 1) * (i % 5 + 1)
        k = i % 32
        if q < table[k] or not table[k]:
            table[k] = q
        best[k] = min(best.get(k, q), q + table[(k * 7) % 32])
    return text


def probe() -> float:
    """Seconds the reference job takes now."""
    t0 = time.perf_counter()
    reference_job()
    return time.perf_counter() - t0


def normalized(seconds: float, probe_before: float, probe_after: float) -> float:
    """``seconds`` rescaled to the reference host speed, at which the
    reference job takes REFERENCE_MS: the host's speed is taken as the mean
    of the probes on either side of the timed work."""
    return seconds * REFERENCE_MS * 2e-3 / (probe_before + probe_after)


def timed_phase(cases, checker, seconds: float, between=None, between_count: int = 0):
    """Cycle through the pool until ``seconds`` have passed and the pool has
    been covered once.

    The reference job is run every PROBE_INTERVAL_S between two solves, and
    each solve's time is normalized with the probes on either side of it.
    ``between`` is called ``between_count`` times, evenly spread over the
    phase; the clock is paused while it runs.  Returns each case's list of
    (solve time, normalized solve time), the wall time of the phase without
    the probes, and every probe time."""
    times = [[] for _ in cases]
    chunk = []  # (case, solve time) since the last probe
    probes = [probe()]
    paused = 0.0
    calls = 0
    start = last_probe = time.perf_counter()
    i = 0
    while True:
        idx = i % len(cases)
        elapsed, outcome = attempt(cases[idx])
        checker.check(idx, outcome)
        chunk.append((idx, elapsed))
        i += 1
        done = i >= len(cases) and time.perf_counter() - start - paused >= seconds
        if done or time.perf_counter() - last_probe >= PROBE_INTERVAL_S:
            t0 = time.perf_counter()
            probes.append(probe())
            paused += time.perf_counter() - t0
            for j, t in chunk:
                times[j].append((t, normalized(t, probes[-2], probes[-1])))
            chunk = []
            last_probe = time.perf_counter()
        now = time.perf_counter() - start - paused
        if calls < between_count and now >= seconds * (calls + 1) / (between_count + 1):
            t0 = time.perf_counter()
            between()
            paused += time.perf_counter() - t0
            calls += 1
        if done:
            wall = time.perf_counter() - start - paused
            for _ in range(calls, between_count):
                between()
            return times, wall, probes


def end_to_end_metrics(times, wall: float, probes) -> tuple[dict, dict]:
    """The reported metrics come from each case's median normalized time:
    the host's speed drifts by up to 2x within seconds, and the probes
    around each solve take that drift out.  Raw wall-clock figures over
    every solve are returned as diagnostics."""
    typical = [statistics.median(n for _, n in t) for t in times]
    samples = [s for t in times for s, _ in t]
    metrics = {
        "solves_per_s": len(typical) / sum(typical),
        "solve_ms.p50": percentile(typical, 50) * 1e3,
        "solve_ms.p90": percentile(typical, 90) * 1e3,
    }
    raw = {
        "cases": len(typical),
        "solves": len(samples),
        "passes": round(len(samples) / len(times), 2),
        "probe_ms.p50": round(statistics.median(probes) * 1e3, 4),
        "raw_solves_per_s": len(samples) / wall,
        "raw_solve_ms.p50": percentile(samples, 50) * 1e3,
        "raw_solve_ms.p90": percentile(samples, 90) * 1e3,
    }
    return metrics, raw


def one_pass(cases, checker, tracer=None) -> dict:
    """Solve every case once; with a tracer, gather the per-layer numbers."""
    cells = swept = nonredundant = 0
    start = time.perf_counter()
    for idx, case in enumerate(cases):
        first_table = len(tracer.fill_H) if tracer else 0
        _, outcome = attempt(case)
        if checker.check(idx, outcome):
            cells += case.cells(outcome)
        if tracer and len(tracer.fill_H) > first_table:
            hs = tracer.fill_H[first_table:]
            h_max = max(hs)
            swept += len(hs)
            nonredundant += sum(1 for h in hs if 2 * h > h_max)
    wall = time.perf_counter() - start
    return {"wall": wall, "cells": cells, "swept": swept, "nonredundant": nonredundant}


def layer_metrics(tracer, counted: dict) -> dict:
    """Per-layer metrics of one traced pass; a metric whose wrapped function
    does not exist in the program is left out (absent, not zero)."""
    present = tracer.present
    ms, calls = tracer.ms, tracer.calls
    out = {"dp.fill.cells": counted["cells"]}
    if "dp.fill" in present:
        out["dp.fill.ms"] = ms["dp.fill"]
        out["dp.fill.transitions"] = tracer.transitions
        out["dp.fill.ns_per_transition"] = ms["dp.fill"] * 1e6 / max(1, tracer.transitions)
        out["dp.sweep.tables"] = counted["swept"]
        out["dp.sweep.nonredundant_ratio"] = counted["nonredundant"] / max(1, counted["swept"])
    if "dp.price" in present:
        out["dp.price.ms"] = ms["dp.price"]
        out["dp.price.candidates"] = tracer.candidates
        out["dp.price.us_per_candidate"] = ms["dp.price"] * 1e3 / max(1, tracer.candidates)
    if "closed_form.multi_delivery_cost" in present:
        out["closed_form.multi_delivery_cost.calls"] = calls["closed_form.multi_delivery_cost"]
        out["closed_form.multi_delivery_cost.ms"] = ms["closed_form.multi_delivery_cost"]
    if "dp.backtrack" in present:
        out["dp.backtrack.ms"] = ms["dp.backtrack"]
    for name in ("validate", "make_solution", "solution_cost", "instance_from_json", "solution_to_json"):
        if f"model.{name}" in present:
            out[f"model.{name}.ms"] = ms[f"model.{name}"]
    if "cli.main" in present:
        out["cli.self_ms"] = tracer.self_ms["cli.main"]
    return out


def traced_phase(cases, checker, seconds: float) -> tuple[dict, list[str]]:
    """Alternate untraced and traced passes over the pool until ``seconds``
    have passed (at least one of each).  Counts must agree across traced
    passes; times are medians over them."""
    untraced, traced = [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        untraced.append(one_pass(cases, checker)["wall"])
        tracer = Tracer()
        with tracer.patched():
            counted = one_pass(cases, checker, tracer)
        metrics = layer_metrics(tracer, counted)
        metrics["trace.overhead_ratio"] = counted["wall"]
        traced.append(metrics)
    problems = []
    for name in EXACT_COUNTS:
        if len({repr(m.get(name)) for m in traced}) > 1:
            problems.append(f"{name} differs between traced passes: {[m.get(name) for m in traced]}")
    merged = {}
    for name in traced[0]:
        values = [m[name] for m in traced]
        merged[name] = values[0] if name in EXACT_COUNTS else statistics.median(values)
    merged["trace.overhead_ratio"] /= statistics.median(untraced)
    return merged, problems


# --- checks against earlier results ----------------------------------------------


def source_hash() -> str:
    """Hash of the program and of the benchmark code that draws its inputs."""
    h = hashlib.sha256()
    for path in sorted([*(SRC / "lotdp").rglob("*.py"), *HERE.glob("*.py")]):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def check_repeats(state_dir: Path, workload: str, seed: int, digest: str, counts: dict) -> list[str]:
    """Compare digest and counts with earlier runs of the same seed on the
    same program source, then store them for later runs."""
    state_dir.mkdir(parents=True, exist_ok=True)
    path = state_dir / f"{source_hash()}-{workload}-{seed}.json"
    earlier = json.loads(path.read_text()) if path.exists() else {}
    problems = []
    if earlier.get("digest", digest) != digest:
        problems.append(f"digest {digest} differs from an earlier run's {earlier['digest']}")
    earlier_counts = earlier.get("counts", {})
    for name, value in counts.items():
        if earlier_counts.get(name, value) != value:
            problems.append(f"{name} = {value} differs from an earlier run's {earlier_counts[name]}")
    stored = {"digest": digest, "counts": {**counts, **earlier_counts}}
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(stored, sort_keys=True))
    os.replace(tmp, path)
    return problems


# --- metadata ------------------------------------------------------------------


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def import_lotdp() -> float:
    """Import ``lotdp`` afresh; returns the normalized seconds it took.  The
    first call in a process also compiles or loads the bytecode."""
    for name in [m for m in sys.modules if m == "lotdp" or m.startswith("lotdp.")]:
        del sys.modules[name]
    before = probe()
    t0 = time.perf_counter()
    import lotdp.cli  # noqa: F401  (the CLI workload's entry point)

    elapsed = time.perf_counter() - t0
    return normalized(elapsed, before, probe())


# --- one run -------------------------------------------------------------------


def run(workload: str, seed: int, seconds: float, trace: bool, *, tiny: bool = False,
        state_dir: Path = STATE_DIR, expected: dict | None = None, import_s: float = 0.0) -> dict:
    """Set up, measure and check one run; returns the result object.

    ``tiny`` shrinks every instance for tests; ``expected`` maps workload ->
    seed -> digest and defaults to the committed table."""
    from workloads import make_cases

    state_dir.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=state_dir))

    def set_up():
        before = statistics.median(probe() for _ in range(3))
        t0 = time.perf_counter()
        cases = make_cases(workload, seed, tiny, workdir)
        for case in make_cases(workload, WARMUP_SEED, tiny, workdir, limit=WARMUP_CASES[workload]):
            attempt(case)
        elapsed = time.perf_counter() - t0
        after = statistics.median(probe() for _ in range(3))
        setup_times.append(normalized(elapsed, before, after))
        return cases

    setup_times = []
    try:
        cases = set_up()
        checker = Checker(cases)
        problems = []
        if trace:
            metrics, problems = traced_phase(cases, checker, seconds)
        else:
            # the other set-ups are spread over the phase, so one slow spell
            # of the host cannot cover all of them
            times, wall, probes = timed_phase(cases, checker, seconds, set_up, SETUP_REPEATS - 1)
            metrics, raw = end_to_end_metrics(times, wall, probes)
            metrics["setup_s"] = import_s + statistics.median(setup_times)
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed, digest = checker.finish()
    attempted = checker.attempted
    if expected is None:
        expected = json.loads(EXPECTED_DIGESTS.read_text()) if EXPECTED_DIGESTS.exists() else {}
    committed = expected.get(workload, {}).get(str(seed))
    if committed is not None and committed != digest:
        problems.append(f"digest {digest} differs from the committed {committed}")
    counts = {k: metrics[k] for k in EXACT_COUNTS if trace and k in metrics}
    problems += check_repeats(state_dir, workload, seed, digest, counts)
    if problems:
        failed = attempted  # the answers or counts changed: no operation can be trusted
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "digest": digest,
        "messages": checker.messages + problems,
        "raw": None if trace else raw,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "lotdp" / "__init__.py").is_file():
        print(f"error: no lotdp sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    # the environment must not change a workload
    max_cells = os.environ.pop("LOTDP_MAX_CELLS", None)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import_s = statistics.median(import_lotdp() for _ in range(SETUP_REPEATS))
    import lotdp
    if Path(lotdp.__file__).resolve().parent != SRC / "lotdp":
        print(f"error: imported lotdp from {lotdp.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    meta = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "host_probe_ms": round(statistics.median(probe() for _ in range(5)) * 1e3, 3),
        "LOTDP_MAX_CELLS_cleared": max_cells,
    }
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), import_s=import_s)

    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    print(f"lotdp benchmark: workload={args.workload} seed={args.seed} trace={args.trace}")
    print("meta " + json.dumps(meta, sort_keys=True))
    print(f"digest {result['digest']}")
    for name, unit in units.items():
        value = result["metrics"].get(name)
        print(f"  {name:40s} {'absent' if value is None else f'{value:.6g}'} {unit}")
    if result["raw"] is not None:
        cases = result["raw"]["cases"]
        print(f"  percentiles over the median normalized time of {cases} instances, {beyond(range(cases), 90)} beyond p90")
        print("  raw, over every solve (diagnostic): " + json.dumps(result["raw"]))
    ratio = failed_ratio(result["failed"], result["attempted"])
    print(f"  failed_ratio {ratio:.6g} ({result['failed']}/{result['attempted']})")
    for message in result["messages"]:
        print(f"  failure: {message}")
    line = {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in result["metrics"].items()
            if name in units
        },
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Benchmark of sepdecomp's construct(G, a, W) and of the exact audit around it.

Run from the repository root; the library is imported from ./src:

    python3 perfbench/run.py --workload sparse --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --seed 1 --trace 1   # every workload, one process each

Workloads (corpora in corpus.py; the seed only shapes the generated graphs):
  sparse   paths and Pruefer trees with a=1 and cycles with a=2, n=200-300,
           W={0}: the deepest recursion with trivial oracles, where
           Menger/W-sequence flow dominates.
  ktree    seeded partial k-trees with a=k+1: k=2 graphs inside the exact
           oracle's candidate budget, and k=3 or larger graphs past it, where
           the heuristic oracle decides the outcome.
  certify  n=11..14 gnp graphs and partial k-trees through the full audit
           (exact sep and treewidth, construct, construct_theorem2, .td round
           trip), where the subset-DP kernels dominate.

A run times set-up (fresh import plus corpus generation) several times,
then makes passes over the corpus, single-threaded, for --seconds.  Every
instance of every pass is classified decided, undecided or wrong (audit.py);
a wrong verdict, or a .td output that differs between passes, makes the run
exit 1.  Earlier stdout lines give the environment and one row per
instance (raw wall times); the last is one JSON object with correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics (spans.py) with --trace 1.  setup_s and solve_gm_s are
scaled to a nominal host speed (see PROBE_NOMINAL_S).  With --trace 1
passes alternate untraced and traced, and trace.overhead_ratio compares
their solve_gm_s.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
PACKAGE = "sepdecomp"

WORKLOADS = ("sparse", "ktree", "certify")
# Per-instance limit; an undecided instance is charged 2 * LIMIT_S (PAR-2).
LIMIT_S = 20.0
# set-up is timed once before every pass, and at least this often
SETUP_SAMPLES = 5
CEILING = 7915 / 139  # width/a charged to an undecided instance

END_TO_END = (
    ("setup_s", "s"),
    ("solve_gm_s", "s"),
    ("solved_share", "ratio"),
    ("width_over_a", "ratio"),
    ("peak_rss_mb", "MB"),
)


def _package_modules() -> dict:
    return {m: mod for m, mod in sys.modules.items() if m == PACKAGE or m.startswith(PACKAGE + ".")}


def _timed_setup(workload: str, seed: int):
    """Import sepdecomp afresh and generate the corpus: (seconds, corpus)."""
    import corpus

    for name in _package_modules():
        del sys.modules[name]
    start = time.perf_counter()
    importlib.import_module(PACKAGE)
    instances = corpus.build(workload, seed)
    return time.perf_counter() - start, instances


def _setup_sample(workload: str, seed: int) -> float:
    """Time one more set-up, then put back the modules the run is using."""
    in_use = _package_modules()
    try:
        return _timed_setup(workload, seed)[0]
    finally:
        for name in _package_modules():
            del sys.modules[name]
        sys.modules.update(in_use)


# On a shared host the interpreter's speed drifts by up to ~1.9x between
# periods lasting minutes, longer than a run; a fixed pure-Python probe
# timed before every instance measures that speed.  Reported times are in
# seconds at the probe's nominal speed: measured * PROBE_NOMINAL_S / median
# probe time.  The raw figures are printed in the environment line.
PROBE_NOMINAL_S = 0.002


def _probe() -> float:
    start = time.perf_counter()
    seen, last, bits = set(), {}, 1
    for i in range(3000):
        seen.add(i * 7 % 1009)
        last[i & 255] = i
        bits = (bits << 1 | i & 1) & ((1 << 200) - 1)
    return time.perf_counter() - start


def _geomean(values) -> float:
    return math.exp(statistics.fmean(math.log(v) for v in values))


def _solve_gm(passes, n_instances: int, scale: float) -> float:
    """Geometric mean over instances of the median scaled time to a verdict
    over the passes; an undecided instance is charged 2 * LIMIT_S (PAR-2)."""
    def charged(outcome):
        return outcome.seconds * scale if outcome.verdict == "decided" else 2 * LIMIT_S

    return _geomean(
        statistics.median(charged(p[i]) for p in passes) for i in range(n_instances)
    )


def _run_pass(workload, instances, tracer, probes):
    import audit

    oracle_for = lambda a: None  # noqa: E731 - the library's default oracle
    if tracer is not None:
        from sepdecomp import make_oracle

        oracle_for = lambda a: tracer.timed_oracle(make_oracle(a))  # noqa: E731
        tracer.install()
    try:
        outcomes = []
        for inst in instances:
            probes.append(_probe())
            outcome = audit.run_instance(workload, inst, LIMIT_S, oracle_for)
            if tracer is not None and outcome.stats is not None:
                tracer.record_stats(outcome.stats)
            outcomes.append(outcome)
    finally:
        if tracer is not None:
            tracer.uninstall()
    return outcomes


def _check_repeatable(passes) -> list[str]:
    """Outputs must be byte-identical across passes."""
    problems = []
    for i in range(len(passes[0])):
        digests = {p[i].digest for p in passes if p[i].verdict == "decided"}
        if len(digests) > 1:
            problems.append(f"instance {i}: .td output differs between passes")
    return problems


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> int:
    if not (SRC / PACKAGE / "__init__.py").is_file():
        print(f"perfbench: no {PACKAGE} sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    first_setup_s, instances = _timed_setup(workload, seed)
    sepdecomp = sys.modules[PACKAGE]
    if SRC not in Path(sepdecomp.__file__).resolve().parents:
        print(f"perfbench: {PACKAGE} imported from {sepdecomp.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from sepdecomp import kernels
    from spans import PER_LAYER, Tracer

    untraced, traced, layer_values, setup_times, probes = [], [], [], [first_setup_s], []
    deadline = time.perf_counter() + seconds
    while True:
        if untraced:
            setup_times.append(_setup_sample(workload, seed))
        use_trace = trace and len(traced) < len(untraced)
        tracer = Tracer() if use_trace else None
        start = time.perf_counter()
        outcomes = _run_pass(workload, instances, tracer, probes)
        duration = time.perf_counter() - start
        if use_trace:
            traced.append(outcomes)
            layer_values.append(tracer.metrics())
        else:
            untraced.append(outcomes)
        if trace and not traced:
            continue
        if time.perf_counter() + duration > deadline:
            break
    while len(setup_times) < SETUP_SAMPLES:
        setup_times.append(_setup_sample(workload, seed))

    n = len(instances)
    all_passes = untraced + traced
    wrong = [(i, o) for p in all_passes for i, o in enumerate(p) if o.verdict == "wrong"]
    problems = [f"instance {i} ({instances[i].kind}): {o.detail}" for i, o in wrong]
    problems += _check_repeatable(all_passes)

    probe_s = statistics.median(probes)
    scale = PROBE_NOMINAL_S / probe_s
    setup_raw_s = statistics.median(setup_times)
    gm = _solve_gm(untraced, n, scale)
    env = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "kernels": kernels.IMPLEMENTATION,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "limit_s": LIMIT_S,
        "untraced_passes": len(untraced),
        "traced_passes": len(traced),
        "probe_median_s": probe_s,
        "setup_raw_s": setup_raw_s,
        "solve_gm_raw_s": _solve_gm(untraced, n, 1.0),
    }
    print(json.dumps({"env": env}))
    for i, inst in enumerate(instances):
        first = untraced[0][i]
        print(json.dumps({"row": {
            "kind": inst.kind,
            "n": inst.graph.n,
            "m": inst.graph.m,
            "a": first.a,
            "verdict": first.verdict,
            "time_s": statistics.median(p[i].seconds for p in untraced),
            "width": first.width,
            "td_sha256": first.digest,
        }}))
    for problem in problems:
        print(f"WRONG {problem}", file=sys.stderr)

    if trace:
        units = dict(PER_LAYER)
        values = {
            name: statistics.median(v[name] for v in layer_values) for name, _ in PER_LAYER[:-1]
        }
        values["trace.overhead_ratio"] = _solve_gm(traced, n, scale) / gm - 1
    else:
        units = dict(END_TO_END)
        outcomes = [o for p in untraced for o in p]
        values = {
            "setup_s": setup_raw_s * scale,
            "solve_gm_s": gm,
            "solved_share": sum(o.verdict == "decided" for o in outcomes) / len(outcomes),
            "width_over_a": statistics.fmean(
                o.width / o.a if o.verdict == "decided" else CEILING for o in outcomes
            ),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    for name, value in values.items():
        print(f"{workload} {name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": not problems,
        "attempted": n * len(all_passes),
        "failed": len(problems),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0 if not problems else 1


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own process, one after another."""
    results, status = {}, 0
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        sys.stdout.write(proc.stdout)
        status = status or proc.returncode
        lines = proc.stdout.strip().splitlines()
        results[workload] = json.loads(lines[-1]) if proc.returncode in (0, 1) and lines else None
    print(json.dumps(results))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, help="default: every workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())

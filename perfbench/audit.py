"""Run one instance to a verdict and classify it.

decided    the output passes every check below;
undecided  an uncertified OracleFailureError, or the per-instance limit ran out;
wrong      anything else, including a certified failure (every corpus
           instance is feasible by construction) or an exception.

Checks for ``construct``: ``validate_decomposition`` passes, the reported
width is the largest bag minus one, width < (7915/139)*a, and W lies in the
certificate bag.  ``certify`` instances also need sep <= tw+1 (and tw <= k
for a partial k-tree), a witness of width tw, ``construct_theorem2`` width
< 4a with a valid decomposition, and a lossless ``.td`` round trip.
``construct_theorem2`` may instead report that its W-balanced hypothesis
fails for the graph: WBalancedUnavailableError, or RecursionGuardError when
only degenerate W-balanced separations exist (the acceptance suite skips
those graphs for the same reason).
"""

from __future__ import annotations

import hashlib
import signal
import time
from dataclasses import dataclass, replace
from typing import Optional

import sepdecomp
from sepdecomp.errors import (
    OracleFailureError,
    RecursionGuardError,
    WBalancedUnavailableError,
)

DECIDED, UNDECIDED, WRONG = "decided", "undecided", "wrong"
C_NUM, C_DEN = 7915, 139  # the guarantee: width < (7915/139)*a
W = frozenset({0})


class InstanceTimeout(BaseException):
    """The per-instance limit ran out.  A BaseException, so that no
    ``except Exception`` inside the library swallows it."""


def _on_alarm(signum, frame):
    raise InstanceTimeout()


@dataclass
class Outcome:
    verdict: str
    seconds: float  # time to the verdict (the limit, for a timeout)
    a: Optional[int] = None
    width: Optional[int] = None
    digest: Optional[str] = None
    detail: str = ""
    stats: object = None  # construct's RecursionStats, when it returned


def _construct_problems(G, a, report, ok, violations) -> list[str]:
    td = report.decomposition
    problems = [f"invalid decomposition: {violations[:3]}"] if not ok else []
    if report.width != max(len(b) for b in td.bags) - 1:
        problems.append(f"reported width {report.width} is not the largest bag minus one")
    if not C_DEN * report.width < C_NUM * a:
        problems.append(f"width {report.width} >= (7915/139)*{a}")
    if not W <= td.bags[report.certificate_node]:
        problems.append("W is not inside the certificate bag")
    return problems


def _solve_construct(inst, oracle_for):
    """Timed part for sparse/ktree: construct plus validation."""
    G, a = inst.graph, inst.a
    report = sepdecomp.construct(G, a, W, oracle=oracle_for(a))
    ok, violations = sepdecomp.validate_decomposition(G, report.decomposition)
    return a, report, _construct_problems(G, a, report, ok, violations)


def _solve_certify(inst, oracle_for):
    """Timed part for certify: the whole audit, its checks included."""
    G = inst.graph
    sep = sepdecomp.separation_number(G)
    tw = sepdecomp.treewidth_exact(G)
    a = max(sep, 1)  # construct needs a >= 1; an edgeless graph has sep 0
    a, report, problems = _solve_construct(replace(inst, a=a), oracle_for)
    if not sep <= tw.value + 1:
        problems.append(f"sep {sep} > tw {tw.value} + 1")
    if inst.k is not None and tw.value > inst.k:
        problems.append(f"partial {inst.k}-tree has treewidth {tw.value}")
    if sepdecomp.width(tw.decomposition) != tw.value:
        problems.append("treewidth witness has the wrong width")
    try:
        t2 = sepdecomp.construct_theorem2(G, a)
    except (WBalancedUnavailableError, RecursionGuardError):
        pass  # the W-balanced hypothesis fails for this graph
    else:
        if not (sepdecomp.validate_decomposition(G, t2.decomposition)[0] and t2.width < 4 * a):
            problems.append(f"theorem2 width {t2.width} or its validity against 4a={4 * a}")
    text = sepdecomp.write_td(report.decomposition, G)
    parsed = sepdecomp.parse_td(text)
    same_bags = sorted(map(sorted, parsed.bags)) == sorted(map(sorted, report.decomposition.bags))
    if sepdecomp.write_td(parsed, G) != text or not same_bags:
        problems.append(".td round trip is lossy")
    return a, report, problems


def run_instance(workload: str, inst, limit_s: float, oracle_for) -> Outcome:
    """Time one instance to its verdict.  ``oracle_for(a)`` gives the oracle
    handed to ``construct`` (None: the library's default)."""
    solve = _solve_certify if workload == "certify" else _solve_construct
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    start = time.perf_counter()
    try:
        try:
            signal.setitimer(signal.ITIMER_REAL, limit_s)
            solved = solve(inst, oracle_for)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        seconds = time.perf_counter() - start
    except InstanceTimeout:
        return Outcome(UNDECIDED, limit_s, inst.a, detail=f"no verdict within {limit_s} s")
    except OracleFailureError as exc:
        seconds = time.perf_counter() - start
        if exc.certified:
            return Outcome(WRONG, seconds, inst.a, detail=f"certified failure on a feasible instance: {exc}")
        return Outcome(UNDECIDED, seconds, inst.a, detail=str(exc))
    except Exception as exc:  # noqa: BLE001 - every other exception is a wrong verdict
        seconds = time.perf_counter() - start
        return Outcome(WRONG, seconds, inst.a, detail=f"{type(exc).__name__}: {exc}")
    finally:
        signal.signal(signal.SIGALRM, previous)
    a, report, problems = solved
    if problems:
        return Outcome(WRONG, seconds, a, report.width, detail="; ".join(problems))
    digest = hashlib.sha256(sepdecomp.write_td(report.decomposition, inst.graph).encode()).hexdigest()
    return Outcome(DECIDED, seconds, a, report.width, digest, stats=report.recursion_stats)

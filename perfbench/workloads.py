"""The operation of each workload, its failure rule and its checks.

An operation calls only public lcgraph functions, looked up on the
package at call time so that a traced run sees its wrappers.  Every
operation starts from the graph's text and runs inside an explicit
truncation context.  ``failures`` lists the library's own failed checks;
``check`` compares the outputs with checks.py, outside the timed region.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import checks
import inputs


@dataclass(frozen=True)
class Workload:
    name: str
    rounds: Callable      # seed -> endless iterator of rounds (lists of Case)
    op: Callable          # (lcgraph, case) -> result
    failures: Callable    # result -> names of the library's failed checks
    check: Callable       # (case, result) -> errors found by checks.py
    trace_rounds: int     # rounds of a traced run


def _vertices_match(case, g):
    if list(g.vertices) != inputs.vertex_order(case.edges):
        return [f"parsed vertex order {g.vertices} differs from the text's"]
    return []


# -- audit: the calls behind `lcgraph verify` -------------------------------------

def audit_op(lc, case):
    with lc.truncation(case.trunc):
        g = lc.parse_graph(case.text)
        spec = lc.compute_spectrum(g, trunc_order=case.trunc, mode="auto")
        spectral = lc.verify_spectral_theorems(g, spec)
        cut = lc.cheeger_constant(g)
        cheeger = lc.cheeger_inequality_check(g, spec, cut)
        verdict = lc.h_convergence_verdict(g, cut, spec)
    return g, spec, cut, (spectral, cheeger), verdict


def audit_failures(result):
    _, _, _, reports, verdict = result
    names = [item.name for rep in reports for item in rep.failures]
    if verdict.consistent is False:
        names.append("convergence-verdict")
    return names


def audit_check(case, result):
    g, spec, cut, _, _ = result
    return (_vertices_match(case, g) + checks.check_spectrum(case.edges, spec)
            + checks.check_cut(case.edges, cut))


# -- cuts: cheeger_constant alone ------------------------------------------------

def cuts_op(lc, case):
    with lc.truncation(case.trunc):
        g = lc.parse_graph(case.text)
        return g, lc.cheeger_constant(g)


def cuts_check(case, result):
    g, cut = result
    return _vertices_match(case, g) + checks.check_cut(case.edges, cut)


# -- walk: Cheeger-bound mixing --------------------------------------------------

def walk_op(lc, case):
    with lc.truncation(case.trunc):
        g = lc.parse_graph(case.text)
        cut = lc.cheeger_constant(g)
        verdict = lc.h_convergence_verdict(g, cut)
        f = lc.VertexFunction(g.vertices, [lc.from_rational(c) for c in case.f])
        report = lc.iterate(g, f, m_max=inputs.WALK_STEPS, mode="bipartite", cut=cut)
    return g, cut, verdict, report


def walk_failures(result):
    report = result[3]
    return [f"cheeger-bound-step-{s.index}" for s in report.steps
            if s.cheeger_ok is not True]


def walk_check(case, result):
    g, cut, verdict, report = result
    cuts = checks.all_cuts(case.edges)
    errors = _vertices_match(case, g) + checks.check_cut(case.edges, cut, cuts)
    if not verdict.bipartite:
        errors.append("verdict calls a bipartite graph non-bipartite")
    return errors + checks.check_walk(case.edges, case.f, report,
                                      inputs.WALK_STEPS, cuts)


WORKLOADS = {
    "audit": Workload("audit", inputs.audit_rounds, audit_op, audit_failures,
                      audit_check, trace_rounds=1),
    "cuts": Workload("cuts", inputs.cuts_rounds, cuts_op, lambda result: [],
                     cuts_check, trace_rounds=4),
    "walk": Workload("walk", inputs.walk_rounds, walk_op, walk_failures,
                     walk_check, trace_rounds=1),
}

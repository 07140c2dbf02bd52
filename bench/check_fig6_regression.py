#!/usr/bin/env python3
"""Diff a freshly emitted BENCH_fig6.json against a reference snapshot.

Usage:
    check_fig6_regression.py REFERENCE.json FRESH.json [--max-iter-regression R]
                             [--require-identical-walk]
                             [--wall-trend SNAP [SNAP ...]]

Compares the LP-iteration totals of the two runs over the sweep points
that were *fully proved in both* (optimality shown or infeasibility
established). Proved points finish before any time or node cap binds,
so their iteration counts are a machine-independent measure of solver
work — censored points spend whatever the cap allows and would make the
comparison depend on CI hardware. Also cross-checks that the objectives
agree wherever both runs found an incumbent: an iteration win that
changes answers is a bug, not an optimization.

Exits nonzero when the fresh run needs more than (1 + R) times the
reference iterations on the mutually proved points (default R = 0.10).

--require-identical-walk additionally fails unless every sweep point
took the same walk as the reference: equal LP iterations, B&B nodes,
objective and proved flag, point for point. A change that must leave
the solver's pivots alone (a faster engine, a refactor) is held to it.

--wall-trend prints a report-only wall-clock table across historical
snapshots (e.g. the PR 1 / PR 2 / PR 3 references) plus the fresh run:
wall time depends on the host, so the trend never fails the check —
the hard gate stays on LP iterations.
"""

import argparse
import json
import sys


def load(path):
    with open(path) as f:
        return json.load(f)


def print_wall_trend(paths):
    """Report-only wall-clock trend across snapshots (oldest first).

    Total wall is dominated by censored points (they spend whatever the
    cap allows), so the table also sums wall over the points proved in
    *every* listed run — the apples-to-apples subset. Wall times are
    host-dependent: this never exits nonzero.
    """
    runs = [(p, load(p)) for p in paths]
    common = None
    for _, d in runs:
        proved = {i for i, v in enumerate(d.get("proved", [])) if v == 1}
        common = proved if common is None else (common & proved)
    common = sorted(common or [])
    print("wall-clock trend (report-only; host-dependent):")
    print(f"  commonly proved points: {common}")
    print(f"  {'snapshot':44s} {'engine':6s} {'reentry':7s} {'pricing':7s} "
          f"{'thr':>3s} {'total wall s':>12s} {'proved-pts wall s':>17s}")
    for p, d in runs:
        wall = d.get("wall_s_per_point", [])
        proved_wall = (sum(wall[i] for i in common)
                       if all(i < len(wall) for i in common) else
                       float("nan"))
        print(f"  {p[-44:]:44s} {str(d.get('engine', '?')):6s} "
              f"{str(d.get('reentry', 'phase1')):7s} "
              f"{str(d.get('pricing', 'dantzig')):7s} "
              f"{str(d.get('threads', 1)):>3s} "
              f"{d.get('total_wall_s', float('nan')):12.2f} "
              f"{proved_wall:17.3f}")
    print()


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("reference")
    ap.add_argument("fresh")
    ap.add_argument("--max-iter-regression", type=float, default=0.10,
                    help="allowed fractional iteration increase (default 0.10)")
    ap.add_argument("--require-protocol-match", action="store_true",
                    help="fail (instead of warn) when the time cap or node "
                         "budget differs from the reference")
    ap.add_argument("--wall-trend", nargs="+", metavar="SNAP", default=[],
                    help="extra snapshots for a report-only wall-clock "
                         "trend table (oldest first); the fresh run is "
                         "appended automatically")
    ap.add_argument("--max-fallback-share", type=float, default=None,
                    help="for a fresh run with reentry=dual: fail when "
                         "phase-1 fallbacks exceed this fraction of all "
                         "dual re-entry attempts (e.g. 0.05)")
    ap.add_argument("--require-identical-walk", action="store_true",
                    help="fail unless every sweep point has the reference's "
                         "LP iterations, nodes, objective and proved flag")
    args = ap.parse_args()

    ref = load(args.reference)
    new = load(args.fresh)

    if args.wall_trend:
        print_wall_trend(args.wall_trend + [args.fresh])

    if ref.get("runs") != new.get("runs"):
        sys.exit(f"sweep sizes differ: reference runs={ref.get('runs')} "
                 f"vs fresh runs={new.get('runs')} — rerun the bench with "
                 f"the reference protocol")
    # A protocol mismatch (different cap / node budget) changes which
    # points get proved; the mutual-proved restriction below keeps the
    # comparison sound, but a same-protocol reference is tighter — with
    # equal node budgets the reference cannot have proved a point with
    # far more search than the fresh run, so a newly proved point can't
    # inject headroom that masks a regression elsewhere. The re-entry
    # mode and pricing rule are protocol too: the dual path is gated
    # against a dual reference, never against the phase-1 walk (old
    # snapshots predate the fields and default to the historical
    # phase1/dantzig configuration; fresh runs omit "pricing", since
    # Dantzig is the only rule left, while older snapshots may name a
    # since-removed rule).
    for key, default in (("per_solve_limit_s", None),
                         ("max_nodes_per_solve", None),
                         ("reentry", "phase1"),
                         ("pricing", "dantzig")):
        if ref.get(key, default) != new.get(key, default):
            msg = (f"protocol mismatch: {key} "
                   f"reference={ref.get(key, default)} "
                   f"vs fresh={new.get(key, default)}")
            if args.require_protocol_match:
                sys.exit(msg)
            print(f"warning: {msg}")

    # Dual-path health gate: a re-entry that punts to phase 1 got no
    # value out of the warm dual-feasible basis. Report always, enforce
    # when asked.
    if new.get("reentry", "phase1") == "dual":
        attempts = (new.get("total_dual_reentries", 0) +
                    new.get("total_phase1_fallbacks", 0))
        share = (new.get("total_phase1_fallbacks", 0) / attempts
                 if attempts else 0.0)
        print(f"dual re-entry fallback share: {share:.4f} "
              f"({new.get('total_phase1_fallbacks', 0)} of {attempts})")
        if args.max_fallback_share is not None and \
                share > args.max_fallback_share:
            sys.exit(f"phase-1 fallback share {share:.4f} exceeds "
                     f"--max-fallback-share {args.max_fallback_share}")

    ref_proved = ref["proved"]
    new_proved = new["proved"]
    ref_iters = ref["lp_iterations_per_point"]
    new_iters = new["lp_iterations_per_point"]
    ref_obj = ref["objectives"]
    new_obj = new["objectives"]

    mutual = [i for i in range(len(ref_proved))
              if ref_proved[i] == 1 and new_proved[i] == 1]
    if not mutual:
        sys.exit("no sweep point was proved in both runs — cannot compare "
                 "solver work; check the fresh run for a solver breakage")

    # Objective guard on mutually *proved* points only: there the
    # optimum is a true invariant. Censored points carry incumbents,
    # which are search-order artifacts — a different (even better)
    # incumbent on a censored point is not a defect.
    for i in mutual:
        if ref_obj[i] < 0 or new_obj[i] < 0:
            continue  # infeasible marker
        tol = 1e-6 * max(1.0, abs(ref_obj[i]))
        if abs(ref_obj[i] - new_obj[i]) > tol:
            sys.exit(f"objective mismatch at proved sweep point {i}: "
                     f"reference {ref_obj[i]!r} vs fresh {new_obj[i]!r}")

    if args.require_identical_walk:
        keys = ("lp_iterations_per_point", "nodes_per_point", "objectives",
                "proved")
        for key in keys:
            a, b = ref.get(key), new.get(key)
            if a is None or b is None or len(a) != len(b):
                sys.exit(f"identical-walk check: '{key}' missing or of "
                         f"different length")
            for i, (x, y) in enumerate(zip(a, b)):
                if x != y:
                    sys.exit(f"walk differs at sweep point {i}: {key} "
                             f"reference {x!r} vs fresh {y!r}")
        print(f"identical walk: {', '.join(keys)} equal on all "
              f"{len(ref['proved'])} points")

    ref_total = sum(ref_iters[i] for i in mutual)
    new_total = sum(new_iters[i] for i in mutual)
    ratio = new_total / ref_total if ref_total else float("inf")
    budget = 1.0 + args.max_iter_regression

    print(f"mutually proved points: {mutual}")
    print(f"reference iterations (engine {ref.get('engine', 'n/a')}): "
          f"{ref_total}")
    print(f"fresh iterations     (engine {new.get('engine', 'n/a')}): "
          f"{new_total}")
    print(f"ratio: {ratio:.4f} (budget {budget:.2f})")

    if ratio > budget:
        sys.exit(f"iteration-count regression: {new_total} vs {ref_total} "
                 f"({ratio:.2f}x > {budget:.2f}x allowed)")
    print("OK: no iteration-count regression")


if __name__ == "__main__":
    main()

"""Command-line entry points.

    ocpqp bench spring-mass --masses 10..70:10 --horizon 15 --runs 100 ...
    ocpqp bench scaling --masses 30 --horizons 15..240:x2 --workers 1,8 ...
    ocpqp solve --problem file.ocpq --eps-abs 1e-8 --report report.json
    ocpqp verify --problem file.ocpq --oracle riccati|enumerate|residual

Exit codes: 0 success, 2 solver failure, 3 verification failure.
OCPQP_WORKERS overrides any worker count.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import bench, oracles
from .alm import Solver, SolverSettings
from .model import load_problem


def parse_range(spec):
    """'10..70:10' -> arithmetic sweep, '15..240:x2' -> geometric, '30' -> [30]."""
    spec = str(spec)
    if ".." not in spec:
        return [int(v) for v in spec.split(",")]
    head, _, step = spec.partition(":")
    lo, _, hi = head.partition("..")
    lo, hi = int(lo), int(hi)
    if not step:
        step = "1"
    out = []
    if step.startswith("x"):
        factor = int(step[1:])
        v = lo
        while v <= hi:
            out.append(v)
            v *= factor
    else:
        out.extend(range(lo, hi + 1, int(step)))
    return out


def parse_int_list(spec):
    return [int(v) for v in str(spec).split(",")]


def _print_results(results):
    header = f"{'size':>16} {'variant':>9} {'w':>2} {'ok':>4} {'fail':>4} {'gmean':>12} {'min':>12} {'max':>12}"
    print(header)
    for res in results:
        c = res.case
        print(
            f"{c.describe():>16} {c.variant:>9} {c.workers:>2} "
            f"{len(res.times):>4} {len(res.failures):>4} "
            f"{res.gmean * 1e3:>10.3f}ms {res.tmin * 1e3:>10.3f}ms {res.tmax * 1e3:>10.3f}ms"
        )


def cmd_bench_spring_mass(args):
    masses = parse_range(args.masses)
    cases = [
        bench.BenchCase(
            family="spring-mass",
            params={"masses": m, "horizon": args.horizon},
            seeds=list(range(args.seed0, args.seed0 + args.runs)),
            variant=args.variant,
            workers=args.workers,
            eps_abs=args.eps_abs,
            label=args.label,
        )
        for m in masses
    ]
    results = bench.run_benchmark(cases)
    _print_results(results)
    if args.out:
        bench.write_csv(results, args.out)
        print(f"wrote {args.out}")
        if args.gnuplot:
            bench.write_gnuplot_script(args.out, args.out + ".gp")
            print(f"wrote {args.out}.gp")
    return 2 if any(r.failures for r in results) else 0


def cmd_bench_scaling(args):
    horizons = parse_range(args.horizons)
    cases = [
        bench.BenchCase(
            family="spring-mass",
            params={"masses": args.masses, "horizon": N},
            seeds=list(range(args.seed0, args.seed0 + args.runs)),
            variant=args.variant,
            workers=workers,
            eps_abs=args.eps_abs,
            label=f"w{workers}",
        )
        for workers in parse_int_list(args.workers)
        for N in horizons
    ]
    results = bench.run_benchmark(cases)
    _print_results(results)
    if args.out:
        bench.write_csv(results, args.out)
        print(f"wrote {args.out}")
        if args.gnuplot:
            bench.write_gnuplot_script(args.out, args.out + ".gp")
    return 2 if any(r.failures for r in results) else 0


def cmd_solve(args):
    problem = load_problem(args.problem)
    settings = SolverSettings(
        eps_abs=args.eps_abs,
        eps_rel=args.eps_rel,
        worker_count=args.workers,
        variant=args.variant,
    )
    with Solver(problem, settings) as solver:
        x, y, lam, report = solver.solve()
    doc = {
        "status": report.status,
        "outer_iterations": report.outer_iters,
        "inner_iterations": report.inner_iters,
        "dual_residual": report.dual_res,
        "eq_residual": report.eq_res,
        "primal_residual": report.primal_res,
        "solve_time_s": report.solve_time,
        "timings_s": report.timings,
        "factorizations": report.factorizations,
        "full_factorizations": report.full_factorizations,
        "stages_factored": report.stages_factored,
        "blas_threads": report.blas_threads,
    }
    if args.solution:
        doc["x"] = x.tolist()
        doc["y"] = y.tolist()
        doc["lam"] = lam.tolist()
    if args.report:
        with open(args.report, "w") as fh:
            json.dump(doc, fh, indent=2)
        print(f"wrote {args.report}")
    print(
        f"status={report.status} outer={report.outer_iters} inner={report.inner_iters} "
        f"dual={report.dual_res:.3e} eq={report.eq_res:.3e} primal={report.primal_res:.3e} "
        f"time={report.solve_time * 1e3:.2f}ms"
    )
    return 0 if report.solved else 2


def cmd_verify(args):
    problem = load_problem(args.problem)
    settings = SolverSettings(eps_abs=args.eps_abs)
    with Solver(problem, settings) as solver:
        x, y, lam, report = solver.solve()
    if not report.solved:
        print(f"solver failed: {report.status}")
        return 2
    try:
        ver = oracles.verify_against_oracle(
            problem, (x, y, lam), oracle=args.oracle, eps=args.eps_abs
        )
    except oracles.OracleIntractable as exc:
        print(f"oracle intractable: {exc}")
        return 3
    detail = " ".join(f"{k}={v:.3e}" if isinstance(v, float) else f"{k}={v}"
                      for k, v in ver.details.items())
    print(f"verification {'PASS' if ver.ok else 'FAIL'} ({ver.method}) {detail}")
    return 0 if ver.ok else 3


def main(argv=None):
    parser = argparse.ArgumentParser(prog="ocpqp", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_bench = sub.add_parser("bench", help="benchmark harness")
    bench_sub = p_bench.add_subparsers(dest="bench_command", required=True)

    p_sm = bench_sub.add_parser("spring-mass", help="mass sweep at fixed horizon")
    p_sm.add_argument("--masses", default="10..70:10")
    p_sm.add_argument("--horizon", type=int, default=15)
    p_sm.add_argument("--runs", type=int, default=100, help="seeded instances per size")
    p_sm.add_argument("--variant", choices=("dense", "diagonal", "auto"), default="dense")
    p_sm.add_argument("--workers", type=int, default=1)
    p_sm.add_argument("--eps-abs", type=float, default=1e-8)
    p_sm.add_argument("--seed0", type=int, default=0)
    p_sm.add_argument("--label", default="")
    p_sm.add_argument("--out", default="")
    p_sm.add_argument("--gnuplot", action="store_true")
    p_sm.set_defaults(func=cmd_bench_spring_mass)

    p_sc = bench_sub.add_parser("scaling", help="horizon sweep across worker counts")
    p_sc.add_argument("--masses", type=int, default=30)
    p_sc.add_argument("--horizons", default="15..240:x2")
    p_sc.add_argument("--runs", type=int, default=10)
    p_sc.add_argument("--variant", choices=("dense", "diagonal", "auto"), default="dense")
    p_sc.add_argument("--workers", default="1,8")
    p_sc.add_argument("--eps-abs", type=float, default=1e-8)
    p_sc.add_argument("--seed0", type=int, default=0)
    p_sc.add_argument("--out", default="")
    p_sc.add_argument("--gnuplot", action="store_true")
    p_sc.set_defaults(func=cmd_bench_scaling)

    p_solve = sub.add_parser("solve", help="solve a problem file")
    p_solve.add_argument("--problem", required=True)
    p_solve.add_argument("--eps-abs", type=float, default=1e-8)
    p_solve.add_argument("--eps-rel", type=float, default=0.0)
    p_solve.add_argument("--workers", type=int, default=1)
    p_solve.add_argument("--variant", choices=("dense", "diagonal", "auto"), default="auto")
    p_solve.add_argument("--report", default="")
    p_solve.add_argument("--solution", action="store_true", help="embed x, y, lam in the report")
    p_solve.set_defaults(func=cmd_solve)

    p_ver = sub.add_parser("verify", help="solve then check against an oracle")
    p_ver.add_argument("--problem", required=True)
    p_ver.add_argument("--oracle", choices=("auto", "riccati", "enumerate", "residual"), default="auto")
    p_ver.add_argument("--eps-abs", type=float, default=1e-8)
    p_ver.set_defaults(func=cmd_verify)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

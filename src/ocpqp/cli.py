"""Command-line entry points.

    ocpqp bench --masses 10..70:10 --horizons 15 --workers 1 --runs 100 ...
    ocpqp bench --masses 30 --horizons 15..240:x2 --workers 1,8 --runs 10
    ocpqp solve --problem file.ocpq --eps-abs 1e-8 --report report.json
    ocpqp verify --problem file.ocpq --oracle riccati|enumerate|residual

Exit codes: 0 success, 2 usage error or solver failure, 3 verification
failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import os
import sys

from . import bench, oracles
from .alm import Solver, SolverSettings
from .bench import SpringMassConfig
from .model import load_problem


class SweepError(ValueError, argparse.ArgumentTypeError):
    """A sweep spec that names no value; as the ``type=`` of an argument it
    is a usage error, and argparse prints its message."""


def parse_range(spec):
    """'10..70:10' -> arithmetic sweep, '15..240:x2' -> geometric, '30' -> [30].

    A geometric sweep must grow: a factor below 2 or a start below 1 raises
    SweepError, a ValueError, as do an arithmetic step below 1 and a sweep
    with no values."""
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
        if factor < 2 or lo < 1:
            raise SweepError(
                f"geometric sweep {spec!r} cannot grow: needs a factor >= 2 and a start >= 1"
            )
        v = lo
        while v <= hi:
            out.append(v)
            v *= factor
    else:
        step = int(step)
        if step < 1:
            raise SweepError(f"arithmetic sweep {spec!r} needs a step >= 1")
        out.extend(range(lo, hi + 1, step))
    if not out:
        raise SweepError(f"sweep {spec!r} has no values")
    return out


def _checked(args, flags, make, *values, **kw):
    """``make(*values, **kw)``: a ValueError or OSError that the package's
    own checks raise on the values of ``flags`` is a usage error naming them."""
    try:
        return make(*values, **kw)
    except (ValueError, OSError) as exc:
        args.parser.error(f"argument {flags}: {exc}")


def _check_writable(args, flag, path):
    """Open ``path`` to append, so that an output path that cannot be
    written is a usage error before anything runs; what the file holds
    stays until the result is written over it, and a file that the check
    creates is removed again, so that a run stopped before its result
    leaves none behind."""
    if path:
        existed = os.path.lexists(path)
        _checked(args, flag, open, path, "a").close()
        if not existed:
            os.remove(path)


def cmd_bench(args):
    """Check the sweep's values (each size against the least valid other),
    run one case per worker count, mass count and horizon, print the table
    and write the CSV and gnuplot script if asked; 2 when any run failed."""
    if args.runs < 1:
        args.parser.error(f"argument --runs: must be at least 1, got {args.runs}")
    if args.gnuplot and not args.out:
        args.parser.error("argument --gnuplot: needs --out, the CSV file the script plots")
    for m in args.masses:
        _checked(args, "--masses", SpringMassConfig, masses=m, horizon=1)
    for N in args.horizons:
        _checked(args, "--horizons", SpringMassConfig, masses=2, horizon=N)
    _checked(args, "--seed0", SpringMassConfig, masses=2, horizon=1, seed=args.seed0)
    for w in args.workers:
        _checked(args, "--workers", SolverSettings, worker_count=w)
    _checked(args, "--eps-abs", SolverSettings, eps_abs=args.eps_abs)
    _check_writable(args, "--out", args.out)
    seeds = list(range(args.seed0, args.seed0 + args.runs))
    print(f"{'size':>16} {'variant':>9} {'w':>2} {'ok':>4} {'fail':>4} "
          f"{'gmean':>12} {'min':>12} {'max':>12}")
    results = []
    for w, m, N in itertools.product(args.workers, args.masses, args.horizons):
        res = bench.run_case(bench.BenchCase(m, N, seeds, args.variant, w, args.eps_abs))
        results.append(res)
        print(
            f"{f'M={m},N={N}':>16} {args.variant:>9} {w:>2} "
            f"{len(res.reports):>4} {len(res.failures):>4} "
            f"{res.gmean * 1e3:>10.3f}ms {res.tmin * 1e3:>10.3f}ms {res.tmax * 1e3:>10.3f}ms"
        )
    if args.out:
        bench.write_csv(results, args.out)
        print(f"wrote {args.out}")
        if args.gnuplot:
            bench.write_gnuplot_script(args.out, args.out + ".gp")
            print(f"wrote {args.out}.gp")
    return 2 if any(r.failures for r in results) else 0


def cmd_solve(args):
    problem = _checked(args, "--problem", load_problem, args.problem)
    _checked(args, "--workers", SolverSettings, worker_count=args.workers)
    settings = _checked(
        args, "--eps-abs/--eps-rel", SolverSettings, eps_abs=args.eps_abs,
        eps_rel=args.eps_rel, worker_count=args.workers, variant=args.variant,
    )
    _check_writable(args, "--report", args.report)
    # only the diagonal variant can be refused for the problem it is given
    flags = "--problem/--variant" if args.variant == "diagonal" else "--problem"
    with _checked(args, flags, Solver, problem, settings) as solver:
        x, y, lam, report = solver.solve()
    doc = dataclasses.asdict(report)
    if args.solution:
        doc.update(x=x.tolist(), y=y.tolist(), lam=lam.tolist())
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
    problem = _checked(args, "--problem", load_problem, args.problem)
    settings = _checked(args, "--eps-abs", SolverSettings, eps_abs=args.eps_abs)
    with _checked(args, "--problem", Solver, problem, settings) as solver:
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

    p_bench = sub.add_parser("bench", help="spring-mass sweep over masses, horizons and workers")
    p_bench.add_argument("--masses", type=parse_range, default="10..70:10")
    p_bench.add_argument("--horizons", type=parse_range, default="15")
    p_bench.add_argument("--workers", type=parse_range, default="1")
    p_bench.add_argument("--runs", type=int, default=100, help="seeded instances per case")
    p_bench.add_argument("--variant", choices=("dense", "diagonal", "auto"), default="dense")
    p_bench.add_argument("--eps-abs", type=float, default=1e-8)
    p_bench.add_argument("--seed0", type=int, default=0)
    p_bench.add_argument("--out", default="")
    p_bench.add_argument("--gnuplot", action="store_true")
    p_bench.set_defaults(func=cmd_bench, parser=p_bench)

    p_solve = sub.add_parser("solve", help="solve a problem file")
    p_solve.add_argument("--problem", required=True)
    p_solve.add_argument("--eps-abs", type=float, default=1e-8)
    p_solve.add_argument("--eps-rel", type=float, default=0.0)
    p_solve.add_argument("--workers", type=int, default=1)
    p_solve.add_argument("--variant", choices=("dense", "diagonal", "auto"), default="auto")
    p_solve.add_argument("--report", default="")
    p_solve.add_argument("--solution", action="store_true", help="embed x, y, lam in the report")
    p_solve.set_defaults(func=cmd_solve, parser=p_solve)

    p_ver = sub.add_parser("verify", help="solve then check against an oracle")
    p_ver.add_argument("--problem", required=True)
    p_ver.add_argument("--oracle", choices=("auto", "riccati", "enumerate", "residual"), default="auto")
    p_ver.add_argument("--eps-abs", type=float, default=1e-8)
    p_ver.set_defaults(func=cmd_verify, parser=p_ver)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

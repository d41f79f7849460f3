"""Command-line benchmark harness.

Subcommands: ``solve`` (single run), ``converge`` (sweeps over control or
collocation counts), ``stability`` (the non-uniform-knot experiment) and
``cost-model`` (closed-form flop counts). Flags mirror the experiment
configuration fields; for the run commands ``--config`` loads a JSON file
with the same keys and explicit flags override it (``cost-model`` takes
flags only). ``-v`` writes the stage seconds of every fit and error report
to stderr (the ``splinecol`` logger at debug level).

Exit codes: 0 success, 2 configuration error, 3 assembly error, 4 solver
error, 1 any other library failure or a sweep in which no cell ran.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import logging
import sys

from .bench import cost_model_rows, run_cells, stability_cells, sweep_cells
from .collocation import SCHEME_KINDS
from .config import EXAMPLE_IDS, ExperimentConfig, read_config_file
from .errors import (
    AssemblyError,
    ConfigError,
    RankDeficientError,
    SingularSystemError,
    SplineColError,
)
from .estimator import METHODS

EXIT_CONFIG = 2
EXIT_ASSEMBLY = 3
EXIT_SOLVER = 4
EXIT_OTHER = 1


def _counts(text):
    return tuple(int(tok) for tok in text.split(",") if tok)


def _add_run_options(parser):
    """Options of every run command, the stability experiment included."""
    parser.add_argument("--config", help="JSON configuration file; flags override it")
    parser.add_argument(
        "-m", "--m-per-dir", type=_counts, dest="m",
        help="collocation points per direction",
    )
    parser.add_argument("--quad-order", type=int, dest="quad_order")
    parser.add_argument(
        "--boundary-weight", dest="boundary_weight",
        help="scalar weight for boundary rows, or 'auto' (default)",
    )
    parser.add_argument(
        "-o", "--output",
        help="path stem for <stem>.csv and <stem>.json result files",
    )
    parser.add_argument(
        "-v", "--verbose", action="store_true",
        help="log the stage seconds of every fit and error report to stderr",
    )


def _add_problem_options(parser, include_method=True):
    """Options that choose the example, method, scheme and control counts."""
    parser.add_argument("--example", choices=EXAMPLE_IDS)
    if include_method:
        parser.add_argument("--method", choices=METHODS)
    parser.add_argument("--scheme", choices=SCHEME_KINDS)
    parser.add_argument(
        "-n", "--n-per-dir", type=_counts, dest="n",
        help="control points per direction, e.g. 10 or 15,15",
    )


def _merge_config(args, defaults=None, fixed=(), **extra) -> ExperimentConfig:
    """Configuration from ``defaults``, then the ``--config`` file, then the flags.

    File keys listed in ``fixed`` are rejected; ``extra`` values that are not
    None override everything.
    """
    data = dict(defaults or {})
    if args.config:
        loaded = read_config_file(args.config)
        for key in fixed:
            if key in loaded:
                raise ConfigError(
                    f"{args.config} sets {key!r}, which this command fixes"
                )
        data.update(loaded)
    for key in (field.name for field in dataclasses.fields(ExperimentConfig)):
        value = getattr(args, key, None)
        if value is not None:
            data[key] = value
    data.update({key: value for key, value in extra.items() if value is not None})
    return ExperimentConfig.from_dict(data)


def _print_rows(rows):
    for row in rows:
        if row["error"]:
            print(
                f"{row['example']} {row['method']:<13} {row['scheme']:<8} "
                f"n={row['n_per_dir']} m={row['m_per_dir']} FAILED: {row['error']}"
            )
            continue
        e_dt = "" if row["e_DT"] is None else f" e_DT={row['e_DT']:.4g}"
        flag = "" if row["stable"] else "  [unstable]"
        print(
            f"{row['example']} {row['method']:<13} {row['scheme']:<8} "
            f"n={row['n_per_dir']:<9} m={row['m_per_dir']:<9} "
            f"{row['quantity']}: e_T={row['e_T']:.4g}{e_dt} "
            f"max|e|={row['max_abs']:.4g}{flag}"
        )


def _run(cells, output, reraise=False, summary=False):
    """Run, write and print ``cells``; then the one exit rule of every run command.

    Exit 1 when every cell failed, else 0. With ``reraise`` (``solve``, one
    cell), the failed cell's own exception propagates instead, so that its
    typed exit code applies.
    """
    results, payload = run_cells(cells, output, summary)
    _print_rows(payload["rows"])
    for name, info in payload.get("summary", {}).items():
        state = "stable" if info["stable"] else "UNSTABLE"
        print(f"{name:<22} e_T={info['e_T']:.4g}  {state}")
    if output:
        print(f"wrote {output}.csv and {output}.json")
    errors = [result.error for result in results if result.error is not None]
    if len(errors) < len(results):
        return results, 0
    if reraise:
        raise errors[0]
    print("error: every cell of the sweep failed", file=sys.stderr)
    return results, EXIT_OTHER


def cmd_solve(args) -> int:
    config = _merge_config(args)
    ([result], code) = _run(sweep_cells(config), config.output, reraise=True)
    solver = result.solver
    print(
        f"solver {solver['method']}: residual={solver['residual_norm']:.3e} "
        f"flops={solver['flop_estimate']:.3g} cond~{solver['condition_estimate']:.2e}"
    )
    return code


def cmd_converge(args) -> int:
    # Each method sweeps the same sequences; the cells run as one list, in
    # method-major, sequence-minor order.
    configs = [_merge_config(args, method=method) for method in args.methods or [None]]
    cells = [cell for config in configs for cell in sweep_cells(config)]
    return _run(cells, configs[0].output)[1]


def cmd_stability(args) -> int:
    config = _merge_config(
        args, defaults={"m": [16]},
        fixed=("example", "method", "scheme", "n", "n_seq", "m_seq"),
        example="V", method="igal_fixed",
    )
    return _run(stability_cells(config), config.output, summary=True)[1]


def cmd_cost_model(args) -> int:
    rows = cost_model_rows(
        args.dimension, args.degree, args.n_scalar, args.m_scalar,
        kind=args.kind, bracketed=args.bracketed,
    )
    width = max(len(name) for name, _ in rows)
    for name, flops in rows:
        print(f"{name:<{width}}  {flops:,.0f} flops")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="splinecol",
        description="Spline collocation solvers and convergence benchmarks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="run one solve and report its errors")
    _add_problem_options(p)
    _add_run_options(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("converge", help="sweep control/collocation counts")
    _add_problem_options(p, include_method=False)
    _add_run_options(p)
    p.add_argument(
        "--method", dest="methods", action="append", choices=METHODS,
        help="repeatable; each method is swept over the same sequences",
    )
    p.add_argument(
        "--n-seq", type=_counts, action="append",
        help="repeatable control-count step, e.g. --n-seq 6 --n-seq 8",
    )
    p.add_argument(
        "--m-seq", type=_counts, action="append",
        help="repeatable collocation-count step (requires fixed -n)",
    )
    p.set_defaults(func=cmd_converge)

    # The experiment fixes example V, both methods and both schemes, and
    # derives its field from the stability knots, so it takes no problem options.
    p = sub.add_parser("stability", help="non-uniform-knot stability experiment")
    _add_run_options(p)
    p.set_defaults(func=cmd_stability)

    p = sub.add_parser("cost-model", help="closed-form flop counts")
    p.add_argument("--dimension", type=int, choices=(1, 2, 3), required=True)
    p.add_argument("--degree", type=int, default=3)
    p.add_argument("-n", dest="n_scalar", type=int, required=True,
                   help="control points per direction")
    p.add_argument("-m", dest="m_scalar", type=int, required=True,
                   help="collocation points per direction")
    p.add_argument("--kind", choices=("scalar", "vector"), default="scalar")
    p.add_argument("--bracketed", action="store_true",
                   help="use the alternate constants quoted from prior work")
    p.set_defaults(func=cmd_cost_model)
    return parser


@contextlib.contextmanager
def _stage_logging(enabled):
    """While a command runs, send the ``splinecol`` logger's debug lines to stderr."""
    if not enabled:
        yield
        return
    logger = logging.getLogger("splinecol")
    handler = logging.StreamHandler()
    level = logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.DEBUG)
    try:
        yield
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with _stage_logging(getattr(args, "verbose", False)):
            return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except AssemblyError as exc:
        print(f"assembly error: {exc}", file=sys.stderr)
        return EXIT_ASSEMBLY
    except (SingularSystemError, RankDeficientError) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except SplineColError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_OTHER


if __name__ == "__main__":
    sys.exit(main())

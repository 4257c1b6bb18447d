"""Command-line front end.

    walkergeo analyze <manifest> [--samples N] [--seed S] [--tol T]
                                 [--report text|machine]
    walkergeo examples list
    walkergeo examples run <name> [same flags]

Exit status: 0 clean analysis, 1 structural rejection (no structure exists
for the given data), 2 input error, 3 internal consistency failure; the
second to fourth are the three bases of `errors`. Any
other exception is a defect of the program: it also exits 3, with the one
line `internal error: <Type>: <message>` on stderr and no traceback.
"""

from __future__ import annotations

import argparse
import sys

from .corpus import FIXTURES, load_fixture
from .errors import ConsistencyError, InputError, StructuralRejection
from .manifest import Manifest, load_manifest
from .report import build_report

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="walkergeo",
        description=("Classify almost paracontact metric structures on "
                     "3-dimensional Walker manifolds."))
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser(
        "analyze", help="analyze a structure described by a manifest file")
    analyze.add_argument("manifest", help="path to a manifest file")
    _add_run_flags(analyze)
    analyze.set_defaults(func=_cmd_analyze)

    examples = sub.add_parser("examples", help="built-in example corpus")
    ex_sub = examples.add_subparsers(dest="subcommand", required=True)

    ex_list = ex_sub.add_parser("list", help="list the built-in examples")
    ex_list.set_defaults(func=_cmd_examples_list)

    ex_run = ex_sub.add_parser("run", help="analyze one built-in example")
    ex_run.add_argument("name", help="example name (see: examples list)")
    _add_run_flags(ex_run)
    ex_run.set_defaults(func=_cmd_examples_run)

    return parser


def _add_run_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--samples", type=int, default=None,
                        help="number of sample points (default: manifest)")
    parser.add_argument("--seed", type=int, default=None,
                        help="sampling seed (default: manifest)")
    parser.add_argument("--tol", type=float, default=None,
                        help="zero-test tolerance (default: manifest)")
    parser.add_argument("--report", choices=("text", "machine"),
                        default="text",
                        help="output format (default: text)")


def _analyze(manifest: Manifest, args: argparse.Namespace) -> int:
    structure = manifest.build(samples=args.samples, seed=args.seed,
                               tol=args.tol)
    report = build_report(structure, name=manifest.name)
    if args.report == "machine":
        sys.stdout.write(report.to_json())
    else:
        sys.stdout.write(report.render_text())
    return report.exit_status


def _cmd_analyze(args: argparse.Namespace) -> int:
    return _analyze(load_manifest(args.manifest), args)


def _cmd_examples_list(args: argparse.Namespace) -> int:
    width = max(len(f.name) for f in FIXTURES)
    for fixture in FIXTURES:
        sys.stdout.write(f"{fixture.name:<{width}}  {fixture.description}\n")
    return 0


def _cmd_examples_run(args: argparse.Namespace) -> int:
    return _analyze(load_fixture(args.name), args)


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except StructuralRejection as exc:
        sys.stderr.write(f"structural rejection: {exc}\n")
        return 1
    except InputError as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return 2
    except ConsistencyError as exc:
        sys.stderr.write(f"internal consistency failure: {exc}\n")
        return 3
    except Exception as exc:  # last resort: a defect, reported in one line
        sys.stderr.write(f"internal error: {type(exc).__name__}: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())

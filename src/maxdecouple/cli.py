"""Command-line front end.

Subcommands: report, construct, search, sample, verify.  Exit codes follow
a fixed contract: 0 success, 1 unreadable or invalid input or an --out file
or stdout that cannot be written, 2 a universal invariant failed (library
bug or corrupt data), 64 usage error.  All output is deterministic given the
flags and seed; numeric CSV cells use 17 significant digits so doubles
round-trip losslessly.  `report` prints the `_asdict()` of either joint
kind's named tuple, as JSON or as one CSV row whose bools are spelled as in
JSON.

Every verb and the help write stdout through `_write_stdout` alone, so
stdout's buffer is never left holding text; a failed write raises its
OSError, and one branch of `main` prints it as "cannot write output".

Importing this module compiles only what `--help` and a usage error
run: this file's parser, `main` and writers and the error types
(`errors`), with argparse.  `search` imports the closed-form search
(`optimize`) on its first call.  The front end of the other four verbs,
`joint_verbs`, compiles on the first call of any of them and imports
`json`, numpy and `dist`, which all four use; `main` refuses a bad
`--seed`, `--count` or `--trials` before that.  Each of them imports the
rest of what it uses on its first call: `report` imports `bounds` or
`continuous`, `construct` imports `constructions`, and `verify` imports
the randomized battery (`verification`, which imports every module,
`optimize` among them, which it checks).  So `search`, `--help` and the
usage errors load no numpy, `json`, `dataclasses`, `fractions`,
`typing` or `__future__`.
"""

import argparse
import functools
import operator
import os
import sys

from .errors import InputError, InvalidDistributionError, InvariantError, OutputError, UsageError

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_INVARIANT = 2
EXIT_USAGE = 64

DEFAULT_SEED = 0

# Each family's flag, the name of its builder in `constructions` and the
# parameters it is called with; `product` takes its marginals as a
# MarginalVector.
FAMILY_BY_FLAG = {
    "one-hot": ("one_hot_uniform", ("n",)),
    "extremal": ("conjectured_extremal", ("n",)),
    "comonotone": ("comonotone", ("n", "eps")),
    "affine-hash": ("affine_hash", ("n", "q", "m")),
    "xor": ("xor_parity", ("k",)),
    "product": ("product", ("p",)),
}


class _ArgumentParser(argparse.ArgumentParser):
    """argparse's default usage exit code is 2; this contract reserves 2
    for invariant failures, so usage problems leave with 64 instead, which
    `main` returns like every other code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")

    def print_help(self, file=None):
        # argparse would swallow a failed write; the help goes through the
        # one stdout writer, whose failure `main` reports like any other.
        if file is None:
            _write_stdout(self.format_help())
        else:
            super().print_help(file)


# The %-conversion of each cell type: floats to 17 significant digits.
CELL_TEMPLATE = {float: "%.17g", int: "%d", str: "%s"}


def _csv(rows) -> str:
    """The header, the first row's keys, and one line per row.  Every cell
    is a Python float, int or str, none with a comma, quote or newline, so
    no cell is quoted, and there are at least two columns.  Each row is
    printed by one %-template, made once per tuple of cell types."""
    columns = tuple(rows[0])
    cells_of = operator.itemgetter(*columns)
    templates = {}
    lines = [",".join(columns)]
    for row in rows:
        cells = cells_of(row)
        kinds = tuple(map(type, cells))
        template = templates.get(kinds)
        if template is None:
            template = templates[kinds] = ",".join(map(CELL_TEMPLATE.__getitem__, kinds))
        lines.append(template % cells)
    return "\n".join(lines) + "\n"


def _write_stdout(text: str) -> None:
    """Write all of `text` to stdout.  A closing pipe can take part of a
    large write, a short count that CPython's text layer drops; so the
    buffer is flushed and the text goes to the descriptor in a loop that
    honours the count, whose next write fails.  A stdout with no
    descriptor (an in-process caller's buffer) takes the text as it is."""
    try:
        fd = sys.stdout.fileno()
    except (OSError, ValueError):
        sys.stdout.write(text)
        return
    sys.stdout.flush()
    view = memoryview(text.encode(sys.stdout.encoding, sys.stdout.errors))
    while view:
        view = view[os.write(fd, view):]


def _emit(path: str | None, text: str) -> None:
    """Write `text` to the file at `path`, or to stdout if there is none.
    A failed write raises its OSError, which `main` reports."""
    if path is None:
        _write_stdout(text)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)


def _as_usage(call, *args, **kwargs):
    """`call(*args, **kwargs)`, with the ValueError a library function
    raises for its arguments (InvalidDistributionError among them, for a
    size over the budget) turned into a usage error."""
    try:
        return call(*args, **kwargs)
    except ValueError as exc:
        raise UsageError(str(exc))


def _cmd_search(args) -> int:
    # 'full' also certifies each row over all 2^n atoms; the rows are all
    # made before any is written, so a failed certificate writes nothing.
    from . import optimize

    rows = _as_usage(optimize.conjecture_sweep, args.n_min, args.n_max,
                     reduction=args.reduction)
    _emit(args.out, _csv(rows))
    return EXIT_OK


def _cmd_joint(args) -> int:
    """Run a verb other than `search`, from `joint_verbs`, which is
    imported (and so compiled) on the first such call."""
    from . import joint_verbs

    return getattr(joint_verbs, f"_cmd_{args.command}")(args)


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="maxdecouple",
        description="Decoupling bounds for maxima of dependent random variables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_report = sub.add_parser("report", help="evaluate every bound on a joint file")
    p_report.add_argument("--in", dest="input", required=True, metavar="PATH")
    p_report.add_argument("--format", choices=("json", "csv"), default="json")
    p_report.set_defaults(func=_cmd_joint)

    p_construct = sub.add_parser("construct", help="emit a named family as JSON")
    p_construct.add_argument(
        "--family", required=True, choices=sorted(FAMILY_BY_FLAG)
    )
    p_construct.add_argument("--n", type=int)
    p_construct.add_argument("--eps", type=float)
    p_construct.add_argument("--q", type=int)
    p_construct.add_argument("--m", type=int)
    p_construct.add_argument("--k", type=int, help="xor family: number of coins")
    p_construct.add_argument("--p", help="product family: comma-separated marginals")
    p_construct.add_argument("--out", metavar="PATH")
    p_construct.set_defaults(func=_cmd_joint)

    p_search = sub.add_parser("search", help="extremal-ratio sweep over n")
    p_search.add_argument("--n-min", type=int, required=True)
    p_search.add_argument("--n-max", type=int, required=True)
    p_search.add_argument("--mode", choices=("equality", "negcov"), default="equality",
                          help="pair moments = p^2 or <= p^2: the same certified rows")
    p_search.add_argument(
        "--reduction", choices=("exchangeable", "full"), default="exchangeable"
    )
    p_search.add_argument("--out", metavar="PATH")
    p_search.set_defaults(func=_cmd_search)

    p_sample = sub.add_parser("sample", help="draw atom masks, one per line")
    p_sample.add_argument("--in", dest="input", required=True, metavar="PATH")
    p_sample.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_sample.add_argument("--count", type=int, required=True)
    p_sample.set_defaults(func=_cmd_joint)

    p_verify = sub.add_parser("verify", help="run the randomized property battery")
    p_verify.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_verify.add_argument("--trials", type=int, default=1000)
    p_verify.set_defaults(func=_cmd_joint)

    return parser


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    # Parsing leaves no state on the parser, so one serves every call.
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _shared_parser().parse_args(argv)
        if getattr(args, "seed", 0) < 0:  # numpy seeds only from nonnegative integers
            raise UsageError(f"--seed must be nonnegative, got {args.seed}")
        for flag in ("count", "trials"):  # checked before the verb loads numpy
            if getattr(args, flag, 1) < 1:
                raise UsageError(f"--{flag} must be at least 1, got {getattr(args, flag)}")
        return args.func(args)
    except SystemExit as exc:  # argparse has printed the usage or the help
        return exc.code
    except UsageError as exc:
        print(f"maxdecouple: usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InvalidDistributionError as exc:
        print(f"maxdecouple: invalid input: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except InvariantError as exc:
        print(f"maxdecouple: invariant failed: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except InputError as exc:
        print(f"maxdecouple: cannot read input: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (OutputError, OSError) as exc:  # reads raise InputError, so an OSError is a write
        print(f"maxdecouple: cannot write output: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    # Run as `python -m maxdecouple.cli`, this module is `__main__`.  Listed
    # under its own name too, it is the module `joint_verbs` imports the
    # writers from, not a second run of this file.
    sys.modules[__spec__.name] = sys.modules[__name__]
    sys.exit(main())

"""Command-line front end.

Subcommands: report, construct, search, sample, verify.  Exit codes follow
a fixed contract: 0 success, 1 unreadable or invalid input or an --out file
that cannot be written, 2 a universal invariant failed (library bug or
corrupt data), 64 usage error.  All output is deterministic given the flags
and seed; numeric CSV cells use 17 significant digits so doubles round-trip
losslessly.  `report` prints the `_asdict()` of either joint kind's named
tuple, as JSON or as one CSV row whose bools are spelled as in JSON.

Importing this module loads only what every verb needs: argparse, the
closed-form search (`optimize`) and the error types.  The joint machinery
and numpy load in the verbs that read or build a joint, and `json` in
those that read or write one, on their first call, so `search`, `--help`
and a usage error load neither, nor `dataclasses`, `fractions` or
`typing`.
"""

from __future__ import annotations

import argparse
import functools
import math
import operator
import os
import sys

from . import optimize
from .errors import InvalidDistributionError, InvariantError

TYPE_CHECKING = False
if TYPE_CHECKING:
    from .continuous import NonnegJoint
    from .dist import JointBernoulli

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_INVARIANT = 2
EXIT_USAGE = 64

DEFAULT_SEED = 0

# Widest `sample` row, in bytes with its newline, that is gathered from a
# NUL-padded bytes array; wider rows are gathered as str objects.  Padded
# bytes cost per byte, str objects per row and more the more distinct
# atoms are drawn: str objects win from about 9 bytes on 5,000 atoms and
# from about 24 bytes on 32,768 atoms (10^6 draws, 2-vCPU VM).
NARROW_ROW_BYTES = 16

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

class UsageError(Exception):
    pass


class InputError(Exception):
    """The input file cannot be read, decoded as UTF-8 or parsed as JSON."""


class OutputError(Exception):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    """argparse's default usage exit code is 2; this contract reserves 2
    for invariant failures, so usage problems leave with 64 instead, which
    `main` returns like every other code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _digit_limit_message(what: str) -> str:
    limit = sys.get_int_max_str_digits()
    return (
        f"{what} is past Python's limit of {limit} decimal digits for int/str "
        f"conversion; a JSON joint holds masks of at most "
        f"{int(limit * math.log2(10))} variables"
    )


def _load_joint_file(path: str) -> JointBernoulli | NonnegJoint:
    import json

    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(exc) from exc
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(exc) from exc
    except RecursionError as exc:
        limit = sys.getrecursionlimit()
        raise InvalidDistributionError(f"JSON nested past the recursion limit of {limit}") from exc
    except ValueError as exc:
        # The scanner has checked the syntax, so the one other ValueError is
        # Python refusing an integer literal past its digit limit (decimal
        # conversion takes quadratic time).
        raise InvalidDistributionError(
            _digit_limit_message("an integer in the file")
        ) from exc
    if not isinstance(obj, dict):
        raise InvalidDistributionError("joint document must be a JSON object")
    kind = obj.get("kind")
    if kind == "bernoulli-joint":
        from .dist import JointBernoulli

        return JointBernoulli.from_json_dict(obj)
    if kind == "nonneg-joint":
        from .continuous import NonnegJoint

        return NonnegJoint.from_json_dict(obj)
    raise InvalidDistributionError(
        f"field 'kind' must be 'bernoulli-joint' or 'nonneg-joint', got {kind!r}"
    )


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
    if path is None:
        _write_stdout(text)
    else:
        try:
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            raise OutputError(exc) from exc


def _cmd_report(args) -> int:
    joint = _load_joint_file(args.input)
    import json

    from .dist import JointBernoulli

    if isinstance(joint, JointBernoulli):
        from .bounds import full_report as evaluate
    else:
        from .continuous import decoupling_check_cont as evaluate
    result = evaluate(joint)
    row = result._asdict()
    if args.format == "json":
        _write_stdout(json.dumps(row, indent=2) + "\n")
    else:
        # A bool, in a cell or in the verdicts, is spelled as JSON spells it.
        for key, value in row.items():
            if isinstance(value, dict):
                row[key] = ";".join(f"{k}={json.dumps(v)}" for k, v in value.items())
            elif isinstance(value, bool):
                row[key] = json.dumps(value)
        _write_stdout(_csv([row]))
    return EXIT_OK if result.universal_ok else EXIT_INVARIANT


def _as_usage(call, *args, **kwargs):
    """`call(*args, **kwargs)`, with the ValueError a library function
    raises for its arguments (InvalidDistributionError among them, for a
    size over the budget) turned into a usage error."""
    try:
        return call(*args, **kwargs)
    except ValueError as exc:
        raise UsageError(str(exc))


def _cmd_construct(args) -> int:
    import json

    from . import constructions
    from .dist import MarginalVector

    params = {name: getattr(args, name) for _, used in FAMILY_BY_FLAG.values() for name in used}
    if args.p is not None:
        try:
            params["p"] = tuple(float(tok) for tok in args.p.split(","))
        except ValueError:
            raise UsageError(f"--p must be a comma-separated float list, got {args.p!r}")
    builder, names = FAMILY_BY_FLAG[args.family]
    given = [name for name, value in params.items() if value is not None]
    for fault, wrong in (("needs", [name for name in names if name not in given]),
                         ("does not use", [name for name in given if name not in names])):
        if wrong:
            raise UsageError(f"family '{args.family}' {fault} parameter(s): {', '.join(wrong)}")
    if "p" in names:
        params["p"] = _as_usage(MarginalVector, params["p"])
    joint = _as_usage(getattr(constructions, builder), *(params[name] for name in names))
    limit = sys.get_int_max_str_digits()
    if limit and joint.masks[-1] >= 10**limit:
        raise OutputError(
            _digit_limit_message(f"a mask of {joint.masks[-1].bit_length()} bits")
        )
    _emit(args.out, json.dumps(joint.to_json_dict(), indent=2) + "\n")
    return EXIT_OK


def _cmd_search(args) -> int:
    # 'full' also certifies each row over all 2^n atoms; the rows are all
    # made before any is written, so a failed certificate writes nothing.
    rows = _as_usage(optimize.conjecture_sweep, args.n_min, args.n_max,
                     reduction=args.reduction)
    _emit(args.out, _csv(rows))
    return EXIT_OK


def _cmd_sample(args) -> int:
    if args.count < 1:
        raise UsageError(f"--count must be at least 1, got {args.count}")
    joint = _load_joint_file(args.input)
    import numpy as np

    from .dist import JointBernoulli, _sample_indices

    if not isinstance(joint, JointBernoulli):
        raise InvalidDistributionError("sample requires a bernoulli-joint file")
    # One "<mask>\n" row per atom; a chunk of draws gathers its rows, so
    # memory stays O(atoms + chunk).  Up to NARROW_ROW_BYTES, rows are
    # NUL-padded to the last (largest) mask's width, gathered as one bytes
    # array and stripped of the padding; wider rows are gathered as str
    # objects and joined.
    width = len(b"%d\n" % joint.masks[-1])
    if width <= NARROW_ROW_BYTES:
        rows = np.array([b"%d\n" % mask for mask in joint.masks], dtype=f"S{width}")
        for idx in _sample_indices(joint, args.seed, args.count):
            _write_stdout(rows[idx].tobytes().translate(None, b"\0").decode("ascii"))
    else:
        rows = np.array(["%d\n" % mask for mask in joint.masks], dtype=object)
        for idx in _sample_indices(joint, args.seed, args.count):
            _write_stdout("".join(rows[idx].tolist()))
    return EXIT_OK


def _cmd_verify(args) -> int:
    if args.trials < 1:
        raise UsageError(f"--trials must be at least 1, got {args.trials}")
    from . import verification

    results = verification.run_battery(args.seed, args.trials)
    _write_stdout(verification.format_battery(args.seed, args.trials, results))
    return EXIT_OK if all(r.ok for r in results) else EXIT_INVARIANT


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="maxdecouple",
        description="Decoupling bounds for maxima of dependent random variables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_report = sub.add_parser("report", help="evaluate every bound on a joint file")
    p_report.add_argument("--in", dest="input", required=True, metavar="PATH")
    p_report.add_argument("--format", choices=("json", "csv"), default="json")
    p_report.set_defaults(func=_cmd_report)

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
    p_construct.set_defaults(func=_cmd_construct)

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
    p_sample.set_defaults(func=_cmd_sample)

    p_verify = sub.add_parser("verify", help="run the randomized property battery")
    p_verify.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_verify.add_argument("--trials", type=int, default=1000)
    p_verify.set_defaults(func=_cmd_verify)

    return parser


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    # Parsing leaves no state on the parser, so one serves every call.
    return build_parser()


def _discard_stdout() -> None:
    """Point stdout's descriptor at os.devnull, so that what is still
    buffered goes nowhere when the interpreter flushes it at exit, instead
    of failing there too.  A stdout that is no file (an in-process
    caller's buffer) is left alone."""
    try:
        fd = sys.stdout.fileno()
    except (OSError, ValueError):
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def main(argv: list[str] | None = None) -> int:
    try:
        args = _shared_parser().parse_args(argv)
    except SystemExit as exc:  # argparse has printed the usage or the help
        return exc.code
    try:
        if getattr(args, "seed", 0) < 0:  # numpy seeds only from nonnegative integers
            raise UsageError(f"--seed must be nonnegative, got {args.seed}")
        code = args.func(args)
        sys.stdout.flush()  # a reader gone by now fails here, not at exit
        return code
    except UsageError as exc:
        print(f"maxdecouple: usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InvalidDistributionError as exc:
        print(f"maxdecouple: invalid input: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OutputError as exc:
        print(f"maxdecouple: cannot write output: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except InvariantError as exc:
        print(f"maxdecouple: invariant failed: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except InputError as exc:
        print(f"maxdecouple: cannot read input: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:  # reads raise InputError, so this is a write to stdout
        print(f"maxdecouple: cannot write output: {exc}", file=sys.stderr)
        _discard_stdout()
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())

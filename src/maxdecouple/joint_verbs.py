"""The joint verbs' front end: `report`, `construct`, `sample` and `verify`.

`cli.main` imports this module on the first call of one of these verbs, so
a process that only searches never compiles it.  Each of the four loads
`json`, numpy and `dist` (`verify` through `verification`), so they are
imported here once; `bounds`, `continuous`, `constructions` and
`verification` are imported by the verbs that use them.  The verbs write
through `cli`'s writers and raise the error types of `errors`, which
`main` maps to its exit codes.
"""

import json
import math
import sys

import numpy as np

from .cli import EXIT_INVARIANT, EXIT_OK, FAMILY_BY_FLAG, _as_usage, _csv, _emit, _write_stdout
from .dist import JointBernoulli, MarginalVector, _sample_indices
from .errors import InputError, InvalidDistributionError, OutputError, UsageError

TYPE_CHECKING = False
if TYPE_CHECKING:
    from .continuous import NonnegJoint

# Widest `sample` row, in bytes with its newline, that is gathered from a
# NUL-padded bytes array; wider rows are gathered as str objects.  Padded
# bytes cost per byte, str objects per row and more the more distinct
# atoms are drawn: str objects win from about 9 bytes on 5,000 atoms and
# from about 24 bytes on 32,768 atoms (10^6 draws, 2-vCPU VM).
NARROW_ROW_BYTES = 16


def _digit_limit_message(what: str) -> str:
    limit = sys.get_int_max_str_digits()
    return (
        f"{what} is past Python's limit of {limit} decimal digits for int/str "
        f"conversion; a JSON joint holds masks of at most "
        f"{int(limit * math.log2(10))} variables"
    )


def _load_joint_file(path: str) -> "JointBernoulli | NonnegJoint":
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
        return JointBernoulli.from_json_dict(obj)
    if kind == "nonneg-joint":
        from .continuous import NonnegJoint

        return NonnegJoint.from_json_dict(obj)
    raise InvalidDistributionError(
        f"field 'kind' must be 'bernoulli-joint' or 'nonneg-joint', got {kind!r}"
    )


def _cmd_report(args) -> int:
    joint = _load_joint_file(args.input)
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


def _cmd_construct(args) -> int:
    from . import constructions

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


def _cmd_sample(args) -> int:
    joint = _load_joint_file(args.input)
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
    from . import verification

    results = verification.run_battery(args.seed, args.trials)
    _write_stdout(verification.format_battery(args.seed, args.trials, results))
    return EXIT_OK if all(r.ok for r in results) else EXIT_INVARIANT

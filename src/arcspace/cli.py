"""Batch command-line front end.

One JSON document describes one scheme and one arc; subcommands dispatch the
library and emit JSON reports.  Rationals are serialized as strings so the
output is bit-exact, and randomized commands echo their seed: rerunning with
the echoed seed reproduces the report byte for byte.

Exit codes: 0 success, 1 input error, 2 certificate failure, 3 assertion
failure, 4 resource limit.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass

from .drinfeld import DEFAULT_RESAMPLE_LIMIT, drinfeld_pipeline, verify_dgk
from .errors import (
    ArcspaceError,
    CertificateFailureError,
    InternalInconsistencyError,
    ParseError,
    ResourceLimitError,
    VerificationError,
)
from .jets import (
    AffineScheme,
    Arc,
    check_fitting_finite,
    jacobian_ideal,
    jet_ideal,
    ord_along_arc,
)
from .localgeom import ecodim_jet, ecodim_window
from .polyalg.oracles import initial_ideal_mismatches
from .polyalg.parse import parse_poly, poly_to_string
from .polyalg.varset import VarSet

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_CERTIFICATE = 2
EXIT_ASSERTION = 3
EXIT_RESOURCE = 4

SCHEMA_VERSION = 1


@dataclass
class Job:
    scheme: AffineScheme
    arc: Arc
    options: dict


def _integer(value, key: str) -> int:
    """A document's integer under key: an int, or a string of a decimal
    integer.  A float or a bool is a ValueError, as int() would truncate it
    to a value the document does not state."""
    if isinstance(value, (int, str)) and not isinstance(value, bool):
        try:
            return int(value)
        except ValueError:
            pass
    raise ValueError(f"{key!r} must be an integer, not {value!r}")


def load_job(path: str, precision_override: int | None = None) -> Job:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError("document must be a JSON object")
    schema = data.get("schema", SCHEMA_VERSION)
    if schema != SCHEMA_VERSION:
        raise ValueError(f"unrecognized schema version {schema!r}")
    varnames = data.get("vars")
    if not isinstance(varnames, list) or not varnames:
        raise ValueError("document needs a nonempty 'vars' list")
    varset = VarSet([str(v) for v in varnames])
    gen_texts = data.get("generators")
    if not isinstance(gen_texts, list) or not gen_texts:
        raise ValueError("document needs a nonempty 'generators' list")
    generators = tuple(parse_poly(str(g), varset) for g in gen_texts)
    dim = data.get("dim")
    if dim is not None:
        dim = _integer(dim, "dim")
    scheme = AffineScheme(varset, generators, dim)
    arc_texts = data.get("arc")
    if not isinstance(arc_texts, list) or len(arc_texts) != len(varset):
        raise ValueError("document needs an 'arc' list matching 'vars'")
    precision = data.get("precision")
    if precision is not None:
        precision = _integer(precision, "precision")
        if precision < 1:
            raise ValueError("precision must be >= 1")
    if precision_override is not None:
        precision = precision_override
    arc = Arc.from_strings(varset, [str(a) for a in arc_texts], precision)
    options = data.get("options", {})
    if not isinstance(options, dict):
        raise ValueError("'options' must be an object")
    if dim is not None:
        # an explicitly declared dimension triggers the Fitting finiteness
        # check (warns when the arc's precision cannot decide it)
        check_fitting_finite(scheme, arc, dim)
    return Job(scheme, arc, options)


def cmd_jet_ideal(job: Job, level: int) -> dict:
    gens = jet_ideal(job.scheme, level)
    return {
        "schema": SCHEMA_VERSION,
        "command": "jet-ideal",
        "level": level,
        "generators": [poly_to_string(g) for g in gens],
    }


def cmd_ord(job: Job, target: str) -> dict:
    if target == "jacobian":
        polys = jacobian_ideal(job.scheme)
    elif target == "generators":
        polys = list(job.scheme.generators)
    else:
        raise ValueError(f"unknown ord target {target!r}")
    res = ord_along_arc(polys, job.arc)
    return {
        "schema": SCHEMA_VERSION,
        "command": "ord",
        "target": target,
        "ord": str(res),
        "exact": res.kind != "exhausted",
    }


def _oracle_report(gens, forms, degree: int) -> dict:
    mismatches = initial_ideal_mismatches(gens, forms, degree)
    return {"degree": degree, "pass": not mismatches,
            "mismatches": [list(m) for m in mismatches]}


def cmd_ecodim(job: Job, level: int | None, window: tuple[int, int] | None,
               trunc_degree: int | None) -> dict:
    out = {"schema": SCHEMA_VERSION, "command": "ecodim"}
    if window is not None:
        report = ecodim_window(job.scheme, job.arc, *window)
        out.update(report.to_json())
        level = window[1]
        analysis = report.per_level[level]
    elif level is not None:
        analysis = ecodim_jet(job.scheme, job.arc, level)
        out.update(analysis.to_json())
        out["level"] = level
    else:
        raise ValueError("ecodim needs --level or --window")
    if trunc_degree is not None:
        # the oracle checks the initial forms the report prints against the
        # translated jet ideal they were computed from
        out["initial_ideal_oracle"] = _oracle_report(analysis.generators,
                                                     analysis.initial_forms, trunc_degree)
    return out


def cmd_drinfeld(job: Job, seed: int, resample_limit: int) -> dict:
    result = drinfeld_pipeline(job.scheme, job.arc, seed,
                               resample_limit=resample_limit)
    report = result.report(seed)
    report["schema"] = SCHEMA_VERSION
    report["command"] = "drinfeld"
    return report


def cmd_verify_dgk(job: Job, seed: int, resample_limit: int,
                   window: tuple[int, int] | None) -> dict:
    report = verify_dgk(job.scheme, job.arc, seed, window=window,
                        resample_limit=resample_limit)
    report["schema"] = SCHEMA_VERSION
    report["command"] = "verify-dgk"
    return report


def _parse_window(text: str) -> tuple[int, int]:
    """The levels a:b of --window, checked before any model or jet ideal is
    built: 0 <= a <= b, else a ValueError (exit code 1)."""
    try:
        a, b = (int(part) for part in text.split(":"))
    except ValueError as exc:
        raise ValueError("--window expects a:b with integers 0 <= a <= b") from exc
    if not 0 <= a <= b:
        raise ValueError("--window expects a:b with integers 0 <= a <= b")
    return a, b


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors raise ValueError, so that they
    are input errors (exit code 1) like any other, not argparse's exit code
    2, which is reserved for a certificate failure.  Its subparsers are of
    the same class."""

    def error(self, message: str):
        raise ValueError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="arcspace",
        description="Exact computations on jet schemes, arc spaces, and formal models.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("document", help="path to the scheme+arc JSON document")
        p.add_argument("--precision", type=int, default=None,
                       help="override the document's arc precision")
        p.add_argument("--output", default=None, help="write the JSON report to FILE")

    p = sub.add_parser("jet-ideal", help="generators of the order-n jet ideal")
    common(p)
    p.add_argument("--level", type=int, required=True)

    p = sub.add_parser("ord", help="contact order of an ideal along the arc")
    common(p)
    p.add_argument("--target", choices=["jacobian", "generators"], default="jacobian")

    p = sub.add_parser("ecodim", help="embedding codimension at the truncated arc")
    common(p)
    level_or_window = p.add_mutually_exclusive_group()
    level_or_window.add_argument("--level", type=int, default=None)
    level_or_window.add_argument("--window", type=str, default=None, help="level window a:b")
    p.add_argument("--trunc-degree", type=int, default=None,
                   help="also run the brute-force initial-ideal oracle to this degree")

    p = sub.add_parser("drinfeld", help="build and verify the formal model")
    common(p)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--resample-limit", type=int, default=None)

    p = sub.add_parser("verify-dgk", help="full verification pipeline on one document")
    common(p)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--resample-limit", type=int, default=None)
    p.add_argument("--window", type=str, default=None,
                   help="override the jet window a:b (default 2e:2e+2)")

    return parser


def _default_seed(args_seed: int | None, options: dict) -> int:
    if args_seed is not None:
        return args_seed
    if options.get("seed") is not None:
        return _integer(options["seed"], "seed")
    env = os.environ.get("ARCSPACE_SEED")
    return _integer(env, "ARCSPACE_SEED") if env else 0


def _emit(report: dict, output: str | None) -> None:
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _error_exit_code(exc: BaseException) -> int:
    if isinstance(exc, CertificateFailureError):
        return EXIT_CERTIFICATE
    if isinstance(exc, (VerificationError, InternalInconsistencyError)):
        return EXIT_ASSERTION
    if isinstance(exc, ResourceLimitError):
        return EXIT_RESOURCE
    return EXIT_INPUT


def _check_precision_cap(job: Job, *levels: int | None) -> None:
    cap = job.options.get("precision_cap", 64)
    if cap is None:
        return
    cap = _integer(cap, "precision_cap")
    for lvl in levels:
        if lvl is not None and lvl >= cap:
            raise ValueError(f"requested level {lvl} reaches the precision cap {cap}")


def main(argv: list[str] | None = None) -> int:
    args = None
    try:
        args = build_parser().parse_args(argv)
        job = load_job(args.document, args.precision)

        def opt_int(flag_value, key, default):
            if flag_value is not None:
                return flag_value
            if job.options.get(key) is not None:
                return _integer(job.options[key], key)
            return default

        if args.subcommand == "jet-ideal":
            _check_precision_cap(job, args.level)
            report = cmd_jet_ideal(job, args.level)
        elif args.subcommand == "ord":
            report = cmd_ord(job, args.target)
        elif args.subcommand == "ecodim":
            window = _parse_window(args.window) if args.window else None
            level = args.level
            if window is None and level is None:
                level = job.options.get("level")
                if level is None:
                    raise ValueError("ecodim needs --level or --window")
                level = _integer(level, "level")
            _check_precision_cap(job, level, *(window or ()))
            trunc = opt_int(args.trunc_degree, "trunc_degree", None)
            report = cmd_ecodim(job, level, window, trunc)
        elif args.subcommand == "drinfeld":
            seed = _default_seed(args.seed, job.options)
            limit = opt_int(args.resample_limit, "resample_limit", DEFAULT_RESAMPLE_LIMIT)
            report = cmd_drinfeld(job, seed, limit)
        elif args.subcommand == "verify-dgk":
            seed = _default_seed(args.seed, job.options)
            window = _parse_window(args.window) if args.window else None
            _check_precision_cap(job, *(window or ()))
            limit = opt_int(args.resample_limit, "resample_limit", DEFAULT_RESAMPLE_LIMIT)
            report = cmd_verify_dgk(job, seed, limit, window)
        else:  # pragma: no cover - argparse enforces the choices
            raise ValueError(f"unknown subcommand {args.subcommand}")
        _emit(report, args.output)
    except (ArcspaceError, ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        code = _error_exit_code(exc)
        failure = {
            "schema": SCHEMA_VERSION,
            "error": {
                "kind": type(exc).__name__,
                "message": str(exc),
                "exit_code": code,
            },
        }
        if isinstance(exc, ParseError):
            failure["error"]["position"] = exc.position
        try:
            _emit(failure, getattr(args, "output", None))
        except OSError:  # --output cannot be written, which may be the error itself
            _emit(failure, None)
        return code
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())

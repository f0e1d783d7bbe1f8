"""Command-line interface.

Subcommands: nf, check, anick, betti, verify, conjectures.  Exit codes:
0 pass, 1 verification failure, 2 usage/parse error.  With --json the
command prints a canonical machine-readable report.  A presentation is
a --file document or a builtin with its parameter flags, never both; a
flag the chosen builtin does not take exits 2.  anick interreduces the
presentation (a reduced one is used as it is) and exits 1 naming the
first critical pair that does not resolve.  betti reads the complex of
`resolution.resolve(system, D)`: interreduced, completed up to D when a
critical pair of tip degree <= D does not resolve (exit 2 if completion
hits its cap), refused with exit 2 when not augmented or not homogeneous,
and listing only the chains of degree <= D: no chain above D reaches a
rank, a defect or a count up to D, nor, since a cancellation pairs chains
of equal degree, the minimalization below D, so the output is the same as
from the whole complex.  check lists the critical pairs whose obstruction
the normal-form engine leaves nonzero; the verdict does not depend on its
strategy, but on a presentation that is not complete the list may.
"""

from __future__ import annotations

import argparse
import sys

from . import checks
from .anick import ResolutionPrefix, format_terms
from .documents import (
    BUILTINS,
    DocumentError,
    LoadedPresentation,
    PresentationDocument,
    Report,
    parse_expression,
)
from .resolution import generic_minimalize, resolve
from .rewriting import CompletionCapError


def _add_presentation_args(parser: argparse.ArgumentParser):
    # a parameter flag left out takes the builtin's default (documents.BUILTINS)
    parser.add_argument("--builtin", choices=tuple(BUILTINS))
    parser.add_argument("--file", help="presentation document (JSON)")
    parser.add_argument("--l", type=int, help="small-system index bound")
    parser.add_argument("--n", type=int)
    parser.add_argument("--p", type=int)
    parser.add_argument("--expbound", type=int, help="big-system exponent bound")
    parser.add_argument("--indexbound", type=int)
    parser.add_argument("--variant", choices=("odd_p_n3", "p2_general_n"))
    parser.add_argument("--json", action="store_true", help="emit a JSON report")


# builtin parameter -> the flag that sets it, where their names differ
_FLAGS = {"exponent_bound": "expbound", "index_bound": "indexbound"}


def _load(args) -> LoadedPresentation:
    """The presentation of --file, or the builtin document of the flags:
    both are built and checked by `PresentationDocument.build`.  A builtin
    flag beside --file, or one the chosen builtin does not take, is refused."""
    # each parameter flag -> the parameter it sets
    keys = {_FLAGS.get(key, key): key for _, defaults in BUILTINS.values() for key in defaults}
    if args.file:
        for flag in ("builtin", *keys):
            if getattr(args, flag) is not None:
                raise DocumentError(f"--{flag} cannot be given with --file")
        with open(args.file, encoding="utf-8") as fh:
            return PresentationDocument.from_json(fh.read()).build()
    builtin = args.builtin or "small"
    defaults = BUILTINS[builtin][1]
    params = {}  # only the flags given: `build` fills in the defaults
    for flag, key in keys.items():
        if (value := getattr(args, flag)) is not None:
            if key not in defaults:
                raise DocumentError(f"--{flag} is not a parameter of builtin {builtin!r}")
            params[key] = value
    if builtin == "conjectural" and not args.variant:
        raise DocumentError("--builtin conjectural requires --variant")
    return PresentationDocument(builtin=builtin, params=params).build()


def _emit(report: Report, args, exit_code: int) -> int:
    if args.json:
        print(report.to_json())
    return exit_code


def _str_keys(table: dict) -> dict:
    return {
        str(k): (_str_keys(v) if isinstance(v, dict) else v) for k, v in table.items()
    }


def cmd_nf(args) -> int:
    loaded = _load(args)
    poly = parse_expression(loaded.system, args.expression)
    nf, steps = loaded.system.normal_form_with_steps(poly)
    if not args.json:
        print(f"normal form: {nf}")
        print(f"reduction steps: {steps}")
    report = Report(
        "nf",
        {"expression": args.expression, **loaded.document.params},
        {"normal_form": str(nf), "steps": steps},
    )
    return _emit(report, args, 0)


def _require_nonnegative(option: str, value: int | None) -> None:
    if value is not None and value < 0:
        raise ValueError(f"{option} must be >= 0")


def cmd_check(args) -> int:
    _require_nonnegative("--degree-bound", args.degree_bound)
    loaded = _load(args)
    ok, witnesses = loaded.system.is_complete(args.degree_bound)
    fmt = loaded.system.alphabet.format
    if not args.json:
        print(f"rules: {len(loaded.system.rules)}")
        print(f"complete: {ok}")
        for cp, nf in witnesses[:20]:
            print(f"  unresolved tip {fmt(cp.tip)}: residue {nf}")
    report = Report(
        "check",
        {"degree_bound": args.degree_bound, **loaded.document.params},
        {"complete": ok, "witnesses": [fmt(cp.tip) for cp, _ in witnesses]},
    )
    return _emit(report, args, 0 if ok else 1)


def cmd_anick(args) -> int:
    loaded = _load(args)
    system = loaded.system.interreduce()
    complete, witnesses = system.is_complete()
    if not complete:
        tip = system.alphabet.format(witnesses[0][0].tip)
        print(
            f"error: not complete: the critical pair at tip {tip} does not resolve",
            file=sys.stderr,
        )
        return 1
    prefix = ResolutionPrefix(system)
    ok, problems = prefix.verify_complex()
    if not args.json:
        for level, ts in prefix.chains.items():
            print(f"T_{level}: {len(ts)} chains")
        alphabet = prefix.alphabet
        for level, t in prefix.generators():
            d_t = format_terms(alphabet, prefix.diff[level][t])
            print(f"d_{level}(.{alphabet.format(t)}) = {d_t}")
        print(f"complex identities hold: {ok}")
    report = Report(
        "anick",
        dict(loaded.document.params),
        {
            "complex_ok": ok,
            "problems": problems,
            "chain_counts": {str(lvl): len(ts) for lvl, ts in prefix.chains.items()},
        },
    )
    return _emit(report, args, 0 if ok else 1)


def cmd_betti(args) -> int:
    _require_nonnegative("--D", args.D)
    loaded = _load(args)
    gc = resolve(loaded.system, args.D)
    if args.minimal:
        gc = generic_minimalize(gc)
    table = gc.betti_table(args.D)
    # the complex stops at its top chain level: the top row still counts
    # the top-level chains that a differential from the level above would
    # cancel, so it is only an upper bound; unminimalized, every row above 0
    # counts raw chains, which only bound the Betti numbers
    if args.minimal:
        bounds = [max(table)]
    else:
        bounds = [level for level in sorted(table) if level >= 1]
    defects = gc.verify_exactness(range(-1, gc.top), args.D)
    if not args.json:
        print(f"betti table (minimal={args.minimal}, D={args.D}):")
        for level in sorted(table):
            bound = "  (upper bound)" if level in bounds else ""
            for degree in sorted(table[level]):
                print(f"  level {level}  degree {degree}  count {table[level][degree]}{bound}")
        print(f"exactness defects: {len(defects)}")
    report = Report(
        "betti",
        {"D": args.D, "minimal": args.minimal, **loaded.document.params},
        {"exact": not defects},
        tables={"betti": _str_keys(table), "betti_bound_levels": [str(lv) for lv in bounds]},
    )
    return _emit(report, args, 0 if not defects else 1)


def cmd_verify(args) -> int:
    results = checks.run_all()
    ok = all(r.passed for r in results if r.gating)
    if not args.json:
        for r in results:
            print(r.line())
        print("overall:", "PASS" if ok else "FAIL")
    report = Report(
        "verify",
        {},
        {r.name: r.passed for r in results},
        tables={"details": {r.name: _str_keys(r.details) for r in results}},
    )
    return _emit(report, args, 0 if ok else 1)


def cmd_conjectures(args) -> int:
    verdicts = checks.criterion_9_conjectures().details
    if not args.json:
        print("experimental conjecture scans (informational):")
        for k, v in verdicts.items():
            print(f"  {k}: {v}")
    _emit(Report("conjectures", {}, verdicts), args, 0)
    return 0  # informational: always succeeds


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="anickres",
        description=(
            "Noncommutative Groebner bases, divided-power enveloping algebras "
            "and the first steps of their minimal resolutions over prime fields"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_nf = sub.add_parser("nf", help="normal form of an expression")
    _add_presentation_args(p_nf)
    p_nf.add_argument("expression")
    p_nf.set_defaults(func=cmd_nf)

    p_check = sub.add_parser("check", help="completeness check")
    _add_presentation_args(p_check)
    p_check.add_argument("--degree-bound", type=int, default=None)
    p_check.set_defaults(func=cmd_check)

    p_anick = sub.add_parser("anick", help="chain sets and differentials")
    _add_presentation_args(p_anick)
    p_anick.set_defaults(func=cmd_anick)

    p_betti = sub.add_parser("betti", help="graded Betti table")
    _add_presentation_args(p_betti)
    p_betti.add_argument("--D", type=int, default=16, help="degree bound")
    group = p_betti.add_mutually_exclusive_group()
    group.add_argument("--minimal", dest="minimal", action="store_true", default=True)
    group.add_argument("--no-minimal", dest="minimal", action="store_false")
    p_betti.set_defaults(func=cmd_betti)

    p_verify = sub.add_parser("verify", help="run the full verification suite")
    p_verify.add_argument("--json", action="store_true")
    p_verify.set_defaults(func=cmd_verify)

    p_conj = sub.add_parser("conjectures", help="bounded experimental scans")
    p_conj.add_argument("--json", action="store_true")
    p_conj.set_defaults(func=cmd_conjectures)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CompletionCapError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

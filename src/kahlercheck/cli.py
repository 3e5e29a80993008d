"""Command line front end: reads the input, picks the group or
homomorphism, runs its battery (battery.py) and renders the deterministic
report, plain text or JSON.

Exit code 0 means the run completed (whatever the verdicts), 1 means the
input was rejected (parse error, failed verification, unrecognized shape,
a size out of bounds), 2 means an internal consistency check failed (a
bug, not bad input).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from fractions import Fraction

from . import battery, surface
from .battery import NOT_KAHLER, NOT_KAHLER_HOM
from .presentation import (_MAX_WORD_LETTERS, DEFAULT_DIM_BUDGET,
                           InternalError, ParseError, VerificationError,
                           compose, parse_file, parse_word_in,
                           serialize_presentation)

# the largest genus, and number of cone points, the surface commands take;
# the orbifold's Smith form grows about cubically in the cone points
MAX_SURFACE_SIZE = 64


class InputError(Exception):
    pass


def _jsonable(value):
    if isinstance(value, Fraction):
        return str(value) if value.denominator != 1 else value.numerator
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


# ---------------------------------------------------------------------------
# report assembly


def build_report(path, data, tests, overall, seed, parameters, extra=None):
    return _jsonable({
        "input": {"path": path, "sha256": hashlib.sha256(data).hexdigest(),
                  **(extra or {})},
        "seed": seed, "parameters": parameters,
        "tests": tests, "overall": overall})


def emit_report(report, fmt):
    """Render a report; JSON key order is fixed (input, seed, parameters,
    tests, overall) so equal reports are byte-identical."""
    if fmt == "json":
        return json.dumps(report, indent=2) + "\n"
    lines = []
    lines.append("input: %s (sha256 %s...)" % (report["input"]["path"],
                                               report["input"]["sha256"][:12]))
    for key, value in report["input"].items():
        if key not in ("path", "sha256"):
            lines.append("  %s: %s" % (key, value))
    for t in report["tests"]:
        lines.append("test %-22s %s" % (t["name"], t["verdict"]))
        lines.append("  criterion: %s" % t["criterion"])
        witness = t["witness"]
        if witness:
            lines.append("  witness: %s" % json.dumps(witness))
    lines.append("overall: %s" % report["overall"])
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# commands


def _read(path):
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as e:
        raise InputError("cannot read %s: %s" % (path, e))


def _parse(data, path):
    try:
        return parse_file(data.decode("utf-8"))
    except ParseError as e:
        raise InputError("%s: %s" % (path, e))
    except UnicodeDecodeError as e:
        raise InputError("%s is not UTF-8: %s" % (path, e))


def _pick_group(parsed, name, path):
    if name is not None:
        if name not in parsed.groups:
            raise InputError("no group named %r in %s" % (name, path))
        return parsed.groups[name]
    if len(parsed.groups) != 1:
        raise InputError("%s defines %d groups; pick one with --group"
                         % (path, len(parsed.groups)))
    return next(iter(parsed.groups.values()))


def _report(args, data, tests, fire_verdict, extra):
    report = build_report(
        args.file, data, tests, battery.overall(tests, fire_verdict),
        args.seed, {"max_degree": args.max_degree,
                    "dim_budget": args.dim_budget, "format": args.format},
        extra=extra)
    sys.stdout.write(emit_report(report, args.format))
    return 0


def cmd_analyze(args):
    data = _read(args.file)
    block = _pick_group(_parse(data, args.file), args.group, args.file)
    tests = battery.analyze(block, max_degree=args.max_degree,
                            dim_budget=args.dim_budget,
                            assert_maximal=args.assert_maximal)
    return _report(args, data, tests, NOT_KAHLER,
                   {"group": block.presentation.name})


def cmd_hom(args):
    data = _read(args.file)
    homs = _parse(data, args.file).homs
    if args.compose:
        names = [n.strip() for n in args.compose.split(",")]
    elif args.select:
        names = [args.select]
    elif len(homs) == 1:
        names = list(homs)
    else:
        raise InputError("%s defines %d homs; pick one with --select or "
                         "--compose" % (args.file, len(homs)))
    for n in names:
        if n not in homs:
            raise InputError("no hom named %r in %s" % (n, args.file))
    h = homs[names[-1]]
    for n in reversed(names[:-1]):
        h = compose(homs[n], h)
    subject = "*".join(names)
    try:
        verified, tests = battery.analyze_hom(h, max_degree=args.max_degree,
                                              dim_budget=args.dim_budget)
    except VerificationError as e:
        raise InputError("verification failed for %s: %s" % (subject, e))
    return _report(args, data, tests, NOT_KAHLER_HOM,
                   {"hom": subject, "verification": verified.level,
                    "nilpotency_class": verified.nilpotency_class})


def cmd_ext(args):
    if args.scan_n is not None and not 1 <= args.scan_n <= battery.MAX_SCAN_N:
        raise InputError("--scan-n must be in 1..%d" % battery.MAX_SCAN_N)
    data = _read(args.file)
    block = _pick_group(_parse(data, args.file), args.group, args.file)
    central = ([c.strip() for c in args.central.split(",")] if args.central
               else list(block.central_names))
    if not central:
        raise InputError("no central generators: give --central or a "
                         "'central:' clause in the file")
    for name in central:
        if name not in block.presentation.generator_names:
            raise InputError("no generator named %r" % name)
    tests = battery.analyze_extension(
        block.presentation, central, scan_n=args.scan_n,
        assert_maximal=args.assert_maximal, dim_budget=args.dim_budget)
    return _report(args, data, tests, NOT_KAHLER,
                   {"group": block.presentation.name})


def _at_most(value, what, cap):
    if value > cap:
        raise InputError("%s must be at most %d" % (what, cap))


def cmd_surface(args):
    _at_most(args.g, "genus", MAX_SURFACE_SIZE)
    if args.surface_command == "orbifold":
        orders = [int(x) for x in args.orders.split(",")] if args.orders else []
        _at_most(len(orders), "number of cone points", MAX_SURFACE_SIZE)
        # the cone relators q^m together stay within one word's letter cap
        _at_most(sum(orders), "sum of cone orders", _MAX_WORD_LETTERS)
        orb = surface.orbifold_group(args.g, orders)
        sys.stdout.write(serialize_presentation(orb.presentation))
        rep = surface.orbifold_kernel_h1_check(orb)
        sys.stdout.write("# H1 = %s; kernel of H1 -> H1(surface) = %s; "
                         "free rank %d\n"
                         % (rep.h1_total, rep.h1_kernel, rep.free_rank))
        return 0
    sg = surface.surface_group(args.g)
    if args.surface_command == "gamma":
        sys.stdout.write(serialize_presentation(sg.presentation))
    else:
        w = parse_word_in(sg.presentation, args.word)
        trivial = surface.dehn_trivial(args.g, w)
        sys.stdout.write("trivial\n" if trivial else "nontrivial\n")
    return 0


def _add_common(sub):
    sub.add_argument("--max-degree", type=int, default=3,
                     help="degree bound for Malcev computations (default 3)")
    sub.add_argument("--dim-budget", type=int, default=DEFAULT_DIM_BUDGET,
                     help="basis-size budget for truncated algebras")
    sub.add_argument("--format", choices=("text", "json"), default="text")
    sub.add_argument("--seed", type=int, default=0,
                     help="seed recorded in the report (runs are "
                          "deterministic)")


def make_parser():
    parser = argparse.ArgumentParser(
        prog="kahlercheck",
        description="Obstruction tests for Kahler groups on finite "
                    "presentations")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("analyze", help="run the group obstruction battery")
    p.add_argument("file")
    p.add_argument("--group", help="group name when the file defines several")
    p.add_argument("--assert-maximal", action="store_true",
                   help="assert maximality of the surface-base projection")
    _add_common(p)
    p.set_defaults(func=cmd_analyze)

    p = subs.add_parser("hom", help="run the homomorphism battery")
    p.add_argument("file")
    p.add_argument("--select", help="hom name when the file defines several")
    p.add_argument("--compose",
                   help="comma list of hom names, outermost first "
                        "(q,p analyzes q after p)")
    _add_common(p)
    p.set_defaults(func=cmd_hom)

    p = subs.add_parser("ext", help="analyze a designated central extension")
    p.add_argument("file")
    p.add_argument("--group")
    p.add_argument("--central", help="comma list of central generator names")
    p.add_argument("--scan-n", type=int, default=None,
                   help="scan sections of the multiplication-by-n pushouts "
                        "for n = 1..N, N in 1..%d" % battery.MAX_SCAN_N)
    p.add_argument("--assert-maximal", action="store_true")
    _add_common(p)
    p.set_defaults(func=cmd_ext)

    p = subs.add_parser("surface", help="surface group utilities")
    ssubs = p.add_subparsers(dest="surface_command", required=True)
    sp = ssubs.add_parser("gamma", help="emit a surface group presentation")
    sp.add_argument("g", type=int)
    sp = ssubs.add_parser("orbifold",
                          help="emit an orbifold presentation and its H1 data")
    sp.add_argument("g", type=int)
    sp.add_argument("orders", help="comma list of cone orders, e.g. 3,3")
    sp = ssubs.add_parser("wordtest",
                          help="decide a word in the genus-g surface group")
    sp.add_argument("g", type=int)
    sp.add_argument("word")
    p.set_defaults(func=cmd_surface)
    return parser


def main(argv=None):
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InputError, ValueError) as e:
        # ValueError covers ParseError, VerificationError, ExtensionShapeError
        sys.stderr.write("error: %s\n" % e)
        return 1
    except InternalError as e:
        sys.stderr.write("internal error: %s\n" % e)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Command line front end.

Reads presentation and homomorphism files, runs the obstruction battery,
and emits a deterministic report (plain text or JSON).  No test can ever
certify that a group IS Kahler; verdicts are one-directional:

  not_kahler / not_kahler_hom   an obstruction fired, with a witness
  consistent                    the test ran and found nothing
  inconclusive                  the test did not apply or hit its budget
  caveat                        it would fire, but a hypothesis it needs
                                was only partially verified

Exit code 0 means the run completed (whatever the verdicts), 1 means the
input was rejected (parse error, failed verification, unrecognized shape).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from fractions import Fraction

from . import extensions, homology, lieranks, surface
from .intlinalg import smith_normal_form
from .lieranks import BudgetExceededError, DEFAULT_DIM_BUDGET
from .presentation import (EXACT, IN_ABELIANIZATION, IN_NILPOTENT, ParseError,
                           VerificationError, compose, parse_file,
                           parse_word_in, serialize_presentation,
                           surface_genus, verify_hom, word_str)

NOT_KAHLER = "not_kahler"
NOT_KAHLER_HOM = "not_kahler_hom"
CONSISTENT = "consistent"
INCONCLUSIVE = "inconclusive"
CAVEAT = "caveat"


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


def _test_record(name, criterion, verdict, witness):
    return {"name": name, "criterion": criterion, "verdict": verdict,
            "witness": _jsonable(witness)}


def _over_budget(e):
    return {"reason": "budget exceeded", "required": e.required,
            "budget": e.budget}


def _overall(tests, fire_verdict):
    if any(t["verdict"] == fire_verdict for t in tests):
        return fire_verdict
    if any(t["verdict"] == CONSISTENT for t in tests):
        return CONSISTENT
    return INCONCLUSIVE


# ---------------------------------------------------------------------------
# presentation battery


def analyze(block, max_degree=3, dim_budget=DEFAULT_DIM_BUDGET,
            assert_maximal=False):
    """Run the group obstruction battery on a parsed group block."""
    p = block.presentation
    tests = []

    ab = homology.h1(p)
    verdict = NOT_KAHLER if ab.rank % 2 else CONSISTENT
    tests.append(_test_record(
        "h1_parity",
        "the first Betti number of a Kahler group is even",
        verdict,
        {"b1": ab.rank, "torsion": list(ab.torsion)}))

    if max_degree < 3:
        tests.append(_test_record(
            "formality", _FORMALITY_CRITERION, INCONCLUSIVE,
            {"reason": "needs --max-degree >= 3"}))
    else:
        try:
            rep = lieranks.formality_test(p, max_degree, dim_budget)
            verdict = NOT_KAHLER if rep.obstructed else CONSISTENT
            tests.append(_test_record(
                "formality", _FORMALITY_CRITERION, verdict,
                {"witness_degree": rep.witness_degree,
                 "lcs_ranks": list(rep.lcs.ranks),
                 "holonomy_ranks": list(rep.holonomy.ranks)}))
        except BudgetExceededError as e:
            tests.append(_test_record(
                "formality", _FORMALITY_CRITERION, INCONCLUSIVE,
                _over_budget(e)))

    try:
        rep = extensions.abelianization_obstruction(p, dim_budget)
        if not rep.applicable:
            verdict, witness = INCONCLUSIVE, {"reason": rep.reason}
        elif rep.obstructed:
            verdict = NOT_KAHLER
            witness = {"reason": rep.reason,
                       "class_vectors":
                           [list(v) for v in rep.pushforward.extension.lift_vectors],
                       "verdict": rep.pushforward.ext_class.verdict}
        else:
            verdict = CONSISTENT
            witness = {"reason": rep.reason,
                       "class_verdict": rep.pushforward.ext_class.verdict,
                       "note": rep.pushforward.note}
        tests.append(_test_record(
            "abelianization_class", _ABELIANIZATION_CRITERION, verdict, witness))
    except BudgetExceededError as e:
        tests.append(_test_record(
            "abelianization_class", _ABELIANIZATION_CRITERION, INCONCLUSIVE,
            _over_budget(e)))

    if block.central_names:
        try:
            E = extensions.recognize_extension(p, list(block.central_names),
                                               dim_budget=dim_budget)
            cls = extensions.class_and_torsion(E)
            tests.append(_extension_record(E, cls, assert_maximal))
        except BudgetExceededError as e:
            tests.append(_test_record(
                "central_extension", _EXTENSION_CRITERION, INCONCLUSIVE,
                _over_budget(e)))

    return tests


_FORMALITY_CRITERION = ("the Malcev Lie algebra of a Kahler group has a "
                        "quadratic presentation")
_ABELIANIZATION_CRITERION = (
    "for a Kahler group with b1 = 2, or b1 = 4 and injective cup product, "
    "the splitting obstruction of the abelianization is torsion")
_EXTENSION_CRITERION = (
    "a maximal surjection of a Kahler group onto a surface group of genus "
    ">= 2 has torsion splitting obstruction")
_EXTENSION_CLASS_CRITERION = ("splitting obstruction of the designated "
                              "central extension")
_PARITY_HOM_CRITERION = ("image, kernel and cokernel of the H1 map induced "
                         "by a Kahler homomorphism have even rank")
_STRICTNESS_CRITERION = ("a Kahler homomorphism strictly preserves the "
                         "lower central series of Malcev Lie algebras")
_DERIVED_CRITERION = ("a Kahler homomorphism into the derived subgroup "
                      "induces the zero map on Malcev Lie algebras")


def _extension_record(E, cls, assert_maximal):
    """The surface-base obstruction for a recognized extension E with
    splitting class cls."""
    genus = surface_genus(E.base)
    witness = {
        "central": list(E.central_names),
        "class_vectors": [list(v) for v in cls.vectors],
        "class_verdict": cls.verdict,
        "order": cls.order,
        "base_exponent_matrix": E.base_exponent_matrix.to_rows(),
        "kernel_hypothesis_verified": E.kernel_hypothesis_verified,
        "certificate": cls.certificate,
    }
    if genus is not None and genus >= 2 and cls.verdict == "non_torsion":
        b1 = homology.h1(E.total).rank
        if assert_maximal:
            maximality = "asserted"
        elif b1 == 2 * genus:
            maximality = "automatic (b1 = 2g caps the genus)"
        else:
            maximality = None
        witness["base_surface_genus"] = genus
        witness["maximality"] = maximality
        if maximality is None:
            verdict = INCONCLUSIVE
            witness["reason"] = ("non-torsion class over a surface base, but "
                                 "maximality is not established; pass "
                                 "--assert-maximal if it holds")
        else:
            verdict = CAVEAT if cls.kernel_caveat else NOT_KAHLER
    elif cls.verdict == "non_torsion":
        verdict = INCONCLUSIVE
        witness["reason"] = ("non-torsion class, but the base is not a "
                             "surface presentation of genus >= 2")
    else:
        verdict = CONSISTENT
    return _test_record("central_extension", _EXTENSION_CRITERION, verdict,
                        witness)


# ---------------------------------------------------------------------------
# homomorphism battery


def analyze_hom(h, max_degree=3, dim_budget=DEFAULT_DIM_BUDGET):
    """Verify a homomorphism as strongly as possible, then run the
    homomorphism obstruction battery."""
    verified = None
    try:
        verified = verify_hom(h, EXACT)
    except VerificationError as e:
        if e.relator_index is not None:
            raise
    if verified is None:
        try:
            verified = verify_hom(h, IN_NILPOTENT, max(max_degree, 2))
        except BudgetExceededError:
            verified = verify_hom(h, IN_ABELIANIZATION)

    tests = []
    rep = homology.h1_parity_check(verified)
    verdict = NOT_KAHLER_HOM if rep.obstructed else CONSISTENT
    tests.append(_test_record(
        "h1_parity", _PARITY_HOM_CRITERION, verdict,
        {"rank_image": rep.rank_image, "rank_kernel": rep.rank_kernel,
         "rank_cokernel": rep.rank_cokernel,
         "odd": list(rep.odd_parts)}))

    if verified.at_least(IN_NILPOTENT, max_degree):
        try:
            srep = lieranks.strictness_check(verified, max_degree, dim_budget)
            verdict = NOT_KAHLER_HOM if srep.obstructed else CONSISTENT
            tests.append(_test_record(
                "lcs_strictness", _STRICTNESS_CRITERION, verdict,
                {"strict_at": {str(n): v for n, v in sorted(srep.strict_at.items())},
                 "failures": list(srep.failures)}))
        except BudgetExceededError as e:
            tests.append(_test_record(
                "lcs_strictness", _STRICTNESS_CRITERION, INCONCLUSIVE,
                {"reason": "budget exceeded", "required": e.required}))
        try:
            drep = lieranks.derived_image_check(verified, max_degree, dim_budget)
            verdict = NOT_KAHLER_HOM if drep.obstructed else CONSISTENT
            tests.append(_test_record(
                "derived_image", _DERIVED_CRITERION, verdict,
                {"image_in_derived_subgroup": drep.image_in_derived_subgroup,
                 "map_nonzero": drep.map_nonzero,
                 "witness_degree": drep.witness_degree}))
        except BudgetExceededError as e:
            tests.append(_test_record(
                "derived_image", _DERIVED_CRITERION, INCONCLUSIVE,
                {"reason": "budget exceeded", "required": e.required}))
    else:
        note = {"reason": "verification level %s is too weak" % verified.level}
        tests.append(_test_record("lcs_strictness", _STRICTNESS_CRITERION,
                                  INCONCLUSIVE, note))
        tests.append(_test_record("derived_image", _DERIVED_CRITERION,
                                  INCONCLUSIVE, note))
    return verified, tests


# ---------------------------------------------------------------------------
# report assembly


def build_report(path, data, tests, overall, seed, parameters, extra=None):
    report = {
        "input": {
            "path": path,
            "sha256": hashlib.sha256(data).hexdigest(),
        },
        "seed": seed,
        "parameters": parameters,
        "tests": tests,
        "overall": overall,
    }
    if extra:
        report["input"].update(_jsonable(extra))
    return report


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


def cmd_analyze(args):
    data = _read(args.file)
    parsed = _parse(data, args.file)
    block = _pick_group(parsed, args.group, args.file)
    try:
        tests = analyze(block, max_degree=args.max_degree,
                        dim_budget=args.dim_budget,
                        assert_maximal=args.assert_maximal)
    except (VerificationError, extensions.ExtensionShapeError, ValueError) as e:
        raise InputError(str(e))
    report = build_report(
        args.file, data, tests, _overall(tests, NOT_KAHLER), args.seed,
        _parameters(args), extra={"group": block.presentation.name})
    sys.stdout.write(emit_report(report, args.format))
    return 0


def cmd_hom(args):
    data = _read(args.file)
    parsed = _parse(data, args.file)
    if args.compose:
        names = [n.strip() for n in args.compose.split(",")]
        for n in names:
            if n not in parsed.homs:
                raise InputError("no hom named %r in %s" % (n, args.file))
        h = parsed.homs[names[-1]]
        for n in reversed(names[:-1]):
            try:
                h = compose(parsed.homs[n], h)
            except ValueError as e:
                raise InputError(str(e))
        subject = "*".join(names)
    elif args.select:
        if args.select not in parsed.homs:
            raise InputError("no hom named %r in %s" % (args.select, args.file))
        h = parsed.homs[args.select]
        subject = args.select
    else:
        if len(parsed.homs) != 1:
            raise InputError("%s defines %d homs; pick one with --select or "
                             "--compose" % (args.file, len(parsed.homs)))
        subject = next(iter(parsed.homs))
        h = parsed.homs[subject]
    try:
        verified, tests = analyze_hom(h, max_degree=args.max_degree,
                                      dim_budget=args.dim_budget)
    except VerificationError as e:
        raise InputError("verification failed for %s: %s" % (subject, e))
    extra = {"hom": subject,
             "verification": verified.level,
             "nilpotency_class": verified.nilpotency_class}
    report = build_report(args.file, data, tests,
                          _overall(tests, NOT_KAHLER_HOM), args.seed,
                          _parameters(args), extra=extra)
    sys.stdout.write(emit_report(report, args.format))
    return 0


def cmd_ext(args):
    data = _read(args.file)
    parsed = _parse(data, args.file)
    block = _pick_group(parsed, args.group, args.file)
    central = ([c.strip() for c in args.central.split(",")] if args.central
               else list(block.central_names))
    if not central:
        raise InputError("no central generators: give --central or a "
                         "'central:' clause in the file")
    try:
        E = extensions.recognize_extension(block.presentation, central,
                                           dim_budget=args.dim_budget)
        cls = extensions.class_and_torsion(E)
    except BudgetExceededError as e:
        witness = _over_budget(e)
        tests = [_test_record("extension_class", _EXTENSION_CLASS_CRITERION,
                              INCONCLUSIVE, witness),
                 _test_record("central_extension", _EXTENSION_CRITERION,
                              INCONCLUSIVE, witness)]
    except (extensions.ExtensionShapeError, KeyError, ValueError) as e:
        raise InputError(str(e))
    else:
        tests = [_extension_class_record(E, cls, args.scan_n),
                 _extension_record(E, cls, args.assert_maximal)]
    report = build_report(args.file, data, tests, _overall(tests, NOT_KAHLER),
                          args.seed, _parameters(args),
                          extra={"group": block.presentation.name})
    sys.stdout.write(emit_report(report, args.format))
    return 0


def _extension_class_record(E, cls, scan_n):
    """The designated extension's class, with a scan of pushout sections
    for n = 1..scan_n (default: the base's torsion order, capped at 64)."""
    scan_limit = scan_n
    if scan_limit is None:
        snf = smith_normal_form(E.base_exponent_matrix)
        prod = 1
        for d in snf.diagonal:
            if d > 1:
                prod *= d
        scan_limit = max(1, min(prod, 64))
    scan = {}
    for n in range(1, scan_limit + 1):
        witness = extensions.section_search(E, n)
        scan[str(n)] = None if witness is None else [list(w) for w in witness]
    witness = {
        "central": list(E.central_names),
        "base": E.base.generator_names,
        "base_relators": [word_str(E.base, r) for r in E.base.relators],
        "class_vectors": [list(v) for v in cls.vectors],
        "class_verdict": cls.verdict,
        "order": cls.order,
        "kernel_hypothesis_verified": E.kernel_hypothesis_verified,
        "certificate": cls.certificate,
        "section_scan": scan,
    }
    verdict = CONSISTENT if cls.is_torsion() else INCONCLUSIVE
    return _test_record("extension_class", _EXTENSION_CLASS_CRITERION,
                        verdict, witness)


def cmd_surface(args):
    if args.surface_command == "gamma":
        sg = surface.surface_group(args.g)
        sys.stdout.write(serialize_presentation(sg.presentation))
        return 0
    if args.surface_command == "orbifold":
        orders = [int(x) for x in args.orders.split(",")] if args.orders else []
        orb = surface.orbifold_group(args.g, orders)
        sys.stdout.write(serialize_presentation(orb.presentation))
        rep = surface.orbifold_kernel_h1_check(orb)
        sys.stdout.write("# H1 = %s; kernel of H1 -> H1(surface) = %s; "
                         "free rank %d\n"
                         % (rep.h1_total, rep.h1_kernel, rep.free_rank))
        return 0
    if args.surface_command == "wordtest":
        sg = surface.surface_group(args.g)
        try:
            w = parse_word_in(sg.presentation, args.word)
        except ParseError as e:
            raise InputError(str(e))
        trivial = surface.dehn_trivial(args.g, w)
        sys.stdout.write("trivial\n" if trivial else "nontrivial\n")
        return 0
    raise InputError("unknown surface subcommand")


def _parameters(args):
    return {"max_degree": args.max_degree, "dim_budget": args.dim_budget,
            "format": args.format}


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
                        "for n = 1..N")
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
    for sp_ in ssubs.choices.values():
        sp_.set_defaults(max_degree=3, dim_budget=DEFAULT_DIM_BUDGET,
                         format="text", seed=0)
    p.set_defaults(func=cmd_surface)
    return parser


def main(argv=None):
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as e:
        sys.stderr.write("error: %s\n" % e)
        return 1
    except (ParseError, VerificationError) as e:
        sys.stderr.write("error: %s\n" % e)
        return 1
    except ValueError as e:
        sys.stderr.write("error: %s\n" % e)
        return 1


if __name__ == "__main__":
    sys.exit(main())

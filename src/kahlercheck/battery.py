"""The obstruction batteries: every verdict kahlercheck reports.

Verdicts are one-directional; nothing here can certify that a group IS
Kahler:

  not_kahler / not_kahler_hom   an obstruction fired, with a witness
  consistent                    the test ran and found nothing
  inconclusive                  the test did not apply or hit its budget
  caveat                        it would fire, but a hypothesis it needs
                                was only partially verified

Each test gives (verdict, witness), and _run turns a budget overrun into
inconclusive.  Witnesses hold tuples and integer keys as the math modules
give them; the report turns them into JSON lists and string keys.  The math modules are called through their module
attributes, so a function replaced on its module is replaced here too.
"""

from __future__ import annotations

import math

from . import extensions, homology, lieranks, presentation, surface
from .presentation import (DEFAULT_DIM_BUDGET, EXACT, IN_ABELIANIZATION,
                           IN_NILPOTENT)

NOT_KAHLER = "not_kahler"
NOT_KAHLER_HOM = "not_kahler_hom"
CONSISTENT = "consistent"
INCONCLUSIVE = "inconclusive"

MAX_SCAN_N = 64  # the largest section scan, and the default scan's cap

# each test's name and the criterion its record states
_CRITERIA = {
    "h1_parity": "the first Betti number of a Kahler group is even",
    "formality": ("the Malcev Lie algebra of a Kahler group has a "
                  "quadratic presentation"),
    "abelianization_class": (
        "for a Kahler group with b1 = 2, or b1 = 4 and injective cup product, "
        "the splitting obstruction of the abelianization is torsion"),
    "central_extension": (
        "a maximal surjection of a Kahler group onto a surface group of genus "
        ">= 2 has torsion splitting obstruction"),
    "extension_class": ("splitting obstruction of the designated "
                        "central extension"),
    "lcs_strictness": ("a Kahler homomorphism strictly preserves the "
                       "lower central series of Malcev Lie algebras"),
    "derived_image": ("a Kahler homomorphism into the derived subgroup "
                      "induces the zero map on Malcev Lie algebras"),
}
_HOM_PARITY_CRITERION = ("image, kernel and cokernel of the H1 map induced "
                         "by a Kahler homomorphism have even rank")


def overall(tests, fire_verdict):
    """The report's verdict: fire_verdict if any test fired, else
    consistent if any test ran, else inconclusive."""
    if any(t["verdict"] == fire_verdict for t in tests):
        return fire_verdict
    if any(t["verdict"] == CONSISTENT for t in tests):
        return CONSISTENT
    return INCONCLUSIVE


def _over_budget(e):
    return {"reason": "budget exceeded", "required": e.required,
            "budget": e.budget}


def _run(test, *args):
    """test(*args), a (verdict, witness) pair, with a budget overrun
    turned into inconclusive."""
    try:
        return test(*args)
    except lieranks.BudgetExceededError as e:
        return INCONCLUSIVE, _over_budget(e)


def _record(name, result, criterion=None):
    verdict, witness = result
    return {"name": name, "criterion": criterion or _CRITERIA[name],
            "verdict": verdict, "witness": witness}


# ---------------------------------------------------------------------------
# group battery


def analyze(block, max_degree=3, dim_budget=DEFAULT_DIM_BUDGET,
            assert_maximal=False):
    """Run the group obstruction battery on a parsed group block."""
    p = block.presentation
    tests = [
        _record("h1_parity", _h1_parity(p)),
        _record("formality", _run(_formality, p, max_degree, dim_budget)),
        _record("abelianization_class",
                _run(_abelianization_class, p, dim_budget))]
    if block.central_names:
        tests.append(_record("central_extension", _run(
            _central_extension, p, list(block.central_names), dim_budget,
            assert_maximal)))
    return tests


def _h1_parity(p):
    ab = homology.h1(p)
    return (NOT_KAHLER if ab.rank % 2 else CONSISTENT,
            {"b1": ab.rank, "torsion": ab.torsion})


def _formality(p, max_degree, dim_budget):
    if max_degree < 3:
        return INCONCLUSIVE, {"reason": "needs --max-degree >= 3"}
    rep = lieranks.formality_test(p, max_degree, dim_budget)
    return (NOT_KAHLER if rep.obstructed else CONSISTENT,
            {"witness_degree": rep.witness_degree,
             "lcs_ranks": rep.lcs.ranks,
             "holonomy_ranks": rep.holonomy.ranks})


def _abelianization_class(p, dim_budget):
    rep = extensions.abelianization_obstruction(p, dim_budget)
    if not rep.applicable:
        return INCONCLUSIVE, {"reason": rep.reason}
    if rep.obstructed:
        return NOT_KAHLER, {
            "reason": rep.reason,
            "class_vectors": rep.pushforward.extension.lift_vectors,
            "verdict": rep.pushforward.ext_class.verdict}
    return CONSISTENT, {"reason": rep.reason,
                        "class_verdict": rep.pushforward.ext_class.verdict,
                        "note": rep.pushforward.note}


def _central_extension(p, central, dim_budget, assert_maximal):
    return _surface_base(*_recognize(p, central, dim_budget), assert_maximal)


def _recognize(p, central, dim_budget):
    E = extensions.recognize_extension(p, central, dim_budget=dim_budget)
    return E, extensions.class_and_torsion(E)


def _surface_base(E, cls, assert_maximal):
    """The surface-base obstruction for a recognized extension E with
    splitting class cls."""
    verdict, notes = surface.surface_base_verdict(E, cls, assert_maximal)
    return verdict, {
        "central": E.central_names,
        "class_vectors": cls.vectors,
        "class_verdict": cls.verdict,
        "order": cls.order,
        "base_exponent_matrix": E.base_exponent_matrix.to_rows(),
        "kernel_hypothesis_verified": E.kernel_hypothesis_verified,
        "certificate": cls.certificate,
        **notes,
    }


# ---------------------------------------------------------------------------
# extension battery


def analyze_extension(p, central, scan_n=None, assert_maximal=False,
                      dim_budget=DEFAULT_DIM_BUDGET):
    """The designated central extension of p: its splitting class with a
    scan of pushout sections for n = 1..scan_n (default: the base's
    torsion order, capped at MAX_SCAN_N), then the surface-base
    obstruction.  A budget overrun while recognizing the extension makes
    both inconclusive."""
    # the verdict slot stays None unless the budget runs out
    recognized = _run(lambda: (None, _recognize(p, central, dim_budget)))
    if recognized[0] == INCONCLUSIVE:
        class_result = base_result = recognized
    else:
        E, cls = recognized[1]
        class_result = _extension_class(E, cls, scan_n)
        base_result = _surface_base(E, cls, assert_maximal)
    return [_record("extension_class", class_result),
            _record("central_extension", base_result)]


def _extension_class(E, cls, scan_n):
    if scan_n is None:
        scan_n = max(1, min(math.prod(homology.h1(E.base).torsion),
                            MAX_SCAN_N))
    scan = {n: extensions.section_search(E, n) for n in range(1, scan_n + 1)}
    return CONSISTENT if cls.is_torsion() else INCONCLUSIVE, {
        "central": E.central_names,
        "base": E.base.generator_names,
        "base_relators": [presentation.word_str(E.base, r)
                          for r in E.base.relators],
        "class_vectors": cls.vectors,
        "class_verdict": cls.verdict,
        "order": cls.order,
        "kernel_hypothesis_verified": E.kernel_hypothesis_verified,
        "certificate": cls.certificate,
        "section_scan": scan,
    }


# ---------------------------------------------------------------------------
# homomorphism battery


def analyze_hom(h, max_degree=3, dim_budget=DEFAULT_DIM_BUDGET):
    """Verify a homomorphism as strongly as possible, then run the
    homomorphism obstruction battery: (verified hom, records)."""
    verified, overrun = _verify(h, max_degree, dim_budget)
    parity = _hom_parity(verified)
    if verified.at_least(IN_NILPOTENT, max_degree):
        strictness = _run(_strictness, verified, max_degree, dim_budget)
        derived = _run(_derived_image, verified, max_degree, dim_budget)
    else:
        strictness = derived = (INCONCLUSIVE, overrun or {
            "reason": "verification level %s is too weak" % verified.level})
    return verified, [
        _record("h1_parity", parity, _HOM_PARITY_CRITERION),
        _record("lcs_strictness", strictness),
        _record("derived_image", derived)]


def _verify(h, max_degree, dim_budget):
    """(h verified as strongly as the budget allows, the overrun's witness
    or None); a relator that fails its check raises VerificationError."""
    try:
        return presentation.verify_hom(h, EXACT), None
    except presentation.VerificationError as e:
        if e.relator_index is not None:
            raise
    try:
        return presentation.verify_hom(h, IN_NILPOTENT, max(max_degree, 2),
                                       dim_budget), None
    except lieranks.BudgetExceededError as e:
        return presentation.verify_hom(h, IN_ABELIANIZATION), _over_budget(e)


def _hom_parity(verified):
    rep = homology.h1_parity_check(verified)
    return (NOT_KAHLER_HOM if rep.obstructed else CONSISTENT,
            {"rank_image": rep.rank_image, "rank_kernel": rep.rank_kernel,
             "rank_cokernel": rep.rank_cokernel, "odd": rep.odd_parts})


def _strictness(verified, max_degree, dim_budget):
    rep = lieranks.strictness_check(verified, max_degree, dim_budget)
    return (NOT_KAHLER_HOM if rep.obstructed else CONSISTENT,
            {"strict_at": dict(sorted(rep.strict_at.items())),
             "failures": rep.failures})


def _derived_image(verified, max_degree, dim_budget):
    rep = lieranks.derived_image_check(verified, max_degree, dim_budget)
    return (NOT_KAHLER_HOM if rep.obstructed else CONSISTENT,
            {"image_in_derived_subgroup": rep.image_in_derived_subgroup,
             "map_nonzero": rep.map_nonzero,
             "witness_degree": rep.witness_degree})

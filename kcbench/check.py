"""Compare one kahlercheck run with the oracle's answers for its input."""

import json

FIRED = ("not_kahler", "not_kahler_hom")


def check(expect, rc, out):
    """Return (errors, decided): errors lists every contradiction with the
    independent answer; decided tells whether every obstruction a complete
    checker fires on this input did fire (None when none is expected)."""
    fire = expect.get("fire", ())
    if rc != 0:
        return ["exit code %r" % rc], (False if fire else None)
    if expect["kind"] == "wordtest":
        want = "trivial" if expect["trivial"] else "nontrivial"
        got = out.strip()
        return ([] if got == want else ["word is %s, expected %s"
                                        % (got, want)]), None
    try:
        report = json.loads(out)
        tests = {t["name"]: t for t in report["tests"]}
    except (ValueError, KeyError, TypeError) as e:
        return ["unreadable report: %s" % e], (False if fire else None)
    errors = []
    if expect.get("kahler"):
        fired = [n for n, t in tests.items() if t["verdict"] in FIRED]
        if fired or report["overall"] in FIRED:
            errors.append("Kahler input certified not Kahler by %s" % fired)
    if expect["kind"] == "analyze":
        errors += _check_analyze(expect, tests)
    elif expect["kind"] == "ext":
        errors += _check_ext(expect, tests)
    else:
        errors += _check_hom(expect, report, tests)
    decided = None
    if fire:
        decided = all(n in tests and tests[n]["verdict"] in FIRED
                      for n in fire)
    return errors, decided


def _prefix_mismatch(got, want):
    m = min(len(got), len(want))
    return list(got[:m]) != list(want[:m])


def _check_analyze(expect, tests):
    errors = []
    h1 = tests["h1_parity"]
    b1 = expect["b1"]
    if h1["witness"]["b1"] != b1:
        errors.append("b1 %r, expected %d" % (h1["witness"]["b1"], b1))
    if h1["verdict"] != ("not_kahler" if b1 % 2 else "consistent"):
        errors.append("parity verdict %s with b1 = %d" % (h1["verdict"], b1))
    form = tests["formality"]
    if form["verdict"] != "inconclusive":
        lcs = form["witness"]["lcs_ranks"]
        hol = form["witness"]["holonomy_ranks"]
        if expect["lcs"] is not None and _prefix_mismatch(lcs, expect["lcs"]):
            errors.append("LCS ranks %s, expected %s" % (lcs, expect["lcs"]))
        if expect["hol"] is not None and _prefix_mismatch(hol, expect["hol"]):
            errors.append("holonomy ranks %s, expected %s"
                          % (hol, expect["hol"]))
        if any(a > b for a, b in zip(lcs, hol)):
            errors.append("LCS ranks %s exceed holonomy ranks %s" % (lcs, hol))
        mismatch = any(a != b for a, b in zip(lcs[2:], hol[2:]))
        if (form["verdict"] == "not_kahler") != mismatch:
            errors.append("formality verdict %s for ranks %s vs %s"
                          % (form["verdict"], lcs, hol))
    if expect.get("ext_class") and "central_extension" in tests:
        got = tests["central_extension"]["witness"]["class_verdict"]
        if got != expect["ext_class"]:
            errors.append("extension class %s, expected %s"
                          % (got, expect["ext_class"]))
    return errors


def _check_ext(expect, tests):
    errors = []
    w = tests["extension_class"]["witness"]
    if expect["ext_class"] and w["class_verdict"] != expect["ext_class"]:
        errors.append("extension class %s, expected %s"
                      % (w["class_verdict"], expect["ext_class"]))
    if expect["ext_class"] == "torsion" and w["order"] != expect["order"]:
        errors.append("class order %r, expected %d" % (w["order"],
                                                       expect["order"]))
    if expect["scan"] is not None:
        got = {int(n): s is not None for n, s in w["section_scan"].items()}
        if got != expect["scan"]:
            errors.append("section scan %s, expected %s"
                          % (got, expect["scan"]))
    return errors


def _check_hom(expect, report, tests):
    errors = []
    level = report["input"]["verification"]
    if expect["level"] and level != expect["level"]:
        errors.append("verification %s, expected %s" % (level,
                                                        expect["level"]))
    w = tests["h1_parity"]["witness"]
    got = (w["rank_image"], w["rank_kernel"], w["rank_cokernel"])
    if got != tuple(expect["parity"]):
        errors.append("H1 ranks %s, expected %s" % (got, expect["parity"]))
    odd = any(r % 2 for r in expect["parity"])
    if (tests["h1_parity"]["verdict"] == "not_kahler_hom") != odd:
        errors.append("parity verdict %s for ranks %s"
                      % (tests["h1_parity"]["verdict"], expect["parity"]))
    return errors

import json
import os
import time

import pytest

from kahlercheck.battery import (CONSISTENT, INCONCLUSIVE, NOT_KAHLER,
                                 NOT_KAHLER_HOM, overall)
from kahlercheck.cli import emit_report, main
from kahlercheck.intlinalg import IntMatrix
from kahlercheck.presentation import parse_file

HERE = os.path.dirname(os.path.abspath(__file__))
INPUTS = os.path.join(HERE, os.pardir, "inputs")


def input_path(name):
    return os.path.join(INPUTS, name)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    assert code == 0, err
    return json.loads(out)


def golden_cases():
    grp = sorted(f for f in os.listdir(INPUTS) if f.endswith(".grp"))
    cases = [("analyze_" + f[:-4], ["analyze", f]) for f in grp]
    for f in grp:
        with open(input_path(f)) as fh:
            if "central:" in fh.read():
                cases.append(("ext_" + f[:-4], ["ext", f]))
    hom = ["hom", "example_2_4.hom"]
    cases += [("hom_example_2_4_p", hom + ["--select", "p"]),
              ("hom_example_2_4_q", hom + ["--select", "q"]),
              ("hom_example_2_4_q_p", hom + ["--compose", "q,p"]),
              ("hom_derived_image", ["hom", "derived_image.hom"])]
    return cases


@pytest.mark.parametrize("name,argv", golden_cases(),
                         ids=[name for name, _ in golden_cases()])
def test_reports_match_golden(name, argv, monkeypatch, capsys):
    """JSON reports on inputs/ are byte-identical to tests/golden/NAME.json.

    Run from inputs/, so the report records the basename.  A golden file
    changes only with a deliberate change of a report:
    cd inputs && kahlercheck ARGV --format json > ../tests/golden/NAME.json
    """
    monkeypatch.chdir(INPUTS)
    code, out, err = run(capsys, *argv, "--format", "json")
    assert code == 0, err
    with open(os.path.join(HERE, "golden", name + ".json")) as fh:
        assert out == fh.read()


def test_analyze_intro(capsys):
    report = run_json(capsys, "analyze", input_path("intro_g2.grp"))
    assert report["overall"] == NOT_KAHLER
    by_name = {t["name"]: t for t in report["tests"]}
    ext = by_name["central_extension"]
    assert ext["verdict"] == NOT_KAHLER
    assert ext["witness"]["class_vectors"] == [[1]]
    assert ext["witness"]["base_exponent_matrix"] == [[0, 0, 0, 0]]
    assert by_name["h1_parity"]["verdict"] == CONSISTENT
    assert by_name["h1_parity"]["witness"]["b1"] == 4


def test_analyze_heisenberg(capsys):
    report = run_json(capsys, "analyze", input_path("heisenberg.grp"))
    by_name = {t["name"]: t for t in report["tests"]}
    assert by_name["formality"]["verdict"] == NOT_KAHLER
    assert by_name["formality"]["witness"]["witness_degree"] == 3
    assert by_name["abelianization_class"]["verdict"] == NOT_KAHLER
    assert report["overall"] == NOT_KAHLER


def test_analyze_kahler_guards(capsys):
    for name in ("gamma2.grp", "z4.grp", "heisenberg_rank5.grp"):
        report = run_json(capsys, "analyze", input_path(name))
        assert report["overall"] != NOT_KAHLER, name
        for t in report["tests"]:
            assert t["verdict"] != NOT_KAHLER, (name, t["name"])


def test_hom_composition(capsys):
    report = run_json(capsys, "hom", input_path("example_2_4.hom"),
                      "--compose", "q,p")
    assert report["overall"] == NOT_KAHLER_HOM
    parity = report["tests"][0]
    assert parity["witness"]["rank_image"] == 1
    for select in ("p", "q"):
        rep = run_json(capsys, "hom", input_path("example_2_4.hom"),
                       "--select", select)
        assert rep["overall"] == CONSISTENT


def test_hom_requires_selection(capsys):
    code, out, err = run(capsys, "hom", input_path("example_2_4.hom"))
    assert code == 1
    assert "--select" in err


def test_ext_scan(capsys):
    report = run_json(capsys, "ext", input_path("torsion_order2.grp"))
    t = report["tests"][0]
    assert t["witness"]["class_verdict"] == "torsion"
    assert t["witness"]["order"] == 2
    scan = t["witness"]["section_scan"]
    assert scan["1"] is None and scan["2"] is not None


def test_ext_needs_central(capsys):
    code, out, err = run(capsys, "ext", input_path("gamma2.grp"))
    assert code == 1
    assert "central" in err


def test_surface_commands(capsys):
    code, out, err = run(capsys, "surface", "gamma", "2")
    assert code == 0 and "gens: a1, a2, a3, a4;" in out
    code, out, err = run(capsys, "surface", "orbifold", "2", "3,3")
    assert code == 0 and "Z/3" in out
    code, out, err = run(capsys, "surface", "wordtest", "2",
                         "[a1,a3][a2,a4]")
    assert code == 0 and out.strip() == "trivial"
    code, out, err = run(capsys, "surface", "wordtest", "2", "a1 a2")
    assert code == 0 and out.strip() == "nontrivial"


def test_internal_error_exit_code(monkeypatch, capsys):
    from kahlercheck import lieranks
    from kahlercheck.presentation import InternalError

    def broken(p, degree, dim_budget):
        raise InternalError("internal inconsistency: test")
    monkeypatch.setattr(lieranks, "formality_test", broken)
    code, out, err = run(capsys, "analyze", input_path("gamma2.grp"))
    assert code == 2 and out == ""
    assert err == "internal error: internal inconsistency: test\n"

    # the real consistency check raises it when degree 1-2 ranks disagree
    monkeypatch.undo()
    monkeypatch.setattr(lieranks, "holonomy_ranks",
                        lambda p, degree, dim_budget: lieranks.GradedRanks(
                            (0,) * degree))
    code, out, err = run(capsys, "analyze", input_path("gamma2.grp"))
    assert code == 2
    assert err.startswith("internal error: internal inconsistency: degree 1-2")


def test_json_reports_deterministic(capsys):
    a = run(capsys, "analyze", input_path("intro_g2.grp"),
            "--format", "json", "--seed", "0")[1]
    b = run(capsys, "analyze", input_path("intro_g2.grp"),
            "--format", "json", "--seed", "0")[1]
    assert a == b


def test_json_round_trips(capsys):
    report = run_json(capsys, "analyze", input_path("heisenberg.grp"))
    assert json.loads(emit_report(report, "json")) == report
    keys = list(report.keys())
    assert keys == ["input", "seed", "parameters", "tests", "overall"]


def test_overall_rules():
    assert overall([], NOT_KAHLER) == INCONCLUSIVE
    fired = [{"verdict": NOT_KAHLER}, {"verdict": CONSISTENT}]
    assert overall(fired, NOT_KAHLER) == NOT_KAHLER
    calm = [{"verdict": CONSISTENT}, {"verdict": INCONCLUSIVE}]
    assert overall(calm, NOT_KAHLER) == CONSISTENT


def test_fired_witnesses_revalidate(capsys):
    # an odd-b1 input fires the parity test; the witness re-validates
    import kahlercheck as kc
    report = run_json(capsys, "analyze", input_path("intro_g2.grp"))
    by_name = {t["name"]: t for t in report["tests"]}
    with open(input_path("intro_g2.grp")) as fh:
        parsed = kc.parse_file(fh.read())
    block = next(iter(parsed.groups.values()))
    ext_witness = by_name["central_extension"]["witness"]
    E = kc.recognize_extension(block.presentation, ext_witness["central"])
    cls = kc.class_and_torsion(E)
    assert [list(v) for v in cls.vectors] == ext_witness["class_vectors"]
    assert cls.verdict == ext_witness["class_verdict"]
    fw = by_name["formality"]["witness"]
    rep = kc.formality_test(block.presentation, 3)
    assert rep.witness_degree == fw["witness_degree"]
    assert list(rep.lcs.ranks) == fw["lcs_ranks"]
    assert list(rep.holonomy.ranks) == fw["holonomy_ranks"]


def test_parity_fires_on_odd_b1(tmp_path, capsys):
    grp = tmp_path / "z5.grp"
    grp.write_text(
        "group z5 { gens: a,b,c,d,e; rels: [a,b],[a,c],[a,d],[a,e],"
        "[b,c],[b,d],[b,e],[c,d],[c,e],[d,e]; }")
    report = run_json(capsys, "analyze", str(grp))
    parity = report["tests"][0]
    assert parity["verdict"] == NOT_KAHLER
    assert parity["witness"]["b1"] == 5
    assert report["overall"] == NOT_KAHLER


def test_text_format(capsys):
    code, out, err = run(capsys, "analyze", input_path("gamma2.grp"))
    assert code == 0
    assert "overall:" in out and "test " in out


def test_hom_derived_image_file(capsys):
    report = run_json(capsys, "hom", input_path("derived_image.hom"))
    assert report["overall"] == NOT_KAHLER_HOM
    by_name = {t["name"]: t for t in report["tests"]}
    assert by_name["derived_image"]["verdict"] == NOT_KAHLER_HOM
    assert by_name["lcs_strictness"]["verdict"] == NOT_KAHLER_HOM
    assert by_name["lcs_strictness"]["witness"]["failures"] == [2]


def test_ext_serializes_kernel_caveat(tmp_path, capsys):
    grp = tmp_path / "caveat.grp"
    grp.write_text(
        "group g { gens: x,y,c,d; rels: [x,y]c^-1, [x,y]d^-1, "
        "[x,c],[y,c],[x,d],[y,d],[c,d]; central: c,d; }")
    report = run_json(capsys, "ext", str(grp))
    witness = report["tests"][0]["witness"]
    assert witness["kernel_hypothesis_verified"] is False


def test_budget_degrades_to_inconclusive(capsys):
    report = run_json(capsys, "analyze", input_path("gamma2.grp"),
                      "--dim-budget", "12")
    by_name = {t["name"]: t for t in report["tests"]}
    assert by_name["formality"]["verdict"] == INCONCLUSIVE
    assert by_name["formality"]["witness"]["reason"] == "budget exceeded"
    assert by_name["abelianization_class"]["verdict"] == INCONCLUSIVE
    assert report["overall"] != NOT_KAHLER


def test_ext_budget_degrades_to_inconclusive(capsys):
    # the degree-2 algebra of the Heisenberg group needs 1 + 3 + 9 = 13
    # basis monomials; both records report the overrun and the run completes
    report = run_json(capsys, "ext", input_path("heisenberg.grp"),
                      "--central", "c", "--dim-budget", "10")
    assert ([t["name"] for t in report["tests"]]
            == ["extension_class", "central_extension"])
    for t in report["tests"]:
        assert t["verdict"] == INCONCLUSIVE
        assert t["witness"] == {"reason": "budget exceeded", "required": 13,
                                "budget": 10}
    assert report["overall"] == INCONCLUSIVE


def test_hom_budget_bounds_verification(tmp_path, capsys):
    # no exact word problem here, and the class-3 algebra of a rank-4
    # group needs 1 + 4 + 16 + 64 = 85 basis monomials
    hom = tmp_path / "hz.hom"
    hom.write_text(
        "group HZ { gens: x,y,z,t; "
        "rels: [x,y]z^-1,[x,z],[y,z],[x,t],[y,t],[z,t]; }\n"
        "hom id : HZ -> HZ { x => x, y => y, z => z, t => t }\n")
    report = run_json(capsys, "hom", str(hom), "--dim-budget", "50")
    assert report["input"]["verification"] == "verified-in-abelianization"
    by_name = {t["name"]: t for t in report["tests"]}
    for name in ("lcs_strictness", "derived_image"):
        assert by_name[name]["verdict"] == INCONCLUSIVE
        assert by_name[name]["witness"] == {
            "reason": "budget exceeded", "required": 85, "budget": 50}
    report = run_json(capsys, "hom", str(hom))
    assert report["input"]["verification"] == "verified-in-nilpotent-quotient"
    assert report["input"]["nilpotency_class"] == 3


def test_low_degree_formality_inconclusive(capsys):
    report = run_json(capsys, "analyze", input_path("gamma2.grp"),
                      "--max-degree", "2")
    by_name = {t["name"]: t for t in report["tests"]}
    assert by_name["formality"]["verdict"] == INCONCLUSIVE


def test_group_selection(tmp_path, capsys):
    grp = tmp_path / "two.grp"
    grp.write_text("group a { gens: x; rels: ; }\n"
                   "group b { gens: x,y; rels: [x,y]; }\n")
    code, out, err = run(capsys, "analyze", str(grp))
    assert code == 1 and "--group" in err
    report = run_json(capsys, "analyze", str(grp), "--group", "b")
    assert report["input"]["group"] == "b"


def test_ext_central_flag_overrides(tmp_path, capsys):
    grp = tmp_path / "noclause.grp"
    grp.write_text("group g { gens: x,y,c; rels: [x,y]c^-1, [x,c], [y,c]; }")
    report = run_json(capsys, "ext", str(grp), "--central", "c")
    assert report["tests"][0]["witness"]["class_verdict"] == "non_torsion"


def test_overall_all_inconclusive():
    calm = [{"verdict": INCONCLUSIVE}, {"verdict": INCONCLUSIVE}]
    assert overall(calm, NOT_KAHLER) == INCONCLUSIVE


@pytest.mark.parametrize("value", ["0", "1000000000"])
def test_scan_n_out_of_range_exits_one(value, capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "ext", input_path("intro_g2.grp"),
                         "--scan-n", value)
    assert time.perf_counter() - start < 1.0
    assert code == 1 and out == ""
    assert err == "error: --scan-n must be in 1..64\n"


def test_scan_n_accepts_the_cap(capsys):
    report = run_json(capsys, "ext", input_path("torsion_order2.grp"),
                      "--scan-n", "64")
    scan = report["tests"][0]["witness"]["section_scan"]
    assert list(scan) == [str(n) for n in range(1, 65)]
    assert [n for n in scan if scan[n] is None] == [str(n) for n in
                                                    range(1, 65, 2)]


@pytest.mark.parametrize("files,argv,message", [
    ({"bad.grp": "group g { gens: x,y rels: ; }"}, ["analyze", "bad.grp"],
     "bad.grp: line 1"),
    ({}, ["analyze", "missing.grp"], "cannot read missing.grp"),
    ({"bad.hom": "group z3 { gens: a; rels: a^3; }\n"
                 "group z { gens: t; rels: ; }\n"
                 "hom f : z3 -> z { a => t }\n"}, ["hom", "bad.hom"],
     "relator 0"),
    ({}, ["surface", "orbifold", "1", "1"], "cone orders must be >= 2"),
    ({"g.grp": "group g { gens: x,y,c; rels: [x,y]c^-1, [x,c], [y,c]; }"},
     ["ext", "g.grp", "--central", "z"], "no generator named 'z'"),
    ({}, ["surface", "gamma", "1000000000"], "genus must be at most 64"),
    ({}, ["surface", "wordtest", "1000000000", "a1"],
     "genus must be at most 64"),
    ({}, ["surface", "orbifold", "1", "1000000000"],
     "sum of cone orders must be at most 1000000"),
    ({}, ["surface", "orbifold", "1", ",".join(["2"] * 65)],
     "number of cone points must be at most 64"),
    ({"big.grp": "group g { gens: a, b; rels: %s; }"
                 % ", ".join(["a^999999 b"] * 8)}, ["analyze", "big.grp"],
     "big.grp: line 1, column 43: word longer than 1000000 letters, "
     "counting the words before it"),
], ids=["parse_error", "missing_file", "failed_verification",
        "bad_cone_order", "unknown_central", "huge_genus", "huge_wordtest",
        "huge_cone_order", "too_many_cone_points", "file_letter_cap"])
def test_rejected_input_exits_one(files, argv, message, tmp_path, monkeypatch,
                                  capsys):
    monkeypatch.chdir(tmp_path)
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 1 and out == ""
    assert err.startswith("error: ") and message in err


def spy_smith_forms(monkeypatch):
    """Record the matrix of every Smith form the package computes."""
    import importlib

    from kahlercheck import intlinalg
    original = intlinalg.smith_normal_form
    calls = []

    def spy(A):
        calls.append(A)
        return original(A)
    for name in ("intlinalg", "presentation", "homology", "lieranks",
                 "extensions", "surface", "cli"):
        module = importlib.import_module("kahlercheck." + name)
        for attr, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, attr, spy)
    return calls


def test_ext_factors_the_base_once(monkeypatch, capsys):
    calls = spy_smith_forms(monkeypatch)
    report = run_json(capsys, "ext", input_path("torsion_order2.grp"))
    base = IntMatrix.from_rows(
        report["tests"][1]["witness"]["base_exponent_matrix"])
    assert report["tests"][0]["witness"]["order"] == 2
    assert sum(1 for A in calls if A == base) == 1


@pytest.mark.parametrize("argv", [
    ["example_2_4.hom", "--select", "p"],
    ["example_2_4.hom", "--select", "q"],
    ["example_2_4.hom", "--compose", "q,p"],
    ["derived_image.hom"],
], ids=["p", "q", "q_p", "derived_image"])
def test_hom_factors_the_target_at_most_once(argv, monkeypatch, capsys):
    with open(input_path(argv[0])) as fh:
        parsed = parse_file(fh.read())
    targets = {h.target.exponent_matrix() for h in parsed.homs.values()}
    calls = spy_smith_forms(monkeypatch)
    run_json(capsys, "hom", input_path(argv[0]), *argv[1:])
    for target in targets:
        # H1 questions about the target may factor it or its transpose
        forms = (target, target.transpose())
        assert sum(1 for A in calls if A in forms) <= 1


def test_hom_verified_in_h1_factors_the_target_once(tmp_path, monkeypatch,
                                                     capsys):
    # no exact word problem here, so every relator image and every
    # generator image is tested in the target's H1
    path = tmp_path / "torsion.hom"
    path.write_text("group s { gens: a, b; rels: a^6, b^6, [a,b]; }\n"
                    "group t { gens: x, y; rels: x^12, y^12, [x,y]; }\n"
                    "hom f : s -> t { a => x^2, b => y^2 }\n")
    target = parse_file(path.read_text()).homs["f"].target.exponent_matrix()
    calls = spy_smith_forms(monkeypatch)
    report = run_json(capsys, "hom", str(path))
    assert report["input"]["verification"] == "verified-in-nilpotent-quotient"
    derived = {t["name"]: t for t in report["tests"]}["derived_image"]
    assert derived["witness"]["image_in_derived_subgroup"] is False
    assert sum(1 for A in calls if A in (target, target.transpose())) == 1

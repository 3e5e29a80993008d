import json
import os

from kahlercheck.cli import (CONSISTENT, INCONCLUSIVE, NOT_KAHLER,
                             NOT_KAHLER_HOM, _overall, emit_report, main)

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


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.grp"
    bad.write_text("group g { gens: x,y rels: ; }")
    code, out, err = run(capsys, "analyze", str(bad))
    assert code == 1 and "error" in err


def test_missing_file_exit_code(capsys):
    code, out, err = run(capsys, "analyze", "no_such_file.grp")
    assert code == 1


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
    assert _overall([], NOT_KAHLER) == INCONCLUSIVE
    fired = [{"verdict": NOT_KAHLER}, {"verdict": CONSISTENT}]
    assert _overall(fired, NOT_KAHLER) == NOT_KAHLER
    calm = [{"verdict": CONSISTENT}, {"verdict": INCONCLUSIVE}]
    assert _overall(calm, NOT_KAHLER) == CONSISTENT


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
    assert _overall(calm, NOT_KAHLER) == INCONCLUSIVE


def test_hom_verification_failure_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.hom"
    bad.write_text("group z3 { gens: a; rels: a^3; }\n"
                   "group z { gens: t; rels: ; }\n"
                   "hom f : z3 -> z { a => t }\n")
    code, out, err = run(capsys, "hom", str(bad))
    assert code == 1
    assert "relator 0" in err

"""Tests for the benchmark itself: python3 -m pytest kcbench/tests"""

import contextlib
import io
import json
import os
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

from check import check  # noqa: E402
from oracles import (betti1, circle_bundle_ranks, heisenberg_ranks,  # noqa
                     hom_parity_ranks, labute_ranks, rational_rank,
                     surface_ranks, witt)
from workloads import (WORKLOADS, corpus_files, free_abelian,  # noqa: E402
                       make_pass, torsion_extension)


@pytest.fixture(scope="module")
def corpus():
    return corpus_files(ROOT)


def _dump(cases):
    return [(c.id, c.argv, c.text, sorted(c.expect.items(), key=str))
            for c in cases]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed_regenerates_identical_inputs(workload, corpus):
    for index in (0, 1):
        first = _dump(make_pass(workload, 7, index, corpus))
        again = _dump(make_pass(workload, 7, index, corpus))
        assert first == again
    other = _dump(make_pass(workload, 8, 0, corpus))
    assert [c[2] for c in other] != [c[2] for c in first]
    # inputs never repeat from one pass to the next
    texts = [c[1:3] for c in _dump(make_pass(workload, 7, 0, corpus))]
    later = [c[1:3] for c in _dump(make_pass(workload, 7, 1, corpus))]
    assert not set(map(repr, texts)) & set(map(repr, later))


def test_witt_formula():
    assert [witt(2, n) for n in range(1, 7)] == [2, 1, 2, 3, 6, 9]
    assert [witt(3, n) for n in range(1, 6)] == [3, 3, 8, 18, 48]


def test_labute_formula():
    assert surface_ranks(2, 3) == (4, 5, 16)
    assert surface_ranks(3, 3) == (6, 14, 64)
    assert surface_ranks(1, 4) == (2, 0, 0, 0)       # the torus: Z^2
    assert labute_ranks(3, 2, 5) == (3, 2, 5, 10, 24)
    assert labute_ranks(2, 1, 4) == (1, 0, 0, 0)     # one linear relator


def test_nilpotent_ranks():
    assert heisenberg_ranks(1, 4) == (2, 1, 0, 0)
    assert circle_bundle_ranks(1, 3) == heisenberg_ranks(1, 3)
    assert circle_bundle_ranks(2, 5) == (4, 6, 16)


def test_exponent_sum_ranks():
    assert rational_rank([[2, -2, -1], [0, 0, 0]]) == 1
    grp, _ = torsion_extension(3)
    assert betti1(len(grp.gens), grp.rels) == 2
    a2, a4 = free_abelian(2, 3)[0], free_abelian(4, 3)[0]
    # q after p in inputs/example_2_4.hom: x -> e1 -> x, y -> e2 -> 1
    images = [[(0, 1)], []]
    assert hom_parity_ranks(2, a2.rels, 2, a2.rels, images) == (1, 1, 1)
    assert hom_parity_ranks(2, a2.rels, 4, a4.rels, [[(0, 1)], [(1, 1)]]) \
        == (2, 0, 2)


def test_gate_flags_contradictions():
    expect = {"kind": "analyze", "b1": 4, "lcs": (4, 5, 16),
              "hol": (4, 5, 16), "kahler": True, "fire": (),
              "ext_class": None}
    report = {"tests": [
        {"name": "h1_parity", "verdict": "consistent",
         "witness": {"b1": 4}},
        {"name": "formality", "verdict": "consistent",
         "witness": {"lcs_ranks": [4, 5, 16], "holonomy_ranks": [4, 5, 16]}}],
        "overall": "consistent"}
    assert check(expect, 0, json.dumps(report)) == ([], None)
    report["tests"][1]["witness"]["lcs_ranks"] = [4, 5, 15]
    errors, _ = check(expect, 0, json.dumps(report))
    assert errors and "LCS ranks" in errors[0]
    assert check(expect, 1, "")[0] == ["exit code 1"]


def test_every_pass_checks_out_on_the_program(corpus):
    """One pass of the cheap slots runs through kahlercheck without a
    contradiction, traced, and the tracer restores every function."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import kahlercheck
    from kahlercheck import cli, lieranks
    from tracer import Tracer
    tracer = Tracer(kahlercheck)
    before = dict(vars(lieranks))
    tracer.install()
    try:
        assert lieranks.build_quotient_algebra is not \
            before["build_quotient_algebra"]
        cases = make_pass("battery_corpus", 3, 0, corpus)[:12]
        for case in cases:
            if case.text is None:
                continue
            path = os.path.join(ROOT, "kcbench_out", "test-input.txt")
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w") as fh:
                fh.write(case.text)
            argv = [path if a == "{file}" else a for a in case.argv]
            tracer.begin_input(case.id)
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                rc = cli.main(argv)
            assert check(case.expect, rc, out.getvalue())[0] == [], case.id
    finally:
        tracer.uninstall()
    assert dict(vars(lieranks)) == before
    names = {s[0] for s in tracer.spans}
    assert {"cli.main", "intlinalg.smith_normal_form",
            "lieranks.TruncatedQuotientAlgebra"} <= names
    assert tracer.counts["echelon.inserts"] > 0
    assert all(t >= -1e-9 for t in tracer.self_times().values())

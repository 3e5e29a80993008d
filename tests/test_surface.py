import dataclasses
import json
import math
import random
import subprocess
import sys

import pytest

from kahlercheck.cli import main
from kahlercheck.extensions import (ExtensionShapeError, class_and_torsion,
                                    recognize_extension)
from kahlercheck.homology import h1
from kahlercheck.lieranks import build_quotient_algebra
from kahlercheck.presentation import (GroupHom, Word, free_abelian_rank,
                                      free_reduce, parse_file, parse_word_in,
                                      word_str)
from kahlercheck.surface import (dehn_trivial, maximal_surface_map_check,
                                 orbifold_group, orbifold_kernel_h1_check,
                                 surface_base_verdict, surface_group)

from _oracles import greedy_dehn, orbifold_kernel_order, random_word


# ---------------------------------------------------------------------------
# constructors


def test_surface_group_examples():
    g1 = surface_group(1)
    assert free_abelian_rank(g1.presentation) == 2
    g2 = surface_group(2)
    assert len(g2.relator) == 8
    assert word_str(g2.presentation, g2.relator) == \
        "a1 a3 a1^-1 a3^-1 a2 a4 a2^-1 a4^-1"
    assert h1(surface_group(3).presentation).rank == 6
    for g in (1, 2, 3):
        sg = surface_group(g)
        assert len(sg.relator) == 4 * g
        assert all(v == 0 for v in
                   sg.relator.exponent_vector(2 * g))


def test_surface_group_bad_genus():
    with pytest.raises(ValueError):
        surface_group(0)


def test_orbifold_constructor():
    orb = orbifold_group(1, [2])
    p = orb.presentation
    assert p.generator_names == ("a1", "a2", "q1")
    assert [word_str(p, r) for r in p.relators] == \
        ["a1 a2 a1^-1 a2^-1 q1", "q1^2"]
    orb2 = orbifold_group(2, [3, 3])
    assert orb2.presentation.num_generators == 6
    assert len(orb2.presentation.relators) == 3
    with pytest.raises(ValueError):
        orbifold_group(0, [2])
    with pytest.raises(ValueError):
        orbifold_group(1, [1])


# ---------------------------------------------------------------------------
# Dehn's algorithm


def test_dehn_relator_and_short_words():
    sg = surface_group(2)
    assert dehn_trivial(2, sg.relator)
    assert not dehn_trivial(2, parse_word_in(sg.presentation, "a1 a2"))
    assert dehn_trivial(2, Word())
    with pytest.raises(ValueError):
        dehn_trivial(1, Word())
    # a letter outside a1..a4, alone or inside a relator, or a bad exponent
    for letters in (((4, 1),), sg.relator.letters + ((4, -1),), ((0, 2),)):
        with pytest.raises(ValueError, match="outside a1..a4"):
            dehn_trivial(2, Word(letters))


def test_dehn_conjugate_products():
    rng = random.Random(101)
    sg = surface_group(2)
    R = sg.relator
    for _ in range(30):
        w = Word()
        for _ in range(rng.randint(1, 5)):
            conj = random_word(rng, 4, rng.randint(0, 10))
            piece = R if rng.random() < 0.5 else R.inverse()
            w = w * piece.conjugated_by(conj)
        assert dehn_trivial(2, w)


def test_dehn_corpus():
    # 100 normal-closure words and 100 nonzero-exponent words, seeded
    rng = random.Random(20240502)
    sg = surface_group(2)
    R = sg.relator
    for _ in range(100):
        w = Word()
        for _ in range(rng.randint(1, 5)):
            conj = random_word(rng, 4, rng.randint(0, 10))
            piece = R if rng.random() < 0.5 else R.inverse()
            w = w * piece.conjugated_by(conj)
        assert dehn_trivial(2, w)
    count = 0
    while count < 100:
        w = random_word(rng, 4, rng.randint(1, 25))
        if not any(w.exponent_vector(4)):
            continue
        assert not dehn_trivial(2, w)
        count += 1


def test_dehn_genus3():
    sg = surface_group(3)
    assert dehn_trivial(3, sg.relator)
    conj = parse_word_in(sg.presentation, "a1 a5 a2^-1")
    assert dehn_trivial(3, sg.relator.conjugated_by(conj))
    assert not dehn_trivial(3, parse_word_in(sg.presentation, "[a1,a2]"))


def test_dehn_agrees_with_nilpotent_quotient():
    # trivial words must die in the class-3 rational quotient too
    rng = random.Random(55)
    sg = surface_group(2)
    alg = build_quotient_algebra(sg.presentation, 3)
    R = sg.relator
    for _ in range(10):
        conj = random_word(rng, 4, rng.randint(0, 6))
        w = R.conjugated_by(conj) * R.inverse().conjugated_by(
            random_word(rng, 4, rng.randint(0, 6)))
        assert dehn_trivial(2, w)
        assert alg.element_is_trivial(w)


def mixed_words(rng, g, R):
    """Normal-closure words, random words, and commutators of random words
    (zero exponent sums, so H1 cannot tell)."""
    words = []
    for _ in range(40):
        w = Word()
        for _ in range(rng.randint(1, 4)):
            conj = random_word(rng, 2 * g, rng.randint(0, 8))
            piece = R if rng.random() < 0.5 else R.inverse()
            w = w * piece.conjugated_by(conj)
        words.append(w)
        words.append(random_word(rng, 2 * g, rng.randint(1, 30)))
        u = random_word(rng, 2 * g, rng.randint(1, 6))
        v = random_word(rng, 2 * g, rng.randint(1, 6))
        words.append(u * v * u.inverse() * v.inverse())
    return words


def heavy_words(rng, g, R):
    """Products of up to 40 relator conjugates, long powers of rotations,
    and runs of rotation prefixes about half the relator long, each with
    or without one letter changed (a near miss)."""
    rotations = [Word(r.letters[s:] + r.letters[:s])
                 for r in (R, R.inverse()) for s in range(len(R))]
    letter = Word(((rng.randrange(2 * g), 1),))
    words = []
    for _ in range(8):
        w = Word()
        for _ in range(rng.randint(20, 40)):
            conj = random_word(rng, 2 * g, rng.randint(0, 3))
            w = w * rng.choice(rotations).conjugated_by(conj)
        words += [w, w * letter]
        rot = rng.choice(rotations)
        k = rng.randint(5, 30)
        words += [rot ** k, rot ** k * letter, (rot * letter) ** k]
        prefixes = []
        for _ in range(rng.randint(2, 8)):
            part = list(rng.choice(rotations).letters[:rng.randint(
                2 * g - 1, 2 * g + 2)])
            if rng.random() < 0.3:
                part[rng.randrange(len(part))] = (rng.randrange(2 * g),
                                                  rng.choice((1, -1)))
            prefixes += part
        words.append(free_reduce(prefixes))
    return words


@pytest.mark.parametrize("g,family", [
    pytest.param(g, mixed_words, id=str(g)) for g in (2, 3, 4)] + [
    pytest.param(g, heavy_words, id="heavy-%d" % g) for g in range(2, 7)])
def test_dehn_matches_the_rotation_list_oracle(g, family):
    rng = random.Random(7000 + g if family is mixed_words else 8000 + g)
    words = family(rng, g, surface_group(g).relator)
    verdicts = [dehn_trivial(g, w) for w in words]
    assert verdicts == [greedy_dehn(g, w.letters) for w in words]
    assert verdicts.count(True) >= len(words) // 3


@pytest.mark.parametrize("word,verdict", [
    ("([a1,a3][a2,a4])^125000", "trivial"),
    ("([a1,a3][a2,a4])^124999 a1", "nontrivial")], ids=["trivial", "a1"])
def test_wordtest_is_linear_at_the_letter_cap(word, verdict):
    # 10^6 letters; a quadratic Dehn's algorithm runs for hours on these
    proc = subprocess.run(
        [sys.executable, "-m", "kahlercheck.cli", "surface", "wordtest", "2",
         word], capture_output=True, text=True, timeout=10)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == verdict + "\n"


def test_surface_commands_take_the_cap(capsys):
    assert main(["surface", "gamma", "64"]) == 0
    assert "a128^-1;" in capsys.readouterr().out
    assert main(["surface", "orbifold", "64", ",".join(["2"] * 64)]) == 0
    assert "free rank 128" in capsys.readouterr().out
    assert main(["surface", "wordtest", "64", "[a1,a65]"]) == 0
    assert capsys.readouterr().out == "nontrivial\n"


# ---------------------------------------------------------------------------
# orbifold H1


def test_orbifold_h1_g2_33():
    rep = orbifold_kernel_h1_check(orbifold_group(2, [3, 3]))
    assert str(rep.h1_kernel) == "Z/3"
    assert rep.kernel_is_torsion
    assert rep.free_rank == 4
    assert str(rep.h1_total) == "Z^4 x Z/3"


def test_orbifold_h1_g1_2():
    # [a1,a2]q1 abelianizes to q1, so q1 = 0 in H1: H1 = Z^2 and the kernel
    # (Z/2)/<1> is trivial (order prod m_j / lcm m_j = 2/2)
    rep = orbifold_kernel_h1_check(orbifold_group(1, [2]))
    assert rep.kernel_is_torsion
    assert rep.h1_kernel.is_trivial()
    assert rep.free_rank == 2


def test_orbifold_h1_no_cone_points():
    rep = orbifold_kernel_h1_check(orbifold_group(2, []))
    assert rep.h1_kernel.is_trivial()
    assert rep.free_rank == 4


def test_orbifold_free_rank_always_2g():
    rng = random.Random(77)
    for _ in range(10):
        g = rng.randint(1, 3)
        orders = [rng.randint(2, 5) for _ in range(rng.randint(0, 3))]
        rep = orbifold_kernel_h1_check(orbifold_group(g, orders))
        assert rep.free_rank == 2 * g
        assert rep.kernel_is_torsion
        assert math.prod(rep.h1_kernel.torsion) == \
            orbifold_kernel_order(orders)


# ---------------------------------------------------------------------------
# the surface-base obstruction pipeline


INTRO_FILE = """
group intro { gens: a1,a2,a3,a4,c;
  rels: [a1,a3][a2,a4]c^-1, [a1,c],[a2,c],[a3,c],[a4,c]; central: c; }
group gamma2 { gens: a1,a2,a3,a4; rels: [a1,a3][a2,a4]; }
hom proj : intro -> gamma2 { a1 => a1, a2 => a2, a3 => a3, a4 => a4, c => 1 }
"""


def test_surface_map_intro_fires():
    parsed = parse_file(INTRO_FILE)
    rep = maximal_surface_map_check(parsed.homs["proj"], ["c"])
    assert rep.obstructed
    assert rep.maximality == "automatic (b1 = 2g caps the genus)"
    assert rep.ext_class.verdict == "non_torsion"
    assert rep.h1_surjective


def test_surface_map_split_product_consistent():
    text = INTRO_FILE.replace("[a1,a3][a2,a4]c^-1", "[a1,a3][a2,a4]")
    parsed = parse_file(text)
    rep = maximal_surface_map_check(parsed.homs["proj"], ["c"])
    assert not rep.obstructed
    assert rep.verdict == "consistent"
    assert rep.ext_class.verdict == "zero"


@pytest.mark.parametrize("relator", ["[a1,a3][a2,a4]c^-1", "[a1,a3][a2,a4]"],
                         ids=["intro_g2", "split_product"])
def test_surface_map_agrees_with_ext_record(relator, tmp_path, capsys):
    text = INTRO_FILE.replace("[a1,a3][a2,a4]c^-1", relator)
    rep = maximal_surface_map_check(parse_file(text).homs["proj"], ["c"])
    path = tmp_path / "intro.hom"
    path.write_text(text)
    assert main(["ext", str(path), "--group", "intro",
                 "--format", "json"]) == 0
    record = json.loads(capsys.readouterr().out)["tests"][1]
    assert record["name"] == "central_extension"
    assert record["verdict"] == rep.verdict
    assert record["witness"].get("maximality") == rep.maximality


def test_surface_base_verdict_branches():
    intro = parse_file(INTRO_FILE).groups["intro"].presentation
    E = recognize_extension(intro, ["c"])
    cls = class_and_torsion(E)
    automatic = {"base_surface_genus": 2,
                 "maximality": "automatic (b1 = 2g caps the genus)"}
    assert surface_base_verdict(E, cls, False) == ("not_kahler", automatic)
    assert surface_base_verdict(E, cls, True) == (
        "not_kahler", {"base_surface_genus": 2, "maximality": "asserted"})
    caveat = dataclasses.replace(cls, kernel_caveat=True)
    assert surface_base_verdict(E, caveat, False) == ("caveat", automatic)
    # a second, free central generator lifts b1 to 5 != 2g
    wide = recognize_extension(parse_file(
        "group w { gens: a1,a2,a3,a4,c,d; rels: [a1,a3][a2,a4]c^-1, "
        "[a1,c],[a2,c],[a3,c],[a4,c],[a1,d],[a2,d],[a3,d],[a4,d],[c,d]; }"
    ).groups["w"].presentation, ["c", "d"])
    verdict, notes = surface_base_verdict(wide, class_and_torsion(wide), False)
    assert verdict == "inconclusive" and notes["maximality"] is None
    assert notes["base_surface_genus"] == 2
    assert "--assert-maximal" in notes["reason"]
    assert surface_base_verdict(wide, class_and_torsion(wide), True)[0] == \
        "not_kahler"


def test_surface_map_identity_vacuous():
    text = """
group gamma2 { gens: a1,a2,a3,a4; rels: [a1,a3][a2,a4]; }
hom ident : gamma2 -> gamma2 { a1 => a1, a2 => a2, a3 => a3, a4 => a4 }
"""
    parsed = parse_file(text)
    rep = maximal_surface_map_check(parsed.homs["ident"], [])
    assert rep.verdict == "consistent"
    assert rep.ext_class.order == 1


def test_surface_map_rejects_non_surface_target(pool):
    h = GroupHom(source=pool["z2"], target=pool["z2"],
                 images=(parse_word_in(pool["z2"], "x"),
                         parse_word_in(pool["z2"], "y")))
    with pytest.raises(ValueError, match="genus"):
        maximal_surface_map_check(h, [])


def test_surface_map_rejects_non_projection():
    # swapping the handle pairs is a genuine automorphism of the target
    # (the relator maps to a conjugate of itself) but not the projection
    text = INTRO_FILE.replace(
        "a1 => a1, a2 => a2, a3 => a3, a4 => a4",
        "a1 => a2, a2 => a1, a3 => a4, a4 => a3")
    parsed = parse_file(text)
    with pytest.raises(ExtensionShapeError, match="canonical projection"):
        maximal_surface_map_check(parsed.homs["proj"], ["c"])

import dataclasses
import random
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kahlercheck.cli import main
from kahlercheck.lieranks import BudgetExceededError, build_quotient_algebra
from kahlercheck.presentation import (EXACT, IN_ABELIANIZATION, IN_NILPOTENT,
                                      UNVERIFIED, GroupHom, ParseError,
                                      VerificationError, Word, compose,
                                      free_abelian_rank, free_reduce,
                                      parse_file, parse_presentation,
                                      parse_word_in, serialize_presentation,
                                      surface_genus, verify_hom)

from _oracles import random_word, slicing_cyclic_reduction

letters_strategy = st.lists(
    st.tuples(st.integers(min_value=0, max_value=2),
              st.sampled_from((1, -1))),
    max_size=24)


# ---------------------------------------------------------------------------
# words


def test_free_reduce_examples():
    # a a^-1 b -> b
    assert free_reduce([(0, 1), (0, -1), (1, 1)]).letters == ((1, 1),)
    assert free_reduce([]).is_identity()
    # a b b^-1 a^-1 -> empty
    assert free_reduce([(0, 1), (1, 1), (1, -1), (0, -1)]).is_identity()


@settings(max_examples=80, derandomize=True)
@given(letters_strategy)
def test_free_reduce_idempotent_and_short(letters):
    w = free_reduce(letters)
    assert free_reduce(w.letters).letters == w.letters
    assert len(w) <= len(letters)


@settings(max_examples=80, derandomize=True)
@given(letters_strategy)
def test_word_times_inverse_is_identity(letters):
    w = free_reduce(letters)
    assert (w * w.inverse()).is_identity()
    assert (w.inverse() * w).is_identity()


@settings(max_examples=80, derandomize=True)
@given(letters_strategy, st.integers(min_value=-7, max_value=7))
@example([(0, 1), (1, 1), (0, -1)], 7)      # a b a^-1: not cyclically reduced
@example([(0, 1), (1, -1), (2, 1), (0, -1)], -7)
@example([(2, -1)], -6)
def test_word_power_matches_repeated_product(letters, n):
    w = free_reduce(letters)
    expected = Word()
    step = w if n >= 0 else w.inverse()
    for _ in range(abs(n)):
        expected = expected * step
    assert w ** n == expected


def test_cyclically_reduced_matches_slicing():
    rng = random.Random(11)
    words = [random_word(rng, rng.randint(1, 3), rng.randint(0, 30))
             for _ in range(300)]
    # conjugates u w u^-1 have long cancelling ends
    words += [u * w * u.inverse() for u, w in zip(words[:60], words[60:120])]
    for w in words:
        assert w.cyclically_reduced().letters == \
            slicing_cyclic_reduction(w.letters)


def test_cyclic_reduction():
    w = free_reduce([(0, 1), (1, 1), (0, -1)])
    assert w.cyclically_reduced().letters == ((1, 1),)
    assert free_reduce([(0, 1), (1, 1)]).cyclically_reduced().letters == \
        ((0, 1), (1, 1))


def test_word_not_reduced_rejected():
    with pytest.raises(ValueError):
        Word(((0, 1), (0, -1)))


# ---------------------------------------------------------------------------
# parsing


def test_parse_commutator_sugar():
    p = parse_presentation("gens: x,y; rels: [x,y];")
    assert p.generator_names == ("x", "y")
    assert p.relators[0].letters == ((0, 1), (1, 1), (0, -1), (1, -1))


def test_parse_power_expansion():
    p = parse_presentation("gens: a; rels: a^3;")
    assert p.relators[0].letters == ((0, 1),) * 3
    q = parse_presentation("gens: a1, b1; rels: ;")
    assert parse_word_in(q, "a1^32000").letters == ((0, 1),) * 32000
    assert parse_word_in(q, "(a1 b1 a1^-1)^-32000").letters == \
        ((0, 1),) + ((1, -1),) * 32000 + ((0, -1),)


def test_parse_intro_example():
    text = """
    group intro {
      gens: a1, a2, a3, a4, c;
      rels: [a1,a3][a2,a4]c^-1, [a1,c], [a2,c], [a3,c], [a4,c];
    }
    """
    p = parse_presentation(text)
    assert p.num_generators == 5
    assert len(p.relators) == 5
    first = parse_word_in(p, "[a1,a3][a2,a4]c^-1")
    assert p.relators[0] == first.cyclically_reduced()


def test_parse_identity_literal_and_zero_power():
    p = parse_presentation("gens: x,y; rels: ;")
    assert parse_word_in(p, "1").is_identity()
    assert parse_word_in(p, "x^0").is_identity()
    assert parse_word_in(p, "(x y)^2").letters == ((0, 1), (1, 1)) * 2
    assert parse_word_in(p, "(x y)^-1").letters == ((1, -1), (0, -1))


def test_parse_error_reports_position():
    with pytest.raises(ParseError) as err:
        parse_presentation("gens: x,y;\nrels: x @;")
    assert err.value.line == 2
    with pytest.raises(ParseError, match="unknown generator"):
        parse_presentation("gens: x; rels: y;")
    with pytest.raises(ParseError, match="duplicate generator"):
        parse_presentation("gens: x, x; rels: ;")
    with pytest.raises(ParseError, match="reserved"):
        parse_presentation("gens: rels; rels: ;")


def nested_commutators(depth):
    # each level is [previous, a1] or [previous, a2]; no letters cancel,
    # so the length roughly doubles per level
    text = "a1"
    for i in range(depth):
        text = "[%s, a%d]" % (text, 2 - i % 2)
    return text


def test_word_letter_cap_rejects_hostile_input(capsys):
    p = parse_presentation("gens: a1, a2; rels: ;")
    assert len(parse_word_in(p, nested_commutators(8))) < 2000
    for argv in (["surface", "wordtest", "2", "a1^999999999"],
                 ["surface", "wordtest", "2", nested_commutators(30)]):
        start = time.perf_counter()
        code = main(argv)
        elapsed = time.perf_counter() - start
        err = capsys.readouterr().err
        assert code == 1
        assert "word longer than 1000000 letters" in err
        assert elapsed < 1.0
    with pytest.raises(ParseError) as exc:
        parse_word_in(p, "a1^600000 a2^600000")
    assert exc.value.col == 11
    assert len(parse_word_in(p, "(a1 a2)^500000")) == 1000000
    assert parse_word_in(p, "(a1 a1^-1)^999999999").is_identity()


def test_word_letter_cap_checks_before_building(monkeypatch):
    import kahlercheck.presentation as presentation

    def no_power(w, n):
        raise AssertionError("built a power over the cap")

    def no_commutator(u, v):
        raise AssertionError("built a commutator over the cap")
    p = parse_presentation("gens: a1, a2; rels: ;")
    monkeypatch.setattr(Word, "__pow__", no_power)
    for text in ("a1^999999999", "(a1 a2)^-500001"):
        with pytest.raises(ParseError):
            parse_word_in(p, text)
    monkeypatch.undo()
    monkeypatch.setattr(presentation, "commutator", no_commutator)
    with pytest.raises(ParseError):
        parse_word_in(p, "[a1^300000 a2^300000, a1^-200000]")


def test_parse_central_clause():
    parsed = parse_file("group g { gens: x,c; rels: [x,c]; central: c; }")
    block = parsed.groups["g"]
    assert block.central_names == ("c",)
    with pytest.raises(ParseError, match="unknown generator"):
        parse_file("group g { gens: x; rels: ; central: q; }")


def test_serialize_roundtrip(pool):
    for name, p in pool.items():
        again = parse_presentation(serialize_presentation(p))
        assert again.same_presentation(p), name


def test_serialize_roundtrip_random_relators():
    rng = random.Random(13)
    for _ in range(25):
        n = rng.randint(1, 4)
        names = ["g%d" % i for i in range(n)]
        relators = []
        for _ in range(rng.randint(0, 3)):
            letters = [(rng.randrange(n), rng.choice((1, -1)))
                       for _ in range(rng.randint(0, 8))]
            relators.append(free_reduce(letters).cyclically_reduced())
        from kahlercheck.presentation import build_presentation
        p = build_presentation(names, relators, name="random")
        assert parse_presentation(serialize_presentation(p)).same_presentation(p)


def test_parse_hom_missing_image():
    text = ("group a { gens: x,y; rels: ; }\n"
            "hom f : a -> a { x => x }")
    with pytest.raises(ParseError, match="no image for y"):
        parse_file(text)


# ---------------------------------------------------------------------------
# target recognition


def test_surface_genus_recognition(pool):
    assert surface_genus(pool["gamma2"]) == 2
    assert surface_genus(pool["z2"]) == 1
    assert surface_genus(pool["free2"]) is None
    assert surface_genus(pool["heisenberg"]) is None


def test_free_abelian_recognition(pool):
    assert free_abelian_rank(pool["z2"]) == 2
    assert free_abelian_rank(pool["z4"]) == 4
    assert free_abelian_rank(pool["heisenberg"]) is None
    # missing one commuting pair: a right-angled Artin group, not abelian
    raag = parse_presentation("gens: a,b,c; rels: [a,b],[b,c];")
    assert free_abelian_rank(raag) is None


# ---------------------------------------------------------------------------
# verification


def hom_from_strings(source, target, images, name="h"):
    return GroupHom(source=source, target=target,
                    images=tuple(parse_word_in(target, w) for w in images),
                    name=name)


def test_verify_inclusion_z2_in_z4(pool):
    h = hom_from_strings(pool["z2"], pool["z4"], ["a", "b"])
    assert verify_hom(h, EXACT).level == EXACT


def test_verify_free_source_into_surface(pool):
    h = hom_from_strings(pool["free2"], pool["gamma2"], ["a1", "a2"])
    assert verify_hom(h, EXACT).level == EXACT


def test_verify_abelian_target_collapse(pool):
    z1 = parse_presentation("gens: t; rels: ;")
    h = hom_from_strings(pool["z2"], z1, ["t", "t"])
    assert verify_hom(h, EXACT).level == EXACT


def test_verify_failure_reports_witness(pool):
    z1 = parse_presentation("gens: t; rels: ;")
    h = hom_from_strings(pool["cyclic3"], z1, ["t"])
    with pytest.raises(VerificationError) as err:
        verify_hom(h, IN_ABELIANIZATION)
    assert err.value.relator_index == 0
    assert h.level == UNVERIFIED  # the original is untouched


def test_verify_nilpotent_level(pool):
    h = hom_from_strings(pool["heisenberg"], pool["z2"], ["x", "y", "1"])
    v = verify_hom(h, IN_NILPOTENT, 3)
    assert v.level == IN_NILPOTENT and v.nilpotency_class == 3
    assert v.at_least(IN_ABELIANIZATION)
    assert not v.at_least(EXACT)


def test_memo_is_not_part_of_the_value():
    text = "gens: x,y; rels: [x,y];"
    p = parse_presentation(text)
    build_quotient_algebra(p, 2)
    assert p._memo
    for q in (parse_presentation(text), dataclasses.replace(p)):
        assert q == p and hash(q) == hash(p) and repr(q) == repr(p)
        assert q._memo == {}


def test_verify_nilpotent_level_respects_budget(pool):
    h = hom_from_strings(pool["heisenberg"], pool["z2"], ["x", "y", "1"])
    with pytest.raises(BudgetExceededError) as err:
        verify_hom(h, IN_NILPOTENT, 3, dim_budget=10)
    assert (err.value.required, err.value.budget) == (15, 10)


def test_verify_unsupported_exact_target(pool):
    h = hom_from_strings(pool["heisenberg"], pool["heisenberg"],
                         ["x", "y", "c"])
    with pytest.raises(VerificationError, match="decision procedure"):
        verify_hom(h, EXACT)


def test_exact_compose_exact_random_cases(pool):
    rng = random.Random(99)
    free2 = pool["free2"]
    for _ in range(15):
        f = GroupHom(source=free2, target=free2,
                     images=(random_word(rng, 2, 4), random_word(rng, 2, 4)))
        g = GroupHom(source=free2, target=free2,
                     images=(random_word(rng, 2, 4), random_word(rng, 2, 4)))
        vf = verify_hom(f, EXACT)
        vg = verify_hom(g, EXACT)
        composite = compose(vg, vf)
        assert composite.level == UNVERIFIED
        assert verify_hom(composite, EXACT).level == EXACT


def test_compose_requires_matching_middle(pool):
    f = hom_from_strings(pool["free2"], pool["z2"], ["x", "y"])
    g = hom_from_strings(pool["free2"], pool["free2"], ["x", "y"])
    with pytest.raises(ValueError, match="compose"):
        compose(g, f)

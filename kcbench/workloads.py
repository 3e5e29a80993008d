"""Seeded inputs for the kahlercheck benchmark.

Each input is command-line text for kahlercheck (an argv and, for file
commands, the file's content) plus the answers an independent oracle gives
for it.  Nothing here imports kahlercheck.

A workload is a fixed list of slots per pass.  The seed and the pass index
choose generator names, presentation variants, Euler classes and random
words inside each slot, never the slot list, so the cost of a pass barely
depends on the seed and every input of a run is distinct text.
"""

import os
import random
import string
from dataclasses import dataclass, field, replace

from oracles import (add_ranks, betti1, circle_bundle_ranks,
                     free_abelian_ranks, free_ranks, heisenberg_ranks,
                     hom_parity_ranks, labute_ranks, surface_ranks)

EXACT = "verified-exactly"
NILPOTENT = "verified-in-nilpotent-quotient"

WORKLOADS = ("battery_corpus", "malcev_deep", "hom_battery", "long_words")


# ---------------------------------------------------------------------------
# words: lists of (generator index, +1 or -1)


def gen(i, e=1):
    return [(i, 1 if e > 0 else -1)] * abs(e)


def inverse(w):
    return [(g, -e) for g, e in reversed(w)]


def comm(u, v):
    return u + v + inverse(u) + inverse(v)


def reduce(w):
    out = []
    for g, e in w:
        if out and out[-1] == (g, -e):
            out.pop()
        else:
            out.append((g, e))
    return out


def render(w, names):
    """Word text with powers condensed; '1' for the identity."""
    if not w:
        return "1"
    parts = []
    i = 0
    while i < len(w):
        j = i
        while j < len(w) and w[j] == w[i]:
            j += 1
        g, e = w[i]
        k = (j - i) * e
        parts.append(names[g] if k == 1 else "%s^%d" % (names[g], k))
        i = j
    return " ".join(parts)


def random_word(rng, num_gens, length):
    """Freely reduced word of the given length: a letter that cancels the
    last one removes it."""
    w = []
    while len(w) < length:
        g, e = rng.randrange(num_gens), rng.choice((1, -1))
        if w and w[-1] == (g, -e):
            w.pop()
        else:
            w.append((g, e))
    return w


def syllable_word(rng, pattern):
    """Word x_{p0}^{k0} x_{p1}^{k1} ... with random exponents in +-{1,2,3}."""
    w = []
    for g in pattern:
        w += gen(g, rng.choice((1, 2, 3)) * rng.choice((1, -1)))
    return w


def exp_vector(w, n):
    v = [0] * n
    for g, e in w:
        v[g] += e
    return v


def independent(a, b):
    n = len(a)
    return any(a[i] * b[j] != a[j] * b[i]
               for i in range(n) for j in range(i + 1, n))


# ---------------------------------------------------------------------------
# groups and their known answers


@dataclass
class Group:
    name: str
    gens: list
    rels: list
    central: tuple = ()          # generator indices designated central

    def text(self):
        lines = ["group %s {" % self.name,
                 "  gens: %s;" % ", ".join(self.gens),
                 "  rels: %s;" % ", ".join(render(r, self.gens)
                                          for r in self.rels)]
        if self.central:
            lines.append("  central: %s;"
                         % ", ".join(self.gens[i] for i in self.central))
        lines.append("}")
        return "\n".join(lines) + "\n"


@dataclass
class Facts:
    """What is known about a group independently of kahlercheck.

    lcs and hol are known prefixes of the LCS and holonomy ranks (None when
    unknown).  kahler is True for Kahler groups, False for groups known not
    to be Kahler, None when the benchmark does not know.  fire names the
    tests a complete checker fires on this group, whatever the
    presentation; ext_class and order describe the designated central
    extension.
    """

    lcs: tuple = None
    hol: tuple = None
    kahler: bool = None
    fire: tuple = ()
    ext_class: str = None
    order: int = None


def surface(g, degree):
    rel = []
    for i in range(g):
        rel += comm(gen(i), gen(g + i))
    ranks = surface_ranks(g, degree)
    return (Group("surface%d" % g, ["a%d" % (i + 1) for i in range(2 * g)],
                  [rel]),
            Facts(lcs=ranks, hol=ranks, kahler=True))


def circle_bundle(g, e, degree):
    """Central extension of the genus-g surface group with Euler class e;
    e = 0 is the product with Z."""
    n = 2 * g
    rel = []
    for i in range(g):
        rel += comm(gen(i), gen(g + i))
    rels = [rel + gen(n, -e)] + [comm(gen(i), gen(n)) for i in range(n)]
    grp = Group("bundle%d" % g if e else "trivial_bundle%d" % g,
                ["a%d" % (i + 1) for i in range(n)] + ["c"], rels,
                central=(n,))
    if e == 0:
        ranks = add_ranks(surface_ranks(g, degree), free_ranks(1, degree))
        return grp, Facts(lcs=ranks, hol=ranks, kahler=False,
                          fire=("h1_parity",), ext_class="zero", order=1)
    # the cup product vanishes on H1, so the holonomy algebra is free
    fire = ("formality", "central_extension") if g >= 2 else ("formality",)
    return grp, Facts(lcs=circle_bundle_ranks(g, degree),
                      hol=free_ranks(n, degree), kahler=False, fire=fire,
                      ext_class="non_torsion")


def heisenberg(n, degree, central=False):
    names = []
    for i in range(n):
        names += ["x%d" % (i + 1), "y%d" % (i + 1)]
    c = 2 * n
    rels = [comm(gen(2 * i), gen(2 * i + 1)) + gen(c, -1) for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            for a in (2 * i, 2 * i + 1):
                for b in (2 * j, 2 * j + 1):
                    rels.append(comm(gen(a), gen(b)))
    rels += [comm(gen(a), gen(c)) for a in range(2 * n)]
    grp = Group("heis%d" % (2 * n + 1), names + ["c"], rels,
                central=(c,) if central else ())
    if n == 1:
        return grp, Facts(lcs=heisenberg_ranks(1, degree),
                          hol=free_ranks(2, degree), kahler=False,
                          fire=("formality",), ext_class="non_torsion")
    return grp, Facts(lcs=heisenberg_ranks(n, degree))


def free_abelian(n, degree):
    rels = [comm(gen(i), gen(j)) for i in range(n) for j in range(i + 1, n)]
    ranks = free_abelian_ranks(n, degree)
    facts = (Facts(lcs=ranks, hol=ranks, kahler=True) if n % 2 == 0 else
             Facts(lcs=ranks, hol=ranks, kahler=False, fire=("h1_parity",)))
    return Group("z%d" % n, ["e%d" % (i + 1) for i in range(n)], rels), facts


def product(a, b):
    """Direct product of two (Group, Facts) pairs."""
    (ga, fa), (gb, fb) = a, b
    na = len(ga.gens)
    names = ga.gens + [x + "_" for x in gb.gens]
    shift = [[(g + na, e) for g, e in r] for r in gb.rels]
    rels = ga.rels + shift + [comm(gen(i), gen(na + j))
                              for i in range(na) for j in range(len(gb.gens))]
    grp = Group("%s_x_%s" % (ga.name, gb.name), names, rels)
    # ranks and holonomy ranks add, so a formality failure of a factor
    # persists; a product of Kahler groups is Kahler
    if "formality" in fa.fire + fb.fire:
        kahler, fire = False, ("formality",)
    else:
        kahler, fire = (True if fa.kahler and fb.kahler else None), ()
    return grp, Facts(lcs=add_ranks(fa.lcs, fb.lcs),
                      hol=add_ranks(fa.hol, fb.hol), kahler=kahler, fire=fire)


def torsion_extension(k):
    """<x, y, c | x^k y^-k c^-1, c central>: H^2 of the base is Z/k and the
    class generates it, so the class has order k."""
    rels = [gen(0, k) + gen(1, -k) + gen(2, -1),
            comm(gen(0), gen(2)), comm(gen(1), gen(2))]
    return (Group("torsion%d" % k, ["x", "y", "c"], rels, central=(2,)),
            Facts(ext_class="torsion", order=k))


def one_relator(rng, num_gens, kind, degree):
    """Seeded one- or two-relator group with ranks known from Labute's
    formula.  kind 'linear': a relator with nonzero exponent sums;
    'commutator': [u, v] with independent exponent vectors (initial form of
    degree 2); 'mixed': one of each."""
    pattern = [i % num_gens for i in range(2 * num_gens)]
    if kind in ("linear", "mixed"):
        while True:
            lin = syllable_word(rng, pattern)
            if any(exp_vector(lin, num_gens)):
                break
    if kind in ("commutator", "mixed"):
        while True:
            u = syllable_word(rng, pattern[:num_gens + 1])
            v = syllable_word(rng, pattern[1:num_gens + 2])
            if independent(exp_vector(u, num_gens), exp_vector(v, num_gens)):
                break
        com = reduce(comm(u, v))
    names = ["x", "y", "z"][:num_gens]
    if kind == "linear":
        rels, ranks = [lin], labute_ranks(num_gens, 1, degree)
    elif kind == "commutator":
        rels, ranks = [com], labute_ranks(num_gens, 2, degree)
    else:  # H1 (x) Q has rank num_gens - 1 = 1, so gr vanishes above 1
        rels, ranks = [lin, com], labute_ranks(num_gens, 1, degree)
    b1 = betti1(num_gens, rels)
    fire = ("h1_parity",) if b1 % 2 else ()
    return (Group("r%d%s" % (num_gens, kind), names, rels),
            Facts(lcs=ranks, hol=ranks, kahler=False if b1 % 2 else None,
                  fire=fire))


# ---------------------------------------------------------------------------
# presentation variants


def _tag(rng):
    return "_" + "".join(rng.choice(string.ascii_lowercase + string.digits)
                         for _ in range(4))


def renamed(grp, rng):
    tag = _tag(rng)
    return replace(grp, name=grp.name + tag, gens=[x + tag for x in grp.gens])


def _base_word(w, central):
    return reduce([(g, e) for g, e in w if g not in central])


def relabelled(grp, rng):
    """Permute the generator order so that the non-central generators
    change their relative order."""
    n = len(grp.gens)
    base = [i for i in range(n) if i not in grp.central]
    while True:
        perm = list(range(n))
        rng.shuffle(perm)
        if [i for i in sorted(range(n), key=perm.__getitem__)
                if i in base] != base or len(base) < 2:
            break
    gens = [None] * n
    for old, new in enumerate(perm):
        gens[new] = grp.gens[old]
    rels = [[(perm[g], e) for g, e in r] for r in grp.rels]
    return replace(grp, gens=gens, rels=rels,
                   central=tuple(perm[i] for i in grp.central))


def rotated(grp, rng):
    """Rotate every relator; where possible the rotation also moves the
    word left after deleting the central generators."""
    rels = []
    for r in grp.rels:
        if len(r) < 2:
            rels.append(r)
            continue
        offsets = list(range(1, len(r)))
        rng.shuffle(offsets)
        base = _base_word(r, grp.central)
        k = next((k for k in offsets
                  if _base_word(r[k:] + r[:k], grp.central) != base),
                 offsets[0])
        rels.append(r[k:] + r[:k])
    return replace(grp, rels=rels)


def inverted(grp, rng):
    return replace(grp, rels=[inverse(r) for r in grp.rels])


VARIANTS = (("plain", lambda g, rng: g), ("relabelled", relabelled),
            ("rotated", rotated), ("inverted", inverted))


# ---------------------------------------------------------------------------
# cases


@dataclass
class Case:
    """One kahlercheck invocation.  argv holds '{file}' where the input
    file's path goes; expect holds the oracle's answers."""

    id: str
    argv: list
    text: str = None
    expect: dict = field(default_factory=dict)


def analyze_case(cid, grp, facts, degree=3, budget=None):
    argv = ["analyze", "{file}", "--format", "json"]
    if degree != 3:
        argv += ["--max-degree", str(degree)]
    if budget:
        argv += ["--dim-budget", str(budget)]
    return Case(cid, argv, grp.text(), {
        "kind": "analyze", "b1": betti1(len(grp.gens), grp.rels),
        "lcs": facts.lcs, "hol": facts.hol, "kahler": facts.kahler,
        "fire": facts.fire,
        "ext_class": facts.ext_class if grp.central else None})


def ext_case(cid, grp, facts):
    scan = None
    if facts.ext_class == "torsion":
        scan = {n: n % facts.order == 0 for n in range(1, facts.order + 1)}
    elif facts.ext_class in ("zero", "non_torsion"):
        scan = {1: facts.ext_class == "zero"}
    fire = ("central_extension",) if "central_extension" in facts.fire else ()
    return Case(cid, ["ext", "{file}", "--format", "json"], grp.text(), {
        "kind": "ext", "ext_class": facts.ext_class, "order": facts.order,
        "scan": scan, "kahler": facts.kahler, "fire": fire})


def hom_case(cid, groups, homs, select, level, kahler, fire, degree=3):
    """homs: name -> (source, target, images); select: one hom name, or a
    list for --compose (outermost first)."""
    text = "".join(g.text() for g in groups)
    for name, (src, tgt, images) in homs.items():
        body = ", ".join("%s => %s" % (x, render(w, tgt.gens))
                         for x, w in zip(src.gens, images))
        text += "hom %s : %s -> %s { %s }\n" % (name, src.name, tgt.name, body)
    if isinstance(select, str):
        src, tgt, images = homs[select]
        argv = ["hom", "{file}", "--select", select]
    else:  # composite: outer after ... after inner
        src = homs[select[-1]][0]
        tgt = homs[select[0]][1]
        images = homs[select[-1]][2]
        for name in reversed(select[:-1]):
            outer = homs[name][2]
            images = [reduce([x for g, e in w for x in
                              (outer[g] if e > 0 else inverse(outer[g]))])
                      for w in images]
        argv = ["hom", "{file}", "--compose", ",".join(select)]
    argv += ["--format", "json"]
    if degree != 3:
        argv += ["--max-degree", str(degree)]
    parity = hom_parity_ranks(len(src.gens), src.rels, len(tgt.gens),
                              tgt.rels, images)
    return Case(cid, argv, text, {"kind": "hom", "level": level,
                                  "parity": parity, "kahler": kahler,
                                  "fire": fire})


def wordtest_case(cid, genus, word_text, trivial):
    return Case(cid, ["surface", "wordtest", str(genus), word_text], None,
                {"kind": "wordtest", "trivial": trivial})


def surface_relator_text(g):
    return "".join("[a%d,a%d]" % (i + 1, g + i + 1) for i in range(g))


def touch_cases(rng, prefix, hom=True):
    """Light inputs in every pass, so that every module does some work in
    every workload: analyze and ext on the Heisenberg group and, unless the
    workload has its own homs, the identity of the genus-2 surface group,
    verified exactly."""
    heis = heisenberg(1, 3, central=True)
    h = renamed(heis[0], rng)
    cases = [analyze_case(prefix + "touch.analyze", h, heis[1]),
             ext_case(prefix + "touch.ext", h, heis[1])]
    if hom:
        g2 = renamed(surface(2, 3)[0], rng)
        ident = [gen(i) for i in range(4)]
        cases.append(hom_case(prefix + "touch.hom", [g2],
                              {"id": (g2, g2, ident)}, "id", EXACT, True, (),
                              degree=2))
    return cases


# ---------------------------------------------------------------------------
# workloads


CORPUS = {  # hand-written answers for the shipped group files
    "gamma2.grp": lambda: surface(2, 3),
    "heisenberg.grp": lambda: heisenberg(1, 3),
    "heisenberg_rank5.grp": lambda: heisenberg(2, 3),
    "intro_g2.grp": lambda: circle_bundle(2, 1, 3),
    "torsion_order2.grp": lambda: torsion_extension(2),
    "z4.grp": lambda: free_abelian(4, 3),
}


def corpus_files(root):
    """The shipped group files with their answers; each must be known."""
    folder = os.path.join(root, "inputs")
    names = sorted(n for n in os.listdir(folder) if n.endswith(".grp"))
    unknown = [n for n in names if n not in CORPUS]
    if unknown:
        raise ValueError("no answers for corpus files %s" % unknown)
    out = []
    for n in names:
        with open(os.path.join(folder, n)) as fh:
            out.append((n, fh.read(), CORPUS[n]()))
    return out


def battery_corpus(rng, prefix, corpus):
    """The corpus files and every generated group in four presentations,
    through analyze and, with central generators, ext.  Of the 115 slots
    about 75 cost under 25 ms on a 2-vCPU machine, 16 (products with Z^2,
    the genus-3 circle bundle, the genus-4 surface group and Z^6) cost
    35-70 ms and the four genus-4 circle bundles cost most, so that p50
    falls inside the first group and p90 inside the second."""
    cases = []
    tag = _tag(rng)
    for fname, text, (grp, facts) in corpus:
        # a new group name per pass keeps every input distinct
        text = text.replace("group %s" % text.split()[1],
                            "group %s%s" % (text.split()[1], tag), 1)
        cid = prefix + "corpus." + fname
        cases.append(replace(analyze_case(cid, grp, facts), text=text))
        if grp.central:
            cases.append(replace(ext_case(cid + ".ext", grp, facts),
                                 text=text))
    bases = [surface(g, 3) for g in (2, 3, 4)]
    bases += [circle_bundle(g, rng.choice((1, 2, 3)) * rng.choice((1, -1)),
                            3) for g in (2, 3, 4)]
    bases += [circle_bundle(2, 0, 3), heisenberg(1, 3, central=True),
              heisenberg(2, 3)]
    bases += [free_abelian(n, 3) for n in (2, 3, 4, 6)]
    bases += [product(surface(2, 3), free_abelian(2, 3)),
              product(free_abelian(2, 3), heisenberg(1, 3))]
    bases += [torsion_extension(k) for k in (2, 3, 4)]
    for grp, facts in bases:
        for vname, variant in VARIANTS:
            g = renamed(variant(grp, rng), rng)
            cid = "%s%s.%s" % (prefix, grp.name, vname)
            cases.append(analyze_case(cid, g, facts))
            if g.central:
                cases.append(ext_case(cid + ".ext", g, facts))
    return cases + touch_cases(rng, prefix)


# Slot lists below are chosen by cost so that the median and the 90th
# percentile of a pass's latencies fall inside a group of slots of equal
# cost, never on the boundary between two groups: then a quantile depends
# on many samples of alike inputs and not on which inputs the seed drew.


def malcev_deep(rng, prefix, corpus):
    """Six light slots, six alike ones (the genus-2 surface group at degree
    5), the seeded three-generator group (0.1-0.5 s, depending on its
    words), the central extension, four alike heavy ones (the rank-5
    Heisenberg group at degree 5) and the genus-2 surface group at degree 6,
    which needs a budget above its 5461 monomials."""
    cases = []
    for num_gens, kind, degree in ((2, "linear", 6), (2, "commutator", 6),
                                   (2, "mixed", 6), (3, "commutator", 5)):
        grp, facts = one_relator(rng, num_gens, kind, degree)
        cases.append(analyze_case("%s%s.d%d" % (prefix, grp.name, degree),
                                  renamed(grp, rng), facts, degree))
    heavy = [("gamma2.d5", surface(2, 5), 5, None, 6),
             ("intro_g2.d5", circle_bundle(2, 1, 5), 5, None, 1),
             ("heisenberg_rank5.d5", heisenberg(2, 5), 5, None, 4),
             ("gamma2.d6", surface(2, 6), 6, 6000, 1)]
    for name, (grp, facts), degree, budget, copies in heavy:
        for k in range(copies):
            cases.append(analyze_case("%s%s.%d" % (prefix, name, k),
                                      renamed(grp, rng), facts, degree,
                                      budget))
    return cases + touch_cases(rng, prefix)


def hom_battery(rng, prefix, corpus):
    """Six light slots, four alike ones with the genus-2 surface group as
    target, three alike ones with its product with Z^2 as target and the
    identity of that product."""
    g2 = renamed(surface(2, 3)[0], rng)
    z2 = free_abelian(2, 3)[0]
    prod = renamed(product((g2, Facts()), (z2, Facts()))[0], rng)
    ident4 = [gen(i) for i in range(4)]
    homs = {"proj": (prod, g2, ident4 + [[], []]),
            "incl": (g2, prod, ident4),
            "id": (prod, prod, [gen(i) for i in range(6)])}
    cases = []
    for sel, level in (("proj", EXACT), (["proj", "incl"], EXACT),
                       (["proj", "id"], EXACT), ("incl", NILPOTENT),
                       (["incl", "proj"], NILPOTENT),
                       (["incl", "proj", "incl"], NILPOTENT),
                       ("id", NILPOTENT)):
        name = sel if isinstance(sel, str) else "_".join(sel)
        cases.append(hom_case(prefix + "product." + name, [prod, g2], homs,
                              sel, level, True, ()))
    cases.append(hom_case(prefix + "identity.gamma2", [g2],
                          {"id": (g2, g2, ident4)}, "id", EXACT, True, ()))
    heis = renamed(heisenberg(1, 3)[0], rng)
    cases.append(hom_case(prefix + "identity.heisenberg", [heis],
                          {"id": (heis, heis, [gen(i) for i in range(3)])},
                          "id", NILPOTENT, None, ()))
    # maps into central elements: strictness fails at level 2
    free2 = renamed(Group("F2", ["s", "t"], []), rng)
    ab2 = renamed(free_abelian(2, 3)[0], rng)
    for src in (free2, ab2):
        images = [gen(0, rng.choice((1, 2, 3))),
                  gen(2, rng.choice((1, 2, 3)) * rng.choice((1, -1)))]
        cases.append(hom_case(prefix + "central." + src.name.split("_")[0],
                              [src, heis], {"c": (src, heis, images)}, "c",
                              NILPOTENT, False, ("lcs_strictness",)))
    # a map into the derived subgroup with a nonzero degree-2 part: the
    # images are commutators of powers of distinct generators
    images = []
    for _ in range(2):
        i, j = rng.sample(range(4), 2)
        images.append(comm(gen(i, rng.choice((1, 2))),
                           gen(j, rng.choice((1, -1)))))
    cases.append(hom_case(prefix + "derived.surface2", [free2, g2],
                          {"d": (free2, g2, images)}, "d", EXACT, False,
                          ("derived_image",)))
    return cases + touch_cases(rng, prefix, hom=False)


def _relator_conjugates(rng, g, count, conj_len):
    """Letters of a product of conjugates of the surface relator and its
    inverse: trivial in the genus-g surface group."""
    rel = []
    for i in range(g):
        rel += comm(gen(i), gen(g + i))
    w = []
    for _ in range(count):
        u = random_word(rng, 2 * g, conj_len)
        w += u + (rel if rng.random() < 0.5 else inverse(rel)) + inverse(u)
    return w


def _nested_commutator(rng, g, depth):
    """Text of a nested commutator whose innermost brackets pair distinct
    generators, with powers up to 50 at the leaves."""
    if depth == 1:
        i, j = rng.sample(range(1, 2 * g + 1), 2)
        return "[a%d^%d,a%d^%d]" % (i, rng.randint(1, 50), j,
                                    rng.randint(1, 50) * rng.choice((1, -1)))
    return "[%s,%s]" % (_nested_commutator(rng, g, depth - 1),
                        _nested_commutator(rng, g, depth - 1))


def long_words(rng, prefix, corpus):
    """Per genus 2 and 3: cheap parses and Dehn runs on a few thousand
    letters, long powers, and homs verified by Dehn's algorithm."""
    cases = []
    for g in (2, 3):
        names = ["a%d" % (i + 1) for i in range(2 * g)]
        rel = surface_relator_text(g)
        p = "%sg%d." % (prefix, g)
        x = rng.randrange(1, 2 * g + 1)
        cases.append(wordtest_case(p + "power2000", g, "a%d^2000 %s"
                                   % (x, rel), False))
        cases.append(wordtest_case(p + "power1000.conjugate", g,
                                   "a%d^1000 %s a%d^-1000" % (x, rel, x),
                                   True))
        nest = _nested_commutator(rng, g, 4)
        cases.append(wordtest_case(p + "nested.times_generator", g,
                                   "%s a%d" % (nest, x), False))
        triv = _relator_conjugates(rng, g, 40, 30)
        cases.append(wordtest_case(p + "conjugates", g,
                                   render(triv, names), True))
        cases.append(wordtest_case(p + "conjugates.times_generator", g,
                                   render(triv + gen(x - 1), names), False))
        while True:  # nonzero exponent sums certify nontriviality
            w = random_word(rng, 2 * g, 3000)
            if any(exp_vector(w, 2 * g)):
                break
        cases.append(wordtest_case(p + "random", g, render(w, names), False))
        # homs verified exactly with Dehn's algorithm on long images
        sg = renamed(surface(g, 3)[0], rng)
        padded = [gen(i) + _relator_conjugates(rng, g, 4, 20)
                  for i in range(2 * g)]
        cases.append(hom_case(p + "hom.identity", [sg],
                              {"id": (sg, sg, padded)}, "id", EXACT, True,
                              (), degree=2))
        if g == 2:
            cases.append(wordtest_case(p + "nested.conjugate", g,
                                       "%s %s (%s)^-1" % (nest, rel, nest),
                                       True))
            ab2 = renamed(free_abelian(2, 3)[0], rng)
            cyc = [gen(0, rng.randint(1, 9))
                   + _relator_conjugates(rng, g, 4, 20) for _ in range(2)]
            cases.append(hom_case(p + "hom.cyclic", [ab2, sg],
                                  {"c": (ab2, sg, cyc)}, "c", EXACT, False,
                                  ("h1_parity",), degree=2))
    return cases + touch_cases(rng, prefix, hom=False)


BUILDERS = {"battery_corpus": battery_corpus, "malcev_deep": malcev_deep,
            "hom_battery": hom_battery, "long_words": long_words}


def make_pass(workload, seed, index, corpus):
    """The inputs of one pass; the same arguments give the same inputs."""
    rng = random.Random("%s:%d:%d" % (workload, seed, index))
    return BUILDERS[workload](rng, "p%d." % index, corpus)


def warmup_cases(seed):
    """Light inputs run untimed before the first pass."""
    return touch_cases(random.Random("warmup:%d" % seed), "warmup.")

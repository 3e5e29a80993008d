"""Free-group words, finite presentations, homomorphisms, and the text
format the command line tool reads.

Words are freely reduced sequences of (generator index, sign) letters.
Relators are additionally stored cyclically reduced: cyclic words are what
Dehn's algorithm consumes, and everywhere else only the normal closure
matters, which cyclic reduction does not change.

Because the word problem is undecidable in general, a homomorphism carries
a record of what was actually checked (nothing, abelianization, class-c
nilpotent quotient, or an exact decision procedure) instead of a blanket
claim of validity.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from itertools import groupby

from .intlinalg import IntMatrix, smith_normal_form

# verification levels, weakest to strongest
UNVERIFIED = "unverified"
IN_ABELIANIZATION = "verified-in-abelianization"
IN_NILPOTENT = "verified-in-nilpotent-quotient"
EXACT = "verified-exactly"

_LEVEL_ORDER = {UNVERIFIED: 0, IN_ABELIANIZATION: 1, IN_NILPOTENT: 2, EXACT: 3}

_RESERVED = {"group", "hom", "gens", "rels", "central"}
DEFAULT_DIM_BUDGET = 5000  # basis monomials of a truncated quotient algebra
_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


class ParseError(ValueError):
    def __init__(self, message, line, col):
        super().__init__("line %d, column %d: %s" % (line, col, message))
        self.line = line
        self.col = col


class InternalError(RuntimeError):
    """An internal consistency check failed: a bug, not bad input."""


class VerificationError(ValueError):
    """A relator image failed the requested triviality check, or the
    requested level has no decision procedure for the target."""

    def __init__(self, message, relator_index=None, witness=None):
        super().__init__(message)
        self.relator_index = relator_index
        self.witness = witness


def free_reduce(letters):
    """Freely reduce a raw letter sequence into a Word.

    >>> free_reduce([(0, 1), (0, -1), (1, 1)]).letters
    ((1, 1),)
    >>> free_reduce([(0, 1), (1, 1), (1, -1), (0, -1)]).is_identity()
    True
    """
    stack = []
    for g, e in letters:
        if e not in (1, -1):
            raise ValueError("letter exponent must be +1 or -1")
        if stack and stack[-1] == (g, -e):
            stack.pop()
        else:
            stack.append((g, e))
    return Word(tuple(stack))


def _extend_reduced(stack, letters):
    """Append a freely reduced letter sequence to a freely reduced list:
    only the letters meeting at the junction can cancel."""
    k = 0
    while k < len(letters) and stack and \
            stack[-1] == (letters[k][0], -letters[k][1]):
        stack.pop()
        k += 1
    stack.extend(letters[k:])


def _inverse_letters(letters):
    inverse = {x: (x[0], -x[1]) for x in set(letters)}
    return tuple(map(inverse.__getitem__, reversed(letters)))


def _cancelling_ends(letters):
    """Number of letters at each end that cyclic reduction removes: the
    i-th letter cancels against the i-th from the end."""
    i, j = 0, len(letters) - 1
    while i < j and letters[i] == (letters[j][0], -letters[j][1]):
        i += 1
        j -= 1
    return i


@dataclass(frozen=True)
class Generator:
    name: str
    index: int


@dataclass(frozen=True)
class Word:
    """Freely reduced word; the empty tuple is the identity."""

    letters: tuple = ()

    def __post_init__(self):
        for (g, e), (h, f) in zip(self.letters, self.letters[1:]):
            if g == h and e == -f:
                raise ValueError("word is not freely reduced")

    def is_identity(self):
        return not self.letters

    def __len__(self):
        return len(self.letters)

    def __mul__(self, other):
        letters = list(self.letters)
        _extend_reduced(letters, other.letters)
        return Word(tuple(letters))

    def inverse(self):
        return Word(_inverse_letters(self.letters))

    def __pow__(self, n):
        """w^n = p c^n p^-1 for w = p c p^-1 with c cyclically reduced:
        the copies of c meet without cancelling."""
        if n == 0:
            return Word()
        ls = self.letters if n > 0 else _inverse_letters(self.letters)
        k = _cancelling_ends(ls)
        return Word(ls[:k] + ls[k:len(ls) - k] * abs(n) + ls[len(ls) - k:])

    def conjugated_by(self, w):
        """w * self * w^-1."""
        return w * self * w.inverse()

    def cyclically_reduced(self):
        k = _cancelling_ends(self.letters)
        return Word(self.letters[k:len(self.letters) - k]) if k else self

    def exponent_vector(self, num_gens):
        vec = [0] * num_gens
        for g, e in self.letters:
            vec[g] += e
        return vec

    def syllables(self):
        """Run-length form [(generator index, signed exponent), ...]."""
        return [(g, e * len(list(run)))
                for (g, e), run in groupby(self.letters)]


def commutator(u, v):
    letters = list(u.letters)
    for part in (v.letters, _inverse_letters(u.letters),
                 _inverse_letters(v.letters)):
        _extend_reduced(letters, part)
    return Word(tuple(letters))


@dataclass(frozen=True)
class Presentation:
    """Finitely presented group: named generators plus relator words.

    ``_memo`` keeps what is derived from it (Smith form, cup report,
    quotient algebras) so each is built once; equality, hashing and
    ``dataclasses.replace`` ignore it.
    """

    generators: tuple
    relators: tuple
    name: str = "G"
    _memo: dict = field(default_factory=dict, init=False, repr=False,
                        compare=False)

    @property
    def num_generators(self):
        return len(self.generators)

    @property
    def generator_names(self):
        return tuple(g.name for g in self.generators)

    def gen_index(self, name):
        for g in self.generators:
            if g.name == name:
                return g.index
        raise KeyError("no generator named %r" % name)

    def exponent_matrix(self):
        """Relators-by-generators matrix of exponent sums."""
        return IntMatrix(
            len(self.relators), self.num_generators,
            [r.exponent_vector(self.num_generators) for r in self.relators])

    def same_presentation(self, other):
        """Equality ignoring the display name."""
        return (self.generator_names == other.generator_names
                and self.relators == other.relators)


def _exponent_snf(p):
    """Smith form of p's exponent matrix, built once per presentation."""
    if "snf" not in p._memo:
        p._memo["snf"] = smith_normal_form(p.exponent_matrix())
    return p._memo["snf"]


def _trivial_in_h1(p, vec):
    """Is the exponent vector vec zero in H1 of p, i.e. in the row lattice
    of the exponent matrix?  A zero vector never needs the Smith form."""
    return not any(vec) or _exponent_snf(p).in_row_lattice(vec)


def build_presentation(names, relators, name="G"):
    """Build a Presentation from generator names and letter sequences.

    Relators may be Words or raw letter lists; they are freely and
    cyclically reduced here.
    """
    names = list(names)
    seen = set()
    for n in names:
        if not _NAME_RE.match(n) or n in _RESERVED:
            raise ValueError("bad generator name %r" % n)
        if n in seen:
            raise ValueError("duplicate generator name %r" % n)
        seen.add(n)
    gens = tuple(Generator(n, i) for i, n in enumerate(names))
    rels = []
    for r in relators:
        w = r if isinstance(r, Word) else free_reduce(r)
        for g, _ in w.letters:
            if not 0 <= g < len(names):
                raise ValueError("relator uses generator index %d" % g)
        rels.append(w.cyclically_reduced())
    return Presentation(generators=gens, relators=tuple(rels), name=name)


@dataclass(frozen=True)
class GroupHom:
    """Homomorphism given by one target word per source generator.

    ``level`` records the strongest completed check that every source
    relator maps to the identity; ``nilpotency_class`` qualifies the
    nilpotent-quotient level.
    """

    source: Presentation
    target: Presentation
    images: tuple
    level: str = UNVERIFIED
    nilpotency_class: int = 0
    name: str = "h"

    def __post_init__(self):
        if len(self.images) != self.source.num_generators:
            raise ValueError("need one image per source generator")

    def apply_to(self, word):
        letters = []
        for g, e in word.letters:
            img = self.images[g].letters
            _extend_reduced(letters, img if e > 0 else _inverse_letters(img))
        return Word(tuple(letters))

    def induced_h1_matrix(self):
        """Source-generators by target-generators exponent sums."""
        return IntMatrix.from_rows(
            [img.exponent_vector(self.target.num_generators)
             for img in self.images])

    def at_least(self, level, nilpotency_class=0):
        if _LEVEL_ORDER[self.level] > _LEVEL_ORDER[level]:
            return True
        if _LEVEL_ORDER[self.level] < _LEVEL_ORDER[level]:
            return False
        if level == IN_NILPOTENT:
            return self.nilpotency_class >= nilpotency_class
        return True


def compose(outer, inner, name=None):
    """outer after inner; the composite starts unverified."""
    if not inner.target.same_presentation(outer.source):
        raise ValueError("homs do not compose: middle presentations differ")
    images = tuple(outer.apply_to(img) for img in inner.images)
    return GroupHom(source=inner.source, target=outer.target, images=images,
                    name=name or ("%s*%s" % (outer.name, inner.name)))


# ---------------------------------------------------------------------------
# target classification for exact verification


def is_free_presentation(p):
    return not p.relators


def free_abelian_rank(p):
    """Rank n if p is visibly Z^n (all generator pairs commute via
    commutator relators and nothing else), else None."""
    n = p.num_generators
    needed = {(i, j) for i in range(n) for j in range(i + 1, n)}
    for r in p.relators:
        pair = _commutator_pair(r)
        if pair is None:
            return None
        needed.discard(pair)
    if needed:
        return None
    return n


def _commutator_pair(word):
    """If word is a commutator of two distinct generators (up to rotation
    and inversion), the sorted index pair; else None."""
    ls = word.letters
    if len(ls) != 4:
        return None
    (a, ea), (b, eb), (c, ec), (d, ed) = ls
    if a == c and b == d and a != b and ea == -ec and eb == -ed:
        return (min(a, b), max(a, b))
    return None


def _surface_relator(g):
    """The letters of [a_1, a_{g+1}] ... [a_g, a_{2g}], a cyclic word.

    >>> _surface_relator(1)
    ((0, 1), (1, 1), (0, -1), (1, -1))
    """
    return tuple(letter for i in range(g)
                 for letter in ((i, 1), (g + i, 1), (i, -1), (g + i, -1)))


def surface_genus(p):
    """Genus g if p is the standard one-relator surface presentation
    [a1, a_{g+1}] ... [a_g, a_{2g}], else None."""
    n = p.num_generators
    if n == 0 or n % 2 or len(p.relators) != 1:
        return None
    g = n // 2
    return g if p.relators[0].letters == _surface_relator(g) else None


def verify_hom(h, level, nilpotency_class=0, dim_budget=DEFAULT_DIM_BUDGET):
    """Check every source relator maps to the identity at the requested
    level, returning the hom annotated with the achieved level.

    Levels: abelianization (always decidable, integer linear algebra),
    class-c nilpotent quotient (rational Magnus quotient within the basis
    budget dim_budget, raising BudgetExceededError beyond it; the integral
    abelianization check is included so levels stay totally ordered), and
    exact, when the target has a word-problem decision procedure here:
    free groups (free reduction), visibly free abelian groups (exponent
    sums), and standard surface groups of genus >= 2 (Dehn's algorithm).

    Raises VerificationError on the first failing relator, or when exact
    verification is requested for an unsupported target.
    """
    if level not in (IN_ABELIANIZATION, IN_NILPOTENT, EXACT):
        raise ValueError("unknown verification level %r" % level)
    if level == IN_NILPOTENT and nilpotency_class < 1:
        raise ValueError("nilpotency class must be >= 1")
    relator_images = [h.apply_to(r) for r in h.source.relators]

    if level == EXACT:
        check = _exact_triviality_checker(h.target)
        for idx, w in enumerate(relator_images):
            if not check(w):
                raise VerificationError(
                    "relator %d maps to a nontrivial element" % idx,
                    relator_index=idx, witness=w)
        return replace(h, level=EXACT, nilpotency_class=0)

    _check_abelianization(h, relator_images)
    if level == IN_ABELIANIZATION:
        if h.at_least(IN_ABELIANIZATION):
            return h
        return replace(h, level=IN_ABELIANIZATION, nilpotency_class=0)

    # class-c nilpotent quotient, over Q, on top of the integral H1 check
    from .lieranks import build_quotient_algebra
    alg = build_quotient_algebra(h.target, nilpotency_class, dim_budget)
    for idx, w in enumerate(relator_images):
        if not alg.element_is_trivial(w):
            raise VerificationError(
                "relator %d is nontrivial in the class-%d nilpotent quotient"
                % (idx, nilpotency_class),
                relator_index=idx, witness=w)
    if h.at_least(IN_NILPOTENT, nilpotency_class):
        return h
    return replace(h, level=IN_NILPOTENT, nilpotency_class=nilpotency_class)


def _check_abelianization(h, relator_images):
    n = h.target.num_generators
    for idx, w in enumerate(relator_images):
        if not _trivial_in_h1(h.target, w.exponent_vector(n)):
            raise VerificationError(
                "relator %d is nontrivial in the target abelianization" % idx,
                relator_index=idx, witness=w)


def _exact_triviality_checker(target):
    if is_free_presentation(target):
        return lambda w: w.is_identity()
    if free_abelian_rank(target) is not None:
        n = target.num_generators
        return lambda w: all(v == 0 for v in w.exponent_vector(n))
    g = surface_genus(target)
    if g is not None and g >= 2:
        from .surface import dehn_trivial
        return lambda w: dehn_trivial(g, w)
    raise VerificationError(
        "no word-problem decision procedure for target %r" % target.name)


# ---------------------------------------------------------------------------
# parsing


@dataclass(frozen=True)
class GroupBlock:
    presentation: Presentation
    central_names: tuple = ()


@dataclass
class ParsedFile:
    groups: dict = field(default_factory=dict)
    homs: dict = field(default_factory=dict)


_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<int>-?\d+)"
    r"|(?P<arrow>->)"
    r"|(?P<maps>=>)"
    r"|(?P<punct>[{}()\[\]^,;:])")


def _tokenize(text):
    tokens = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError("unexpected character %r" % text[pos], line, col)
        kind = m.lastgroup
        value = m.group()
        if kind != "ws":
            tokens.append((kind, value, line, col))
        newlines = value.count("\n")
        if newlines:
            line += newlines
            col = len(value) - value.rfind("\n")
        else:
            col += len(value)
        pos = m.end()
    return tokens


_MAX_WORD_NESTING = 64
_MAX_WORD_LETTERS = 1_000_000  # letters the words of one input may hold


class _Parser:
    def __init__(self, text):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0
        self.letters = 0  # in the finished top-level words

    def check_letters(self, total, line, col):
        if self.letters + total > _MAX_WORD_LETTERS:
            raise ParseError("word longer than %d letters, counting the "
                             "words before it" % _MAX_WORD_LETTERS, line, col)

    def peek(self):
        if self.pos < len(self.tokens):
            return self.tokens[self.pos]
        return ("eof", "", -1, -1)

    def next(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def error(self, message):
        kind, value, line, col = self.peek()
        if kind == "eof":
            if self.tokens:
                _, value, line, col = self.tokens[-1]
                raise ParseError(message + " (at end of input)", line, col)
            raise ParseError(message + " (empty input)", 1, 1)
        raise ParseError(message, line, col)

    def expect(self, kind, value=None):
        tok = self.peek()
        if tok[0] != kind or (value is not None and tok[1] != value):
            want = value if value is not None else kind
            self.error("expected %r, found %r" % (want, tok[1]))
        return self.next()

    # word := term+ ; term := NAME ('^' INT)? | '(' word ')' ('^' INT)?
    #                       | '[' word ',' word ']' | '1'
    def parse_word(self, gen_index):
        self.depth += 1
        if self.depth > _MAX_WORD_NESTING:
            self.error("word nesting deeper than %d" % _MAX_WORD_NESTING)
        word = self._parse_word_body(gen_index)
        self.depth -= 1
        if not self.depth:
            self.letters += len(word)
        return word

    def _parse_word_body(self, gen_index):
        letters = []  # freely reduced so far
        first = True
        while True:
            kind, value, line, col = self.peek()
            if kind == "name" and value not in _RESERVED:
                self.next()
                if value not in gen_index:
                    raise ParseError("unknown generator %r" % value, line, col)
                term = self._maybe_power(((gen_index[value], 1),))
            elif kind == "punct" and value == "(":
                self.next()
                inner = self.parse_word(gen_index)
                self.expect("punct", ")")
                term = self._maybe_power(inner.letters)
            elif kind == "punct" and value == "[":
                self.next()
                u = self.parse_word(gen_index)
                self.expect("punct", ",")
                v = self.parse_word(gen_index)
                self.check_letters(2 * (len(u) + len(v)), line, col)
                self.expect("punct", "]")
                term = commutator(u, v).letters
            elif kind == "int" and value == "1":
                self.next()
                term = ()
            elif first:
                self.error("expected a word")
            else:
                break
            self.check_letters(len(letters) + len(term), line, col)
            _extend_reduced(letters, term)
            first = False
        return Word(tuple(letters))

    def _maybe_power(self, base):
        """The letters of a freely reduced base, raised to the exponent
        that follows, if one does."""
        kind, value, _, _ = self.peek()
        if kind == "punct" and value == "^":
            self.next()
            _, text, line, col = self.expect("int")
            n = int(text)
            self.check_letters(len(base) * abs(n), line, col)
            return (Word(base) ** n).letters
        return base

    def parse_group_body(self, name):
        """gens: ... ; rels: ... ; (central: ... ;)?"""
        self.expect("name", "gens")
        self.expect("punct", ":")
        gen_tokens = []
        gen_names = []
        tok = self.expect("name")
        gen_tokens.append(tok)
        gen_names.append(tok[1])
        while self.peek()[:2] == ("punct", ","):
            self.next()
            tok = self.expect("name")
            gen_tokens.append(tok)
            gen_names.append(tok[1])
        self.expect("punct", ";")
        seen = set()
        for kind, value, line, col in gen_tokens:
            if value in _RESERVED:
                raise ParseError("reserved word %r used as generator" % value,
                                 line, col)
            if value in seen:
                raise ParseError("duplicate generator name %r" % value,
                                 line, col)
            seen.add(value)
        gen_index = {n: i for i, n in enumerate(gen_names)}

        self.expect("name", "rels")
        self.expect("punct", ":")
        relators = []
        if self.peek()[:2] != ("punct", ";"):
            relators.append(self.parse_word(gen_index))
            while self.peek()[:2] == ("punct", ","):
                self.next()
                relators.append(self.parse_word(gen_index))
        self.expect("punct", ";")

        central = []
        if self.peek()[:2] == ("name", "central"):
            self.next()
            self.expect("punct", ":")
            central_tokens = [self.expect("name")]
            while self.peek()[:2] == ("punct", ","):
                self.next()
                central_tokens.append(self.expect("name"))
            self.expect("punct", ";")
            for kind, value, line, col in central_tokens:
                if value not in gen_index:
                    raise ParseError("central clause names unknown generator %r"
                                     % value, line, col)
                if value in central:
                    raise ParseError("generator %r listed central twice" % value,
                                     line, col)
                central.append(value)

        pres = build_presentation(gen_names,
                            [r.cyclically_reduced() for r in relators],
                            name=name)
        return GroupBlock(presentation=pres, central_names=tuple(central))

    def parse_file(self):
        parsed = ParsedFile()
        while self.peek()[0] != "eof":
            kind, value, line, col = self.peek()
            if (kind, value) == ("name", "group"):
                self.next()
                name = self.expect("name")[1]
                if name in parsed.groups:
                    raise ParseError("group %r defined twice" % name, line, col)
                self.expect("punct", "{")
                block = self.parse_group_body(name)
                self.expect("punct", "}")
                parsed.groups[name] = block
            elif (kind, value) == ("name", "hom"):
                self.next()
                name = self.expect("name")[1]
                if name in parsed.homs:
                    raise ParseError("hom %r defined twice" % name, line, col)
                self.expect("punct", ":")
                src_tok = self.expect("name")
                self.expect("arrow")
                tgt_tok = self.expect("name")
                for tok in (src_tok, tgt_tok):
                    if tok[1] not in parsed.groups:
                        raise ParseError("hom references undefined group %r"
                                         % tok[1], tok[2], tok[3])
                src = parsed.groups[src_tok[1]].presentation
                tgt = parsed.groups[tgt_tok[1]].presentation
                tgt_index = {n: i for i, n in enumerate(tgt.generator_names)}
                self.expect("punct", "{")
                assigned = {}
                while True:
                    gen_tok = self.expect("name")
                    if gen_tok[1] not in src.generator_names:
                        raise ParseError("%r is not a generator of %r"
                                         % (gen_tok[1], src.name),
                                         gen_tok[2], gen_tok[3])
                    if gen_tok[1] in assigned:
                        raise ParseError("image of %r given twice" % gen_tok[1],
                                         gen_tok[2], gen_tok[3])
                    self.expect("maps")
                    assigned[gen_tok[1]] = self.parse_word(tgt_index)
                    if self.peek()[:2] == ("punct", ","):
                        self.next()
                        continue
                    break
                self.expect("punct", "}")
                missing = [n for n in src.generator_names if n not in assigned]
                if missing:
                    raise ParseError("hom %r gives no image for %s"
                                     % (name, ", ".join(missing)), line, col)
                images = tuple(assigned[n] for n in src.generator_names)
                parsed.homs[name] = GroupHom(source=src, target=tgt,
                                             images=images, name=name)
            else:
                self.error("expected 'group' or 'hom'")
        return parsed


def parse_file(text):
    """Parse a full input file: group and hom blocks in any order, homs
    referring to previously defined groups."""
    return _Parser(text).parse_file()


def parse_presentation(text):
    """Parse a single presentation.

    Accepts either a full ``group NAME { ... }`` block or the bare body
    ``gens: ...; rels: ...;``.
    """
    parser = _Parser(text)
    if parser.peek()[:2] == ("name", "gens"):
        block = parser.parse_group_body("G")
        if parser.peek()[0] != "eof":
            parser.error("trailing input after presentation")
        return block.presentation
    parsed = parser.parse_file()
    if parsed.homs or len(parsed.groups) != 1:
        raise ValueError("expected exactly one group block")
    (block,) = parsed.groups.values()
    return block.presentation


def parse_word_in(p, text):
    """Parse a word over the generators of an existing presentation."""
    parser = _Parser(text)
    gen_index = {n: i for i, n in enumerate(p.generator_names)}
    word = parser.parse_word(gen_index)
    if parser.peek()[0] != "eof":
        parser.error("trailing input after word")
    return word


def word_str(p, word):
    """Render a word over p's generator names, powers condensed."""
    if word.is_identity():
        return "1"
    names = p.generator_names
    parts = []
    for g, e in word.syllables():
        name = names[g]
        parts.append(name if e == 1 else "%s^%d" % (name, e))
    return " ".join(parts)


def serialize_presentation(p, central_names=()):
    """Canonical file form; parse(serialize(p)) recovers p exactly."""
    lines = ["group %s {" % p.name]
    lines.append("  gens: %s;" % ", ".join(p.generator_names))
    lines.append("  rels: %s;" % ", ".join(word_str(p, r) for r in p.relators))
    if central_names:
        lines.append("  central: %s;" % ", ".join(central_names))
    lines.append("}")
    return "\n".join(lines) + "\n"

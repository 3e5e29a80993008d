"""Span tracer that wraps kahlercheck from the outside.

install() replaces every public function of the package's modules, at its
module attribute and at every alias another module imported with
``from ... import``, by a wrapper that records a span (name, start, end,
parent, input id).  It also wraps the QSpace methods, the algebra
constructor and SparseEchelon.insert.  uninstall() puts the originals back.
Spans stay in memory until write() dumps them as JSON lines.

Self time is a span's duration minus the time its child spans cover.
Helpers called once per word or letter are not wrapped, so their time stays
with the caller; SparseEchelon.insert is only counted, so echelon work stays
in the algebra constructor's self time.
"""

import functools
import inspect
import json
from collections import Counter, defaultdict
from time import perf_counter

MODULES = ("cli", "presentation", "homology", "intlinalg", "lieranks",
           "extensions", "surface")

# per-word helpers: wrapping them would move time out of their callers
UNWRAPPED = {"free_reduce", "commutator", "word_str", "is_free_presentation",
             "free_abelian_rank", "surface_genus", "A_mul_frac",
             "one_cocycle"}


def _canonical_seeds(seeds):
    return tuple(tuple(sorted(s.coeffs.items())) for s in seeds)


class Tracer:
    def __init__(self, package):
        self.package = package
        self.modules = [getattr(package, m) for m in MODULES]
        self.spans = []           # (name, start, end, parent index, input id)
        self.counts = Counter()
        self._stack = []
        self._input = None
        self._seen = defaultdict(set)
        self._patches = []        # (owner, attribute, original)

    # -- bookkeeping --------------------------------------------------------

    def begin_input(self, input_id):
        """Spans and repeat keys recorded from now on belong to input_id."""
        self._input = input_id
        self._seen = defaultdict(set)

    def _repeat(self, kind, key):
        self.counts[kind + ".calls"] += 1
        if key in self._seen[kind]:
            self.counts[kind + ".repeats"] += 1
        else:
            self._seen[kind].add(key)

    def _wrap(self, name, fn, before=None, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            idx = len(tracer.spans)
            tracer.spans.append(None)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer._stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer._stack.pop()
                tracer.spans[idx] = (name, start, end, parent, tracer._input)
            if after is not None:
                after(args, kwargs, result)
            return result
        return wrapper

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, inspect.getattr_static(owner,
                                                                  attr)))
        setattr(owner, attr, value)

    # -- installation -------------------------------------------------------

    def install(self):
        hooks = self._hooks()
        namespaces = self.modules + [self.package]
        for mod in self.modules:
            short = mod.__name__.rsplit(".", 1)[1]
            for name, fn in list(vars(mod).items()):
                if (not inspect.isfunction(fn) or name.startswith("_")
                        or name in UNWRAPPED or fn.__module__ != mod.__name__):
                    continue
                before, after = hooks.get(name, (None, None))
                wrapped = self._wrap("%s.%s" % (short, name), fn, before,
                                     after)
                for ns in namespaces:
                    for alias, value in list(vars(ns).items()):
                        if value is fn:
                            self._patch(ns, alias, wrapped)
        self._install_methods()

    def _install_methods(self):
        intlinalg = self.package.intlinalg
        lieranks = self.package.lieranks
        qspace = intlinalg.QSpace
        count = self.counts

        def on_add(args, kwargs):
            count["qspace.adds"] += 1
        for attr, before in (("add", on_add), ("contains", None),
                             ("from_rows", None), ("intersection", None)):
            static = inspect.getattr_static(qspace, attr)
            fn = getattr(static, "__func__", static)
            wrapped = self._wrap("intlinalg.QSpace." + attr, fn, before)
            if isinstance(static, (staticmethod, classmethod)):
                wrapped = type(static)(wrapped)
            self._patch(qspace, attr, wrapped)

        insert = lieranks.SparseEchelon.insert

        def counted_insert(ech, vec):
            pivot = insert(ech, vec)
            count["echelon.inserts"] += 1
            if pivot is not None:
                count["echelon.useful"] += 1
            return pivot
        self._patch(lieranks.SparseEchelon, "insert", counted_insert)

        algebra = lieranks.TruncatedQuotientAlgebra
        signature = inspect.signature(algebra.__init__)

        def before_build(args, kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            a = bound.arguments
            if a["presentation"] is not None:
                key = ("presentation", a["presentation"], a["degree"])
            else:
                key = ("seeds", a["num_gens"], a["degree"],
                       _canonical_seeds(a["seeds"]))
            self._repeat("algebra", key)

        def after_build(args, kwargs, result):
            count["algebra.builds"] += 1
            count["algebra.monomials"] += args[0].table.total
        self._patch(algebra, "__init__",
                    self._wrap("lieranks.TruncatedQuotientAlgebra",
                               algebra.__init__, before_build, after_build))

    def _hooks(self):
        """Counters taken around particular functions: (before, after)."""
        count = self.counts

        def letters_of_file(args, kwargs, parsed):
            count["parse.letters"] += (
                sum(len(r) for b in parsed.groups.values()
                    for r in b.presentation.relators)
                + sum(len(w) for h in parsed.homs.values() for w in h.images))

        def letters_of_presentation(args, kwargs, p):
            count["parse.letters"] += sum(len(r) for r in p.relators)

        def letters_of_word(args, kwargs, word):
            count["parse.letters"] += len(word)

        def on_verify(args, kwargs):
            count["verify.calls"] += 1

        def on_snf(args, kwargs):
            self._repeat("snf", args[0])

        def on_cup(args, kwargs):
            self._repeat("cup", args[0])

        def on_dehn(args, kwargs):
            count["dehn.calls"] += 1
            count["dehn.letters"] += len(args[1])

        return {"parse_file": (None, letters_of_file),
                "parse_presentation": (None, letters_of_presentation),
                "parse_word_in": (None, letters_of_word),
                "verify_hom": (on_verify, None),
                "smith_normal_form": (on_snf, None),
                "cup_injectivity_check": (on_cup, None),
                "dehn_trivial": (on_dehn, None)}

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results ------------------------------------------------------------

    def self_times(self):
        """Total self time per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = Counter()
        for (name, start, end, _, _), covered in zip(self.spans, child):
            out[name] += end - start - covered
        return out

    def write(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent, input_id in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "input": input_id})
                         + "\n")

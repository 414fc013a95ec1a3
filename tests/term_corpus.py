"""Deterministic term corpora for the cross-validation suites.

Both generated corpora come from a fixed seed, so every run sees the
same terms.  The recursion corpus keeps Y at recursion types o and
o -> o, where random terms are cheap to reduce, and both converging and
diverging members are guaranteed by construction.  HIGHER_Y_CORPUS is a
fixed list that puts Y at W (the numeral type), o -> o -> o and
(o -> o) -> o, with converging and diverging members at each; W -> W is
left out because reducing the truncations of its terms is too slow for
the suite.  The bottoms corpus mixes discarding redexes (bottoms at
higher types that vanish during reduction), kept bottoms (improper
results) and plain redex-heavy pure terms.
"""

from __future__ import annotations

import random

from yflow.harness import extended_poly
from yflow.parser import parse_term
from yflow.printer import term_to_str
from yflow.terms import (
    App,
    Lam,
    OmegaConst,
    Term,
    Var,
    YConst,
    church_numeral,
    contains_omega,
    contains_y,
    y_types,
)
from yflow.types import GROUND, Arrow, type_to_str

SEED = 20260815

O = GROUND
OO = Arrow(O, O)
W = Arrow(OO, OO)  # ground numeral type

# Closed o -> o building blocks with known behavior.
_ENDO_LEAVES = [
    parse_term(r"\y:o. y"),
    parse_term(r"Y{o->o} (\f:o->o. \y:o. y)"),      # converges to the identity
    parse_term(r"Y{o->o} (\f:o->o. \y:o. f y)"),    # diverges
    parse_term(r"\x:o. Y{o} (\y:o. x)"),            # converges to the identity
    parse_term(r"\x:o. Y{o} (\y:o. y)"),            # ground recursion, diverges
]

HNF_NOT_NF_WITNESS = parse_term(r"\x:o->o. Y{o->o} (\f:o->o. \y:o. x (f y))")

# Y at S2 = S -> o, S = (o->o->o->o->o->o) -> o: height(S2) counts a domain
# far too large to enumerate, while a verdict forces arguments only from
# the 7,581-element domain at o->o->o->o->o->o.  The first converges, the
# second loops.  Term text, for the CLI tests too.
_S = "(o->o->o->o->o->o)->o"
WIDE_Y_CONVERGES = (rf"\x:o. Y{{({_S})->o}} (\f:({_S})->o. \h:{_S}. "
                    rf"h (\a:o. \b:o. \c:o. \d:o. \e:o. x))")
WIDE_Y_LOOPS = rf"\x:o. Y{{({_S})->o}} (\f:({_S})->o. \h:{_S}. f h)"

_HANDCRAFTED_Y = [
    parse_term(r"Y{o} (\x:o. x)"),
    parse_term(r"Y{o->o} (\f:o->o. \y:o. y)"),
    parse_term(r"Y{o->o} (\f:o->o. f)"),
    parse_term(r"\x:o. Y{o} (\y:o. x)"),
    parse_term(r"\g:o->o. Y{o} (\y:o. g y)"),
    parse_term(r"Y{o->o} (\f:o->o. \y:o. f (f y))"),
    parse_term(r"(\h:o->o. \x:o. h x) (Y{o->o} (\f:o->o. \y:o. y))"),
    HNF_NOT_NF_WITNESS,
]


_SPELLED = {name: f"({term_to_str(extended_poly(poly, O))})"
            for name, poly in [("IFZ", "ifzero"), ("SUCC", "succ"), ("ADD", "add")]}


def spell(text: str) -> Term:
    """Parse text in which W, IFZ, SUCC and ADD stand for the numeral type
    and the extended_poly combinators at o."""
    for name, combinator in _SPELLED.items():
        text = text.replace(name, combinator)
    return parse_term(text.replace("W", f"({type_to_str(W)})"))


HIGHER_Y_CORPUS = [spell(text) for text in [
    # at W
    r"Y{W} (\r:W. #2{o})",
    r"Y{W} (\r:W. ADD #1{o} #2{o})",
    r"Y{W} (\r:W. IFZ #0{o} #2{o} (SUCC r))",
    r"(\n:W. Y{W} (\r:W. IFZ n #3{o} r)) #0{o}",
    r"(\p:o->o->o. Y{W} (\r:W. #1{o})) (Y{o->o->o} (\f:o->o->o. f))",
    r"Y{W} (\r:W. r)",
    r"Y{W} (\r:W. SUCC r)",
    r"Y{W} (\r:W. IFZ #1{o} #2{o} (SUCC r))",
    r"(\n:W. Y{W} (\r:W. IFZ n #3{o} r)) #1{o}",
    # at o -> o -> o
    r"Y{o->o->o} (\f:o->o->o. \x:o. \y:o. x)",
    r"\a:o. Y{o->o->o} (\f:o->o->o. \x:o. \y:o. a)",
    r"Y{o->o->o} (\f:o->o->o. \x:o. \y:o. (\u:o. y) (f y x))",
    r"Y{o->o->o} (\f:o->o->o. \x:o. \y:o. f y x)",
    r"Y{o->o->o} (\f:o->o->o. f)",
    r"\h:o->o. Y{o->o->o} (\f:o->o->o. \x:o. \y:o. h (f y x))",
    # at (o -> o) -> o
    r"\z:o. Y{(o->o)->o} (\F:(o->o)->o. \g:o->o. g z)",
    r"\z:o. Y{(o->o)->o} (\F:(o->o)->o. \g:o->o. (\u:o. g z) (F g))",
    r"Y{(o->o)->o} (\F:(o->o)->o. F)",
    r"Y{(o->o)->o} (\F:(o->o)->o. \g:o->o. g (F g))",
    r"\z:o. Y{(o->o)->o} (\F:(o->o)->o. \g:o->o. F (\y:o. g z))",
]]


# The two anchor terms of the decide benchmark: nested3 nests Y{W->W} and
# has a head normal form but no normal form; swap3 swaps the arguments of
# Y{W->W->W} and has neither.
NESTED3 = spell(r"\n:W. Y{W->W} (\f:W->W. \x:W. Y{W->W} (\g:W->W. \y:W. "
                r"IFZ y (f x) (g (f y))) (IFZ x n (f (ADD x n)))) n")
_SWAP3_STEP = r"\f:W->W->W. \x:W. \y:W. IFZ x y (f y (SUCC x))"
SWAP3_STEP = spell(_SWAP3_STEP)
SWAP3 = spell(rf"Y{{W->W->W}} ({_SWAP3_STEP}) #2{{o}} #1{{o}}")


def _endo(rng: random.Random, depth: int) -> Term:
    """A closed term of type o -> o, possibly recursive, possibly divergent."""
    roll = rng.random()
    if depth <= 0 or roll < 0.25:
        return rng.choice(_ENDO_LEAVES)
    if roll < 0.45:
        return App(church_numeral(rng.randint(0, 3), O), _endo(rng, depth - 1))
    if roll < 0.62:
        f, g = _endo(rng, depth - 1), _endo(rng, depth - 1)
        return Lam("x", O, App(f, App(g, Var("x", O))))
    if roll < 0.78:
        wrapper = rng.choice([
            Lam("h", OO, Var("h", OO)),
            Lam("h", OO, Lam("x", O, App(Var("h", OO), Var("x", O)))),
            Lam("h", OO, rng.choice(_ENDO_LEAVES)),
        ])
        return App(wrapper, _endo(rng, depth - 1))
    if roll < 0.9:
        body = rng.choice([
            Lam("y", O, Var("y", O)),
            Lam("y", O, App(Var("f", OO), Var("y", O))),
        ])
        return App(YConst(OO), Lam("f", OO, body))
    inner = rng.choice([Lam("y", O, Var("x", O)), Lam("y", O, Var("y", O))])
    return Lam("x", O, App(YConst(O), inner))


def lambda_y_corpus(size: int = 220) -> list[Term]:
    """Closed terms with at least one Y, at recursion types o and o -> o."""
    rng = random.Random(SEED)
    out: list[Term] = []
    seen: set[Term] = set()

    def add(t: Term) -> None:
        if contains_y(t) and t not in seen:
            assert y_types(t) <= {O, OO}
            seen.add(t)
            out.append(t)

    for t in _HANDCRAFTED_Y:
        add(t)
    while len(out) < size:
        shape = rng.random()
        b = _endo(rng, rng.randint(1, 3))
        if shape < 0.5:
            t = b
        elif shape < 0.7:
            t = Lam("g", OO, App(church_numeral(rng.randint(0, 2), O), b))
        elif shape < 0.85:
            t = App(YConst(OO), Lam("f", OO, b))
        else:
            t = Lam("x", O, App(b, Var("x", O)))
        add(t)
    return out


_PURE_CLOSED = [
    parse_term(r"\y:o. y"),
    parse_term(r"#0{o}"),
    parse_term(r"#1{o}"),
    parse_term(r"#2{o}"),
    parse_term(r"#3{o}"),
    parse_term(r"\m:(o->o)->o->o. \f:o->o. \x:o. m f (f x)"),
    parse_term(r"\h:o->o. \x:o. h (h x)"),
]

_OMEGA_TYPES = [O, OO, Arrow(O, Arrow(O, O)), Arrow(OO, O), W]


def omega_corpus(size: int = 250) -> list[Term]:
    """Closed Y-free terms: discarding redexes over bottoms at assorted
    types, kept bottoms, and redex-heavy pure terms."""
    rng = random.Random(SEED + 1)
    out: list[Term] = []
    seen: set[Term] = set()

    def add(t: Term) -> None:
        if t not in seen:
            seen.add(t)
            out.append(t)

    def pure_endo(depth: int) -> Term:
        if depth <= 0 or rng.random() < 0.4:
            return parse_term(r"\y:o. y")
        f, g = pure_endo(depth - 1), pure_endo(depth - 1)
        return Lam("x", O, App(f, App(g, Var("x", O))))

    def discardable_at(ty, depth: int) -> Term:
        if rng.random() < 0.7:
            return OmegaConst(ty)
        if ty == OO:
            return pure_endo(depth)
        if ty == W:
            return church_numeral(rng.randint(0, 3), O)
        return OmegaConst(ty)

    def pure(depth: int) -> Term:
        if depth <= 0:
            return rng.choice(_PURE_CLOSED)
        roll = rng.random()
        if roll < 0.3:
            return App(church_numeral(rng.randint(0, 3), O), pure_endo(depth))
        if roll < 0.6:
            ty = rng.choice(_OMEGA_TYPES)
            return App(Lam("u", ty, pure(depth - 1)),
                       discardable_at(ty, depth - 1))
        return rng.choice(_PURE_CLOSED)

    while len(out) < size - 40:
        add(pure(rng.randint(1, 3)))
    kept_bottom = [
        parse_term(r"\f:o->o. Omega{o}"),
        parse_term(r"\f:o->o. f Omega{o}"),
        parse_term(r"\g:(o->o)->o. g (\y:o. Omega{o})"),
        parse_term(r"(\x:o. x) Omega{o}"),
        parse_term(r"Omega{(o->o)->o} (\y:o. y)"),
        parse_term(r"\f:o->o. \x:o. f (Omega{o->o} x)"),
        parse_term(r"Omega{((o->o)->o->o)->(o->o)->o->o} #2{o}"),
    ]
    for t in kept_bottom:
        add(t)
    while len(out) < size:
        base = rng.choice(kept_bottom)
        wrapper = Lam("w", OO, base)
        add(App(wrapper, pure_endo(rng.randint(0, 2))))
    return out


def constant_free_nf_subset(corpus: list[Term], minimum: int) -> list[Term]:
    """Members whose normal form mentions no bottom constant."""
    from yflow.analysis import has_normal_form

    picked = [t for t in corpus if has_normal_form(t).verdict]
    assert len(picked) >= minimum, f"only {len(picked)} constant-free members"
    return picked

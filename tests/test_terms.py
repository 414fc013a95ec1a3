"""Term core: alpha equality, constants, deep walks, and the substitution oracle."""

import pytest

from oracles import substitute
from term_corpus import HIGHER_Y_CORPUS
from yflow.analysis import truncation_depths
from yflow.parser import parse_term, parse_type
from yflow.printer import term_to_str
from yflow.terms import (
    App,
    Lam,
    OmegaConst,
    TypingError,
    Var,
    YConst,
    church_numeral,
    contains_omega,
    contains_y,
    free_vars,
    map_leaves,
    match_numeral,
    omega_tilde,
    omega_types,
    tilde_omega_map,
    type_of,
    y_tilde,
    y_truncate,
    y_types,
)
from yflow.types import GROUND, Arrow, arrow, numeral_type

O = GROUND
OO = Arrow(O, O)

# Five times the interpreter's default recursion limit, which these tests
# keep: no walker may spend a Python frame per nesting level.
DEEP = 5000


def test_alpha_equality_and_hash():
    a = parse_term(r"\x:o. x")
    b = parse_term(r"\y:o. y")
    assert a == b and hash(a) == hash(b)
    assert parse_term(r"\x:o. \y:o. x") != parse_term(r"\x:o. \y:o. y")


def test_alpha_equality_free_variables_by_name():
    a = parse_term(r"[z:o] \x:o. z")
    b = parse_term(r"[w:o] \x:o. w")
    assert a != b


def test_shadowing_distinguished():
    a = Lam("x", O, Lam("x", O, Var("x", O)))   # inner binder wins
    b = parse_term(r"\x:o. \y:o. y")
    c = parse_term(r"\x:o. \y:o. x")
    assert a == b and a != c


def test_type_of_checks_carried_annotations():
    bad = Lam("x", O, Var("x", OO))  # occurrence disagrees with binder
    with pytest.raises(TypingError):
        type_of(bad, {})


def test_type_of_constants():
    assert type_of(OmegaConst(OO), {}) == OO
    assert type_of(YConst(OO), {}) == Arrow(Arrow(OO, OO), OO)


def test_substitute_capture_avoidance():
    # [y/x] under a binder named y must rename the binder
    t = parse_term(r"[x:o] \y:o->o. y x")
    out = substitute(t, Var("x", O), Var("y", O), context={"y": O})
    assert out == parse_term(r"[y:o] \z:o->o. z y")
    assert out.var != "y"


def test_substitute_shares_what_it_leaves_unchanged():
    t = parse_term(r"[x:o, h:o->o->o, g:o->o] \y:o. h (g (g y)) x")
    untouched = t.body.fun.arg
    out = substitute(t, Var("x", O), Var("z", O), context={"z": O})
    assert out == parse_term(r"[z:o, h:o->o->o, g:o->o] \y:o. h (g (g y)) z")
    assert out.body.fun.arg is untouched
    assert substitute(t, Var("w", O), Var("z", O), context={"z": O}) is t
    # a renamed binder takes the first fresh name
    capture = parse_term(r"[x:o] \y:o->o. y x")
    assert substitute(capture, Var("x", O), Var("y", O), context={"y": O}).var == "y'"


def test_substitute_type_mismatch_rejected():
    t = parse_term(r"[x:o] x")
    with pytest.raises(TypingError):
        substitute(t, Var("x", O), parse_term(r"\y:o. y"))


def test_church_numeral_and_match():
    for m in (0, 1, 2, 7):
        t = church_numeral(m, O)
        assert type_of(t, {}) == parse_type("(o->o)->o->o")
        assert match_numeral(t) == (m, O)
    assert match_numeral(parse_term(r"\f:o->o. \x:o. x")) == (0, O)
    assert match_numeral(parse_term(r"\f:o->o. f")) is None
    assert match_numeral(parse_term(r"\f:o->o. \x:o. f")) is None


def test_match_numeral_shadowed_binders():
    # \f. \f. f is numeral 0 shape only if the two binders are read apart
    t = Lam("f", OO, Lam("f", O, Var("f", O)))
    assert match_numeral(t) == (0, O)


def test_omega_tilde_shape():
    ty = parse_type("(o->o)->o->o")
    t = omega_tilde(ty)
    assert term_to_str(t) == r"\x1:o -> o. \x2:o. Omega{o}"
    assert type_of(t, {}) == ty


def test_tilde_omega_map_leaves_ground_alone():
    t = parse_term(r"\f:o->o. f Omega{o}")
    assert tilde_omega_map(t) == t


def test_tilde_omega_map_expands_higher():
    t = parse_term(r"(\u:o->o. \v:o. v) Omega{o->o}")
    out = tilde_omega_map(t)
    assert omega_types(out) == {O}
    assert type_of(out, {}) == type_of(t, {})


def test_tilde_omega_map_rejects_y():
    with pytest.raises(ValueError):
        tilde_omega_map(parse_term(r"Y{o} (\x:o. x)"))


def test_y_tilde():
    t = y_tilde(2, OO)
    assert t == parse_term(r"\f:(o->o)->o->o. f (f Omega{o->o})")
    assert y_tilde(0, O) == parse_term(r"\f:o->o. Omega{o}")


def test_y_truncate_replaces_all_and_checks_depths():
    t = parse_term(r"\x:o. Y{o} (\y:o. x)")
    out = y_truncate(t, {O: 1})
    assert not contains_y(out) and contains_omega(out)
    with pytest.raises(ValueError):
        y_truncate(t, {OO: 1})  # depth for the wrong recursion type


def test_y_truncate_shares_one_truncation_per_recursion_type():
    t = parse_term(r"\g:o->o. Y{o->o} (\f:o->o. Y{o->o} (\h:o->o. f))")
    out = y_truncate(t, {OO: 3})
    first, second = out.body.fun, out.body.arg.body.fun
    assert first is second and first == y_tilde(3, OO)
    for t in HIGHER_Y_CORPUS:
        depths = truncation_depths(t)
        unshared = map_leaves(t, lambda s: y_tilde(depths[s.ty], s.ty)
                              if isinstance(s, YConst) else s)
        assert y_truncate(t, depths) == unshared


def test_y_types_and_omega_types():
    t = parse_term(r"\x:o->o. Y{o->o} (\f:o->o. \y:o. x (f y))")
    assert y_types(t) == {OO} and omega_types(t) == set()


def test_free_vars():
    t = parse_term(r"[f:o->o, x:o] f (f x)")
    assert free_vars(t) == {"f": OO, "x": O}


def _tower(base, f=Var("f", OO)):
    """f (f (... (f base))) with DEEP applications."""
    for _ in range(DEEP):
        base = App(f, base)
    return base


def test_deep_numeral_types_compares_and_hashes():
    t = church_numeral(DEEP, O)
    assert type_of(t, {}) == numeral_type(O)
    renamed = Lam("g", OO, Lam("y", O, _tower(Var("y", O), Var("g", OO))))
    assert t == renamed and hash(t) == hash(renamed)
    assert t != Lam("f", OO, Lam("x", O, _tower(OmegaConst(O))))


def test_deep_free_vars_and_substitute():
    body = _tower(Var("x", O))
    assert free_vars(body) == {"f": OO, "x": O}
    assert substitute(body, Var("x", O), OmegaConst(O)) == _tower(OmegaConst(O))
    # the binder x must be renamed, or the free x of the replacement is captured
    const_x = Lam("y", O, Var("x", O))
    out = substitute(Lam("x", O, body), Var("f", OO), const_x, context={"x": O})
    assert out.var != "x"
    assert out == Lam("z", O, _tower(Var("z", O), const_x))


def test_printing_nested_binder_pairs_builds_no_alpha_key(monkeypatch):
    import yflow.terms as terms

    t = Var("x", O)
    for _ in range(2000):
        t = Lam("f", OO, Lam("x", O, App(Var("g", OO), t)))
    calls = []
    real = terms._alpha_key
    monkeypatch.setattr(terms, "_alpha_key", lambda s: calls.append(s) or real(s))
    assert term_to_str(t).startswith(r"\f:o -> o. \x:o. g (\f:o -> o. ")
    assert calls == []


def test_deep_tilde_omega_map_and_y_truncate():
    def numeral_with_base(base):
        return Lam("f", OO, Lam("x", O, _tower(base)))

    t = numeral_with_base(App(OmegaConst(OO), Var("x", O)))
    want = numeral_with_base(App(Lam("x1", O, OmegaConst(O)), Var("x", O)))
    assert tilde_omega_map(t) == want
    t = numeral_with_base(App(App(YConst(OO), Var("g", Arrow(OO, OO))), Var("x", O)))
    t = Lam("g", Arrow(OO, OO), t)
    got = y_truncate(t, {OO: 2})
    want = Lam("g", Arrow(OO, OO), numeral_with_base(
        App(App(y_tilde(2, OO), Var("g", Arrow(OO, OO))), Var("x", O))))
    assert got == want and not contains_y(got)


def test_deep_printing():
    t = church_numeral(DEEP, O)
    assert term_to_str(t) == f"#{DEEP}{{o}}"
    spelled = "\\f:o -> o. \\x:o. " + "f (" * (DEEP - 1) + "f x" + ")" * (DEEP - 1)
    assert term_to_str(t, sugar=False) == spelled


def test_deep_print_parse_round_trip():
    with_constants = Lam("f", OO, _tower(App(YConst(O), Lam("y", O, OmegaConst(O)))))
    for t in (church_numeral(DEEP, O), with_constants):
        assert parse_term(term_to_str(t, sugar=False)) == t

"""Normalization by evaluation against normalization by rewriting.

assured_normalize and long_normal_form evaluate on a lazy machine and
read the value back; oracle_normalize contracts redexes one at a time,
and oracle_expand eta-expands the result head by head.  Both routes must
agree up to alpha equivalence on every corpus the suites use.
"""

import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import yflow.analysis as analysis
import yflow.terms as terms
from oracles import (
    all_names,
    oracle_eliminate,
    oracle_expand,
    oracle_is_long_shape,
    oracle_normalize,
)
from term_corpus import HIGHER_Y_CORPUS, lambda_y_corpus, omega_corpus, spell
from yflow.analysis import certified_normalize, has_normal_form
from yflow.harness import FunctionSpec, check_defines, conservativity_pipeline, extended_poly
from yflow.parser import parse_term, parse_type
from yflow.printer import term_to_str
from yflow.reduction import (
    BlackHoleError,
    assured_normalize,
    decode_numeral,
    eliminate_omega,
    enumerate_long_normal_forms,
    is_long_normal,
    long_normal_form,
    normalize,
)
from yflow.terms import App, Lam, Var, YConst, church_numeral, free_vars, type_of, y_truncate
from yflow.types import GROUND, Arrow

O = GROUND
OO = Arrow(O, O)


def _enumerated():
    return (enumerate_long_normal_forms(parse_type("(o->o)->o"), 9)
            + enumerate_long_normal_forms(parse_type("o->o->o"), 8))


def _with_normal_forms():
    """Every corpus member with a normal form: all Y-free ones, and the
    Y terms whose verdict is positive (none of them has a bottom)."""
    ys = [t for t in lambda_y_corpus() + HIGHER_Y_CORPUS if has_normal_form(t).verdict]
    return omega_corpus() + _enumerated() + ys


def test_assured_normalize_agrees_with_the_step_normalizer():
    members = _with_normal_forms()
    assert len(members) > 400
    for t in members:
        assert assured_normalize(t) == oracle_normalize(t), term_to_str(t)


def test_long_normal_form_agrees_with_expanding_the_step_normal_form():
    for t in omega_corpus() + _enumerated():
        ty = type_of(t, {})
        nf = oracle_normalize(t)
        lnf = long_normal_form(t)
        assert lnf == oracle_expand(nf, ty, set(all_names(nf))), term_to_str(t)
        assert oracle_is_long_shape(lnf, ty), term_to_str(t)


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(st.sampled_from(["add", "mul"]), st.integers(0, 7), st.integers(0, 7))
def test_arithmetic_on_numerals(op, m, n):
    t = App(App(extended_poly(op, O), church_numeral(m, O)), church_numeral(n, O))
    nf = assured_normalize(t)
    assert nf == oracle_normalize(t)
    assert decode_numeral(nf, O) == (m + n if op == "add" else m * n)
    assert long_normal_form(t) == church_numeral(m + n if op == "add" else m * n, O)


def test_a_term_that_needs_its_own_value_is_a_black_hole():
    start = time.perf_counter()
    with pytest.raises(BlackHoleError):
        assured_normalize(parse_term(r"Y{o} (\x:o. x)"))
    assert time.perf_counter() - start < 1.0


def test_a_normal_form_that_contains_itself_is_a_black_hole():
    # Each value is a cycle through Y's thunk that readback would follow
    # forever with no contraction to count: through a bottom's argument,
    # via a second thunk, through a closure's environment, and through a
    # thunk whose value extends the cyclic one.  Readback tracks its open
    # thunks with or without a budget, so assured_normalize stops too.
    for text in [r"Y{o} (\x:o. Omega{o->o} x)",
                 r"Y{o} (\x:o. Omega{o->o} (Omega{o->o} x))",
                 r"Y{o->o} (\f:o->o. \z:o. Omega{(o->o)->o} f)",
                 r"Y{o->o} (\f:o->o. Omega{o->o->o} (f Omega{o}))"]:
        for run in (normalize, assured_normalize):
            with pytest.raises(BlackHoleError):
                run(parse_term(text))
    # a thunk read back twice, but not within its own readback
    t = parse_term(r"(\y:o. Omega{o->o->o} y y) (Y{o} (\x:o. Omega{o}))")
    assert normalize(t).term == oracle_normalize(t) == parse_term(
        r"Omega{o->o->o} Omega{o} Omega{o}")


@pytest.mark.parametrize("text", [r"\v:o->o. Y{o} v",
                                  r"(\u:o->o. \v:o->o. Y{o} v) (\w:o. w)"])
def test_an_eta_step_around_y_is_neither_decided_nor_reached(text):
    # The beta-eta normal form is Y{o} itself, but the machine unfolds Y
    # before readback can eta-contract, and the verdict says no normal
    # form.  Both sides agree; a fix to either must change this pin.
    t = parse_term(text)
    assert has_normal_form(t).verdict is False
    with pytest.raises(BlackHoleError):
        normalize(t)


def test_recursion_with_a_normal_form_needs_no_fuel():
    t = spell(r"Y{W->W} (\r:W->W. \n:W. IFZ n #0{o} (SUCC (SUCC #0{o}))) #3{o}")
    assert decode_numeral(assured_normalize(t), O) == 2
    assert assured_normalize(parse_term(r"\x:o. Y{o} (\y:o. x)")) == parse_term(r"\x:o. x")


def test_a_large_product_at_the_default_recursion_limit():
    mul = extended_poly("mul", O)
    t = App(App(mul, church_numeral(80, O)), church_numeral(80, O))
    assert decode_numeral(assured_normalize(t), O) == 6400
    assert long_normal_form(t) == church_numeral(6400, O)


def test_readback_binders_never_capture_free_variables():
    for text in [r"[y:o] (\x:o. \y:o. x) y",
                 r"[y:o, y':o] (\x:o. \y:o. \y':o. x) y",
                 r"[f:o->o] (\g:o->o. \f:o->o. \x:o. g (f x)) f",
                 r"[e1:o] (\x:o. \e1:o. x) e1"]:
        t = parse_term(text)
        nf = assured_normalize(t)
        assert nf == oracle_normalize(t), text
        assert free_vars(nf) == free_vars(t), text
    assert term_to_str(assured_normalize(parse_term(r"[y:o] (\x:o. \y:o. x) y"))) == r"\y':o. y"


def test_no_binder_in_a_long_normal_form_shadows_another():
    t = parse_term(r"\x:o->o. (\f:o->o. \x:o. f x) (\x:o. x)")
    lnf = long_normal_form(t)
    assert term_to_str(lnf, sugar=False) == r"\x:o -> o. \x':o. x'"
    assert is_long_normal(lnf)


def test_eliminating_a_bottom_under_a_shadowing_binder():
    # The inner \z rebinds the prefix's z, and the bottom under it must
    # become the outer z.  The term is the identity on numerals: the
    # bottom is the base of an inner iteration over n, which discards it
    # when n > 0, and when n = 0 the outer iteration never runs the step.
    w = "(o->o)->o->o"
    t = parse_term(rf"\n:{w}. \f:o->o. \z:o. n (\z:o. n (\y:o. f z) Omega{{o}}) z")
    out = eliminate_omega(t, numeral_args=1)
    assert out == parse_term(rf"\n:{w}. \f:o->o. \z:o. n (\u:o. n (\y:o. f u) z) z")
    identity = FunctionSpec.make("id", (O,), O, lambda n: n, samples=[(m,) for m in range(4)])
    assert check_defines(t, identity).consistent
    assert check_defines(out, identity).consistent
    result = conservativity_pipeline(t, identity)
    assert result.holds
    assert term_to_str(result.stages[-1][1]) == term_to_str(oracle_eliminate(t, 1))


@pytest.mark.parametrize("ty_text, size, numeral_args", [
    ("(o->o)->o->o", 12, 0), ("((o->o)->o->o)->(o->o)->o->o", 11, 1)])
def test_elimination_in_the_normalizer_prints_as_the_reference_route(ty_text, size, numeral_args):
    # Enumerated forms carry bottoms at every subtype, and under Y and a
    # redex the normalizer truncates and reduces before it eliminates.
    ty = parse_type(ty_text)
    for t in enumerate_long_normal_forms(ty, size):
        wrapped = App(YConst(ty), Lam("r", ty, t))
        for s in (t, wrapped, App(Lam("u", ty, Var("u", ty)), wrapped)):
            pure = eliminate_omega(s, numeral_args, analysis.truncation_depths(s))
            assert term_to_str(pure) == term_to_str(oracle_eliminate(s, numeral_args))


def test_y_truncate_names_every_missing_depth():
    t = parse_term(r"(\u:o. Y{o->o} (\f:o->o. \y:o. y)) (Y{o} (\x:o. x))")
    with pytest.raises(ValueError, match=r"^no truncation depth for recursion type\(s\): o, o -> o$"):
        y_truncate(t, {})
    assert y_truncate(t, {O: 1, OO: 2}) == analysis.tilde_Y(t)


def test_certify_finds_the_recursion_types_in_one_walk(monkeypatch):
    calls = []

    def counted(t):
        calls.append(t)
        return real(t)

    real = terms.y_types
    monkeypatch.setattr(terms, "y_types", counted)
    monkeypatch.setattr(analysis, "y_types", counted)
    t = spell(r"Y{W} (\r:W. IFZ #0{o} #2{o} (SUCC r))")
    report = has_normal_form(t)
    assert decode_numeral(certified_normalize(t, report), O) == 2
    assert len(calls) == 1

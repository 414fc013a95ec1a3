"""Reduction: single steps, the budget, long forms, properness, elimination, decoding."""

import pytest

from oracles import oracle_is_long_shape, oracle_step_normal_order
import term_corpus
from term_corpus import lambda_y_corpus, omega_corpus
from yflow.parser import parse_term, parse_type
from yflow.printer import term_to_str
from yflow.reduction import (
    BlackHoleError,
    FuelExhausted,
    Improper,
    Normal,
    Proper,
    assured_normalize,
    classify_properness,
    decode_numeral,
    eliminate_omega,
    enumerate_long_normal_forms,
    is_long_normal,
    long_normal_form,
    normalize,
    term_size,
)
from yflow.terms import (
    App,
    Lam,
    Term,
    Var,
    church_numeral,
    contains_omega,
    contains_y,
    subterms,
    type_of,
    y_tilde,
)
from yflow.types import GROUND, Arrow, numeral_type

O = GROUND
OO = Arrow(O, O)
W = numeral_type(O)

# Three times the interpreter's default recursion limit, which these
# tests keep.
DEEP = 3000


def test_beta_step():
    t = parse_term(r"(\x:o->o. x) (\y:o. y)")
    assert oracle_step_normal_order(t) == parse_term(r"\y:o. y")


def test_eta_step():
    t = parse_term(r"[f:o->o] \x:o. f x")
    assert oracle_step_normal_order(t) == parse_term(r"[f:o->o] f")


def test_eta_does_not_fire_when_bound_occurs():
    t = parse_term(r"[f:o->o->o] \x:o. f x x")
    assert oracle_step_normal_order(t) is None  # \x. f x x is normal


def test_y_unfolds():
    t = parse_term(r"Y{o} (\x:o. x)")
    s = oracle_step_normal_order(t)
    assert s == parse_term(r"(\x:o. x) (Y{o} (\x:o. x))")


def test_omega_is_inert():
    assert oracle_step_normal_order(parse_term(r"Omega{o->o} Omega{o}")) is None


def test_normalize_fuel_exhaustion():
    # (Y F) x reduces to itself: no normal form, and no black hole
    t = parse_term(r"Y{o->o} (\f:o->o. \x:o. f x)")
    assert normalize(t, fuel=25) == FuelExhausted(25)
    black_hole = parse_term(r"Y{o} (\x:o. x)")  # needs its own value at step 2
    assert normalize(black_hole, fuel=1) == FuelExhausted(1)
    with pytest.raises(BlackHoleError):
        normalize(black_hole, fuel=25)


def test_the_budget_is_exactly_the_step_count():
    mul = parse_term(r"(\m:(o->o)->o->o. \n:(o->o)->o->o. \f:o->o. m (n f)) #3{o} #3{o}")
    deep = App(Lam("x", W, Var("x", W)), church_numeral(DEEP, O))
    for t in omega_corpus() + [mul, deep]:
        out = normalize(t)
        n = out.steps
        assert normalize(t, n) == out, term_to_str(t)
        if n > 0:
            assert normalize(t, n - 1) == FuelExhausted(n - 1), term_to_str(t)


def test_is_long_normal_matches_the_recursive_oracle():
    def oracle(t):
        return not contains_y(t) and oracle_is_long_shape(t, type_of(t, {}))

    corpus = omega_corpus() + lambda_y_corpus()
    long_forms = [long_normal_form(t) for t in omega_corpus()]
    enumerated = (enumerate_long_normal_forms(parse_type("(o->o)->o"), 9)
                  + enumerate_long_normal_forms(parse_type("o->o->o"), 8))
    for t in corpus + long_forms + enumerated:
        assert is_long_normal(t) == oracle(t), term_to_str(t)
    assert all(is_long_normal(t) for t in long_forms + enumerated)
    assert not all(is_long_normal(t) for t in corpus)


def test_normal_forms_are_stable():
    for t in omega_corpus()[::5]:
        nf = assured_normalize(t)
        assert oracle_step_normal_order(nf) is None
        assert assured_normalize(nf) == nf


def test_assured_normalize_multiplies():
    app = parse_term(
        r"(\m:(o->o)->o->o. \n:(o->o)->o->o. \f:o->o. m (n f)) #7{o} #9{o}")
    assert decode_numeral(assured_normalize(app), O) == 63


def test_long_normal_form_examples():
    t = parse_term(r"\g:(o->o)->o. g")
    lnf = long_normal_form(t)
    assert lnf == parse_term(r"\g:(o->o)->o. \h:o->o. g (\z:o. h z)")
    assert is_long_normal(lnf)


def test_long_normal_form_of_numeral_one():
    # beta-eta short form of 1 is \f. f; the long form restores the binder
    one = church_numeral(1, O)
    assert assured_normalize(one) == parse_term(r"\f:o->o. f")
    assert long_normal_form(one) == one


def test_long_normal_form_idempotent_on_corpus():
    for t in omega_corpus()[::7]:
        lnf = long_normal_form(t)
        assert is_long_normal(lnf), term_to_str(t)
        assert long_normal_form(lnf) == lnf


def test_long_normal_form_rejects_y():
    with pytest.raises(ValueError):
        long_normal_form(parse_term(r"Y{o} (\x:o. x)"))


def test_is_long_normal_counterexamples():
    assert not is_long_normal(parse_term(r"\f:o->o. f"))          # under-applied head
    assert not is_long_normal(parse_term(r"(\x:o. x) Omega{o}"))  # redex
    assert is_long_normal(parse_term(r"\f:o->o. \x:o. f x"))


def test_classify_properness():
    assert classify_properness(parse_term(r"\f:o->o. \x:o. f x")) == Proper()
    got = classify_properness(parse_term(r"\f:o->o. \x:o. f Omega{o}"))
    assert isinstance(got, Improper)
    assert got.render_path() == "body/body/arg"
    assert classify_properness(parse_term(r"Omega{o}")) == Improper(())
    assert Improper(()).render_path() == "root"


def test_classify_properness_requires_long_form():
    eta_short, beta_redex = r"\f:o->o. f", r"\f:o->o. (\x:o. f x) Omega{o}"
    for text in (eta_short, beta_redex):
        with pytest.raises(ValueError):
            classify_properness(parse_term(text))


def _corpus_terms():
    """Every term tests/term_corpus.py holds or builds."""
    out = omega_corpus() + lambda_y_corpus()
    for value in vars(term_corpus).values():
        if isinstance(value, Term):
            out.append(value)
        elif isinstance(value, list):
            out += [t for t in value if isinstance(t, Term)]
    return out


def test_is_long_normal_agrees_with_the_long_normal_form():
    # the structural walk against its definition through the normalizer
    checked = 0
    for t in _corpus_terms():
        if contains_y(t):
            assert not is_long_normal(t), term_to_str(t)
            continue
        lnf = long_normal_form(t)
        assert is_long_normal(t) == (lnf == t), term_to_str(t)
        assert is_long_normal(lnf), term_to_str(t)
        checked += 1
    assert checked > 250


def test_eliminate_omega_simple():
    # \f. \x. f Omega at numeral type over o, zero numeral arguments
    t = parse_term(r"\f:o->o. \x:o. f Omega{o}")
    out = eliminate_omega(t, numeral_args=0)
    assert out == church_numeral(1, O)


def test_eliminate_omega_is_identity_on_pure_numerals():
    for m in range(4):
        out = eliminate_omega(church_numeral(m, O), numeral_args=0)
        assert assured_normalize(out) == assured_normalize(church_numeral(m, O))


def test_eliminate_omega_higher_parameter():
    # numeral parameter o -> o brings binders for the extra arguments
    t = parse_term(r"\f:(o->o)->o->o. \x:o->o. \b:o. Omega{o}")
    out = eliminate_omega(t, numeral_args=0)
    assert not contains_omega(out)
    assert type_of(out, {}) == type_of(t, {})


def test_eliminate_omega_requires_ground_bottoms():
    with pytest.raises(ValueError):
        eliminate_omega(parse_term(r"\f:o->o. \x:o. Omega{o->o} x"),
                        numeral_args=0)


def test_eliminate_omega_rejects_non_numeral_chain():
    with pytest.raises(ValueError):
        eliminate_omega(parse_term(r"\x:o. Omega{o}"), numeral_args=0)


def test_decode_numeral():
    assert decode_numeral(church_numeral(4, O), O) == 4
    assert decode_numeral(church_numeral(4, O), OO) is None


def test_enumeration_members_are_long_well_typed_unique():
    ty = parse_type("(o->o)->o")
    forms = enumerate_long_normal_forms(ty, 10)
    assert len(forms) == len(set(forms))
    for t in forms:
        assert type_of(t, {}) == ty
        assert is_long_normal(t)
        assert term_size(t) <= 10
        assert not contains_y(t)


def test_enumeration_finds_known_forms():
    ty = parse_type("o->o")
    forms = set(enumerate_long_normal_forms(ty, 8))
    assert parse_term(r"\x:o. x") in forms
    assert parse_term(r"\x:o. Omega{o}") in forms
    assert parse_term(r"\x:o. Omega{o->o} x") in forms


def test_enumeration_budget_is_monotone():
    ty = parse_type("o->o")
    small = set(enumerate_long_normal_forms(ty, 6))
    large = set(enumerate_long_normal_forms(ty, 9))
    assert small <= large


def test_deep_normalize_under_both_strategies():
    t = App(Lam("x", W, Var("x", W)), church_numeral(DEEP, O))
    out = normalize(t)
    assert isinstance(out, Normal) and out.steps == 1
    assert decode_numeral(out.term, O) == DEEP


def test_deep_long_forms_and_properness():
    t = church_numeral(DEEP, O)
    assert long_normal_form(App(Lam("x", W, Var("x", W)), t)) == t
    assert is_long_normal(t)
    assert classify_properness(t) == Proper()
    bottom = y_tilde(DEEP, O)  # \f. f^DEEP Omega{o}
    assert long_normal_form(bottom) == bottom
    assert classify_properness(bottom) == Improper(("body",) + ("arg",) * DEEP)

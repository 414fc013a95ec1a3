import copy
import pickle

import pytest
from hypothesis import given, strategies as st

from yflow.types import (
    GROUND,
    Arrow,
    Ground,
    argument_types,
    arrow,
    numeral_parameter,
    numeral_type,
    subtypes,
    type_to_str,
)
from yflow.parser import parse_term, parse_type

types = st.recursive(
    st.just(GROUND),
    lambda inner: st.builds(Arrow, inner, inner),
    max_leaves=8,
)


def test_ground_prints_bare():
    assert type_to_str(GROUND) == "o"
    assert str(Ground()) == "o"


def test_arrow_right_associative_printing():
    t = Arrow(GROUND, Arrow(GROUND, GROUND))
    assert type_to_str(t) == "o -> o -> o"
    u = Arrow(Arrow(GROUND, GROUND), GROUND)
    assert type_to_str(u) == "(o -> o) -> o"


@given(types)
def test_print_parse_round_trip(ty):
    assert parse_type(type_to_str(ty)) == ty


@given(types)
def test_argument_types_arrow_inverse(ty):
    assert arrow(argument_types(ty), GROUND) == ty


def test_numeral_type_shape():
    w = numeral_type(GROUND)
    assert type_to_str(w) == "(o -> o) -> o -> o"
    assert numeral_parameter(w) == GROUND


@given(types)
def test_numeral_parameter_inverts_numeral_type(ty):
    assert numeral_parameter(numeral_type(ty)) == ty


def test_numeral_parameter_rejects_other_shapes():
    assert numeral_parameter(GROUND) is None
    assert numeral_parameter(Arrow(GROUND, GROUND)) is None
    # right shape at the outer arrow but mismatched halves
    assert numeral_parameter(Arrow(Arrow(GROUND, GROUND), GROUND)) is None


def test_subtypes():
    w = numeral_type(GROUND)
    assert subtypes(w) == frozenset({GROUND, Arrow(GROUND, GROUND), w})


@given(types, types)
def test_equality_is_structural(a, b):
    assert (a == b) == (type_to_str(a) == type_to_str(b))


def test_arrows_are_interned():
    assert Arrow(GROUND, GROUND) is Arrow(GROUND, GROUND)
    assert parse_type("(o->o)->o") is parse_type("(o->o)->o")
    assert parse_type("(o->o)->o") is Arrow(Arrow(GROUND, GROUND), GROUND)
    assert Ground() is GROUND


@given(types)
def test_pickle_and_copy_give_back_the_same_object(ty):
    assert pickle.loads(pickle.dumps(ty)) is ty
    assert copy.copy(ty) is ty
    assert copy.deepcopy(ty) is ty


def test_a_pickled_term_compares_alpha_equal():
    t = parse_term(r"\f:(o->o)->o. \g:o->o. f g")
    u = pickle.loads(pickle.dumps(t))
    assert u == t and u.var_ty is t.var_ty


def test_types_are_immutable():
    t = Arrow(GROUND, GROUND)
    with pytest.raises(AttributeError):
        t.domain = Arrow(GROUND, GROUND)
    with pytest.raises(AttributeError):
        del t.codomain
    with pytest.raises(AttributeError):
        GROUND.extra = 1
    assert t.domain is GROUND and t.codomain is GROUND


def _left_nested(depth):
    ty = GROUND
    for _ in range(depth):  # ((o -> o) -> o) -> ...
        ty = Arrow(ty, GROUND)
    return ty


def test_deep_types_hash_and_compare_at_the_default_recursion_limit():
    # each type is built twice, so equality cannot stop at the same object
    for build in (lambda: arrow([GROUND] * 100_000, GROUND), lambda: _left_nested(5_000)):
        a, b = build(), build()
        assert a == b and hash(a) == hash(b) and a != GROUND
        assert {a: 1}[b] == 1

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
from yflow.parser import parse_type

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

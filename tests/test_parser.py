"""Surface syntax: grammar corners, error positions, printer round trips, and
the tokenizer and typed parser against the routes they replaced."""

import re

import pytest
from hypothesis import given, strategies as st

from oracles import oracle_tokenize
from term_corpus import NESTED3, lambda_y_corpus, omega_corpus
from yflow import parser
from yflow.parser import ParseError, parse_term, parse_type, tokenize
from yflow.printer import term_to_str
from yflow.terms import (App, Lam, OmegaConst, TypingError, Var, YConst, church_numeral,
                         type_of)
from yflow.types import GROUND, Arrow


def test_lambda_and_application():
    t = parse_term(r"\x:o. \y:o->o. y x")
    assert t == Lam("x", GROUND, Lam("y", Arrow(GROUND, GROUND),
                                     App(Var("y", Arrow(GROUND, GROUND)),
                                         Var("x", GROUND))))


def test_application_left_associative():
    t = parse_term(r"\f:o->o->o. \x:o. f x x")
    body = t.body.body
    assert isinstance(body, App) and isinstance(body.fun, App)


def test_constants():
    assert parse_term("Omega{o}") == OmegaConst(GROUND)
    assert parse_term("Y{o->o}") == YConst(Arrow(GROUND, GROUND))


def test_numeral_sugar_expands():
    assert parse_term("#2{o}") == church_numeral(2, GROUND)
    assert parse_term("#0{o->o}") == church_numeral(0, Arrow(GROUND, GROUND))


def test_context_prefix_types_free_variables():
    t = parse_term(r"[f:o->o, x:o] f (f x)")
    assert t == App(Var("f", Arrow(GROUND, GROUND)),
                    App(Var("f", Arrow(GROUND, GROUND)), Var("x", GROUND)))


def test_comments_and_whitespace():
    t = parse_term("\\x:o. -- binder\n  x -- body\n")
    assert t == Lam("x", GROUND, Var("x", GROUND))


def test_unbound_variable_position():
    with pytest.raises(ParseError) as e:
        parse_term(r"\x:o. y")
    assert "unbound variable y" in str(e.value)
    assert "column 7" in str(e.value)


def test_ill_typed_application_rejected():
    with pytest.raises(TypingError):
        parse_term(r"(\x:o. x) (\y:o. y)")


def test_reserved_names_cannot_bind():
    with pytest.raises(ParseError):
        parse_term(r"\Y:o. Y")


def test_type_parse_errors():
    with pytest.raises(ParseError):
        parse_type("o ->")
    with pytest.raises(ParseError):
        parse_type("(o -> o")


def test_lambda_argument_needs_parens():
    with pytest.raises(ParseError):
        parse_term(r"(\f:(o->o)->o->o. f) \g:o->o. g")
    # with parens it parses
    parse_term(r"(\f:(o->o)->o->o. f) (\g:o->o. g)")


def test_nested_binders_parse_at_any_depth():
    # twice the interpreter's default recursion limit, which this test keeps
    n = 2000
    want = Var("x0", GROUND)
    for i in reversed(range(n)):
        want = Lam(f"x{i}", GROUND, want)
    binders = "".join(f"\\x{i}:o. " for i in range(n))
    assert parse_term(binders + "x0") == want
    parenthesized = "".join(f"(\\x{i}:o. " for i in range(n)) + "x0" + ")" * n
    assert parse_term(parenthesized) == want
    # types parse on an explicit stack too: 1,000 arrows, 500 parentheses
    arrows = GROUND
    for _ in range(1000):
        arrows = Arrow(GROUND, arrows)
    assert parse_type("o->" * 1000 + "o") == arrows
    assert parse_term(f"\\y:{'o->' * 1000}o. y") == Lam("y", arrows, Var("y", arrows))
    assert parse_type("(" * 500 + "o->o" + ")" * 500) == Arrow(GROUND, GROUND)


@pytest.mark.parametrize("sugar", [True, False])
def test_print_parse_round_trip_on_corpora(sugar):
    for t in (lambda_y_corpus() + omega_corpus())[::3]:
        assert parse_term(term_to_str(t, sugar=sugar)) == t


@given(st.integers(min_value=0, max_value=40))
def test_numeral_print_parse(m):
    t = church_numeral(m, GROUND)
    assert parse_term(term_to_str(t)) == t
    assert term_to_str(t) == f"#{m}{{o}}"


# -- the tokenizer against the character loop it replaced ---------------------

def _lexed(tokenizer, text):
    """Tokens, or the ParseError's message and position."""
    try:
        return tokenizer(text)
    except ParseError as e:
        return str(e), e.pos


@pytest.mark.parametrize("sugar", [True, False])
def test_tokenize_matches_the_character_loop_on_corpus_renderings(sugar):
    for t in lambda_y_corpus() + omega_corpus():
        text = term_to_str(t, sugar=sugar)
        assert tokenize(text) == oracle_tokenize(text)


@pytest.mark.parametrize("text", [
    "\\x:o -- c.\n -> o. x",        # a comment inside an annotation
    "-- only a comment", "x -- trailing", "-->", "x --",
    "\\x':o. \\x'':o. x''", "x'y' _ _1 '",
    "\\\u00e9:o. \u00e9", "x\u00e9 \u00e9x",
    "\u00bd", "x\u00bd", "1\u00bd", "\u00bdx",    # numeric, neither alpha nor digit
    "\u00b2", "x\u00b2", "1\u00b2", "\u00b22", "#\u00b2{o}", "12\u00b2x",  # digit, not decimal
    "\u0663", "#\u0663{o}", "x\u0663", "1\u06632",  # an Arabic-Indic decimal digit
    "$", "x $", "\\x:o. x $ \u00bd",
    "12x", "1_", "1'", "o->o", "o--o", "o-o", "\t\r\n", "", "\u00a0", "x\u2192y",
])
def test_tokenize_matches_the_character_loop_on_edge_strings(text):
    assert _lexed(tokenize, text) == _lexed(oracle_tokenize, text)


# Messages and positions as the parser gave them before it typed while parsing.
MALFORMED = [
    ("", "line 1, column 1: expected a term, found 'end of input'"),
    ("\\x:o.", "line 1, column 6: expected a term, found 'end of input'"),
    ("\\x:o x", "line 1, column 6: expected DOT, found 'x'"),
    ("\\x:. x", "line 1, column 4: expected a type, found '.'"),
    ("\\x:(o. x", "line 1, column 6: expected RPAREN, found '.'"),
    ("\\x:o -> . x", "line 1, column 9: expected a type, found '.'"),
    ("\\x:o o. x", "line 1, column 6: expected DOT, found 'o'"),
    ("\\Y:o. x", "line 1, column 2: Y is reserved"),
    ("(\\x:o. x", "line 1, column 9: expected RPAREN, found 'end of input'"),
    ("x", "line 1, column 1: unbound variable x"),
    ("\\x:o. y", "line 1, column 7: unbound variable y"),
    ("Y{o", "line 1, column 4: expected RBRACE, found 'end of input'"),
    ("Y{o o}", "line 1, column 5: expected RBRACE, found 'o'"),
    ("Y o", "line 1, column 3: expected LBRACE, found 'o'"),
    ("#{o}", "line 1, column 2: expected NAT, found '{'"),
    ("#3 o", "line 1, column 4: expected LBRACE, found 'o'"),
    ("#3{}", "line 1, column 4: expected a type, found '}'"),
    ("#\u00b2{o}", "line 1, column 2: expected NAT, found '\u00b2'"),  # not decimal
    ("#\u0663{o}", "line 1, column 2: expected NAT, found '\u0663'"),  # not ASCII
    ("[x:o y", "line 1, column 6: expected ',' or ']' in context"),
    ("[x:o, Omega:o] x", "line 1, column 7: Omega is reserved"),
    ("[x:o, x:o->o] x", "line 1, column 7: x is declared twice in context"),
    ("[x:] x", "line 1, column 4: expected a type, found ']'"),
    ("[x:o]", "line 1, column 6: expected a term, found 'end of input'"),
    ("\\x:o. x )", "line 1, column 9: trailing input ')'"),
    ("\\x:o. x : o", "line 1, column 9: trailing input ':'"),
    ("\\f:o->o. f ->", "line 1, column 12: trailing input '->'"),
    ("Omega{(o->o}", "line 1, column 12: expected RPAREN, found '}'"),
    ("\\x:o.\n  x $", "line 2, column 5: unexpected character '$'"),
    ("\\x:o -- c\n. x \u00bd", "line 2, column 5: unexpected character '\u00bd'"),
    ("\\x:o. ) $", "line 1, column 9: unexpected character '$'"),  # the tokens come first
    ("\\x:o. x'  '", "line 1, column 11: unexpected character \"'\""),
    ("-x", "line 1, column 1: unexpected character '-'"),
    ("x\n\n  \\", "line 1, column 1: unbound variable x"),
    ("\\x:o. \\x':o. x' \u00e9\u00bd", "line 1, column 17: unbound variable \u00e9\u00bd"),
    ("(\\x:o. x) (\\y:o. y) )", "line 1, column 21: trailing input ')'"),  # ill-typed too
]


@pytest.mark.parametrize("text, message", MALFORMED)
def test_parse_errors_keep_their_messages_and_positions(text, message):
    with pytest.raises(ParseError) as e:
        parse_term(text)
    assert str(e.value) == message
    line, column = message.split(":")[0].replace("line ", "").split(", column ")
    assert (e.value.line, e.value.column) == (int(line), int(column))


def test_a_parse_error_after_an_ill_typed_application_wins():
    with pytest.raises(ParseError):
        parse_term(r"(\x:o. x) (\y:o. y) (")
    with pytest.raises(ParseError):
        parse_term(r"\f:o. f f $")


def test_the_first_typing_error_is_type_ofs():
    # two ill-typed applications; post-order reaches the inner one first
    text = r"\f:o->o. \x:o. f f (x x)"
    with pytest.raises(TypingError) as e:
        parse_term(text)
    f, x = Var("f", Arrow(GROUND, GROUND)), Var("x", GROUND)
    hand = Lam("f", f.ty, Lam("x", GROUND, App(App(f, f), App(x, x))))
    with pytest.raises(TypingError) as expected:
        type_of(hand)
    assert str(e.value) == str(expected.value) == \
        "argument type o -> o does not match domain o"
    assert e.value.term == expected.value.term == App(f, f)


def test_each_annotation_text_is_parsed_once_per_call(monkeypatch):
    text = term_to_str(NESTED3)
    parsed = []
    depth = [0]
    real = parser._Parser.type_

    def counted(self):
        start = self.toks[self.i][2]
        depth[0] += 1
        try:
            ty = real(self)
        finally:
            depth[0] -= 1
        if depth[0] == 0:
            last = self.toks[self.i - 1]
            parsed.append(self.text[start:last[2] + len(last[1])])
        return ty

    monkeypatch.setattr(parser._Parser, "type_", counted)
    for _ in range(2):  # and again in a second call: nothing outlives one
        parsed.clear()
        assert parse_term(text) == NESTED3
        annotations = re.findall(r"[:{]([^.}]*)", text)
        assert len(annotations) > 2 * len(set(annotations))
        assert sorted(parsed) == sorted(set(annotations))


def test_equal_annotations_share_one_type_object():
    t = parse_term(r"\f:(o->o)->o. \g:o->o. \h:(o->o)->o. Y{o->o}")
    assert t.var_ty is t.body.body.var_ty
    assert t.var_ty.domain is t.body.var_ty
    u = parse_term(r"\g:o->o. \f:(o->o)->o. f g")  # types are interned across calls
    assert u.var_ty is t.body.var_ty and u.body.var_ty is t.var_ty

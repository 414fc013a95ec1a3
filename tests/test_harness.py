"""Definability tables, the extended-polynomial library, the
elimination pipeline and the depth-bounded search probe."""

import re

import pytest

from yflow.harness import (
    FunctionSpec,
    PipelineError,
    check_defines,
    conservativity_pipeline,
    default_samples,
    extended_poly,
    load_spec_file,
    recursion_depth_probe,
)
from yflow.parser import parse_term, parse_type
from yflow.reduction import assured_normalize, decode_numeral
from yflow.terms import App, Lam, TypingError, YConst, church_numeral, type_of
from yflow.types import GROUND, Arrow, arrow, numeral_type

O = GROUND
W = numeral_type(O)

ADD = extended_poly("add", O)
MUL = extended_poly("mul", O)
IFZ = extended_poly("ifzero", O)

GRID2 = tuple((i, j) for i in range(4) for j in range(4))


def _apply_numerals(t, *ms):
    for m in ms:
        t = App(t, church_numeral(m, O))
    return t


def test_extended_polys_are_pure_and_typed():
    for name in ("zero", "succ", "add", "mul", "ifzero"):
        t = extended_poly(name, O)
        type_of(t, {})


def test_succ_by_reduction():
    t = assured_normalize(_apply_numerals(extended_poly("succ", O), 2))
    assert decode_numeral(t, O) == 3


def test_ifzero_by_reduction():
    picks_a = assured_normalize(_apply_numerals(IFZ, 0, 4, 7))
    picks_b = assured_normalize(_apply_numerals(IFZ, 2, 4, 7))
    assert decode_numeral(picks_a, O) == 4
    assert decode_numeral(picks_b, O) == 7


def test_const_and_proj():
    c = extended_poly("const", O, k=5, arity=2)
    assert decode_numeral(assured_normalize(_apply_numerals(c, 9, 9)), O) == 5
    p = extended_poly("proj", O, i=2, arity=3)
    got = assured_normalize(_apply_numerals(p, 3, 7, 1))
    assert decode_numeral(got, O) == 7
    with pytest.raises(ValueError):
        extended_poly("proj", O, i=4, arity=3)
    with pytest.raises(ValueError):
        extended_poly("nope", O)


def test_extended_polys_at_higher_parameter():
    oo = Arrow(O, O)
    t = extended_poly("add", oo)
    want = arrow([numeral_type(oo), numeral_type(oo)], numeral_type(oo))
    assert type_of(t, {}) == want


def test_add_mul_consistent():
    spec = FunctionSpec.make("add", (O, O), O, lambda a, b: a + b, GRID2)
    v = check_defines(ADD, spec)
    assert v.consistent and v.witness is None
    spec = FunctionSpec.make("mul", (O, O), O, lambda a, b: a * b, GRID2)
    assert check_defines(MUL, spec).consistent


def test_default_samples_grid():
    assert len(default_samples(2)) == 25
    assert default_samples(0) == ((),)


def test_refutation_witness_is_first_failing_row():
    # strict partial subtraction against addition: (0,1) fails first
    spec = FunctionSpec.make(
        "sub", (O, O), O,
        lambda a, b: a - b if a >= b else None,
        tuple((i, j) for i in range(3) for j in range(3)))
    v = check_defines(ADD, spec)
    assert not v.consistent
    assert v.witness.args == (0, 1)
    assert v.witness.observed == "1"
    assert v.witness.expected is None


def test_expected_undefined_matches_no_normal_form():
    # f(n) undefined everywhere, candidate diverges everywhere
    diverge = Lam("n", W, App(YConst(W), parse_term(r"\m:(o->o)->o->o. m")))
    spec = FunctionSpec.make("undef", (O,), O, lambda n: None, ((0,), (2,)))
    v = check_defines(diverge, spec)
    assert v.consistent
    assert all(r.observed == "no-normal-form" for r in v.rows)


def test_type_shape_mismatch_rejected():
    spec = FunctionSpec.make("add", (O, O), O, lambda a, b: a + b, GRID2)
    with pytest.raises(TypingError):
        check_defines(parse_term(r"\x:o. x"), spec)


def test_verdict_rendering_and_json():
    spec = FunctionSpec.make("add", (O, O), O, lambda a, b: a + b,
                             ((0, 0), (1, 2)))
    v = check_defines(ADD, spec)
    table = v.render_table()
    assert "expected" in table.splitlines()[0]
    rec = v.to_json()
    assert rec["consistent"] is True
    assert rec["rows"][1] == {"args": [1, 2], "expected": 3,
                              "observed": "3", "ok": True}


def test_decode_numeral_accepts_eta_short_one():
    assert decode_numeral(parse_term(r"\f:o->o. f"), O) == 1
    assert decode_numeral(church_numeral(1, O), O) == 1
    assert decode_numeral(parse_term(r"\x:o. x"), O) is None


def test_pipeline_add_and_y_wrapped_add():
    spec = FunctionSpec.make("add", (O, O), O, lambda a, b: a + b, GRID2)
    r = conservativity_pipeline(ADD, spec)
    assert r.holds and r.target.consistent
    pure = r.stages[-1][1]
    from yflow.terms import contains_omega, contains_y
    assert not contains_omega(pure) and not contains_y(pure)
    # gratuitous recursion around the same function
    ty = type_of(ADD, {})
    wrapped = App(YConst(ty), Lam("g", ty, ADD))
    r2 = conservativity_pipeline(wrapped, spec)
    assert r2.holds and r2.target.consistent
    assert assured_normalize(r2.stages[-1][1]) == assured_normalize(pure)


def test_pipeline_already_pure_reaches_long_form():
    from yflow.reduction import long_normal_form

    spec = FunctionSpec.make("add", (O, O), O, lambda a, b: a + b,
                             ((0, 0), (1, 2), (3, 4)))
    r = conservativity_pipeline(ADD, spec)
    assert r.stages[-1][1] == long_normal_form(ADD)


def test_pipeline_stage_attribution():
    spec = FunctionSpec.make("add", (O, O), O, lambda a, b: a + b, GRID2)
    with pytest.raises(PipelineError) as e:
        conservativity_pipeline(parse_term(r"\x:o. x"), spec)
    assert e.value.stage == "type-check"


def test_probe_outcomes():
    never = extended_poly("const", O, k=1, arity=1)
    always = extended_poly("const", O, k=0, arity=1)
    assert recursion_depth_probe(never, 1, O, 3).outcome == "omega"
    assert recursion_depth_probe(always, 0, O, 1).outcome == "zero"
    assert recursion_depth_probe(always, 0, O, 0).outcome == "omega"


def test_probe_zero_outcome_is_monotone_in_depth():
    always = extended_poly("const", O, k=0, arity=1)
    seen_zero = False
    for depth in range(4):
        outcome = recursion_depth_probe(always, 0, O, depth).outcome
        if seen_zero:
            assert outcome == "zero"
        seen_zero = seen_zero or outcome == "zero"
    assert seen_zero


def test_probe_validates_input():
    with pytest.raises(TypingError):
        recursion_depth_probe(parse_term(r"\x:o. x"), 0, O, 1)
    looped = Lam("n", W, App(YConst(W), parse_term(r"\m:(o->o)->o->o. m")))
    with pytest.raises(ValueError):
        recursion_depth_probe(looped, 0, O, 1)


def test_probe_report_fields():
    never = extended_poly("const", O, k=1, arity=1)
    rep = recursion_depth_probe(never, 2, O, 1)
    assert rep.outcome == "omega" and not rep.bound_violated
    rec = rep.to_json()
    assert rec["claimed_first_zero"] == 2 and rec["depth"] == 1
    assert rec["alpha"] == "o"


def test_load_spec_file(tmp_path):
    p = tmp_path / "mul.fn"
    p.write_text(
        "-- multiplication table\n"
        "name mul\n"
        "args o, o\n"
        "result o\n"
        "term \\m:(o->o)->o->o. \\n:(o->o)->o->o. \\f:o->o. m (n f)\n"
        "sample 0 0 -> 0\n"
        "sample 2 3 -> 6\n"
        "sample 1 4 -> 4\n")
    spec, term = load_spec_file(str(p))
    assert spec.name == "mul"
    assert spec.samples == ((0, 0), (2, 3), (1, 4))
    assert spec.reference(2, 3) == 6
    assert check_defines(term, spec).consistent


def test_load_spec_file_undefined_marker(tmp_path):
    p = tmp_path / "u.fn"
    p.write_text(
        "name u\nargs o\nresult o\n"
        "term \\n:(o->o)->o->o. n\n"
        "sample 1 -> _\n")
    spec, _term = load_spec_file(str(p))
    assert spec.reference(1) is None


def test_load_spec_file_errors(tmp_path):
    p = tmp_path / "bad.fn"
    p.write_text("name x\nargs o\nresult o\nsample 1 -> 1\n")
    with pytest.raises(ValueError, match="missing entries: term"):
        load_spec_file(str(p))
    p2 = tmp_path / "bad2.fn"
    p2.write_text("name x\nargs o\nresult o\nterm #0{o}\nsample 1 2 -> 1\n")
    with pytest.raises(ValueError, match="takes 1"):
        load_spec_file(str(p2))
    p3 = tmp_path / "bad3.fn"
    p3.write_text("nonsense line\n")
    with pytest.raises(ValueError, match="unknown entry"):
        load_spec_file(str(p3))
    head = "name x\nargs o, o\nresult o\nterm \\m:(o->o)->o->o. \\n:(o->o)->o->o. m\n"
    for name, samples, error in [
        ("repeat.fn", "sample 1 1 -> 5\nsample 1 1 -> 2\n", r"sample \(1, 1\) repeats"),
        ("negative-arg.fn", "sample -1 1 -> 0\n", "numerals are non-negative"),
        ("negative-result.fn", "sample 1 1 -> -1\n", "numerals are non-negative"),
        ("arabic-indic.fn", "sample \u0663 1 -> 3\n",
         "expected a run of ASCII digits, found '\u0663'"),
        ("plus.fn", "sample +1 1 -> 1\n", "expected a run of ASCII digits, found '\\+1'"),
        ("underscore.fn", "sample 1 1 -> 1_0\n", "expected a run of ASCII digits, found '1_0'"),
        ("marker-arg.fn", "sample _ 1 -> 1\n", "expected a run of ASCII digits, found '_'"),
        ("arity.fn", "sample 1 1 -> 2\nsample 1 2 3 -> 1\n",
         r"sample \(1, 2, 3\) has 3 values, the table takes 2"),
    ]:
        p = tmp_path / name
        p.write_text(head + samples, encoding="utf-8")
        line = 4 + samples.count("\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(p))}:{line}: {error}"):
            load_spec_file(str(p))

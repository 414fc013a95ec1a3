"""Decision procedures cross-validated against reduction."""

import dataclasses
import tracemalloc

import pytest

from term_corpus import HIGHER_Y_CORPUS, HNF_NOT_NF_WITNESS, lambda_y_corpus, spell
import yflow.analysis as analysis
from yflow.analysis import (
    AnalysisInvariantError,
    certified_normalize,
    has_head_normal_form,
    has_normal_form,
    tilde_Y,
    truncation_depths,
)
from yflow.parser import parse_term
from yflow.printer import term_to_str
from yflow.reduction import (
    _normal_form, assured_normalize, classify_properness, long_normal_form)
from yflow.terms import (
    TypingError, contains_omega, contains_y, church_numeral, type_of, y_truncate, y_types)
from yflow.types import GROUND, Arrow

O = GROUND
OO = Arrow(O, O)


def test_divergent_ground_loop():
    report = has_normal_form(parse_term(r"Y{o} (\x:o. x)"))
    assert not report.verdict
    assert report.kind == "nf"
    assert report.truncation_depths == {O: 1}


def test_numeral_is_normalizable():
    report = has_normal_form(church_numeral(2, O))
    assert report.verdict and report.truncation_depths == {}


def test_discarded_recursion_normalizes():
    report = has_normal_form(parse_term(r"\x:o. Y{o} (\y:o. x)"))
    assert report.verdict


def test_hnf_but_not_nf_witness():
    assert has_head_normal_form(HNF_NOT_NF_WITNESS).verdict
    assert not has_normal_form(HNF_NOT_NF_WITNESS).verdict


def test_open_terms_rejected():
    with pytest.raises(TypingError):
        has_normal_form(parse_term(r"[x:o] x"))


def test_truncation_depths_use_heights():
    t = parse_term(r"(\u:o. Y{o->o} (\f:o->o. \y:o. y)) (Y{o} (\x:o. x))")
    assert truncation_depths(t) == {O: 1, OO: 2}


def test_tilde_y_spec_shapes():
    t = parse_term(r"Y{o} (\x:o. x)")
    assert tilde_Y(t) == parse_term(r"(\f:o->o. f Omega{o}) (\x:o. x)")
    t2 = parse_term(r"Y{o->o} (\f:o->o. \y:o. y)")
    assert tilde_Y(t2) == parse_term(
        r"(\g:(o->o)->o->o. g (g Omega{o->o})) (\f:o->o. \y:o. y)")


def test_tilde_y_identity_on_y_free():
    t = church_numeral(3, O)
    assert tilde_Y(t) == t


def test_certified_normalize_examples():
    assert certified_normalize(parse_term(r"Y{o->o} (\f:o->o. \y:o. y)")) == \
        parse_term(r"\y:o. y")
    assert certified_normalize(parse_term(r"Y{o} (\x:o. x)")) is None
    t = parse_term(r"(\n:(o->o)->o->o. n) #3{o}")
    assert certified_normalize(t) == church_numeral(3, O)


def test_verdicts_agree_with_reduction_on_corpus():
    for t in lambda_y_corpus():
        report = has_normal_form(t)
        if report.verdict:
            nf = certified_normalize(t, report)
            assert not contains_omega(nf) and not contains_y(nf)
            assert assured_normalize(t) == nf, term_to_str(t)
        else:
            lnf = long_normal_form(tilde_Y(t))
            assert not classify_properness(lnf), term_to_str(t)


def test_verdicts_agree_with_reduction_beyond_o_and_o_to_o():
    seen = set()
    for t in HIGHER_Y_CORPUS:
        report = has_normal_form(t)
        hnf = has_head_normal_form(t).verdict
        if report.verdict:
            assert certified_normalize(t, report) == assured_normalize(t), term_to_str(t)
            assert hnf, term_to_str(t)
        else:
            assert not classify_properness(long_normal_form(tilde_Y(t))), term_to_str(t)
        seen |= {(ty, report.verdict) for ty in y_types(t)}
    W = Arrow(OO, OO)
    for ty in (W, Arrow(O, OO), Arrow(OO, O)):
        assert {(ty, True), (ty, False)} <= seen, ty


def test_anchor_terms_nested3_and_swap3():
    nested3 = spell(
        r"\n:W. Y{W->W} (\f:W->W. \x:W. Y{W->W} (\g:W->W. \y:W. "
        r"IFZ y (f x) (g (f y))) (IFZ x n (f (ADD x n)))) n")
    swap3 = spell(
        r"Y{W->W->W} (\f:W->W->W. \x:W. \y:W. IFZ x y (f y (SUCC x))) #2{o} #1{o}")
    assert not has_normal_form(nested3).verdict
    assert has_head_normal_form(nested3).verdict
    assert not has_normal_form(swap3).verdict
    assert not has_head_normal_form(swap3).verdict


def test_certified_normal_forms_are_those_of_the_built_truncation(monkeypatch):
    # the normalizer unfolds Y itself: on every positive verdict its normal
    # form is the one of the truncated term, names included, and no
    # truncated term is built
    def no_truncation(*args):
        raise AssertionError("certified_normalize built a truncated term")

    positive = [t for t in lambda_y_corpus() + HIGHER_Y_CORPUS if has_normal_form(t).verdict]
    assert len(positive) > 50
    with monkeypatch.context() as patch:
        patch.setattr(analysis, "y_truncate", no_truncation)
        certified = [certified_normalize(t) for t in positive]
    for t, nf in zip(positive, certified):
        want = assured_normalize(tilde_Y(t))
        assert nf == want and term_to_str(nf) == term_to_str(want), term_to_str(t)


def test_an_unapplied_y_reads_back_as_its_truncation():
    t = parse_term(r"\h:(((o->o)->o->o)->o->o)->o. h Y{o->o}")
    depths = truncation_depths(t)
    assert depths == {OO: 2}
    nf, _, bottoms = _normal_form(t, None, depths=depths)
    want = assured_normalize(tilde_Y(t))
    assert nf == want == parse_term(
        r"\h:(((o->o)->o->o)->o->o)->o. h (\f:(o->o)->o->o. f (f Omega{o->o}))")
    assert term_to_str(nf) == term_to_str(want)
    assert bottoms == 1
    # under a binder, passed through a beta step
    t = parse_term(r"\x:o. (\y:((o->o)->o->o)->o->o. y) Y{o->o}")
    assert _normal_form(t, None, depths=truncation_depths(t))[0] == \
        assured_normalize(tilde_Y(t))


def test_a_bottom_kept_by_the_truncation_voids_a_forged_certificate():
    t = parse_term(r"Y{o} (\x:o. x)")
    report = has_normal_form(t)
    assert not report.verdict
    assert contains_omega(assured_normalize(tilde_Y(t)))
    forged = dataclasses.replace(report, verdict=True)
    with pytest.raises(AnalysisInvariantError, match="kept a bottom constant") as caught:
        certified_normalize(t, forged)
    err = caught.value
    assert err.term is t and err.report is forged
    assert err.truncated == tilde_Y(t)
    assert err.nf == assured_normalize(err.truncated) == parse_term("Omega{o}")


def test_a_deep_truncation_certifies_without_being_built():
    # Y{(W->W)->W} has height 723,294; its step never calls F, so the
    # certificate forces one level of the truncation
    t = spell(r"Y{(W->W)->W} (\F:(W->W)->W. \g:W->W. g #1{o})")
    report = has_normal_form(t)
    assert report.verdict and list(report.truncation_depths.values()) == [723_294]
    tracemalloc.start()
    try:
        nf = certified_normalize(t, report)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert nf == assured_normalize(t)
    assert peak < 1_000_000, peak


def test_nf_implies_hnf_on_corpus():
    for t in lambda_y_corpus():
        if has_normal_form(t).verdict:
            assert has_head_normal_form(t).verdict, term_to_str(t)


def test_truncation_value_is_stable_past_height():
    from yflow.semantics import eval_term

    for t in lambda_y_corpus()[::6]:
        depths = truncation_depths(t)
        base = eval_term(t)
        assert base.ty == type_of(t, {}), term_to_str(t)
        for extra in (0, 1, 2):
            bumped = {ty: d + extra for ty, d in depths.items()}
            assert eval_term(y_truncate(t, bumped)) == base, term_to_str(t)


def test_deep_truncations_normalize_to_certified_output():
    # whenever the truncation at any depth normalizes constant-free, it
    # must equal the certified normal form
    for t in lambda_y_corpus()[::11]:
        report = has_normal_form(t)
        if not report.verdict:
            continue
        nf = certified_normalize(t, report)
        depths = truncation_depths(t)
        for extra in (1, 3):
            deeper = assured_normalize(
                y_truncate(t, {ty: d + extra for ty, d in depths.items()}))
            assert deeper == nf, term_to_str(t)


def test_nf_verdict_matches_syntactic_properness():
    from term_corpus import omega_corpus

    for t in omega_corpus()[::5]:
        want = bool(classify_properness(long_normal_form(t)))
        assert has_normal_form(t).verdict == want, term_to_str(t)


def test_report_serialization():
    rec = has_normal_form(parse_term(r"Y{o} (\x:o. x)")).to_json()
    assert rec["verdict"] is False
    assert rec["test_value"] == "bot"
    assert rec["kind"] == "nf"
    assert rec["truncation_depths"] == {"o": 1}
    assert "elapsed_ms" in rec

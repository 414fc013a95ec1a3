"""Acceptance gate for the whole workbench.

Each criterion is one test that prints a single verdict line (run with
``pytest tests/test_acceptance.py -v -s`` to see them inline).  A
criterion that fails prints FAIL and then fails its assertion; nothing
here is allowed to weaken a bound to get to green.
"""

import functools
import time

from oracles import oracle_cardinality, oracle_eliminate, oracle_height
from term_corpus import (
    HNF_NOT_NF_WITNESS,
    constant_free_nf_subset,
    lambda_y_corpus,
    omega_corpus,
)
from yflow.analysis import (
    certified_normalize,
    has_head_normal_form,
    has_normal_form,
    tilde_Y,
    truncation_depths,
)
from yflow.harness import FunctionSpec, conservativity_pipeline, extended_poly
from yflow.parser import parse_term, parse_type
from yflow.printer import term_to_str
from yflow.reduction import (
    assured_normalize,
    classify_properness,
    enumerate_long_normal_forms,
    long_normal_form,
)
from yflow.semantics import cardinality, eval_term, height
from yflow.semantics import test_t as flow_test
from yflow.terms import App, Lam, Var, YConst, church_numeral, tilde_omega_map, y_truncate
from yflow.types import GROUND, numeral_type

W = numeral_type(GROUND)


def criterion(num: int):
    """Print exactly one verdict line per criterion, then assert."""

    def deco(fn):
        @functools.wraps(fn)
        def wrapper():
            try:
                ok, detail = fn()
            except Exception as e:
                print(f"[criterion {num}] FAIL - {type(e).__name__}: {e}")
                raise
            print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} - {detail}")
            assert ok, detail

        return wrapper

    return deco


@functools.cache
def _y_corpus():
    return lambda_y_corpus(220)


@functools.cache
def _omega_subset():
    return constant_free_nf_subset(omega_corpus(250), 200)


@criterion(1)
def test_criterion_1_domain_sizes_and_heights():
    started = time.perf_counter()
    expected = {"o": (2, 1), "o->o": (3, 2), "(o->o)->(o->o)": (10, 6)}
    bad = []
    for text, (card, h) in expected.items():
        ty = parse_type(text)
        got = (cardinality(ty), height(ty))
        oracle = (oracle_cardinality(ty), oracle_height(ty))
        if got != (card, h) or oracle != (card, h):
            bad.append(f"{text}: library {got}, oracle {oracle}, expected {(card, h)}")
    elapsed = time.perf_counter() - started
    ok = not bad and elapsed < 1.0
    detail = (f"cardinalities and heights agree with the brute-force oracle "
              f"at o, o->o, (o->o)->(o->o) in {elapsed:.3f}s"
              if ok else "; ".join(bad) or f"too slow: {elapsed:.3f}s >= 1s")
    return ok, detail


@criterion(2)
def test_criterion_2_exhaustive_properness_agreement():
    started = time.perf_counter()
    counts = {}
    mismatches = []
    errors = []
    proper_seen = improper_seen = 0
    for text in ("o", "o->o", "(o->o)->o", "(o->o)->(o->o)"):
        ty = parse_type(text)
        forms = enumerate_long_normal_forms(ty, 12)
        counts[text] = len(forms)
        test = flow_test(ty)
        for t in forms:
            try:
                semantic = test.apply(eval_term(t)).flag
                syntactic = bool(classify_properness(t))
            except Exception as e:  # criterion demands zero exceptions
                errors.append(f"{text}: {type(e).__name__}: {e}")
                continue
            if semantic != syntactic:
                mismatches.append((text, t))
            proper_seen += syntactic
            improper_seen += not syntactic
    elapsed = time.perf_counter() - started
    ok = (not mismatches and not errors and elapsed < 60.0
          and proper_seen > 0 and improper_seen > 0)
    total = sum(counts.values())
    detail = (f"{total} long normal forms of size <= 12 "
              f"({', '.join(f'{k}: {v}' for k, v in counts.items())}), "
              f"flow test equals syntactic properness on all, "
              f"{proper_seen} proper / {improper_seen} improper, {elapsed:.1f}s"
              if ok else
              f"{len(mismatches)} mismatches, {len(errors)} exceptions, "
              f"{elapsed:.1f}s; first: {(mismatches + errors)[:3]}")
    return ok, detail


@criterion(3)
def test_criterion_3_truncation_invisible_to_evaluation():
    corpus = _y_corpus()
    failures = []
    for t in corpus:
        base = eval_term(t)
        depths = truncation_depths(t)
        for extra in (0, 1, 2):
            bumped = {ty: d + extra for ty, d in depths.items()}
            if eval_term(y_truncate(t, bumped)) != base:
                failures.append((t, extra))
    ok = not failures and len(corpus) >= 200
    detail = (f"evaluation of {len(corpus)} recursive terms is unchanged by "
              f"height-deep truncation and stable at height +1 and +2"
              if ok else f"{len(failures)} value changes in {len(corpus)} terms")
    return ok, detail


@criterion(4)
def test_criterion_4_cross_validation():
    corpus = _y_corpus()
    positives = negatives = 0
    disagreements = []
    for t in corpus:
        report = has_normal_form(t)
        if report.verdict:
            positives += 1
            if certified_normalize(t, report) != assured_normalize(t):
                disagreements.append(("nf-differs", t))
        else:
            negatives += 1
            if classify_properness(long_normal_form(tilde_Y(t))):
                disagreements.append(("truncation-proper", t))
    ok = not disagreements and positives and negatives
    detail = (f"{positives} positive verdicts match direct normalization, "
              f"{negatives} negative verdicts leave an improper truncation, "
              f"zero disagreements"
              if ok else f"{len(disagreements)} disagreements: "
                         f"{disagreements[:3]}")
    return ok, detail


@criterion(5)
def test_criterion_5_spot_checks():
    bad = []
    if has_normal_form(parse_term(r"Y{o} (\x:o. x)")).verdict:
        bad.append("ground self-application should have no normal form")
    for m in range(11):
        if not has_normal_form(church_numeral(m, GROUND)).verdict:
            bad.append(f"numeral {m} should normalize")
    witness = HNF_NOT_NF_WITNESS
    if not has_head_normal_form(witness).verdict:
        bad.append("witness should have a head normal form")
    if has_normal_form(witness).verdict:
        bad.append("witness should have no full normal form")
    ok = not bad
    detail = ("diverging ground fixpoint, numerals 0..10, and the "
              "head-normalizing-only witness all answer as required"
              if ok else "; ".join(bad))
    return ok, detail


def _binary(body_of) -> Lam:
    m, n = Var("m", W), Var("n", W)
    return Lam("m", W, Lam("n", W, body_of(m, n)))


def _y_wrapped(t: Lam) -> Lam:
    return _binary(lambda m, n: App(
        YConst(W), Lam("z", W, App(App(t, m), n))))


@criterion(6)
def test_criterion_6_conservativity_pipelines():
    started = time.perf_counter()
    add = extended_poly("add", GROUND)
    mul = extended_poly("mul", GROUND)
    ifz = extended_poly("ifzero", GROUND)
    two = church_numeral(2, GROUND)
    branchy = _binary(lambda m, n: App(
        App(App(ifz, m), App(App(add, n), two)), App(App(mul, n), m)))
    guarded = _binary(lambda m, n: App(
        App(App(ifz, App(App(mul, m), n)), church_numeral(0, GROUND)),
        App(App(add, m), n)))
    cases = [
        ("add", add, lambda a, b: a + b),
        ("mul", mul, lambda a, b: a * b),
        ("ifzero-add-mul", branchy, lambda a, b: b + 2 if a == 0 else b * a),
        ("ifzero-of-mul", guarded, lambda a, b: 0 if a * b == 0 else a + b),
    ]
    cases += [(f"y-wrapped-{name}", _y_wrapped(t), ref)
              for name, t, ref in cases]
    bad = []
    for name, t, ref in cases:
        spec = FunctionSpec.make(name, (GROUND, GROUND), GROUND, ref)
        result = conservativity_pipeline(t, spec)
        if not result.source.consistent:
            bad.append(f"{name}: source table refuted")
        if not result.holds:
            bad.append(f"{name}: pipeline fails")
        if term_to_str(result.stages[-1][1]) != term_to_str(oracle_eliminate(t, 2)):
            bad.append(f"{name}: the pure term differs from the reference route's")
    elapsed = time.perf_counter() - started
    ok = not bad and elapsed < 30.0
    detail = (f"{len(cases)} pipelines (including recursion-wrapped "
              f"variants) hold on the full 0..4 grids in {elapsed:.1f}s"
              if ok else "; ".join(bad) or f"too slow: {elapsed:.1f}s >= 30s")
    return ok, detail


@criterion(7)
def test_criterion_7_bottom_expansion_preserves_normal_forms():
    subset = _omega_subset()
    mismatches = []
    for t in subset:
        if assured_normalize(tilde_omega_map(t)) != assured_normalize(t):
            mismatches.append(t)
    ok = not mismatches and len(subset) >= 200
    detail = (f"expanding higher-type bottoms leaves the normal form of all "
              f"{len(subset)} constant-free-normalizing corpus terms unchanged"
              if ok else f"{len(mismatches)} normal forms changed")
    return ok, detail


@criterion(8)
def test_criterion_8_headline_scope_note():
    detail = ("informational: the general statement quantifies over all "
              "terms and all numerals, which no finite run can certify; "
              "criteria 2-4 and 6-7 are its machine-checked instances")
    return True, detail

"""Finite domains against the brute-force oracle, evaluation soundness,
fixed points, and the test/probe elements."""

import time
import tracemalloc
from array import array

import pytest
from hypothesis import given, settings, strategies as st

import yflow.semantics as semantics
from oracles import (
    oracle_cardinality,
    oracle_covers,
    oracle_elements,
    oracle_enumerate_masks,
    oracle_height,
    oracle_leq,
    oracle_lfp,
)
from term_corpus import HIGHER_Y_CORPUS, NESTED3, SWAP3, SWAP3_STEP, omega_corpus
from yflow.parser import parse_term, parse_type
from yflow.reduction import assured_normalize
from yflow.semantics import (
    DomainTooLarge,
    Element,
    bottom_element,
    cardinality,
    clear_domain_cache,
    default_size_limit,
    enumerate_domain,
    eval_term,
    head_test_t,
    height,
    lfp,
    probe_s,
    render_domain,
    render_element,
    set_default_size_limit,
    test_t as flow_test,
    top_element,
)
from yflow.terms import (App, Lam, OmegaConst, TypingError, Var, church_numeral,
                         omega_tilde, type_of)
from yflow.types import GROUND, Arrow

O = GROUND
OO = Arrow(O, O)

SMALL_TYPES = [
    "o",
    "o->o",
    "o->o->o",
    "(o->o)->o",
    "(o->o)->o->o",
    "((o->o)->o)->o",
]

# Every bench domain type with at most 168 elements.
ORDER_TYPES = SMALL_TYPES + [
    "(o->o->o)->o",
    "o->o->o->o",
    "(o->o)->(o->o)->o",
    "((o->o)->o)->o->o",
    "(o->o)->o->o->o",
    "o->o->o->o->o",
]

# Every bench domain type (bench/workloads.py DOMAIN_TYPES), and the
# 7,581-element domain after o->o->o->o->o.
LARGE_ORDER_TYPES = ORDER_TYPES + ["(o->o->o)->o->o->o", "o->o->o->o->o->o"]


def is_monotone_element(el):
    """Hereditary monotonicity on masks; forces tables, so enumerable types only."""
    if el.ty == O:
        return True
    dom = enumerate_domain(el.ty.domain)
    tab = el.table()
    n = len(dom)
    for i in range(n):
        for j in range(n):
            if dom.leq(i, j) and tab[i].mask() & ~tab[j].mask():
                return False
    return all(is_monotone_element(entry) for entry in tab)


def oracle_render(ty, value) -> str:
    if ty == O:
        return "top" if value else "bot"
    return "[" + ", ".join(oracle_render(ty.codomain, v) for v in value) + "]"


@pytest.mark.parametrize("s", SMALL_TYPES)
def test_cardinality_matches_oracle(s):
    ty = parse_type(s)
    assert cardinality(ty) == oracle_cardinality(ty)


@pytest.mark.parametrize("s", SMALL_TYPES)
def test_height_matches_oracle(s):
    ty = parse_type(s)
    assert height(ty) == oracle_height(ty)


def test_height_works_beyond_enumerable_sizes():
    # the domain at this type is far beyond the limit; height must not care
    ty = parse_type("((o->o)->o->o) -> ((o->o)->o->o) -> (o->o)->o->o")
    assert height(ty) == 600


def test_canonical_order_is_linear_extension():
    for s in SMALL_TYPES:
        dom = enumerate_domain(parse_type(s))
        for i in range(len(dom)):
            for j in range(len(dom)):
                if dom.leq(i, j) and i != j:
                    assert i < j, s


def test_bottom_and_top_indices():
    for s in SMALL_TYPES:
        ty = parse_type(s)
        dom = enumerate_domain(ty)
        assert dom.elements[0] == bottom_element(ty)
        assert dom.elements[-1] == top_element(ty)


def test_covers_ground():
    dom = enumerate_domain(O)
    assert dom.covers() == [(0, 1)]


def test_size_limit_enforced():
    saved = default_size_limit()
    try:
        set_default_size_limit(5)
        with pytest.raises(DomainTooLarge):
            enumerate_domain(parse_type("(o->o)->o->o"))
        # cache hit path: enumerate first, then ask with a tighter limit
        set_default_size_limit(saved)
        enumerate_domain(parse_type("(o->o)->o->o"))
        set_default_size_limit(5)
        with pytest.raises(DomainTooLarge):
            enumerate_domain(parse_type("(o->o)->o->o"))
    finally:
        set_default_size_limit(saved)


def test_size_limit_stops_a_deep_enumeration_early():
    # 7,581 argument positions: a stack frame per position would pass the
    # interpreter's recursion limit long before the size limit is reached
    saved = default_size_limit()
    clear_domain_cache()
    try:
        set_default_size_limit(10_000)
        started = time.process_time()
        with pytest.raises(DomainTooLarge):
            enumerate_domain(parse_type("(o->o->o->o->o->o)->o"))
        assert time.process_time() - started < 1.0
        assert len(enumerate_domain(parse_type("o->o->o->o->o->o"))) == 7_581
    finally:
        set_default_size_limit(saved)


def test_an_oversized_domain_fails_before_the_walk():
    # at the default limit the antichain bound, 2^621, rules the domain out
    # before the count pass starts, so no frontier is ever stored
    clear_domain_cache()
    tracemalloc.start()
    try:
        started = time.process_time()
        with pytest.raises(DomainTooLarge, match=r"at least 2\^621 elements"):
            enumerate_domain(parse_type("(o->o->o->o->o->o)->o"))
        assert time.process_time() - started < 2.0
        assert tracemalloc.get_traced_memory()[1] < 20_000_000
    finally:
        tracemalloc.stop()


def test_the_count_pass_stops_a_deep_enumeration_without_the_bound(monkeypatch):
    monkeypatch.setattr(semantics, "_size_lower_bound", lambda dom, cod: (1, 0))
    saved = default_size_limit()
    clear_domain_cache()
    try:
        set_default_size_limit(10_000)
        started = time.process_time()
        with pytest.raises(DomainTooLarge, match="more than 10000 elements"):
            enumerate_domain(parse_type("(o->o->o->o->o->o)->o"))
        assert time.process_time() - started < 1.0
    finally:
        set_default_size_limit(saved)


@pytest.mark.parametrize("s, bound", [
    ("(o->o->o)->o->o->o", 25), ("((o->o)->o->o)->(o->o)->o->o", 49),
] + [(s, None) for s in ORDER_TYPES[1:]])
def test_the_size_lower_bound_is_a_lower_bound(s, bound):
    ty = parse_type(s)
    base, level = semantics._size_lower_bound(enumerate_domain(ty.domain),
                                               enumerate_domain(ty.codomain))
    assert base ** level <= cardinality(ty)
    assert bound is None or base ** level == bound


def test_enumerating_w_to_w_peaks_under_10_mb():
    ty = parse_type("((o->o)->o->o)->(o->o)->o->o")
    clear_domain_cache()
    tracemalloc.start()
    try:
        assert len(enumerate_domain(ty)) == 120_549
        assert tracemalloc.get_traced_memory()[1] < 10_000_000
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("s", LARGE_ORDER_TYPES)
def test_render_domain_renders_every_element(s):
    dom = enumerate_domain(parse_type(s))
    assert render_domain(dom) == [render_element(el) for el in dom.elements]


@pytest.mark.parametrize("s", LARGE_ORDER_TYPES)
def test_covers_match_the_one_point_oracle(s):
    dom = enumerate_domain(parse_type(s))
    assert dom.covers() == oracle_covers(dom)


def test_a_deep_left_nested_chain_covers_each_domain_a_bounded_number_of_times(monkeypatch):
    # (((o->o)->o)...)->o, 150 arrows deep: a chain of 152 elements.  A
    # domain's moves come with it, so a level's covers run a bounded number
    # of times, not again for every level above it.
    ty = O
    for _ in range(150):
        ty = Arrow(ty, O)
    calls = []
    real = semantics.Domain.covers
    monkeypatch.setattr(semantics.Domain, "covers",
                        lambda self: calls.append(self.ty) or real(self))
    clear_domain_cache()
    dom = enumerate_domain(ty)
    assert dom.covers() == [(k, k + 1) for k in range(151)]
    assert render_domain(dom)[-1] == "[" + ", ".join(["top"] * 151) + "]"
    assert len(calls) <= 2 * 150 + 2


@pytest.mark.parametrize("s", ORDER_TYPES + [
    "(o->o->o)->o->o->o", "((o->o)->o->o)->(o->o)->o->o"])
def test_enumeration_matches_the_depth_first_oracle(s):
    ty = parse_type(s)
    masks = enumerate_domain(ty).masks
    assert list(masks) == oracle_enumerate_masks(ty)
    assert masks[0] == 0 and masks[-1] == (1 << height(ty)) - 1


@pytest.fixture()
def lanes_everywhere(monkeypatch):
    """Build every domain whose masks fit in 64 bits in lanes, however small."""
    monkeypatch.setattr(semantics, "_LANES_FROM", 0)
    clear_domain_cache()
    yield
    clear_domain_cache()


@pytest.mark.parametrize("s", ORDER_TYPES + [
    "(o->o->o)->o->o->o", "((o->o)->o->o)->(o->o)->o->o"])
def test_lane_build_matches_the_depth_first_oracle(s, lanes_everywhere):
    ty = parse_type(s)
    masks = enumerate_domain(ty).masks
    if ty != O:  # the ground domain is not built
        assert isinstance(masks, array) and masks.typecode == "Q"
    assert list(masks) == oracle_enumerate_masks(ty)


def test_masks_wider_than_64_bits_stay_ints(lanes_everywhere):
    # the 64-deep left-nested chain: its argument domain is a chain of 65
    # elements, so it has 66 elements with 65-bit masks
    ty = O
    for _ in range(64):
        ty = Arrow(ty, O)
    dom = enumerate_domain(ty)
    assert (len(dom), dom.width) == (66, 65)
    assert isinstance(dom.masks, list) and dom.masks == oracle_enumerate_masks(ty)
    assert all(type(m) is int for m in dom.masks)
    assert isinstance(enumerate_domain(ty.domain).masks, array)
    assert render_domain(dom) == [
        "[" + ", ".join(["bot"] * (65 - k) + ["top"] * k) + "]" for k in range(66)]
    assert [render_element(el) for el in dom.elements] == render_domain(dom)
    assert dom.covers() == [(k, k + 1) for k in range(65)]


def test_w_to_w_packs_into_lanes_under_3_5_mb():
    ty = parse_type("((o->o)->o->o)->(o->o)->o->o")
    clear_domain_cache()
    tracemalloc.start()
    try:
        masks = enumerate_domain(ty).masks
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert isinstance(masks, array) and masks.typecode == "Q"
    assert len(masks) == 120_549
    assert peak < 3_500_000


def test_index_of_on_a_packed_domain_builds_no_table():
    # bisecting the lanes allocates nothing per mask
    ty = parse_type("((o->o)->o->o)->(o->o)->o->o")
    clear_domain_cache()
    dom = enumerate_domain(ty)
    top = Element(ty, None, dom.masks[-1], dom.width)  # not dom.elements: 120,549 objects
    tracemalloc.start()
    try:
        assert dom.index_of(top) == len(dom) - 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    with pytest.raises(ValueError):  # top at the least point only: not monotone
        dom.index_of(Element(ty, None, 1 << dom.width - 1, dom.width))


def test_domain_at_w_to_w_has_120549_elements():
    assert cardinality(parse_type("((o->o)->o->o)->(o->o)->o->o")) == 120_549


def test_elements_are_monotone():
    for s in SMALL_TYPES:
        dom = enumerate_domain(parse_type(s))
        for el in dom.elements:
            assert is_monotone_element(el)


def test_oracle_agreement_on_order():
    # same poset up to the order isomorphism induced by matching keys
    ty = parse_type("(o->o)->o")
    dom = enumerate_domain(ty)
    els = oracle_elements(ty)
    assert len(dom) == len(els)
    ours = sorted(
        sum(1 for j in range(len(dom)) if dom.leq(i, j)) for i in range(len(dom))
    )
    theirs = sorted(
        sum(1 for b in els if oracle_leq(ty, a, b)) for a in els
    )
    assert ours == theirs


def test_mask_leq_join_and_rendering():
    bot, top = enumerate_domain(O).elements
    assert bot.leq(top) and not top.leq(bot)
    # the union of two masks is the pointwise join, and is in the domain
    ty = parse_type("o->o->o")
    dom = enumerate_domain(ty)
    for a in dom.elements:
        for b in dom.elements:
            join = dom.elements[dom.index_of(Element(ty, mask=a.mask() | b.mask()))]
            for x in (bot, top):
                for y in (bot, top):
                    want = a.apply(x).apply(y).flag or b.apply(x).apply(y).flag
                    assert join.apply(x).apply(y).flag == want
    assert render_element(Element(ty, mask=0b0011)) == "[[bot, bot], [top, top]]"


@pytest.mark.parametrize("s", ORDER_TYPES)
def test_order_and_covers_match_oracle(s):
    # elements correspond to the oracle's index by index: same rendering,
    # same order, and covers are the brute-force Hasse diagram of dom.leq
    ty = parse_type(s)
    dom = enumerate_domain(ty)
    els = oracle_elements(ty)
    n = len(dom)
    assert [render_element(el) for el in dom.elements] == [
        oracle_render(ty, e) for e in els]
    strictly_above = [0] * n  # bitsets over indices
    for i in range(n):
        for j in range(n):
            assert dom.leq(i, j) == oracle_leq(ty, els[i], els[j]), (s, i, j)
            if i != j and dom.leq(i, j):
                strictly_above[i] |= 1 << j
    hasse = []
    for i in range(n):
        beyond = 0
        for k in range(n):
            if strictly_above[i] >> k & 1:
                beyond |= strictly_above[k]
        tops = strictly_above[i] & ~beyond
        hasse += [(i, j) for j in range(n) if tops >> j & 1]
    assert dom.covers() == hasse


def test_enumerated_masks_strictly_increase():
    for s in ORDER_TYPES + ["(o->o->o)->o->o->o"]:
        masks = [el.mask() for el in enumerate_domain(parse_type(s)).elements]
        assert all(a < b for a, b in zip(masks, masks[1:])), s


def test_eval_folds_numerals_beyond_one():
    # every monotone endomap of the two-point lattice is idempotent, so
    # the semantics separates 0 from 1 and nothing above: values carry
    # properness information, not arithmetic
    vals = [eval_term(church_numeral(m, O)) for m in [*range(6), 20000]]
    assert vals[0] != vals[1]
    assert all(v == vals[1] for v in vals[2:])


def test_eval_soundness_under_reduction():
    for t in omega_corpus()[::4]:
        nf = assured_normalize(t)
        assert eval_term(t) == eval_term(nf), str(t)


def test_omega_means_bottom():
    for s in SMALL_TYPES:
        ty = parse_type(s)
        assert eval_term(OmegaConst(ty)) == bottom_element(ty)


def test_omega_tilde_means_bottom_too():
    for s in SMALL_TYPES:
        ty = parse_type(s)
        assert eval_term(omega_tilde(ty)) == eval_term(OmegaConst(ty))


def test_lfp_needs_endofunction():
    with pytest.raises(ValueError):
        lfp(eval_term(parse_term(r"\x:o. \y:o. x")))


def test_lfp_exhaustive_stabilization_at_small_types():
    # for every monotone f at s -> s, iterating from bottom stabilizes
    # within height(s) strict steps and yields a fixed point of f
    for s in ["o", "o->o", "(o->o)->o"]:
        ty = parse_type(s)
        dom = enumerate_domain(ty)
        fdom = enumerate_domain(Arrow(ty, ty))
        h = height(ty)
        for f in fdom.elements:
            x = bottom_element(ty)
            steps = 0
            while True:
                y = f.apply(x)
                if y == x:
                    break
                x = y
                steps += 1
            assert steps <= h, (s, render_element(f))
            assert lfp(f) == x
            assert f.apply(lfp(f)) == lfp(f)


def test_ground_test_is_identity_and_probe_is_top():
    assert flow_test(O).apply(eval_term(OmegaConst(O))).flag is False
    assert probe_s(O).flag is True
    assert top_element(O).flag is True


def test_test_values_on_basic_terms():
    idf = parse_term(r"\x:o. x")
    assert flow_test(OO).apply(eval_term(idf)).flag
    assert not flow_test(OO).apply(eval_term(parse_term(r"\x:o. Omega{o}"))).flag
    # head test is weaker: a head that ignores a missing argument
    part = parse_term(r"\g:(o->o)->o. g (\y:o. Omega{o})")
    ty = type_of(part, {})
    assert head_test_t(ty).apply(eval_term(part)).flag
    assert not flow_test(ty).apply(eval_term(part)).flag


def test_probe_and_test_elements_are_monotone():
    for s in ["o", "o->o", "(o->o)->o"]:
        ty = parse_type(s)
        assert is_monotone_element(probe_s(ty))
        assert is_monotone_element(flow_test(ty))
        assert is_monotone_element(top_element(ty))
        assert is_monotone_element(head_test_t(ty))


def test_forcing_replaces_the_closure():
    calls = []
    el = Element(OO, lambda x: calls.append(x) or x)
    el.mask()
    forced = len(calls)
    assert el._fn is None
    for x in enumerate_domain(O).elements:
        assert el.apply(x) == x
    assert len(calls) == forced


def test_eval_requires_a_closed_term():
    from yflow.terms import TypingError

    with pytest.raises(TypingError):
        eval_term(parse_term(r"[z:o] z"))


def test_eval_types_in_its_compile_walk_without_type_of(monkeypatch):
    import sys

    import yflow.terms as terms

    calls = []
    real = terms.type_of
    for name, module in list(sys.modules.items()):
        if name.startswith("yflow") and getattr(module, "type_of", None) is real:
            monkeypatch.setattr(module, "type_of", lambda *a: calls.append(a) or real(*a))
    t = parse_term(r"Y{o->o} (\f:o->o. \x:o. Y{o->o} (\g:o->o. \y:o. f (g y)) x) Omega{o}")
    value = eval_term(t)
    assert calls == []
    assert value.ty == O and value.flag is False


def _ill_typed():
    x, f = Var("x", O), Var("f", OO)
    ident = Lam("y", O, Var("y", O))
    return [
        Var("z", O),                                       # free
        Lam("x", O, App(Lam("x", OO, x), ident)),          # carried type, inner binder
        Lam("x", O, App(x, x)),                            # an applied ground term
        App(ident, ident),                                 # a domain mismatch
        Lam("f", OO, App(App(f, f), Var("z", O))),         # the first in post-order
    ]


@pytest.mark.parametrize("t", _ill_typed())
def test_eval_raises_type_ofs_typing_error(t):
    with pytest.raises(TypingError) as expected:
        type_of(t)
    with pytest.raises(TypingError) as e:
        eval_term(t)
    assert str(e.value) == str(expected.value)
    assert e.value.term is expected.value.term


@pytest.mark.parametrize("s", ["o->o->o", "(o->o)->o->o"])
def test_lfp_agrees_with_the_kleene_oracle(s):
    # f is drawn from the whole domain at s -> s: 494 maps at o->o->o and
    # 120,549 at W; a forced f forces its argument, so every point is solved
    ty = parse_type(s)
    fdom = enumerate_domain(Arrow(ty, ty))

    @settings(derandomize=True, database=None, deadline=None, max_examples=150)
    @given(st.integers(0, len(fdom) - 1))
    def agrees(i):
        f = fdom.elements[i]
        assert lfp(f).mask() == oracle_lfp(f).mask(), render_element(f)

    agrees()


def test_fixed_points_a_verdict_reads_agree_with_the_kleene_oracle(monkeypatch):
    # the verdict solves each Y only at the points it reads; forcing the
    # value afterwards solves the rest, around the points already frozen
    real = semantics.lfp

    def recording(f):
        solved.append((f, real(f)))
        return solved[-1][1]

    for t in HIGHER_Y_CORPUS + [NESTED3, SWAP3]:
        solved = []
        monkeypatch.setattr(semantics, "lfp", recording)
        value = eval_term(t)
        flow_test(value.ty).apply(value)
        monkeypatch.undo()
        assert solved
        for f, fixed in list(solved):
            assert fixed.mask() == oracle_lfp(f).mask(), str(t)


def _counting(f):
    """f as a lazy element that records each point its values are read at."""
    calls = []

    def step(r):
        return semantics._on_arguments(
            f.ty.codomain, lambda args: calls.append(args) or _at(f.apply(r), *args))

    return Element(f.ty, step), calls


def _at(fixed, *args):
    for a in args:
        fixed = fixed.apply(a)
    return fixed.flag


def test_a_solved_point_is_never_evaluated_again():
    # swap3's step: f x y = IFZ x y (f y (SUCC x)), so (1, 0) recurses to
    # (0, 2), which returns 2; (1, 1) swaps forever
    f, calls = _counting(eval_term(SWAP3_STEP))
    fixed = lfp(f)
    zero, one = (eval_term(church_numeral(k, O)) for k in (0, 1))
    probes = [probe_s(OO), probe_s(O)]
    assert _at(fixed, one, zero, *probes) and not _at(fixed, one, one, *probes)
    solved = len(calls)
    assert solved > 0
    # asked again, and (0, 1), which the first solve demanded on the way
    assert _at(fixed, one, zero, *probes) and not _at(fixed, one, one, *probes)
    assert _at(fixed, zero, one, *probes)
    assert len(calls) == solved


def test_one_point_of_swap3s_recursion_evaluates_f_at_few_points():
    # iterating whole tables would evaluate f at all 600 points, per iterate
    f, calls = _counting(eval_term(SWAP3_STEP))
    fixed = lfp(f)
    two, one = (eval_term(church_numeral(k, O)) for k in (2, 1))
    assert not _at(fixed, two, one, probe_s(OO), probe_s(O))
    assert 0 < len(calls) < height(fixed.ty) == 600


def test_equal_arguments_share_one_point():
    # elements hash and compare by mask, so a forced copy of a lazy
    # argument reads the point the lazy one solved
    f, calls = _counting(eval_term(parse_term(r"\g:(o->o)->o. \h:o->o. h (g h)")))
    fixed = lfp(f)
    lazy = eval_term(parse_term(r"\x:o. x"))
    assert not _at(fixed, lazy)
    solved = len(calls)
    assert solved > 0
    dom = enumerate_domain(OO)
    forced = dom.elements[dom.index_of(lazy)]
    assert forced is not lazy and forced == lazy
    assert not _at(fixed, forced)
    assert len(calls) == solved

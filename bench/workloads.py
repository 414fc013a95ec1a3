"""Seeded inputs and independent references for the benchmark workloads.

Nothing here imports yflow.  Terms are produced as surface-syntax text,
and every expected answer comes from a route of its own:

- decide: the generator builds each term from a family whose verdicts
  it knows by construction (see cls and the family tables below);
  positive verdicts are also re-confirmed by the bench's own
  fuel-bounded normal-order reducer (reference.py).
- certify: numeral results from Python arithmetic.
- domain: hand-written cardinalities and heights.
- nesting: the numeral or spelled-out text the command must print.

An Item is one CLI invocation: argv for ``yflow`` plus the expected
outcome, which the runner compares against the JSON record printed.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field

W = "((o->o)->o->o)"
W2 = f"({W}->{W})"
W3 = f"({W}->{W}->{W})"

# The combinators of yflow.harness.extended_poly(..., o), spelled out
# here so that the inputs do not pass through the program's printer.
SUCC = f"(\\n:{W}. \\f:o->o. \\x:o. f (n f x))"
ADD = f"(\\m:{W}. \\n:{W}. \\f:o->o. \\x:o. m f (n f x))"
MUL = f"(\\m:{W}. \\n:{W}. \\f:o->o. m (n f))"
IFZ = f"(\\n:{W}. \\a:{W}. \\b:{W}. \\f:o->o. \\x:o. n (\\z:o. b f x) (a f x))"

NESTED3 = (f"\\n:{W}. Y{{{W2}}} (\\f:{W2}. \\x:{W}. Y{{{W2}}} (\\g:{W2}. \\y:{W}. "
           f"{IFZ} y (f x) (g (f y))) ({IFZ} x n (f ({ADD} x n)))) n")
SWAP3 = (f"Y{{{W3}}} (\\f:{W3}. \\x:{W}. \\y:{W}. {IFZ} x y (f y ({SUCC} x))) "
         f"#2{{o}} #1{{o}}")


@dataclass
class Item:
    """One CLI invocation and what its JSON record must say."""

    family: str
    argv: list[str]
    expect: dict
    label: str = ""
    files: dict[str, str] = field(default_factory=dict)  # spec files to write


# ---------------------------------------------------------------------------
# Numeral expressions.  An expression is a nested tuple:
# ("c", k) | ("v", name) | ("succ", e) | ("add", e1, e2) | ("mul", e1, e2).
# Its value class is Z (zero), P (at least one) or N (a non-zero
# polynomial in a free numeral with zero constant term).  Coefficients are
# never negative, so the class of a result depends only on the classes
# of the operands; the IFZ test needs only the "then" branch on Z, only
# the "else" branch on P, and both on N.

Z, P, N = "Z", "P", "N"


def render(e) -> str:
    tag = e[0]
    if tag == "c":
        return f"#{e[1]}{{o}}"
    if tag == "v":
        return e[1]
    if tag == "succ":
        return f"({SUCC} {render(e[1])})"
    op = ADD if tag == "add" else MUL
    return f"({op} {render(e[1])} {render(e[2])})"


def cls(e, env: dict[str, str]) -> str:
    tag = e[0]
    if tag == "c":
        return Z if e[1] == 0 else P
    if tag == "v":
        return env[e[1]]
    if tag == "succ":
        return P
    a, b = cls(e[1], env), cls(e[2], env)
    if tag == "add":
        if P in (a, b):
            return P
        return Z if a == b == Z else N
    if Z in (a, b):
        return Z
    return P if a == b == P else N


def value(e, env: dict[str, int]) -> int:
    tag = e[0]
    if tag == "c":
        return e[1]
    if tag == "v":
        return env[e[1]]
    if tag == "succ":
        return value(e[1], env) + 1
    a, b = value(e[1], env), value(e[2], env)
    return a + b if tag == "add" else a * b


def _int_cls(k: int) -> str:
    return Z if k == 0 else P


def random_expr(rng: random.Random, names: list[str], depth: int):
    roll = rng.random()
    if depth <= 0 or roll < 0.35:
        if names and rng.random() < 0.6:
            return ("v", rng.choice(names))
        return ("c", rng.randint(0, 2))
    if roll < 0.6:
        return ("succ", random_expr(rng, names, depth - 1))
    tag = "add" if roll < 0.8 else "mul"
    return (tag, random_expr(rng, names, depth - 1), random_expr(rng, names, depth - 1))


def run_recursion(test, base, updates, names, start):
    """Follow f(args) = IFZ test base (f updates) from start.

    start maps each name to a class, or to an int for concrete runs.
    Returns (converges, first_test_class, result) where result is the
    base value for concrete runs.  The class state space is finite and
    the step is determined by the class state, so a repeated state
    without a "then" exit proves divergence.
    """
    concrete = all(isinstance(v, int) for v in start.values())
    state = dict(start)
    seen = set()
    first = None
    while True:
        classes = {k: (_int_cls(v) if concrete else v) for k, v in state.items()}
        c = cls(test, classes)
        first = first or c
        if c == Z:
            return True, first, (value(base, state) if concrete else None)
        key = tuple(classes[k] for k in names)
        if key in seen:
            return False, first, None
        seen.add(key)
        if concrete:
            state = {k: value(u, state) for k, u in zip(names, updates)}
        else:
            state = {k: cls(u, classes) for k, u in zip(names, updates)}


# ---------------------------------------------------------------------------
# decide

# Y{W} bodies for the recursive branch, with (nf, hnf) once that branch
# is the one reduction must take; r is the recursion variable.
_W_RECUR = [
    ("SUCC r", f"({SUCC} r)", False, True),
    ("ADD #1 r", f"({ADD} #1{{o}} r)", False, True),
    ("ADD r #1", f"({ADD} r #1{{o}})", False, False),
    ("r", "r", False, False),
    ("MUL #0 r", f"({MUL} #0{{o}} r)", True, True),
    ("MUL r #2", f"({MUL} r #2{{o}})", False, False),
]

# Y{o->o->o} bodies over g, a, b with (nf, hnf).
_OOO = [
    ("a", "a", True, True),
    ("b", "b", True, True),
    ("F b", "F b", True, True),
    ("g b a", "g b a", False, False),
    ("F (g b a)", "F (g b a)", False, True),
    ("g a (F b)", "g a (F b)", False, False),
]
_GROUND_ARGS = ["X", "F X", "n F X", "F (n F X)"]

# Y{(o->o)->o} bodies over g, h with (nf, hnf); h is always bound to a
# function whose head is F, never to the identity.
_OO_O = [
    ("h X", "h X", True, True),
    ("h (h X)", "h (h X)", True, True),
    ("h (g (\\z:o. X))", "h (g (\\z:o. X))", True, True),
    ("g h", "g h", False, False),
    ("h (g h)", "h (g h)", False, True),
    ("g (\\z:o. h z)", "g (\\z:o. h z)", False, False),
]
_HEADED_FUNS = ["F", "\\z:o. F (F z)", "\\z:o. F (n F z)"]

# (terms, runs of each term) per pass for each family; every run goes
# through decide-nf and decide-hnf.  Each family is a fixed template pool
# (see _template_pool) and the counts are fixed, so every seed has the
# same mix of costs: the median falls in the middle of the W->W
# recursions and the 90th percentile among the W->W->W ones, not on the
# edge between two families.
DECIDE_MIX = {"w3": (4, 3), "w2": (24, 2), "w2abs": (12, 2), "w1": (5, 1),
              "ooo": (5, 1), "oo_o": (5, 1)}


def _wrap(body: str, rng: random.Random, abstract: bool) -> str:
    if abstract:
        return f"\\n:{W}. {body}"
    return f"(\\n:{W}. {body}) #{rng.randint(0, 3)}{{o}}"


def _w1_template(rng):
    test = ("v", "n") if rng.random() < 0.5 else random_expr(rng, [], 2)
    return (rng.random() < 0.4, test, random_expr(rng, ["n"], 2), rng.choice(_W_RECUR))


def _decide_w1(rng, template):
    abstract, test, a, (rname, rtext, rnf, rhnf) = template
    body = f"Y{{{W}}} (\\r:{W}. {IFZ} {render(test)} {render(a)} {rtext})"
    if abstract:
        term = f"\\n:{W}. {body}"
        c = cls(test, {"n": N})
    else:
        k = rng.randint(0, 2)
        term = f"(\\n:{W}. {body}) #{k}{{o}}"
        c = cls(test, {"n": _int_cls(k)})
    if c == Z:
        nf = hnf = True
    elif c == P:
        nf, hnf = rnf, rhnf
    else:  # the test is the free numeral: both branches stay, head is n
        nf, hnf = rnf, True
    return term, nf, hnf, f"Y{{W}} else {rname}"


def _ooo_template(rng):
    return (rng.random() < 0.4, rng.choice(_OOO), rng.choice(_GROUND_ARGS),
            rng.choice(_GROUND_ARGS))


def _decide_ooo(rng, template):
    abstract, (name, body, nf, hnf), e1, e2 = template
    inner = (f"\\F:o->o. \\X:o. Y{{o->o->o}} (\\g:o->o->o. \\a:o. \\b:o. {body}) "
             f"({e1}) ({e2})")
    return _wrap(inner, rng, abstract), nf, hnf, f"Y{{o->o->o}} {name}"


def _oo_o_template(rng):
    return (rng.random() < 0.4, rng.choice(_OO_O), rng.choice(_HEADED_FUNS))


def _decide_oo_o(rng, template):
    abstract, (name, body, nf, hnf), h = template
    inner = (f"\\F:o->o. \\X:o. Y{{(o->o)->o}} (\\g:(o->o)->o. \\h:o->o. {body}) "
             f"({h})")
    return _wrap(inner, rng, abstract), nf, hnf, f"Y{{(o->o)->o}} {name}"


def _w2_term(test, base, upd, arg: str) -> str:
    return (f"Y{{{W2}}} (\\f:{W2}. \\x:{W}. {IFZ} {render(test)} {render(base)} "
            f"(f {render(upd)})) {arg}")


def _w3_term(test, base, updu, updv, a: int, b: int) -> str:
    return (f"Y{{{W3}}} (\\f:{W3}. \\x:{W}. \\y:{W}. {IFZ} {render(test)} "
            f"{render(base)} (f {render(updu)} {render(updv)})) #{a}{{o}} #{b}{{o}}")


# Recursive terms come from fixed template pools.  What an item costs
# depends almost wholly on its template (the least fixed point at the
# recursion type), and costs spread over two orders of magnitude between
# templates; drawing templates per seed would move the percentiles with
# the seed.  The recursions at W, W->W and W->W->W keep fixed numerals
# too: with other numerals the least fixed point is forced at other
# arguments, and their cost moves by up to a factor of two.  The run's
# seed picks the other families' numerals and the order of the items.
FIXED_NUMERALS = {"w1", "w2", "w2abs", "w3"}


def _template_pool(family: str, count: int, make, keep=lambda t: True) -> list:
    rng = random.Random(f"pool:{family}")
    pool: list = []
    while len(pool) < count:
        t = make(rng)
        if t not in pool and keep(t):
            pool.append(t)
    return pool


def _w2_template(rng):
    return tuple(random_expr(rng, ["x"], 2) for _ in range(3))


def _w2abs_template(rng):
    test = ("v", "x") if rng.random() < 0.7 else random_expr(rng, [], 2)
    return (test, random_expr(rng, ["x"], 2), random_expr(rng, ["x"], 2))


def _w3_template(rng):
    test = ("v", rng.choice("xy"))
    return (test,) + tuple(random_expr(rng, ["x", "y"], 1) for _ in range(3))


def _decide_w2(rng, template):
    test, base, upd = template
    k = rng.randint(0, 3)
    ok, _, _ = run_recursion(test, base, [upd], ["x"], {"x": k})
    # With numeral arguments every test is decided, so head reduction
    # follows the same calls as full reduction: hnf agrees with nf.
    return _w2_term(test, base, upd, f"#{k}{{o}}"), ok, ok, "Y{W->W} applied"


def _decide_w2abs(rng, template):
    test, base, upd = template
    ok, first, _ = run_recursion(test, base, [upd], ["x"], {"x": N})
    # The first test sees the free numeral n: a test on x leaves n at the
    # head; a closed test either exits at once or unfolds forever.
    hnf = first != P
    return f"\\n:{W}. {_w2_term(test, base, upd, 'n')}", ok, hnf, "Y{W->W} abstracted"


def _decide_w3(rng, template):
    test, base, updu, updv = template
    a, b = rng.randint(0, 2), rng.randint(0, 2)
    ok, _, _ = run_recursion(test, base, [updu, updv], ["x", "y"], {"x": a, "y": b})
    return _w3_term(test, base, updu, updv, a, b), ok, ok, "Y{W->W->W} applied"


_DECIDE_POOLS = {"w1": (_w1_template, _decide_w1), "ooo": (_ooo_template, _decide_ooo),
                 "oo_o": (_oo_o_template, _decide_oo_o), "w2": (_w2_template, _decide_w2),
                 "w2abs": (_w2abs_template, _decide_w2abs), "w3": (_w3_template, _decide_w3)}

# The two ROADMAP terms, with verdicts argued by hand.  nested3: the
# inner recursion's argument IFZ x n (f (ADD x n)) tests the free n, so
# its normal form needs f (ADD n n), whose test is again a non-constant
# polynomial in n, and so on without end: no normal form; head
# reduction surfaces n at once.  SWAP3: (x, y) runs (2,1), (1,3), (3,2),
# ... and x never reaches 0, so neither form exists.
ANCHORS = [("nested3", NESTED3, False, True), ("swap3", SWAP3, False, False)]


def decide_items(rng: random.Random) -> list[Item]:
    terms = [(name, text, nf, hnf, name) for name, text, nf, hnf in ANCHORS]
    for family, (count, runs) in DECIDE_MIX.items():
        make, instantiate = _DECIDE_POOLS[family]
        for i, template in enumerate(_template_pool(family, count, make)):
            pick = random.Random(f"numerals:{family}:{i}") if family in FIXED_NUMERALS else rng
            terms += [(family,) + instantiate(pick, template)] * runs
    items = []
    for family, text, nf, hnf, label in terms:
        items.append(Item(family, ["decide-nf", "--json", text],
                          {"kind": "nf", "verdict": nf}, label))
        items.append(Item(family, ["decide-hnf", "--json", text],
                          {"kind": "hnf", "verdict": hnf}, label))
    # The anchors open every pass, so the caches they meet never depend
    # on the seed.  The rest is shuffled across families: the machine's
    # speed drifts within a run, and a family run as one block would take
    # all its samples from one stretch of it.
    head, rest = items[:2 * len(ANCHORS)], items[2 * len(ANCHORS):]
    rng.shuffle(rest)
    return head + rest


# ---------------------------------------------------------------------------
# certify

# certify-nf (MUL #k #k) fits under the interpreter's default recursion
# limit up to k = 31 when run through CliRunner; 30 leaves a step of
# headroom for the runner's and the tracer's own frames.
MUL_CEILING = 30


def _converging(template, names, starts):
    """The starts (as tuples) on which the recursion converges, with values."""
    test, base, *updates = template
    out = []
    for start in starts:
        ok, _, result = run_recursion(test, base, updates, names, dict(zip(names, start)))
        if ok and result <= 20:
            out.append((start, result))
    return out


_W2_STARTS = [(k,) for k in range(4)]
_W3_STARTS = [(a, b) for a in range(3) for b in range(3)]


def _certify_recursions(family, count, uses, make, names, starts, term):
    pool = _template_pool(f"certify-{family}", count, make,
                          keep=lambda t: bool(_converging(t, names, starts)))
    items = []
    for i, template in enumerate(pool):
        pick = random.Random(f"numerals:certify-{family}:{i}")
        for _ in range(uses):
            start, result = pick.choice(_converging(template, names, starts))
            items.append(Item(family, ["certify-nf", "--json", term(template, start)],
                              {"numeral": result}, f"{family} {start}"))
    return items


# Pipeline definitions: (name, arity, reference, term text).  The
# Y{W}-wrapped variants put the same body under a recursion that never
# uses its variable, so truncation has something to cut.
_PIPELINES = [
    ("add", 2, lambda a, b: a + b, ADD),
    ("mul", 2, lambda a, b: a * b, MUL),
    ("ifzero", 3, lambda n, a, b: a if n == 0 else b, IFZ),
    ("double", 1, lambda a: a + a, f"\\m:{W}. {ADD} m m"),
    ("square-plus-one", 1, lambda a: a * a + 1, f"\\m:{W}. {SUCC} ({MUL} m m)"),
    ("add-mul", 2, lambda a, b: a + a * b, f"\\m:{W}. \\n:{W}. {ADD} m ({MUL} m n)"),
    ("ifzero-succ", 2, lambda a, b: b if a == 0 else b + 1,
     f"\\m:{W}. \\n:{W}. {IFZ} m n ({SUCC} n)"),
]


def _y_wrapped(term: str, arity: int) -> str:
    params = [f"p{i}" for i in range(arity)]
    lams = "".join(f"\\{p}:{W}. " for p in params)
    applied = " ".join([f"({term})"] + params)
    return f"{lams}Y{{{W}}} (\\r:{W}. {applied})"


def _spec_text(name, arity, ref, term, samples) -> str:
    lines = [f"name {name}", "args " + ", ".join(["o"] * arity), "result o",
             f"term {term}"]
    for s in samples:
        lines.append(f"sample {' '.join(map(str, s))} -> {ref(*s)}")
    return "\n".join(lines) + "\n"


def certify_items(rng: random.Random) -> list[Item]:
    items = _certify_recursions(
        "w2", 25, 2, _w2_template, ["x"], _W2_STARTS,
        lambda t, s: _w2_term(*t, f"#{s[0]}{{o}}"))
    items += _certify_recursions(
        "w3", 3, 7, _w3_template, ["x", "y"], _W3_STARTS,
        lambda t, s: _w3_term(*t, *s))
    for k in range(1, MUL_CEILING + 1):
        items.append(Item("mul", ["certify-nf", "--json", f"{MUL} #{k}{{o}} #{k}{{o}}"],
                          {"numeral": k * k}, f"MUL #{k} #{k}"))
    for i, (name, arity, ref, term) in enumerate(_PIPELINES * 2):
        if i >= len(_PIPELINES):
            term, name = _y_wrapped(term, arity), f"Y-{name}"
        upto = {1: 5, 2: 3, 3: 2}[arity]
        grid = [tuple(rng.randint(0, upto) for _ in range(arity)) for _ in range(4)]
        samples = sorted(set(grid))
        fname = f"{i:02d}-{name}.spec"
        items.append(Item("pipeline", ["pipeline", "--json", fname],
                          {"rows": [[list(s), ref(*s)] for s in samples]},
                          f"pipeline {name}",
                          files={fname: _spec_text(name, arity, ref, term, samples)}))
    rng.shuffle(items)
    return items


# ---------------------------------------------------------------------------
# domain

# (type, cardinality, height, copies per pass) written out by hand: the
# height at t1 -> ... -> tn -> o is the product of the argument
# cardinalities.  The 50- and 168-element dumps run several times a pass
# so that the median and the 90th percentile land on items whose time is
# spent in enumeration and covers, not on one-millisecond dumps that
# measure click and noise.
DOMAIN_TYPES = [
    ("o", 2, 1, 1),
    ("o->o", 3, 2, 1),
    ("o->o->o", 6, 4, 1),
    ("(o->o)->o", 4, 3, 1),
    ("(o->o)->o->o", 10, 6, 1),
    ("(o->o->o)->o", 8, 6, 1),
    ("((o->o)->o)->o", 5, 4, 1),
    ("o->o->o->o", 20, 8, 1),
    ("(o->o)->(o->o)->o", 20, 9, 1),
    ("((o->o)->o)->o->o", 15, 8, 1),
    ("(o->o)->o->o->o", 50, 12, 30),
    ("o->o->o->o->o", 168, 16, 10),
    ("(o->o->o)->o->o->o", 494, 24, 1),
]
# enumerate_domain at W->W, called directly: its covers are out of reach.
W2_CARDINALITY = 120_549


def domain_items(rng: random.Random) -> list[Item]:
    items = [Item("dump", ["domain", "--json", ty], {"size": size, "height": h}, ty)
             for ty, size, h, copies in DOMAIN_TYPES for _ in range(copies)]
    items.append(Item("enumerate", ["enumerate_domain", W2],
                      {"size": W2_CARDINALITY}, "W->W"))
    rng.shuffle(items)
    return items


# ---------------------------------------------------------------------------
# nesting

def nesting_items(rng: random.Random) -> list[Item]:
    """Deep inputs and outputs next to shallow controls of the same shape.

    Controls sit well under the interpreter's default limit and succeed
    today; the deep members exceed it.  Two controls per deep member keep
    the median a finite latency while the deep members fail.
    """
    deep = []
    for _ in range(2):
        m = rng.randint(990, 1400)
        deep.append(Item("deep-input", ["normalize", "--json", f"(\\x:{W}. x) #{m}{{o}}"],
                         {"numeral": m}, f"id #{m}"))
        m = rng.randint(40, 60)  # #2 #m is the numeral m*m
        deep.append(Item("deep-output", ["normalize", "--json", f"#2{{o->o}} #{m}{{o}}"],
                         {"numeral": m * m}, f"#2 #{m}"))
        k = rng.randint(MUL_CEILING + 10, MUL_CEILING + 40)
        deep.append(Item("deep-output", ["certify-nf", "--json",
                                         f"{MUL} #{k}{{o}} #{k}{{o}}"],
                         {"numeral": k * k}, f"MUL #{k} #{k}"))
        m = rng.randint(990, 1400)
        deep.append(Item("deep-print", ["parse", "--json", "--no-sugar", f"#{m}{{o}}"],
                         {"spelled": m}, f"--no-sugar #{m}"))
    controls = []
    for item in deep:
        for _ in range(2):
            c = rng.randint(3, 12)
            argv = list(item.argv)
            if item.family == "deep-output" and argv[0] == "normalize":
                argv[-1], want = f"#2{{o->o}} #{c}{{o}}", c * c
            elif item.family == "deep-output":
                argv[-1], want = f"{MUL} #{c}{{o}} #{c}{{o}}", c * c
            elif item.family == "deep-print":
                argv[-1], want = f"#{c * 10}{{o}}", c * 10
            else:
                argv[-1], want = f"(\\x:{W}. x) #{c * 10}{{o}}", c * 10
            key = next(iter(item.expect))
            controls.append(Item("control", argv, {key: want}, f"control {argv[-1][-12:]}"))
    items = deep + controls
    rng.shuffle(items)
    return items


GENERATORS = {"decide": decide_items, "certify": certify_items,
              "domain": domain_items, "nesting": nesting_items}


def make_items(workload: str, seed: int) -> list[Item]:
    return GENERATORS[workload](random.Random(f"{workload}:{seed}"))


def write_files(items: list[Item], workdir: str) -> list[Item]:
    """Write the spec files items need; rewrite their argv to full paths."""
    for item in items:
        for name, text in item.files.items():
            path = os.path.join(workdir, name)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            item.argv = [path if a == name else a for a in item.argv]
    return items

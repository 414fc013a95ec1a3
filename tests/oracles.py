"""Brute-force oracles that pin expected values independently.

Nothing here touches the package's semantics machinery: elements are
nested tuples, monotone maps are found by filtering the full function
space, and chain lengths by exhaustive longest-path search over the
strict order.  Everything is exponential and only usable at the small
types the tests feed it, which is the point: simple enough to audit by
eye, computed by a different route than the code under test.

oracle_lfp is the exception: it is the Kleene iteration yflow.semantics
replaced with a demand-driven solver, forcing every iterate's whole table
through the package's elements, so its answers rest on the elements alone
and not on the solver under test.  oracle_enumerate_masks is another: the
plain depth-first enumeration yflow.semantics replaced with one memoized
on frontiers, reading the argument and codomain domains from the package.
oracle_covers is the Hasse diagram by one-point additions that
Domain.covers replaced with maximal missing points: it reads only the
masks of a package domain.

oracle_tokenize is the character-at-a-time scanner yflow.parser replaced
with one regular expression: str.isalpha, isdigit and isalnum decide
each character, so it also pins the corners where those predicates and
the regular expression classes disagree.

The reduction oracles at the end rewrite syntax, where yflow.reduction
evaluates on a machine: capture-avoiding substitution, a recursive
leftmost-outermost stepper that contracts one redex at a time (beta,
eta, Y f -> f (Y f)), and oracle_normalize, which steps to a normal
form.  The stepper spends a Python frame per nesting level, so it only
serves shallow terms.  oracle_expand is the long-form route
yflow.reduction replaced with normalization by evaluation: eta-expand a
beta-eta normal form head by head.  oracle_eliminate is the route the
conservativity pipeline replaced with elimination inside the normalizer:
build the truncation, expand its bottoms, take the long normal form and
substitute for each ground bottom.
"""

from __future__ import annotations

from functools import cache, reduce
from itertools import product
from typing import Mapping

from yflow.analysis import tilde_Y
from yflow.parser import ParseError
from yflow.reduction import long_normal_form
from yflow.semantics import Element, bottom_element, enumerate_domain, height
from yflow.terms import (
    App,
    Lam,
    OmegaConst,
    Term,
    TypingError,
    Var,
    YConst,
    free_vars,
    fresh_name,
    map_leaves,
    subterms,
    tilde_omega_map,
    type_of,
)
from yflow.types import Arrow, Ground, SimpleType, argument_types


@cache
def oracle_elements(ty: SimpleType) -> tuple:
    """Every element at ty; ground as 0/1, arrows as value tuples
    indexed by this oracle's own domain order."""
    if isinstance(ty, Ground):
        return (0, 1)
    dom = oracle_elements(ty.domain)
    cod = oracle_elements(ty.codomain)
    pairs = [
        (i, j)
        for i in range(len(dom))
        for j in range(len(dom))
        if oracle_leq(ty.domain, dom[i], dom[j])
    ]
    return tuple(
        table
        for table in product(cod, repeat=len(dom))
        if all(oracle_leq(ty.codomain, table[i], table[j]) for i, j in pairs)
    )


def oracle_leq(ty: SimpleType, a, b) -> bool:
    if isinstance(ty, Ground):
        return a <= b
    return all(oracle_leq(ty.codomain, x, y) for x, y in zip(a, b))


def oracle_cardinality(ty: SimpleType) -> int:
    return len(oracle_elements(ty))


def oracle_height(ty: SimpleType) -> int:
    """Strict steps in the longest ascending chain, by exhaustive search."""
    els = oracle_elements(ty)
    n = len(els)
    above = [
        [j for j in range(n) if i != j and oracle_leq(ty, els[i], els[j])]
        for i in range(n)
    ]
    memo: dict[int, int] = {}

    def climb(i: int) -> int:
        if i not in memo:
            memo[i] = max((1 + climb(j) for j in above[i]), default=0)
        return memo[i]

    return max((climb(i) for i in range(n)), default=0)


def oracle_apply(ty: SimpleType, f, a):
    """Apply an oracle arrow element to an oracle argument element."""
    dom = oracle_elements(ty.domain)
    return f[dom.index(a)]


def oracle_lfp(f: Element) -> Element:
    """Least fixed point of f at s -> s by iteration from bottom, each
    iterate forced and compared with the last.

    The iterates of a monotone f climb a chain, so they stabilize within
    height(s) strict steps; a non-monotone f that cycles raises an
    AssertionError instead of looping.
    """
    x = bottom_element(f.ty.domain)
    for _ in range(height(f.ty.domain) + 1):
        y = f.apply(x)
        if y == x:
            return x
        x = y
    raise AssertionError(f"no fixed point within height of {f.ty.domain}")


def oracle_enumerate_masks(ty: SimpleType) -> list[int]:
    """The masks of the domain at ty in ascending order, by a depth-first
    search over tables that fills positions left to right."""
    if isinstance(ty, Ground):
        return [0, 1]
    dom = enumerate_domain(ty.domain)
    cod_masks = enumerate_domain(ty.codomain).masks
    n = len(dom)
    bits = height(ty.codomain)
    # Monotone on the covers of the argument order means monotone; the
    # canonical order is a linear extension, so lower covers come first.
    preds: list[list[int]] = [[] for _ in range(n)]
    for i, j in dom.covers():
        preds[j].append(i)
    above: dict[int, list[int]] = {}  # lower bound -> codomain masks over it
    chosen = [0] * n  # the codomain mask chosen at each position
    packed = [0] * n  # packed[i]: the masks chosen at positions below i, shifted together

    def candidates(i: int) -> list[int]:
        lb = 0
        for j in preds[i]:
            lb |= chosen[j]
        out = above.get(lb)
        if out is None:
            out = above[lb] = [v for v in cod_masks if lb & ~v == 0]
        return out

    # Candidates ascend and positions fill left to right, so masks ascend.
    masks: list[int] = []
    last = n - 1
    stack = [iter(candidates(0))]
    while stack:
        i = len(stack)  # stack[-1] chooses position i - 1
        v = next(stack[-1], None)
        if v is None:
            stack.pop()
            continue
        chosen[i - 1] = v
        packed[i] = packed[i - 1] << bits | v
        if i < last:
            stack.append(iter(candidates(i)))
            continue
        # every candidate at the last position completes a row
        base = packed[i] << bits
        masks.extend([base | w for w in candidates(i)])
    return masks


def oracle_covers(dom) -> list[tuple[int, int]]:
    """The covers of a domain of up-set masks: an element is covered by its
    mask plus any one missing point that gives a mask of the domain, so
    every missing bit is looked up."""
    index = {m: i for i, m in enumerate(dom.masks)}
    full = dom.masks[-1]
    out = []
    for i, mask in enumerate(dom.masks):
        missing = full & ~mask
        while missing:
            bit = missing & -missing
            missing ^= bit
            j = index.get(mask | bit)
            if j is not None:
                out.append((i, j))
    return out


_PUNCT = {"->": "ARROW", "\\": "LAMBDA", ".": "DOT", ":": "COLON", ",": "COMMA",
          "(": "LPAREN", ")": "RPAREN", "{": "LBRACE", "}": "RBRACE",
          "[": "LBRACKET", "]": "RBRACKET", "#": "HASH"}


def oracle_tokenize(text: str) -> list[tuple[str, str, int]]:
    """yflow.parser.tokenize, one character at a time."""
    toks = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c in " \t\r\n":
            i += 1
            continue
        if text.startswith("--", i):
            j = text.find("\n", i)
            i = n if j < 0 else j + 1
            continue
        if text.startswith("->", i):
            toks.append(("ARROW", "->", i))
            i += 2
            continue
        if c in _PUNCT:
            toks.append((_PUNCT[c], c, i))
            i += 1
            continue
        if c.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            toks.append(("NAT", text[i:j], i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] in "_'"):
                j += 1
            toks.append(("IDENT", text[i:j], i))
            i = j
            continue
        raise ParseError(f"unexpected character {c!r}", text, i)
    toks.append(("EOF", "", n))
    return toks


def unwind_spine(t: Term) -> tuple[Term, list[Term]]:
    """Split h M1 ... Mk into (h, [M1, ..., Mk])."""
    args: list[Term] = []
    while isinstance(t, App):
        args.append(t.arg)
        t = t.fun
    args.reverse()
    return t, args


def all_names(t: Term) -> set[str]:
    """Every variable name occurring in t, bound or free, binders included."""
    names = set()
    for s in subterms(t):
        if isinstance(s, Var):
            names.add(s.name)
        elif isinstance(s, Lam):
            names.add(s.var)
    return names


def substitute(t: Term, var: Var, replacement: Term,
               context: Mapping[str, SimpleType] | None = None) -> Term:
    """Capture-avoiding substitution of replacement for the free variable var."""
    if type_of(replacement, context) != var.ty:
        raise TypingError(
            f"cannot substitute a term of type {type_of(replacement, context)} "
            f"for {var.name} : {var.ty}",
            replacement,
        )
    return _subst(t, var, replacement)


def _subst(t: Term, var: Var, replacement: Term) -> Term:
    """Bottom-up: a node whose children come back unchanged is returned as
    it is, so only the paths to the occurrences of var are rebuilt."""
    repl_free: set[str] | None = None
    out: list[Term] = []
    # Terms to visit, and marks (node,) that rebuild node from its
    # substituted children on out.
    stack: list = [t]
    while stack:
        s = stack.pop()
        if isinstance(s, App):
            stack += ((s,), s.arg, s.fun)
        elif isinstance(s, Lam) and s.var != var.name:
            stack += ((s,), s.body)
        elif isinstance(s, Var) and s.name == var.name:
            if s.ty != var.ty:
                raise TypingError(f"occurrence of {s.name} has type {s.ty}", s)
            out.append(replacement)
        elif isinstance(s, Term):
            out.append(s)
        else:
            (s,) = s
            if isinstance(s, App):
                arg = out.pop()
                fun = out[-1]
                out[-1] = s if fun is s.fun and arg is s.arg else App(fun, arg)
            elif out[-1] is s.body:
                out[-1] = s
            else:
                if repl_free is None:  # only read here, so collected on first need
                    repl_free = set(free_vars(replacement))
                if s.var not in repl_free:
                    out[-1] = Lam(s.var, s.var_ty, out[-1])
                    continue
                out.pop()  # the binder would capture the replacement: rename it, then redo
                name = fresh_name(s.var, repl_free | all_names(s.body) | {var.name})
                body = _subst(s.body, Var(s.var, s.var_ty), Var(name, s.var_ty))
                stack.append(Lam(name, s.var_ty, body))
    return out[0]


def _oracle_eta_contractum(t: Lam) -> Term | None:
    b = t.body
    if (
        isinstance(b, App)
        and isinstance(b.arg, Var)
        and b.arg.name == t.var
        and b.arg.ty == t.var_ty
        and t.var not in free_vars(b.fun)
    ):
        return b.fun
    return None


def oracle_step_normal_order(t: Term) -> Term | None:
    """Contract the leftmost-outermost redex, or None if t is normal."""
    if isinstance(t, App):
        if isinstance(t.fun, Lam):
            return _subst(t.fun.body, Var(t.fun.var, t.fun.var_ty), t.arg)
        if isinstance(t.fun, YConst):
            return App(t.arg, t)
        s = oracle_step_normal_order(t.fun)
        if s is not None:
            return App(s, t.arg)
        s = oracle_step_normal_order(t.arg)
        if s is not None:
            return App(t.fun, s)
        return None
    if isinstance(t, Lam):
        contractum = _oracle_eta_contractum(t)
        if contractum is not None:
            return contractum
        s = oracle_step_normal_order(t.body)
        if s is not None:
            return Lam(t.var, t.var_ty, s)
        return None
    return None


def oracle_normalize(t: Term) -> Term:
    """The beta-eta normal form of t, by leftmost-outermost steps until
    none applies; loops forever when t has no normal form."""
    while (s := oracle_step_normal_order(t)) is not None:
        t = s
    return t


def oracle_is_long_shape(s: Term, expect: SimpleType) -> bool:
    """Structural check for eta-long beta-normal shape at type expect."""
    for a in argument_types(expect):
        if not (isinstance(s, Lam) and s.var_ty == a):
            return False
        s = s.body
    head, spine = unwind_spine(s)
    if isinstance(head, (Var, OmegaConst)):
        expected = argument_types(head.ty)
    else:
        return False
    if len(spine) != len(expected):
        return False
    return all(oracle_is_long_shape(arg, arg_ty) for arg, arg_ty in zip(spine, expected))


def oracle_expand(t: Term, ty: SimpleType, used: set[str]) -> Term:
    """Eta-expand the beta-normal t of type ty, drawing new binders e1, e2,
    ... (not in used) in preorder; ValueError on a spine headed by a redex."""
    out: list[Term] = []
    # (term, type) pairs to expand, and build marks: None for an
    # application, (binder, type) for an abstraction.
    todo: list = [(t, ty)]
    while todo:
        item = todo.pop()
        if item is None:
            arg = out.pop()
            out[-1] = App(out[-1], arg)
            continue
        body, body_ty = item
        if isinstance(body, str):  # an abstraction mark
            out[-1] = Lam(body, body_ty, out[-1])
            continue
        binders = []
        for a in argument_types(body_ty):
            if isinstance(body, Lam):
                binders.append((body.var, body.var_ty))
                body = body.body
            else:
                name = fresh_name(f"e{len(binders) + 1}", used)
                used.add(name)
                binders.append((name, a))
                body = App(body, Var(name, a))
        head, spine = unwind_spine(body)
        if not isinstance(head, (Var, OmegaConst)):
            raise ValueError(f"not beta-normal: a spine has head {head!r}")
        expected = argument_types(head.ty)
        assert len(expected) == len(spine), "ground spine must be fully applied"
        out.append(head)
        todo += binders
        for arg, arg_ty in reversed(list(zip(spine, expected))):
            todo += (None, (arg, arg_ty))
    return out[0]


def oracle_eliminate(t: Term, numeral_args: int) -> Term:
    """The pure term of the closed t, of numeral-chain type with
    numeral_args numeral arguments, by building every stage: truncate
    each Y at its height, expand the bottoms to ground, take the long
    normal form \\n1...nk. \\f. \\z. \\b1...bl. body, and replace each
    ground bottom in body by z b1 ... bl."""
    long = long_normal_form(tilde_omega_map(tilde_Y(t)))
    prefix, body = [], long
    while isinstance(body, Lam):
        prefix.append(Var(body.var, body.var_ty))
        body = body.body
    k = numeral_args
    spine = reduce(App, prefix[k + 2:], prefix[k + 1])
    return map_leaves(long, lambda s: spine if isinstance(s, OmegaConst) else s)

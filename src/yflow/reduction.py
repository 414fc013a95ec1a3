"""Fuel-bounded reduction and normal-form machinery.

Rules: beta, eta contraction, and unfolding of the fixed-point constant
(Y f -> f (Y f)).  The default strategy contracts the leftmost-outermost
redex, which reaches a normal form whenever one exists; an innermost
strategy is kept alongside for cross-checking confluence on terms
without fixed points.  Both are one search on an explicit stack, which
visits subterms left to right in preorder (outermost) or postorder
(innermost) and stops at the first redex.  Normalization is a total
function returning an outcome value: fuel exhaustion is data, not an
error.

Terms without Y constants are strongly normalizing, so assured_normalize
(normalization with no step bound) always terminates on them.  The eta-long
form of such a term is computed by beta-eta-normalizing and then fully
expanding every head, again on a stack; a term is long exactly when that
expansion leaves it as it is.  Properness classification (the same
search, stopping at the first bottom constant) and bottom elimination
operate on these long forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .terms import (
    App,
    Lam,
    OmegaConst,
    Term,
    Var,
    YConst,
    _subst,
    all_names,
    contains_y,
    free_vars,
    fresh_name,
    map_leaves,
    match_numeral,
    omega_types,
    subterms,
    type_of,
)
from .types import (
    GROUND,
    Arrow,
    SimpleType,
    argument_types,
    numeral_parameter,
    subtypes,
    type_to_str,
)

DEFAULT_FUEL = 100_000


@dataclass(frozen=True)
class Normal:
    """A normal form, with the number of contractions performed."""

    term: Term
    steps: int


@dataclass(frozen=True)
class FuelExhausted:
    """Fuel ran out; last_term is the term after `fuel` contractions."""

    last_term: Term
    fuel: int


NormalizationOutcome = Normal | FuelExhausted


def _contractum(s: Term) -> Term | None:
    """What s contracts to when s itself is a redex, else None."""
    if isinstance(s, App):
        if isinstance(s.fun, Lam):
            return _subst(s.fun.body, Var(s.fun.var, s.fun.var_ty), s.arg)
        if isinstance(s.fun, YConst):
            return App(s.arg, s)
    elif isinstance(s, Lam):
        b = s.body
        if (
            isinstance(b, App)
            and isinstance(b.arg, Var)
            and b.arg.name == s.var
            and b.arg.ty == s.var_ty
            and s.var not in free_vars(b.fun)
        ):
            return b.fun
    return None


def _search(t: Term, probe, postorder: bool):
    """(probe(s), path) for the first subterm s of t, left to right in
    preorder or in postorder, where probe(s) is not None; else None.

    The explicit stack is the path itself: the (node, step) pairs from t
    down to s, where step names the field of node leading towards s.
    """
    path: list[tuple[Term, str]] = []
    s = t
    while True:
        if not postorder and (hit := probe(s)) is not None:
            return hit, path
        if isinstance(s, App):
            path.append((s, "fun"))
            s = s.fun
        elif isinstance(s, Lam):
            path.append((s, "body"))
            s = s.body
        else:  # climb from a leaf to the next argument to the right
            while True:
                if postorder and (hit := probe(s)) is not None:
                    return hit, path
                if not path:
                    return None
                s, step = path.pop()
                if step == "fun":
                    path.append((s, "arg"))
                    s = s.arg
                    break


def _step(t: Term, innermost: bool) -> Term | None:
    found = _search(t, _contractum, innermost)
    if found is None:
        return None
    out, path = found
    for node, step in reversed(path):
        if step == "body":
            out = Lam(node.var, node.var_ty, out)
        else:
            out = App(out, node.arg) if step == "fun" else App(node.fun, out)
    return out


def step_normal_order(t: Term) -> Term | None:
    """Contract the leftmost-outermost redex, or None if t is normal."""
    return _step(t, innermost=False)


def step_innermost(t: Term) -> Term | None:
    """Contract the leftmost-innermost redex, or None if t is normal."""
    return _step(t, innermost=True)


STRATEGIES = {
    "normal-order": step_normal_order,
    "innermost": step_innermost,
}


def normalize(t: Term, fuel: int = DEFAULT_FUEL,
              strategy: str = "normal-order") -> NormalizationOutcome:
    """Reduce for at most `fuel` contractions.  Deterministic and total."""
    step = STRATEGIES[strategy]
    steps = 0
    while steps < fuel:
        s = step(t)
        if s is None:
            return Normal(t, steps)
        t = s
        steps += 1
    if step(t) is None:
        return Normal(t, steps)
    return FuelExhausted(t, fuel)


def assured_normalize(t: Term) -> Term:
    """Normalize with no step bound.

    Terminates on every term without Y constants, and on any term that
    has a normal form; diverges otherwise.
    """
    return normalize(t, math.inf).term


def unwind_spine(t: Term) -> tuple[Term, list[Term]]:
    """Split h M1 ... Mk into (h, [M1, ..., Mk])."""
    args: list[Term] = []
    while isinstance(t, App):
        args.append(t.arg)
        t = t.fun
    args.reverse()
    return t, args


def long_normal_form(t: Term) -> Term:
    """The eta-long beta-normal form of a term without Y constants.

    Every abstraction prefix matches the arity of its type and every
    head is applied to a full argument list.
    """
    if contains_y(t):
        raise ValueError("long_normal_form applies to terms without Y constants")
    ty = type_of(t)
    nf = assured_normalize(t)
    return _expand(nf, ty, set(all_names(nf)))


def _expand(t: Term, ty: SimpleType, used: set[str]) -> Term:
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


def is_long_normal(t: Term) -> bool:
    """Whether t is Y-free and eta-long beta-normal: _expand leaves it as it is."""
    if contains_y(t):
        return False
    ty = type_of(t)
    try:
        return _expand(t, ty, set()) == t  # names are drawn only if t is not long
    except ValueError:
        return False


@dataclass(frozen=True)
class Proper:
    """A long normal form with no bottom constants."""

    def __bool__(self) -> bool:
        return True


@dataclass(frozen=True)
class Improper:
    """Carries the preorder path (fun/arg/body steps) to a bottom constant."""

    path: tuple[str, ...]

    def __bool__(self) -> bool:
        return False

    def render_path(self) -> str:
        return "/".join(self.path) if self.path else "root"


Properness = Proper | Improper


def classify_properness(t: Term) -> Properness:
    """Proper or Improper(witness path); input must be a long normal form."""
    if not is_long_normal(t):
        raise ValueError("classify_properness requires a long beta-eta normal form")

    found = _search(t, lambda s: isinstance(s, OmegaConst) or None, postorder=False)
    return Proper() if found is None else Improper(tuple(step for _, step in found[1]))


def _numeral_chain(ty: SimpleType, numeral_args: int | None):
    """Split ty as k numeral-typed arguments followed by a numeral result.

    Returns (alphas, alpha).  The reading can be ambiguous; with
    numeral_args=None the longest argument prefix is taken.
    """
    alphas: list[SimpleType] = []
    remainders = [ty]
    cur = ty
    while isinstance(cur, Arrow) and numeral_parameter(cur.domain) is not None:
        alphas.append(numeral_parameter(cur.domain))
        cur = cur.codomain
        remainders.append(cur)
    stops = [k for k in range(len(remainders)) if numeral_parameter(remainders[k]) is not None]
    if not stops:
        raise ValueError(f"type {type_to_str(ty)} is not a chain of numeral types")
    if numeral_args is None:
        k = max(stops)
    elif numeral_args in stops:
        k = numeral_args
    else:
        raise ValueError(
            f"type {type_to_str(ty)} has no reading with {numeral_args} numeral argument(s)"
        )
    return tuple(alphas[:k]), numeral_parameter(remainders[k])


def eliminate_omega(t: Term, numeral_args: int | None = None) -> Term:
    """Rewrite a ground-bottom term into a constant-free one, preserving
    any total numeral function it defines.

    The input must be closed, Y-free, of numeral-chain type, and carry
    bottom constants at ground type only.  Its long normal form is
    \\n1...nk. \\f:a->a. \\z:a. \\b1...bl. body with a = (b1,...,bl) -> o;
    every ground bottom in body is replaced by z b1 ... bl.
    """
    ty = type_of(t, {})
    if contains_y(t):
        raise ValueError("eliminate_omega does not apply to terms with Y constants")
    higher = [s for s in omega_types(t) if s != GROUND]
    if higher:
        listed = ", ".join(sorted(type_to_str(s) for s in higher))
        raise ValueError(
            f"bottom constants must be at ground type (found {listed}); "
            "apply tilde_omega_map first"
        )
    alphas, alpha = _numeral_chain(ty, numeral_args)
    k = len(alphas)
    betas = argument_types(alpha)
    prefix_len = k + 2 + len(betas)

    long = long_normal_form(t)
    binders: list[tuple[str, SimpleType]] = []
    body = long
    for _ in range(prefix_len):
        assert isinstance(body, Lam)
        binders.append((body.var, body.var_ty))
        body = body.body

    # Freshen the binders the replacement spine mentions, innermost first,
    # so bottoms under shadowing binders cannot be captured.  A binder only
    # needs a new name when some inner abstraction rebinds it or a later
    # prefix binder repeats it.
    avoid = set(all_names(long))
    inner_binders = {s.var for s in subterms(body) if isinstance(s, Lam)}
    taken: set[str] = set()
    for idx in range(prefix_len - 1, k, -1):
        name, bty = binders[idx]
        if name in inner_binders or name in taken:
            renamed = fresh_name(name, avoid)
            body = _subst(body, Var(name, bty), Var(renamed, bty))
            binders[idx] = (renamed, bty)
            name = renamed
        taken.add(name)
        avoid.add(name)

    spine: Term = Var(binders[k + 1][0], alpha)
    for (bname, bty) in binders[k + 2:]:
        spine = App(spine, Var(bname, bty))

    def replace(s: Term) -> Term:
        if isinstance(s, OmegaConst):
            assert s.ty == GROUND
            return spine
        return s

    body = map_leaves(body, replace)
    for name, bty in reversed(binders):
        body = Lam(name, bty, body)
    return body


def decode_numeral(t: Term, alpha: SimpleType) -> int | None:
    """m when t is alpha-equivalent to church_numeral(m, alpha), else None.

    The eta-short numeral for 1 is accepted too: the normalizer produces
    \\f:a->a. f where the long form would be \\f:a->a. \\x:a. f x, and
    both denote 1.  Every other numeral survives eta-reduction unchanged.
    """
    hit = match_numeral(t)
    if hit is not None and hit[1] == alpha:
        return hit[0]
    if isinstance(t, Lam) and t.var_ty == Arrow(alpha, alpha) and isinstance(t.body, Var) \
            and t.body.name == t.var:
        return 1
    return None


# ---------------------------------------------------------------------------
# Exhaustive enumeration of closed long normal forms, used by the test
# suite to check the flow characterization without gaps.  Bottom-constant
# types are drawn from the subtypes of the target type, which keeps the
# family finite while still containing every proper form of that type
# within the size bound.  Size is the number of AST nodes.


def term_size(t: Term) -> int:
    return sum(1 for _ in subterms(t))


def enumerate_long_normal_forms(ty: SimpleType, max_size: int) -> list[Term]:
    """All closed long normal forms of the given type, up to max_size nodes."""
    universe = tuple(sorted(subtypes(ty), key=type_to_str))

    @lru_cache(maxsize=None)
    def gen(target: SimpleType, ctx: tuple[SimpleType, ...], budget: int
            ) -> tuple[tuple[Term, int], ...]:
        args = argument_types(target)
        spine_budget = budget - len(args)
        if spine_budget < 1:
            return ()
        inner = ctx + args
        heads: list[tuple[Term, SimpleType]] = [
            (Var(f"v{i}", inner[i]), inner[i]) for i in range(len(inner))
        ]
        heads.extend((OmegaConst(s), s) for s in universe)
        out: list[tuple[Term, int]] = []
        for head, head_ty in heads:
            head_args = argument_types(head_ty)
            remaining = spine_budget - 1 - len(head_args)
            if remaining < 0:
                continue
            for combo, spent in _arg_lists(head_args, inner, remaining):
                term: Term = head
                for a in combo:
                    term = App(term, a)
                for i in reversed(range(len(ctx), len(inner))):
                    term = Lam(f"v{i}", inner[i], term)
                out.append((term, budget - remaining + spent))
        return tuple(out)

    def _arg_lists(arg_tys, inner, budget):
        if not arg_tys:
            yield (), 0
            return
        first, rest = arg_tys[0], arg_tys[1:]
        min_rest = sum(len(argument_types(a)) + 1 for a in rest)
        for t, size in gen(first, inner, budget - min_rest):
            for tail, tail_size in _arg_lists(rest, inner, budget - size):
                yield (t,) + tail, size + tail_size

    return [t for t, _ in gen(ty, (), max_size)]


__all__ = [
    "DEFAULT_FUEL",
    "FuelExhausted",
    "Improper",
    "Normal",
    "NormalizationOutcome",
    "Proper",
    "Properness",
    "assured_normalize",
    "classify_properness",
    "decode_numeral",
    "eliminate_omega",
    "enumerate_long_normal_forms",
    "is_long_normal",
    "long_normal_form",
    "normalize",
    "step_innermost",
    "step_normal_order",
    "term_size",
    "unwind_spine",
]

"""Fuel-bounded reduction and normal-form machinery.

Rules: beta, eta contraction, and unfolding of the fixed-point constant
(Y f -> f (Y f)).  The default strategy contracts the leftmost-outermost
redex, which reaches a normal form whenever one exists; an innermost
strategy is kept alongside for cross-checking confluence on terms
without fixed points.  Normalization is a total function returning an
outcome value: fuel exhaustion is data, not an error.

Terms without Y constants are strongly normalizing, so assured_normalize
(restart with doubled fuel) always terminates on them.  The eta-long
form of such a term is computed by beta-eta-normalizing and then fully
expanding every head; properness classification and bottom elimination
operate on these long forms.
"""

from __future__ import annotations

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


def _eta_contractum(t: Lam) -> Term | None:
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


def step_normal_order(t: Term) -> Term | None:
    """Contract the leftmost-outermost redex, or None if t is normal."""
    if isinstance(t, App):
        if isinstance(t.fun, Lam):
            return _subst(t.fun.body, Var(t.fun.var, t.fun.var_ty), t.arg)
        if isinstance(t.fun, YConst):
            return App(t.arg, t)
        s = step_normal_order(t.fun)
        if s is not None:
            return App(s, t.arg)
        s = step_normal_order(t.arg)
        if s is not None:
            return App(t.fun, s)
        return None
    if isinstance(t, Lam):
        contractum = _eta_contractum(t)
        if contractum is not None:
            return contractum
        s = step_normal_order(t.body)
        if s is not None:
            return Lam(t.var, t.var_ty, s)
        return None
    return None


def step_innermost(t: Term) -> Term | None:
    """Contract the leftmost-innermost redex, or None if t is normal."""
    if isinstance(t, App):
        s = step_innermost(t.fun)
        if s is not None:
            return App(s, t.arg)
        s = step_innermost(t.arg)
        if s is not None:
            return App(t.fun, s)
        if isinstance(t.fun, Lam):
            return _subst(t.fun.body, Var(t.fun.var, t.fun.var_ty), t.arg)
        if isinstance(t.fun, YConst):
            return App(t.arg, t)
        return None
    if isinstance(t, Lam):
        s = step_innermost(t.body)
        if s is not None:
            return Lam(t.var, t.var_ty, s)
        return _eta_contractum(t)
    return None


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


def assured_normalize(t: Term, fuel: int = 1024, max_fuel: int | None = None) -> Term:
    """Normalize, doubling the fuel until a normal form is reached.

    Terminates on every term without Y constants, and on any term that
    has a normal form; diverges otherwise unless max_fuel is set.
    """
    while True:
        out = normalize(t, fuel)
        if isinstance(out, Normal):
            return out.term
        if max_fuel is not None and fuel >= max_fuel:
            raise RuntimeError(f"no normal form within {fuel} contractions")
        t = out.last_term
        fuel *= 2


def unwind_spine(t: Term) -> tuple[Term, list[Term]]:
    """Split h M1 ... Mk into (h, [M1, ..., Mk])."""
    args: list[Term] = []
    while isinstance(t, App):
        args.append(t.arg)
        t = t.fun
    args.reverse()
    return t, args


def long_normal_form(t: Term, context=None) -> Term:
    """The eta-long beta-normal form of a term without Y constants.

    Every abstraction prefix matches the arity of its type and every
    head is applied to a full argument list.
    """
    if contains_y(t):
        raise ValueError("long_normal_form applies to terms without Y constants")
    ty = type_of(t, context)
    nf = assured_normalize(t)
    used = set(all_names(nf))
    if context:
        used |= set(context)
    return _expand(nf, ty, used)


def _expand(t: Term, ty: SimpleType, used: set[str]) -> Term:
    args = argument_types(ty)
    binders: list[tuple[str, SimpleType]] = []
    body = t
    for a in args:
        if isinstance(body, Lam):
            binders.append((body.var, body.var_ty))
            body = body.body
        else:
            name = fresh_name(f"e{len(binders) + 1}", used)
            used.add(name)
            binders.append((name, a))
            body = App(body, Var(name, a))
    head, spine = unwind_spine(body)
    if isinstance(head, Var):
        head_ty = head.ty
    elif isinstance(head, OmegaConst):
        head_ty = head.ty
    else:
        raise AssertionError(f"unexpected head in a beta-normal spine: {head!r}")
    expected = argument_types(head_ty)
    assert len(expected) == len(spine), "ground spine must be fully applied"
    body = head
    for arg, arg_ty in zip(spine, expected):
        body = App(body, _expand(arg, arg_ty, used))
    for name, a in reversed(binders):
        body = Lam(name, a, body)
    return body


def is_long_normal(t: Term, context=None) -> bool:
    """Structural check for eta-long beta-normal shape (Y-free terms)."""
    if contains_y(t):
        return False
    ty = type_of(t, context)

    def check(s: Term, expect: SimpleType) -> bool:
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
        return all(check(arg, arg_ty) for arg, arg_ty in zip(spine, expected))

    return check(t, ty)


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


def classify_properness(t: Term, context=None) -> Properness:
    """Proper or Improper(witness path); input must be a long normal form."""
    if not is_long_normal(t, context):
        raise ValueError("classify_properness requires a long beta-eta normal form")

    def find(s: Term, path: tuple[str, ...]):
        if isinstance(s, OmegaConst):
            return path
        if isinstance(s, Lam):
            return find(s.body, path + ("body",))
        if isinstance(s, App):
            return find(s.fun, path + ("fun",)) or find(s.arg, path + ("arg",))
        return None

    hit = find(t, ())
    return Proper() if hit is None else Improper(hit)


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
    """m when t is alpha-equivalent to church_numeral(m, alpha), else None."""
    hit = match_numeral(t)
    if hit is not None and hit[1] == alpha:
        return hit[0]
    return None


# ---------------------------------------------------------------------------
# Exhaustive enumeration of closed long normal forms, used by the test
# suite to check the flow characterization without gaps.  Bottom-constant
# types are drawn from the subtypes of the target type, which keeps the
# family finite while still containing every proper form of that type
# within the size bound.  Size is the number of AST nodes.


def term_size(t: Term) -> int:
    return sum(1 for _ in subterms(t))


def enumerate_long_normal_forms(
    ty: SimpleType,
    max_size: int,
    omega_universe: tuple[SimpleType, ...] | None = None,
) -> list[Term]:
    """All closed long normal forms of the given type, up to max_size nodes."""
    if omega_universe is None:
        universe = tuple(sorted(subtypes(ty), key=type_to_str))
    else:
        universe = tuple(omega_universe)

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

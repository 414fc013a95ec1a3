"""Term syntax for the simply typed lambda calculus with two constant families.

Constructors: variables, Church-style abstractions (binders carry their
type), applications, bottom constants Omega{t} at every type t, and
fixed-point constants Y{s} of type (s -> s) -> s.  A term with neither
constant is a plain beta-eta term; Omega-only terms form the inert-bottom
fragment; Y admits the unfolding rule Y f -> f (Y f).

Equality and hashing are alpha equivalence: bound variables are compared
by binder position, free variables and constants by name and type.  The
surface names are kept for printing.

Terms are as deep as the numerals they compute, so no walker spends a
Python frame per nesting level.  fold is the one post-order traversal,
on an explicit stack; alpha keys, typing, leaf mapping and the printer
are folds.  free_vars has a stack loop of its own.  type_of's two
checks, check_var and check_app, are also made by the parser and by the
evaluator's compile walk.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Container, Iterator, Mapping

from .types import (
    GROUND,
    Arrow,
    SimpleType,
    argument_types,
    numeral_type,
    type_to_str,
)


class TypingError(Exception):
    """Raised for unbound variables and argument/domain mismatches."""

    def __init__(self, message: str, term: "Term | None" = None):
        super().__init__(message)
        self.term = term


class Term:
    """Base class; subclasses are frozen dataclasses, equality is alpha."""

    __slots__ = ()

    @cached_property
    def _alpha(self):
        return _alpha_key(self)

    def __eq__(self, other) -> bool:
        return isinstance(other, Term) and self._alpha == other._alpha

    def __hash__(self) -> int:
        return hash(self._alpha)

    def __repr__(self) -> str:
        from .printer import term_to_str

        return term_to_str(self)


# cached_property stores into __dict__, so subclasses must not use __slots__.


@dataclass(frozen=True, eq=False, repr=False)
class Var(Term):
    name: str
    ty: SimpleType


@dataclass(frozen=True, eq=False, repr=False)
class Lam(Term):
    var: str
    var_ty: SimpleType
    body: Term


@dataclass(frozen=True, eq=False, repr=False)
class App(Term):
    fun: Term
    arg: Term


@dataclass(frozen=True, eq=False, repr=False)
class OmegaConst(Term):
    """Inert bottom constant; ty is the constant's own type."""

    ty: SimpleType


@dataclass(frozen=True, eq=False, repr=False)
class YConst(Term):
    """Fixed-point constant at recursion type ty; its own type is (ty -> ty) -> ty."""

    ty: SimpleType


_FOLDED = object()  # stack mark: the node's children are folded


def fold(t: Term, leaf: Callable, lam: Callable, app: Callable,
         bind: Callable | None = None, env=None):
    """Post-order fold of t on an explicit stack, children left to right.

    leaf(s, env) is the value of a variable or constant s; lam(s, body)
    and app(s, fun, arg) build an abstraction's and an application's from
    their children's.  bind(s, env) turns env, the environment at t, into
    the one inside abstraction s; when it returns None, leaf takes s and
    its body is not visited.  Anything else in t raises TypeError.
    """
    values: list = []
    stack: list = [(t, env)]
    while stack:
        s, e = stack.pop()
        if e is _FOLDED:
            if isinstance(s, Lam):
                values[-1] = lam(s, values[-1])
            else:
                arg = values.pop()
                values[-1] = app(s, values[-1], arg)
            continue
        while True:  # down the leftmost path; the rest waits on the stack
            if isinstance(s, App):
                stack += ((s, _FOLDED), (s.arg, e))
                s = s.fun
            elif isinstance(s, Lam) and (bind is None or (inner := bind(s, e)) is not None):
                stack.append((s, _FOLDED))
                s, e = s.body, e if bind is None else inner
            else:
                break
        if not isinstance(s, (Var, OmegaConst, YConst, Lam)):  # a Lam here was cut
            raise TypeError(f"not a term: {s!r}")
        values.append(leaf(s, e))
    return values[0]


def _alpha_key(t: Term) -> tuple:
    """t's alpha-invariant tokens in post-order, bound variables as de
    Bruijn indices; flat, so deep terms compare and hash iteratively."""
    tokens: list = []

    def leaf(s: Term, env) -> None:
        if isinstance(s, Var):
            bound = env[0].get(s.name)
            tokens.append(("f", s.name, s.ty) if bound is None else ("b", env[1] - bound - 1))
        else:
            tokens.append(("o" if isinstance(s, OmegaConst) else "y", s.ty))

    fold(t, leaf, lambda s, _: tokens.append(("l", s.var_ty)), lambda *_: tokens.append("a"),
         lambda s, env: ({**env[0], s.var: env[1]}, env[1] + 1), ({}, 0))
    return tuple(tokens)


def subterms(t: Term) -> Iterator[Term]:
    """Preorder walk, t first."""
    stack = [t]
    while stack:
        s = stack.pop()
        yield s
        if isinstance(s, Lam):
            stack.append(s.body)
        elif isinstance(s, App):
            stack.append(s.arg)
            stack.append(s.fun)


def free_vars(t: Term) -> dict[str, SimpleType]:
    """Free variable names with their carried types."""
    out: dict[str, SimpleType] = {}
    stack: list[tuple[Term, frozenset[str]]] = [(t, frozenset())]
    while stack:
        s, bound = stack.pop()
        while True:  # down the leftmost path; arguments wait on the stack
            if isinstance(s, App):
                stack.append((s.arg, bound))
                s = s.fun
            elif isinstance(s, Lam):
                bound = bound | {s.var}
                s = s.body
            else:
                if isinstance(s, Var) and s.name not in bound:
                    out[s.name] = s.ty
                break
    return out


def fresh_name(base: str, avoid: Container[str]) -> str:
    name = base
    while name in avoid:
        name += "'"
    return name


def contains_y(t: Term) -> bool:
    return any(isinstance(s, YConst) for s in subterms(t))


def contains_omega(t: Term) -> bool:
    return any(isinstance(s, OmegaConst) for s in subterms(t))


def y_types(t: Term) -> set[SimpleType]:
    return {s.ty for s in subterms(t) if isinstance(s, YConst)}


def omega_types(t: Term) -> set[SimpleType]:
    return {s.ty for s in subterms(t) if isinstance(s, OmegaConst)}


def check_var(s: Var, declared: SimpleType | None) -> SimpleType:
    """The type of variable s, whose innermost binder or context entry
    declares `declared` (None when there is none)."""
    if declared is None:
        raise TypingError(f"unbound variable {s.name}", s)
    if declared is not s.ty:
        raise TypingError(f"variable {s.name} carries type {s.ty} but is bound at {declared}", s)
    return s.ty


def check_app(s: App, fun_ty: SimpleType, arg_ty: SimpleType) -> SimpleType:
    """The type of application s from the types of its two children."""
    if not isinstance(fun_ty, Arrow):
        raise TypingError(f"applied term has ground type {fun_ty}", s)
    if fun_ty.domain is not arg_ty:
        raise TypingError(f"argument type {arg_ty} does not match domain {fun_ty.domain}", s)
    return fun_ty.codomain


def type_of(t: Term, context: Mapping[str, SimpleType] | None = None) -> SimpleType:
    """Type of t, with context supplying the types of free variables.

    Every variable occurrence carries a type; it must agree with the
    innermost binder of that name, or with the context for free names.
    """
    def leaf(s: Term, env: dict[str, SimpleType]) -> SimpleType:
        if isinstance(s, Var):
            return check_var(s, env.get(s.name))
        if isinstance(s, OmegaConst):
            return s.ty
        return Arrow(Arrow(s.ty, s.ty), s.ty)

    return fold(t, leaf, lambda s, body_ty: Arrow(s.var_ty, body_ty), check_app,
                lambda s, env: {**env, s.var: s.var_ty}, dict(context) if context else {})


def church_numeral(m: int, alpha: SimpleType) -> Term:
    """\\f:alpha->alpha. \\x:alpha. f^m(x), of type numeral_type(alpha)."""
    if m < 0:
        raise ValueError("numerals are non-negative")
    step = Arrow(alpha, alpha)
    body: Term = Var("x", alpha)
    for _ in range(m):
        body = App(Var("f", step), body)
    return Lam("f", step, Lam("x", alpha, body))


def match_numeral(t: Term) -> tuple[int, SimpleType] | None:
    """(m, alpha) when t is literally \\f.\\x.f^m(x) up to binder names."""
    if not (isinstance(t, Lam) and isinstance(t.body, Lam)):
        return None
    f, inner = t, t.body
    alpha = inner.var_ty
    if f.var_ty != Arrow(alpha, alpha):
        return None
    body = inner.body
    m = 0
    # With equal binder names the outer one is shadowed, so only m = 0 can match.
    f_visible = f.var != inner.var
    while (f_visible and isinstance(body, App) and isinstance(body.fun, Var)
           and body.fun.name == f.var and body.fun.ty == f.var_ty):
        m += 1
        body = body.arg
    # structurally, not by ==, which would build the alpha key of any body
    if isinstance(body, Var) and body.name == inner.var and body.ty == alpha:
        return m, alpha
    return None


def map_leaves(t: Term, fn: Callable[[Term], Term]) -> Term:
    """t with every leaf s (a variable or a constant) replaced by fn(s).

    Binders are kept as they are: the terms fn returns are not renamed,
    so their free variables are bound by the binders above the leaf.
    """
    return fold(t, lambda s, _: fn(s), lambda s, body: Lam(s.var, s.var_ty, body),
                lambda _, fun, arg: App(fun, arg))


def omega_tilde(ty: SimpleType) -> Term:
    """\\x1:t1...\\xn:tn. Omega{o} for ty = t1 -> ... -> tn -> o."""
    args = argument_types(ty)
    body: Term = OmegaConst(GROUND)
    for i in reversed(range(len(args))):
        body = Lam(f"x{i + 1}", args[i], body)
    return body


def tilde_omega_map(t: Term) -> Term:
    """Replace every bottom constant by its ground-bottom expansion.

    The result has bottom constants at ground type only.  Rejects terms
    containing fixed-point constants.
    """
    if contains_y(t):
        raise ValueError("tilde_omega_map does not apply to terms with Y constants")
    return map_leaves(t, lambda s: omega_tilde(s.ty) if isinstance(s, OmegaConst) else s)


def y_tilde(n: int, ty: SimpleType) -> Term:
    """\\f:ty->ty. f^n(Omega{ty}), the depth-n truncation of Y at ty."""
    if n < 0:
        raise ValueError("truncation depth must be non-negative")
    step = Arrow(ty, ty)
    f = Var("f", step)  # one node for every occurrence: terms are immutable
    body: Term = OmegaConst(ty)
    for _ in range(n):
        body = App(f, body)
    return Lam("f", step, body)


def y_truncate(t: Term, depths: Mapping[SimpleType, int]) -> Term:
    """Replace each Y{s} by y_tilde(depths[s], s); ValueError naming every
    recursion type in t without a depth entry."""
    missing: set[SimpleType] = set()
    # one truncation per recursion type, shared by its occurrences: terms
    # are immutable and no walk keys on node identity
    shared: dict[SimpleType, Term] = {}

    def leaf(s: Term) -> Term:
        if isinstance(s, YConst):
            if s.ty in depths:
                out = shared.get(s.ty)
                if out is None:
                    out = shared[s.ty] = y_tilde(depths[s.ty], s.ty)
                return out
            missing.add(s.ty)
        return s

    out = map_leaves(t, leaf)
    if missing:
        listed = ", ".join(sorted(type_to_str(ty) for ty in missing))
        raise ValueError(f"no truncation depth for recursion type(s): {listed}")
    return out


__all__ = [
    "App",
    "Lam",
    "OmegaConst",
    "Term",
    "TypingError",
    "Var",
    "YConst",
    "church_numeral",
    "contains_omega",
    "contains_y",
    "fold",
    "free_vars",
    "fresh_name",
    "map_leaves",
    "match_numeral",
    "numeral_type",
    "omega_tilde",
    "omega_types",
    "subterms",
    "type_of",
    "y_tilde",
    "y_truncate",
    "y_types",
]

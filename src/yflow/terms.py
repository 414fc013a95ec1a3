"""Term syntax for the simply typed lambda calculus with two constant families.

Constructors: variables, Church-style abstractions (binders carry their
type), applications, bottom constants Omega{t} at every type t, and
fixed-point constants Y{s} of type (s -> s) -> s.  A term with neither
constant is a plain beta-eta term; Omega-only terms form the inert-bottom
fragment; Y admits the unfolding rule Y f -> f (Y f).

Equality and hashing are alpha equivalence: bound variables are compared
by binder position, free variables and constants by name and type.  The
surface names are kept for printing and survive serialization unchanged.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterator, Mapping

from .types import (
    GROUND,
    Arrow,
    SimpleType,
    argument_types,
    arrow,
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
        return _alpha_key(self, {}, 0)

    def __eq__(self, other) -> bool:
        return isinstance(other, Term) and self._alpha == other._alpha

    def __ne__(self, other) -> bool:
        return not self.__eq__(other)

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


def _alpha_key(t: Term, binders: dict, depth: int):
    if isinstance(t, Var):
        bound = binders.get(t.name)
        if bound is not None:
            return ("b", depth - bound - 1)
        return ("f", t.name, t.ty)
    if isinstance(t, Lam):
        inner = dict(binders)
        inner[t.var] = depth
        return ("l", t.var_ty, _alpha_key(t.body, inner, depth + 1))
    if isinstance(t, App):
        return ("a", _alpha_key(t.fun, binders, depth), _alpha_key(t.arg, binders, depth))
    if isinstance(t, OmegaConst):
        return ("o", t.ty)
    if isinstance(t, YConst):
        return ("y", t.ty)
    raise TypeError(f"not a term: {t!r}")


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

    def walk(s: Term, bound: frozenset[str]):
        if isinstance(s, Var):
            if s.name not in bound:
                out[s.name] = s.ty
        elif isinstance(s, Lam):
            walk(s.body, bound | {s.var})
        elif isinstance(s, App):
            walk(s.fun, bound)
            walk(s.arg, bound)

    walk(t, frozenset())
    return out


def all_names(t: Term) -> set[str]:
    """Every variable name occurring in t, bound or free, binders included."""
    names = set()
    for s in subterms(t):
        if isinstance(s, Var):
            names.add(s.name)
        elif isinstance(s, Lam):
            names.add(s.var)
    return names


def fresh_name(base: str, avoid: set[str]) -> str:
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


def type_of(t: Term, context: Mapping[str, SimpleType] | None = None) -> SimpleType:
    """Type of t, with context supplying the types of free variables.

    Every variable occurrence carries a type; it must agree with the
    innermost binder of that name, or with the context for free names.
    """
    ctx: dict[str, SimpleType] = dict(context) if context else {}

    def walk(s: Term, env: dict[str, SimpleType]) -> SimpleType:
        if isinstance(s, Var):
            declared = env.get(s.name, ctx.get(s.name))
            if declared is None:
                raise TypingError(f"unbound variable {s.name}", s)
            if declared != s.ty:
                raise TypingError(
                    f"variable {s.name} carries type {s.ty} but is bound at {declared}", s
                )
            return s.ty
        if isinstance(s, Lam):
            inner = dict(env)
            inner[s.var] = s.var_ty
            return Arrow(s.var_ty, walk(s.body, inner))
        if isinstance(s, App):
            fun_ty = walk(s.fun, env)
            arg_ty = walk(s.arg, env)
            if not isinstance(fun_ty, Arrow):
                raise TypingError(f"applied term has ground type {fun_ty}", s)
            if fun_ty.domain != arg_ty:
                raise TypingError(
                    f"argument type {arg_ty} does not match domain {fun_ty.domain}", s
                )
            return fun_ty.codomain
        if isinstance(s, OmegaConst):
            return s.ty
        if isinstance(s, YConst):
            return Arrow(Arrow(s.ty, s.ty), s.ty)
        raise TypeError(f"not a term: {s!r}")

    return walk(t, {})


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
    while f_visible and isinstance(body, App) and body.fun == Var(f.var, f.var_ty):
        m += 1
        body = body.arg
    if body == Var(inner.var, alpha):
        return m, alpha
    return None


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
    repl_free = set(free_vars(replacement))

    def walk(s: Term) -> Term:
        if isinstance(s, Var):
            if s.name == var.name:
                if s.ty != var.ty:
                    raise TypingError(f"occurrence of {s.name} has type {s.ty}", s)
                return replacement
            return s
        if isinstance(s, Lam):
            if s.var == var.name:
                return s
            if s.var in repl_free and var.name in free_vars(s.body):
                renamed = fresh_name(s.var, repl_free | all_names(s.body) | {var.name})
                body = _subst(s.body, Var(s.var, s.var_ty), Var(renamed, s.var_ty))
                return Lam(renamed, s.var_ty, walk(body))
            return Lam(s.var, s.var_ty, walk(s.body))
        if isinstance(s, App):
            return App(walk(s.fun), walk(s.arg))
        return s

    return walk(t)


def map_leaves(t: Term, fn: Callable[[Term], Term]) -> Term:
    """t with every leaf s (a variable or a constant) replaced by fn(s).

    Binders are kept as they are: the terms fn returns are not renamed,
    so their free variables are bound by the binders above the leaf.
    """
    if isinstance(t, Lam):
        return Lam(t.var, t.var_ty, map_leaves(t.body, fn))
    if isinstance(t, App):
        return App(map_leaves(t.fun, fn), map_leaves(t.arg, fn))
    return fn(t)


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
    body: Term = OmegaConst(ty)
    for _ in range(n):
        body = App(Var("f", step), body)
    return Lam("f", step, body)


def y_truncate(t: Term, depths: Mapping[SimpleType, int]) -> Term:
    """Replace each Y{s} by y_tilde(depths[s], s).

    Every recursion type occurring in t must have a depth entry.
    """
    missing = y_types(t) - set(depths)
    if missing:
        listed = ", ".join(sorted(type_to_str(ty) for ty in missing))
        raise ValueError(f"no truncation depth for recursion type(s): {listed}")
    return map_leaves(t, lambda s: y_tilde(depths[s.ty], s.ty) if isinstance(s, YConst) else s)


# ---------------------------------------------------------------------------
# Tagged-tree serialization.  Kind tags: var, lam, app, omega, y.  Nodes
# that carry a type annotation store it in surface syntax; binder and
# variable names are preserved so the round trip is bit exact.

def term_to_tree(t: Term) -> dict:
    if isinstance(t, Var):
        return {"kind": "var", "name": t.name, "type": type_to_str(t.ty), "children": []}
    if isinstance(t, Lam):
        return {
            "kind": "lam",
            "name": t.var,
            "type": type_to_str(t.var_ty),
            "children": [term_to_tree(t.body)],
        }
    if isinstance(t, App):
        return {"kind": "app", "children": [term_to_tree(t.fun), term_to_tree(t.arg)]}
    if isinstance(t, OmegaConst):
        return {"kind": "omega", "type": type_to_str(t.ty), "children": []}
    if isinstance(t, YConst):
        return {"kind": "y", "type": type_to_str(t.ty), "children": []}
    raise TypeError(f"not a term: {t!r}")


def tree_to_term(tree: dict) -> Term:
    from .parser import parse_type

    kind = tree["kind"]
    children = tree.get("children", [])
    if kind == "var":
        return Var(tree["name"], parse_type(tree["type"]))
    if kind == "lam":
        (body,) = children
        return Lam(tree["name"], parse_type(tree["type"]), tree_to_term(body))
    if kind == "app":
        fun, arg = children
        return App(tree_to_term(fun), tree_to_term(arg))
    if kind == "omega":
        return OmegaConst(parse_type(tree["type"]))
    if kind == "y":
        return YConst(parse_type(tree["type"]))
    raise ValueError(f"unknown node kind {kind!r}")


def term_to_json(t: Term) -> str:
    return json.dumps(term_to_tree(t), sort_keys=True, separators=(",", ":"))


def term_from_json(text: str) -> Term:
    return tree_to_term(json.loads(text))


__all__ = [
    "App",
    "Lam",
    "OmegaConst",
    "Term",
    "TypingError",
    "Var",
    "YConst",
    "all_names",
    "church_numeral",
    "contains_omega",
    "contains_y",
    "free_vars",
    "fresh_name",
    "map_leaves",
    "match_numeral",
    "numeral_type",
    "omega_tilde",
    "omega_types",
    "subterms",
    "substitute",
    "term_from_json",
    "term_to_json",
    "term_to_tree",
    "tree_to_term",
    "type_of",
    "y_tilde",
    "y_truncate",
    "y_types",
]

"""Simple types over a single ground type.

Every type decomposes uniquely as t1 -> t2 -> ... -> tn -> o; the tuple
(t1, ..., tn) is the argument list and n the arity.  Arrows associate to
the right, so Arrow(a, Arrow(b, GROUND)) prints as "a -> b -> o".
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache


class SimpleType:
    """Base class for type trees.  Instances are immutable and hashable."""

    __slots__ = ()

    def __str__(self) -> str:
        return type_to_str(self)

    def __repr__(self) -> str:
        return f"<type {type_to_str(self)}>"


@dataclass(frozen=True, repr=False, slots=True)
class Ground(SimpleType):
    """The single base type, written o."""


@dataclass(frozen=True, repr=False, slots=True)
class Arrow(SimpleType):
    domain: SimpleType
    codomain: SimpleType


GROUND = Ground()


def type_to_str(ty: SimpleType) -> str:
    """Render with minimal parentheses; arrows are right associative."""
    if isinstance(ty, Ground):
        return "o"
    assert isinstance(ty, Arrow)
    left = type_to_str(ty.domain)
    if isinstance(ty.domain, Arrow):
        left = f"({left})"
    return f"{left} -> {type_to_str(ty.codomain)}"


def argument_types(ty: SimpleType) -> tuple[SimpleType, ...]:
    """The full argument list (t1, ..., tn) of t1 -> ... -> tn -> o."""
    args = []
    while isinstance(ty, Arrow):
        args.append(ty.domain)
        ty = ty.codomain
    return tuple(args)


def arrow(args: tuple[SimpleType, ...] | list[SimpleType], result: SimpleType) -> SimpleType:
    """Fold a -> b -> ... -> result from an argument list."""
    ty = result
    for a in reversed(args):
        ty = Arrow(a, ty)
    return ty


def numeral_type(alpha: SimpleType) -> SimpleType:
    """The type (alpha -> alpha) -> (alpha -> alpha) of iterators over alpha."""
    step = Arrow(alpha, alpha)
    return Arrow(step, step)


def numeral_parameter(ty: SimpleType) -> SimpleType | None:
    """Inverse of numeral_type; None when ty is not of that shape."""
    if (
        isinstance(ty, Arrow)
        and isinstance(ty.domain, Arrow)
        and ty.domain == ty.codomain
        and ty.domain.domain == ty.domain.codomain
    ):
        return ty.domain.domain
    return None


@lru_cache(maxsize=None)
def subtypes(ty: SimpleType) -> frozenset[SimpleType]:
    """All subtrees of the type tree, ty included."""
    if isinstance(ty, Ground):
        return frozenset((ty,))
    assert isinstance(ty, Arrow)
    return subtypes(ty.domain) | subtypes(ty.codomain) | frozenset((ty,))

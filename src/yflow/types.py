"""Simple types over a single ground type, one object per type.

Every type decomposes uniquely as t1 -> t2 -> ... -> tn -> o; the tuple
(t1, ..., tn) is the argument list and n the arity.  Arrows associate to
the right, so Arrow(a, Arrow(b, GROUND)) prints as "a -> b -> o".
Arrow(a, b) is the one arrow with those parts and Ground() is GROUND,
so equality is identity and hashing never walks the tree.
"""

from __future__ import annotations

from functools import lru_cache


class SimpleType:
    """Base class for types: one immutable object per type, == is `is`."""

    __slots__ = ("_arguments",)  # argument_types(self), once asked for

    def __setattr__(self, name: str, value=None) -> None:
        raise AttributeError(f"types are immutable: cannot change {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):  # pickle and copy give back the same object
        return type(self), tuple(getattr(self, field) for field in self.__slots__)

    def __str__(self) -> str:
        return type_to_str(self)

    def __repr__(self) -> str:
        return f"<type {type_to_str(self)}>"


class Ground(SimpleType):
    """The single base type, written o."""

    __slots__ = ()

    def __new__(cls) -> Ground:
        return GROUND


class Arrow(SimpleType):
    __slots__ = ("domain", "codomain")

    def __new__(cls, domain: SimpleType, codomain: SimpleType) -> Arrow:
        ty = _ARROWS.get((domain, codomain))
        if ty is None:
            ty = object.__new__(cls)
            object.__setattr__(ty, "domain", domain)
            object.__setattr__(ty, "codomain", codomain)
            object.__setattr__(ty, "_arguments", None)
            ty = _ARROWS.setdefault((domain, codomain), ty)
        return ty


GROUND = object.__new__(Ground)
object.__setattr__(GROUND, "_arguments", ())
_ARROWS: dict[tuple[SimpleType, SimpleType], Arrow] = {}  # every arrow made; never shrinks


def type_to_str(ty: SimpleType) -> str:
    """Minimal parentheses, right associative: only an arrow domain recurses."""
    text = ""
    while isinstance(ty, Arrow):
        domain = ty.domain
        text += f"({type_to_str(domain)}) -> " if isinstance(domain, Arrow) else "o -> "
        ty = ty.codomain
    return text + "o"


def argument_types(ty: SimpleType) -> tuple[SimpleType, ...]:
    """The full argument list (t1, ..., tn) of t1 -> ... -> tn -> o, kept
    on the type from the first call on.  Keeping one on every type made
    would cost memory quadratic in the arity of a long arrow."""
    if ty._arguments is None:
        args, arg = [], ty
        while isinstance(arg, Arrow):
            args.append(arg.domain)
            arg = arg.codomain
        object.__setattr__(ty, "_arguments", tuple(args))
    return ty._arguments


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

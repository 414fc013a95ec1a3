"""Normal forms by evaluation, properness, bottom elimination, decoding.

One normalizer serves every caller: a lazy Krivine machine reduces to
weak head normal form, sharing each argument as a thunk forced at most
once (Y{s} a is a thunk x = a x), and a readback loop on its own stack
evaluates under binders (Cregut, "Strongly reducing variants of the
Krivine abstract machine", HOSC 2007).  normalize bounds the machine's
contractions, beta steps and Y unfoldings, by a budget; running out is
data, not an error.  assured_normalize and long_normal_form run it
unbounded: Y-free terms are strongly normalizing, so both terminate on
them.  A thunk needed while it is being forced, or reached again
within its own readback, is a black hole, a term with no normal form.
Given truncation depths, the machine normalizes the truncation of its
term without building it: Y{s} a is a^k(Omega{s}), unfolded one level
each time a level is forced, and an unapplied Y{s} reads back as
y_tilde(k, s).  Properness and bottom elimination act on long forms:
elimination reads each bottom-headed spine back as z b1 ... bl, so
with depths it reads the pure term off a recursive one directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce

from .terms import (
    App,
    Lam,
    OmegaConst,
    Term,
    Var,
    YConst,
    contains_y,
    free_vars,
    fresh_name,
    match_numeral,
    subterms,
    type_of,
    y_tilde,
)
from .types import (
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
    """A normal form, with the number of contractions the machine made."""

    term: Term
    steps: int


@dataclass(frozen=True)
class FuelExhausted:
    """No normal form is reached within `fuel` contractions."""

    fuel: int


NormalizationOutcome = Normal | FuelExhausted


class BlackHoleError(RuntimeError):
    """A thunk was needed while it was being forced, or reached within its
    own readback: its value or normal form needs itself."""


class _OutOfFuel(Exception):
    """The machine reached its contraction limit."""


_HOLE = object()  # the value of a thunk while it is being forced
_UPDATE = object()  # frame mark: the thunk below it is being forced
_APPLY = object()  # readback mark: apply the term below the top of out to the top


class _Thunk:
    """A shared suspension: term in env until forced, then its value."""

    __slots__ = ("term", "env", "value")

    def __init__(self, term, env, value=None):
        self.term, self.env, self.value = term, env, value


class _Unfold:
    """a^k(Omega{s}), the depth-k truncation of Y{s} a, in an env binding fun."""

    __slots__ = ("fun", "k")

    def __init__(self, fun, k):
        self.fun, self.k = fun, k


def _eval(term: Term, env: dict, frames: list, steps: int, limit: int | None,
          depths: dict | None):
    """The weak head normal form of term in env applied to frames, a stack
    of argument thunks (a lazy Krivine machine), paired with steps plus the
    contractions made: beta steps and Y unfoldings.  A contraction past
    limit raises _OutOfFuel.  A thunk is forced once: _UPDATE above it on
    frames marks where its value is written back.  With depths, Y{s} a
    is a^depths[s](Omega{s}), one level at a time, and not a x with x = a x.

    A value is a closure (Lam, env), env mapping source names to thunks,
    or a neutral (head, args): a variable, a bottom or an unapplied Y
    applied to argument thunks."""
    while True:
        while type(term) is App:
            arg = term.arg
            frames.append(type(arg) is Var and env.get(arg.name) or _Thunk(arg, env))
            term = term.fun
        th = env.get(term.name) if type(term) is Var else None
        if th is None:  # a free variable, a constant, an abstraction or a level
            if type(term) is _Unfold:  # a^k(Omega{s}) is a (a^(k-1)(Omega{s}))
                fun, k = term.fun, term.k
                term = App(fun, _Unfold(fun, k - 1)) if k else OmegaConst(fun.ty.domain)
                continue
            value = (term, env if type(term) is Lam else ())
        elif th.value is None:
            th.value = _HOLE
            frames += (th, _UPDATE)
            term, env = th.term, th.env
            continue
        elif th.value is _HOLE:
            raise BlackHoleError("a shared subterm needs its own value")
        else:
            value = th.value
        while frames:
            top = frames.pop()
            head, rest = value
            if top is _UPDATE:
                th = frames.pop()
                th.term = th.env = None
                th.value = value
            elif type(head) is Lam:
                term, env = head.body, {**rest, head.var: top}
                break
            elif type(head) is YConst:
                a = Var("a", Arrow(head.ty, head.ty))
                if depths is None:  # Y{s} a is x, shared, with x = a x
                    x = _Thunk(None, None, _HOLE)
                    frames += (x, _UPDATE)
                    term, env = App(a, Var("x", head.ty)), {"a": top, "x": x}
                else:
                    term, env = _Unfold(a, depths[head.ty]), {"a": top}
                break
            else:
                args = [top]
                while frames and frames[-1] is not _UPDATE:
                    args.append(frames.pop())
                value = (head, rest + tuple(args))
        else:
            return value, steps
        if steps == limit:  # only a contraction breaks out of the loop above
            raise _OutOfFuel
        steps += 1


def _normal_form(t: Term, ty: SimpleType | None, limit: int | None = None,
                 depths: dict | None = None, eliminate: int | None = None
                 ) -> tuple[Term, int, int]:
    """(t's beta normal form, the contractions made, the bottom heads in
    the form): the form is read back from t's value, eta-long at type ty
    or eta-contracted when ty is None.  With depths, each Y{s} is unfolded
    depths[s] times, so the form is that of y_truncate(t, depths), which
    is never built: the machine unfolds an applied Y{s} only as far as
    readback forces it, and an unapplied one reads back as y_tilde.
    With eliminate, a long form's bottom-headed spine reads back, its
    arguments unread, as z b1 ... bl: the root's binders from that index.

    Readback runs on a stack of (thunk, type) items, forcing each thunk it
    reaches, and of marks: _APPLY builds an application and the bound
    variable an abstraction.  With Y and no depths a value can contain
    itself, and a thunk reached again within its own readback would be
    read back forever, so it raises BlackHoleError.  In that mode each
    thunk read back joins a set of open thunks and is pushed as its own
    end mark, below everything its readback pushes; popping the mark
    closes it.  Without Y, as in every long form, or with depths, values
    are acyclic and nothing is marked.  A source binder keeps its name,
    primed against the names in scope and t's free names; the binder
    eta-expanding the i-th argument is e<i>, primed against every name
    drawn so far, or with eliminate, when the head is a bottom, x<i> as
    omega_tilde names it, primed like a source binder.  No binder
    shadows another, so a name identifies its binder."""
    # t's free names and the names bound here, with their uses so far
    scope: dict[str, int] = dict.fromkeys(free_vars(t), 0)
    drawn = set(scope)
    out: list[Term] = []
    todo: list = [(_Thunk(t, {}), ty)]
    steps = bottoms = 0
    cyclic = ty is None and depths is None and contains_y(t)
    open_thunks: set[_Thunk] = set()  # the thunks whose readback is open
    spine = None  # with eliminate, z b1 ... bl
    while todo:
        item = todo.pop()
        if type(item) is tuple:
            th, item_ty = item
            if th.value is None:
                th.value = _HOLE
                steps = _eval(th.term, th.env, [th, _UPDATE], steps, limit, depths)[1]
            elif th in open_thunks:
                raise BlackHoleError("a shared subterm's normal form contains itself")
            if cyclic:
                open_thunks.add(th)
                todo.append(th)
            value = th.value
            expand = argument_types(item_ty) if ty is not None else ()
            i = 0
            while True:
                head, rest = value
                if type(head) is Lam:
                    var = Var(fresh_name(head.var, scope), head.var_ty)
                    bound = _Thunk(None, None, (var, ()))
                    value, steps = _eval(head.body, {**rest, head.var: bound}, [], steps,
                                         limit, depths)
                elif depths is not None and type(head) is YConst:  # unapplied
                    value = (y_tilde(depths[head.ty], head.ty), {})
                    continue
                elif i < len(expand):
                    if eliminate is not None and type(head) is OmegaConst:
                        var = Var(fresh_name(f"x{len(rest) + 1}", scope), expand[i])
                    else:
                        var = Var(fresh_name(f"e{i + 1}", drawn), expand[i])
                    value = (head, rest + (_Thunk(None, None, (var, ())),))
                else:
                    break
                todo.append(var)
                i += 1
                scope[var.name] = 0
                drawn.add(var.name)
            head, args = value
            if eliminate is not None:  # at the root, todo holds just its binders
                spine = spine or reduce(App, todo[eliminate + 1:], todo[eliminate])
                if type(head) is OmegaConst:  # ground, since the form is long
                    head, args = spine, ()
            out.append(head)
            if type(head) is Var and head.name in scope:
                scope[head.name] += 1
            elif type(head) is OmegaConst:
                bottoms += 1
            if args:
                arg_tys = argument_types(head.ty) if ty is not None else (None,) * len(args)
                for arg, arg_ty in reversed(list(zip(args, arg_tys))):
                    todo += (_APPLY, (arg, arg_ty))
            continue
        if type(item) is _Thunk:  # the end of item's readback
            open_thunks.remove(item)
        elif item is _APPLY:
            arg = out.pop()
            out[-1] = App(out[-1], arg)
        else:
            uses = scope.pop(item.name)
            body = out[-1]
            if ty is None and type(body) is App and body.arg is item and uses == 1:
                out[-1] = body.fun  # eta: the binder's one use is this argument
            else:
                out[-1] = Lam(item.name, item.ty, body)
    return out[0], steps, bottoms


def normalize(t: Term, fuel: int = DEFAULT_FUEL) -> NormalizationOutcome:
    """Normal if the machine reaches t's beta-eta normal form within `fuel`
    contractions, beta steps and Y unfoldings (a shared argument is reduced
    once), else FuelExhausted.  BlackHoleError when the machine finds none."""
    try:
        nf, steps, _ = _normal_form(t, None, fuel)
    except _OutOfFuel:
        return FuelExhausted(fuel)
    return Normal(nf, steps)


def assured_normalize(t: Term) -> Term:
    """The beta-eta normal form of t, with no step bound.

    Terminates on every term without Y constants, and on any term that
    has a normal form; otherwise diverges, or raises BlackHoleError when
    a shared subterm needs its own value or its normal form contains
    itself."""
    return _normal_form(t, None)[0]


def long_normal_form(t: Term) -> Term:
    """The eta-long beta-normal form of a term without Y constants.

    Every abstraction prefix matches the arity of its type and every
    head is applied to a full argument list."""
    if contains_y(t):
        raise ValueError("long_normal_form applies to terms without Y constants")
    return _normal_form(t, type_of(t))[0]


def is_long_normal(t: Term) -> bool:
    """Whether t is its own long normal form: every abstraction prefix
    matches the arity of its type, and every spine is a variable or a
    bottom constant (so no Y) applied to a full argument list."""
    todo = [(t, type_of(t))]
    while todo:
        s, ty = todo.pop()
        for _ in argument_types(ty):
            if not isinstance(s, Lam):
                return False
            s = s.body
        spine = []  # the arguments, last first
        while isinstance(s, App):
            spine.append(s.arg)
            s = s.fun
        if not isinstance(s, (Var, OmegaConst)):
            return False
        expected = argument_types(s.ty)
        if len(spine) != len(expected):
            return False
        todo += zip(spine, reversed(expected))
    return True


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
    todo: list = [(t, ())]  # subterms with their paths as linked lists (step, rest)
    while todo:
        s, path = todo.pop()
        if isinstance(s, OmegaConst):
            steps = []
            while path:
                step, path = path
                steps.append(step)
            return Improper(tuple(reversed(steps)))
        if isinstance(s, App):
            todo += ((s.arg, ("arg", path)), (s.fun, ("fun", path)))
        elif isinstance(s, Lam):
            todo.append((s.body, ("body", path)))
    return Proper()


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


def eliminate_omega(t: Term, numeral_args: int | None = None,
                    depths: dict | None = None) -> Term:
    """Rewrite a term with bottom constants into a constant-free one,
    preserving any total numeral function it defines.

    The input must be closed, of numeral-chain type, and without depths
    Y-free; with depths, it stands for y_truncate(t, depths), never
    built.  Its bottoms may have any type: the result is that of
    tilde_omega_map(t), never built either.  Its long normal form is
    \\n1...nk. \\f:a->a. \\z:a. \\b1...bl. body with a = (b1,...,bl) -> o;
    every bottom-headed spine in body, ground in a long form, is
    z b1 ... bl.
    """
    ty = type_of(t, {})
    if depths is None and contains_y(t):
        raise ValueError("eliminate_omega does not apply to terms with Y constants")
    alphas, _ = _numeral_chain(ty, numeral_args)
    return _normal_form(t, ty, depths=depths, eliminate=len(alphas) + 1)[0]


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
    "BlackHoleError",
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
    "term_size",
]

"""Finite semantics: monotone function hierarchy over the two-point lattice.

The ground domain is {bot, top} with bot < top; the domain at s -> t is
every monotone map from the domain at s to the domain at t, ordered
pointwise.  Bottom constants denote the least element, and the fixed
point constant denotes the least-fixed-point operator, solved only at
the points of its table that are read (see lfp).

At t1 -> ... -> tn -> o an element is determined by the set of points
of the product D(t1) x ... x D(tn) it sends to top, and monotone maps
are exactly the up-sets of that product poset (the Birkhoff
representation).  An element's mask is that set as a height(ty)-bit int:
its flattened table, points in lexicographic order over the canonically
ordered argument domains, the first point in the most significant bit.
The pointwise order is mask inclusion, and two elements are equal when
their types and masks agree.

An arrow element is either lazy or forced, never both.  A lazy element
applies on demand, so evaluation and the test/probe construction never
enumerate anything.  Extensional equality forces it: it is applied at
every element of the enumerated argument domain, the table is packed
into the mask and the lazy part is dropped, as call-by-need overwrites
a forced thunk with its value.  Forcing and lfp can raise DomainTooLarge.
Enumerated elements are born forced, and applying a forced element
reads the entry at the argument's index.  A fixed point is lazy: it
solves a point when it is first applied at it.

A term is typed and compiled by one terms.fold per evaluation, with no
type_of pass: the fold makes type_of's checks in its post-order and
emits post-order code that a loop runs on an operand stack.  An
abstraction's value is a closure, the tuple (binder, body code, env):
applying it runs the body's code in env plus the argument, so it
neither retypes nor re-walks the term.  Inside the loop a closure
application links the caller into a chain of frames and runs the body
in place, as a CEK machine keeps its continuation, so neither the
term's depth nor closures nested at run time cost a Python frame.
Each constant compiles to one shared element.  Bottom and top elements
are built along their arity in a loop, each level returning the one
element below it, so a mask forced once is reused.

A domain is its masks in ascending order, enumerated once per process
and cached; insertion holds a lock, so concurrent readers are safe.  The
masks are a list of ints, or an array('Q') for a large domain whose
masks fit in 64 bits (see below).  Its elements and renderings are
built on demand.  The canonical element order is lexicographic on
tables over the canonically ordered argument domain, which is the
numeric order of masks and always a linear extension of the pointwise
order; consequently index 0 is the least element (mask 0), the last
index the greatest (all ones), and an element's index is found by
bisecting the masks.  In a lattice of up-sets the upper covers of an
element add one point each, a point maximal among those it misses, so
the Hasse diagram comes from each mask's maximal missing points.  A
domain keeps its moves, the covers between its points as shifts and
masks, and finds those points with a few bit operations per element.
Renderings go one level of table at a time.

Enumeration counts a domain before it builds one (see _enumerate_arrow).
An antichain bound rejects a domain that is plainly too large before any
walk; a count pass over the table positions and their frontiers then
rejects one past the size limit before any mask list exists; only then
does one build walk emit the masks, keeping a run of completions only
for a frontier that several prefixes share.  The walk is the same for
every domain; only a run's format differs.  A domain of at least 2^15
elements whose masks fit in 64 bits packs its runs into 64-bit lanes,
8 bytes a mask; any other keeps them as lists of ints (see _build).

Chain heights multiply out: the longest chain adds one point at a time,
so its length is the product of the argument domain sizes.  This lets
height() answer for types whose own domain is far too large to
enumerate, as long as the argument domains are small; those are exactly
the types at which lfp can bound its rounds, so height and lfp fail
together.
"""

from __future__ import annotations

import functools
import sys
import threading
from array import array
from bisect import bisect_left
from typing import Callable, Sequence

from .terms import App, Lam, OmegaConst, Term, Var, check_app, check_var, fold
from .types import (
    GROUND,
    Arrow,
    SimpleType,
    argument_types,
    type_to_str,
)

DEFAULT_SIZE_LIMIT = 5_000_000

_default_size_limit = DEFAULT_SIZE_LIMIT


def set_default_size_limit(limit: int) -> None:
    """Set the session-wide enumeration bound."""
    global _default_size_limit
    if limit < 2:
        raise ValueError("size limit must be at least 2")
    _default_size_limit = limit


def default_size_limit() -> int:
    return _default_size_limit


class DomainTooLarge(Exception):
    def __init__(self, ty: SimpleType, estimate: str):
        super().__init__(
            f"domain at {type_to_str(ty)} exceeds the enumeration limit ({estimate} elements)"
        )
        self.ty = ty
        self.estimate = estimate


class Element:
    """A value in one of the finite domains.

    Ground elements hold a one-bit mask.  An arrow element holds either a
    lazy _fn or a mask (forced); forcing replaces _fn.  _fn is a closure
    tuple (binder, body code, env), which _run enters in place and apply
    runs, or a function of the argument, which only apply calls.
    """

    __slots__ = ("ty", "_fn", "_mask", "_width")

    def __init__(self, ty: SimpleType, fn=None, mask: int | None = None,
                 width: int | None = None):
        self.ty = ty
        self._fn = fn
        self._mask = mask
        # height(ty), the bits in the mask: carried so that slicing an entry
        # costs no lookup keyed by the type
        self._width = height(ty) if width is None and mask is not None else width

    @staticmethod
    def of_bool(flag: bool) -> "Element":
        return Element(GROUND, mask=int(bool(flag)), width=1)

    @property
    def flag(self) -> bool:
        if isinstance(self.ty, Arrow):
            raise ValueError(f"element of type {self.ty} is not ground")
        return self._mask == 1

    def apply(self, arg: "Element") -> "Element":
        fn = self._fn
        if fn.__class__ is tuple:  # a closure: its body's code in env plus arg
            var, body, env = fn
            return _run(body, {**env, var: arg})
        if fn is not None:
            return fn(arg)
        if not isinstance(self.ty, Arrow):
            raise ValueError("ground element cannot be applied")
        dom = enumerate_domain(self.ty.domain)
        return self._entry(dom.index_of(arg), len(dom.masks))

    def _entry(self, i: int, n: int) -> "Element":
        """The table entry at argument index i of n, sliced from the mask."""
        bits = self._width // n
        mask = self._mask >> bits * (n - 1 - i) & ((1 << bits) - 1)
        return Element(self.ty.codomain, None, mask, bits)

    def table(self) -> tuple["Element", ...]:
        """The entries over the argument domain in canonical order.

        Enumerates the argument domain; forcing applies the lazy element
        at every argument, stores its mask and width, then drops _fn, so a
        concurrent reader that finds _fn gone finds the mask in place.
        """
        dom = enumerate_domain(self.ty.domain)
        n = len(dom)
        if self._fn is None:
            return tuple(self._entry(i, n) for i in range(n))
        entries = tuple(map(self.apply, dom.elements))
        mask = 0
        for entry in entries:
            entry_mask = entry.mask()
            mask = mask << entry._width | entry_mask
        self._width = n * entries[0]._width
        self._mask = mask
        self._fn = None
        return entries

    def mask(self) -> int:
        """The points sent to top as a height-bit int (see the module docstring)."""
        if self._fn is not None:
            self.table()
        return self._mask

    def leq(self, other: "Element") -> bool:
        if self.ty != other.ty:
            raise ValueError("cannot compare elements of different types")
        return self.mask() & ~other.mask() == 0

    def __eq__(self, other) -> bool:
        if not isinstance(other, Element):
            return NotImplemented
        return self.ty == other.ty and self.mask() == other.mask()

    def __hash__(self) -> int:
        return hash((self.ty, self.mask()))

    def __repr__(self) -> str:
        return f"<element {render_element(self)} : {type_to_str(self.ty)}>"


def bottom_element(ty: SimpleType) -> Element:
    return _constant(ty, False)


def top_element(ty: SimpleType) -> Element:
    return _constant(ty, True)


def _constant(ty: SimpleType, flag: bool) -> Element:
    """The element at ty that is flag at every point, built from the ground
    up in a loop along the arity: each level returns the one element below
    it, so a mask forced once is reused."""
    levels = []
    while isinstance(ty, Arrow):
        levels.append(ty)
        ty = ty.codomain
    el = Element.of_bool(flag)
    for level in reversed(levels):
        el = Element(level, lambda _arg, cod=el: cod)
    return el


class Domain:
    """A fully enumerated domain: its masks in ascending canonical order,
    a list of ints or, for a large domain of at most 64-bit masks, an
    array('Q').  Element objects are built on first use; an element's
    index is found by bisecting the masks."""

    __slots__ = ("ty", "masks", "width", "_elements", "_moves")

    def __init__(self, ty: SimpleType, masks: Sequence[int], width: int,
                 moves: list[tuple[int, int]]):
        self.ty, self.masks, self.width = ty, masks, width  # width: height(ty)
        self._elements = None
        # the covers between points, a (shift, select) pair per distance: a
        # point in select is covered by the point shift bits lower (_moves)
        self._moves = moves

    def __len__(self) -> int:
        return len(self.masks)

    @property
    def elements(self) -> tuple[Element, ...]:
        if self._elements is None:
            ty, width = self.ty, self.width
            self._elements = tuple(Element(ty, None, m, width) for m in self.masks)
        return self._elements

    def index_of(self, el: Element) -> int:
        mask = el.mask()
        i = bisect_left(self.masks, mask)
        if i == len(self.masks) or self.masks[i] != mask:
            raise ValueError(f"no element {render_element(el)} in domain {self.ty}")
        return i

    def leq(self, i: int, j: int) -> bool:
        return self.masks[i] & ~self.masks[j] == 0

    def covers(self) -> list[tuple[int, int]]:
        """Edges of the Hasse diagram as sorted (lower, upper) index pairs.

        The upper covers of an up-set add one point each, a point maximal
        among those it misses.  A missing point is not maximal when a
        point that covers it is missing too, and each move finds those
        points for one distance by one shift and one mask.  Each maximal
        point's bit is looked up in a mask -> index dict built for the
        call, and is always found; lower bits first gives ascending uppers.
        """
        index = {m: i for i, m in enumerate(self.masks)}
        full = self.masks[-1]
        moves = self._moves
        out = []
        for i, mask in enumerate(self.masks):
            missing = full & ~mask
            blocked = 0
            for shift, select in moves:
                blocked |= missing << shift & select
            new = missing & ~blocked
            while new:
                bit = new & -new
                new ^= bit
                out.append((i, index[mask | bit]))
        return out


_domain_cache: dict[SimpleType, Domain] = {}
_cache_lock = threading.Lock()


def clear_domain_cache() -> None:
    with _cache_lock:
        _domain_cache.clear()


def enumerate_domain(ty: SimpleType) -> Domain:
    """The full domain at ty, cached per process.

    Raises DomainTooLarge when more elements would be produced than the
    session-wide limit allows (see set_default_size_limit); at once, before
    its codomains are enumerated, when height(ty) reaches the limit.
    """
    cached = _domain_cache.get(ty)
    if cached is not None:
        if len(cached) > _default_size_limit:
            raise DomainTooLarge(ty, str(len(cached)))
        return cached
    if ty == GROUND:
        dom = Domain(ty, [0, 1], 1, [])
    elif height(ty) >= _default_size_limit:  # a chain of height(ty) + 1 elements
        raise DomainTooLarge(ty, f"more than {_default_size_limit}")
    else:
        dom = _enumerate_arrow(ty)
    assert dom.masks[0] == 0, "least element must come first"
    assert dom.masks[-1] == (1 << height(ty)) - 1, "greatest element must come last"
    with _cache_lock:
        return _domain_cache.setdefault(ty, dom)


def _size_lower_bound(dom: Domain, cod: Domain) -> tuple[int, int]:
    """(b, w) such that there are at least b ** w monotone maps from dom to cod.

    The w argument masks of one popcount, the most of any popcount, form
    an antichain, and every map from an antichain into a chain of b =
    height(cod) + 1 codomain elements extends monotonically (send each
    point to the largest value of an antichain point below it).
    """
    levels = [0] * (dom.width + 1)
    for m in dom.masks:
        levels[m.bit_count()] += 1
    return cod.width + 1, max(levels)


def _enumerate_arrow(ty: Arrow) -> Domain:
    """Every monotone table over the argument domain, masks ascending.

    Monotone on the covers of the argument order means monotone, and the
    canonical order is a linear extension, so tables fill left to right.
    The completions of positions i.. depend only on the masks at i's
    frontier, the earlier positions covered by i or a later position, so
    the walk visits each (position, frontier) once.  It runs twice, each
    time with one stack frame per open position.

    The count pass records, per (position, frontier), its number of
    completions, the number of edges that reach it and its (candidate,
    next frontier) edges.  Every frontier extends, all later positions
    top, to an element, and distinct frontiers at one position to distinct
    elements, so the pass raises DomainTooLarge as soon as one count or
    one position's frontiers pass the limit, before any list is built.

    The build pass (_build) walks from the root carrying the prefix, the
    masks chosen so far.  A frontier reached once is expanded in place;
    one reached more often builds its run of completions once, which
    each use ORs its prefix into and which goes after the last use.
    """
    dom, cod = enumerate_domain(ty.domain), enumerate_domain(ty.codomain)
    n, bits, limit = len(dom), cod.width, _default_size_limit
    base, level = _size_lower_bound(dom, cod)
    # base >= 2, so base ** limit.bit_length() > limit: the cap keeps a
    # huge exponent cheap and the comparison unchanged
    if base ** min(level, limit.bit_length()) > limit:
        raise DomainTooLarge(ty, f"at least {base}^{level}")
    covers = dom.covers()
    preds: list[list[int]] = [[] for _ in range(n)]
    for i, j in covers:
        preds[j].append(i)
    # leave[k]: the positions that no position from k on reads; covers
    # are sorted, so dict(covers) maps a position to its last reader
    last = dict(covers)
    leave: list[list[int]] = [[] for _ in range(n + 1)]
    for j in range(n):
        leave[last.get(j, j) + 1].append(j)
    chosen = [0] * n
    # seen[i][key]: the entry [completions, edges reaching it, edges
    # (v, next entry), its run while the build pass holds one]; the
    # key holds the masks at i's frontier, j's at bit bits * j.  An entry
    # at the last position is born complete: its completions are its
    # candidates.  A domain has at least two elements, so the root is not
    # at the last position.
    seen: list[dict[int, list]] = [{} for _ in range(n)]
    root = [0, 1, [], None]
    # count pass; a frame per open position i: its key, the candidates
    # left at i, its entry
    stack = [(0, iter(cod.masks), root)]
    nxt = None  # the completed entry at i + 1 that chosen[i] reached
    while True:
        i = len(stack) - 1
        key, todo, entry = stack[-1]
        if nxt is not None:
            entry[0] += nxt[0]
            if entry[0] > limit:
                raise DomainTooLarge(ty, f"more than {limit}")
        v = next(todo, None)
        if v is None:
            nxt = entry
            stack.pop()
            if not stack:
                break
            continue
        chosen[i] = v
        key |= v << bits * i
        for j in leave[i + 1]:
            key ^= chosen[j] << bits * j
        nxt = seen[i + 1].get(key)
        if nxt is not None:
            nxt[1] += 1
            entry[2].append((v, nxt))
            continue
        if len(seen[i + 1]) >= limit:
            raise DomainTooLarge(ty, f"more than {limit}")
        seen[i + 1][key] = fresh = [0, 1, [], None]
        entry[2].append((v, fresh))
        lb = 0
        for j in preds[i + 1]:
            lb |= chosen[j]
        cands = [w for w in cod.masks if lb & ~w == 0]
        if i + 2 == n:
            fresh[0], fresh[3] = len(cands), cands
            nxt = fresh
        else:
            stack.append((key, iter(cands), fresh))
    packed = root[0] >= _LANES_FROM and n * bits <= 64
    return Domain(ty, _build(root, n, bits, packed), n * bits, _moves(covers, n, cod))


def _moves(covers: list[tuple[int, int]], n: int, cod: Domain) -> list[tuple[int, int]]:
    """The moves of the domain at s -> t, from the covers of D(s), of n
    elements, and the moves of cod, the domain at t.  The point (i, p) sits
    at bit bits * (n - 1 - i) plus p's bit, bits = height(t), so a cover
    (lo, hi) of D(s) moves a point bits * (hi - lo) lower, and a move of
    t moves one within its argument's block."""
    bits = cod.width
    ones = ((1 << n * bits) - 1) // ((1 << bits) - 1)  # a 1 in each block
    moves = {shift: select * ones for shift, select in cod._moves}
    for lo, hi in covers:
        shift = bits * (hi - lo)  # at least bits, past every move of t
        moves[shift] = moves.get(shift, 0) | (1 << bits) - 1 << bits * (n - 1 - lo)
    return list(moves.items())


# Below this many elements lists build faster: a run then holds few
# masks, and packing one costs more than a list comprehension.
_LANES_FROM = 1 << 15


def _build(root: list, n: int, bits: int, packed: bool) -> list[int] | array:
    """The build pass of _enumerate_arrow: the masks, from the root's edges.

    A frame per open position i holds the edges left at i, the prefix,
    the target runs join, and for a shared entry being built, the entry
    and the prefix of its first use.  Only a run's format depends on
    packed.  Unpacked, a run is a list of masks.  Packed, it is (block,
    count): count masks in one int, the first in the lowest 64-bit lane;
    prefixing it is one multiply and one OR, block | hi * ones(count),
    with a 1 in each lane.  A packed target is an array('Q') in
    little-endian byte order: runs join it through to_bytes, a shared
    entry's target becomes its run through from_bytes, and the
    candidates at the last position become a run when first reached.
    """
    ones: dict[int, int] = {}  # count -> a 1 in each of count lanes
    out = array("Q") if packed else []
    build = [(iter(root[2]), 0, out, None)]
    while build:
        i = len(build) - 1
        todo, prefix, target, shared = build[-1]
        edge = next(todo, None)
        if edge is None:
            build.pop()
            if shared is None:
                continue
            nxt, hi = shared
            nxt[1] -= 1
            nxt[3] = sub = (int.from_bytes(target, "little"), len(target)) if packed else target
            target = build[-1][2]
        else:
            v, nxt = edge
            hi = prefix | v << bits * (n - 1 - i)
            sub = nxt[3]
            if sub is None:
                if nxt[1] == 1:
                    build.append((iter(nxt[2]), hi, target, None))
                else:
                    build.append((iter(nxt[2]), 0, array("Q") if packed else [], (nxt, hi)))
                continue
            if packed and sub.__class__ is list:
                sub = nxt[3] = sum(w << 64 * j for j, w in enumerate(sub)), len(sub)
            nxt[1] -= 1
            if not nxt[1]:
                nxt[3] = None
        if packed:
            block, count = sub
            r = ones.get(count)
            if r is None:
                r = ones[count] = int.from_bytes(b"\1\0\0\0\0\0\0\0" * count, "little")
            target.frombytes((block | hi * r).to_bytes(8 * count, "little"))
        else:
            target += [hi | s for s in sub]
    if packed and sys.byteorder == "big":
        out.byteswap()
    return out


def cardinality(ty: SimpleType) -> int:
    return len(enumerate_domain(ty))


def height(ty: SimpleType) -> int:
    """Number of strict steps in the longest ascending chain of the domain.

    Computed as the product of the argument domain sizes (see the module
    docstring); the ground height is 1.
    """
    h = 1
    for a in argument_types(ty):
        h *= cardinality(a)
    return h


class FixpointInvariantError(Exception):
    """A fixed-point solve passed its round bound: a bug, never an answer."""


def _on_arguments(ty: SimpleType, fn: Callable[[tuple], bool], args: tuple = ()) -> Element:
    """The element at ty = t1 -> ... -> tn -> o sending a1, ..., an to fn((a1, ..., an))."""
    if not isinstance(ty, Arrow):
        return Element.of_bool(fn(args))
    return Element(ty, lambda arg: _on_arguments(ty.codomain, fn, args + (arg,)))


def _max_rounds(h: int) -> int:
    return 2 * h + 1


def lfp(f: Element) -> Element:
    """Least fixed point of a monotone f at s = t1 -> ... -> tn -> o,
    solved only at the points (tuples of argument elements) it is read at.

    Reading an unknown point demands it and solves: each round evaluates
    f, applied to a fresh lazy approximant, at every demanded point still
    false.  The approximant at q is top iff a point found true lies at or
    below q (componentwise Element.leq); reading it demands q when q is
    new.  Elements hash and compare by mask, so equal arguments, lazy or
    forced, are one point.  When a round flips and adds no point, every
    demanded point is frozen and never evaluated again.  Each round but
    the last adds or flips a point, each of the height(s) points at most
    once each way: past 2*height(s)+1 rounds a solve raises
    FixpointInvariantError.

    The result is exact.  An evaluation reads its argument only through
    the approximant, so its value is fixed by the values it reads.
    - Every true point is justified from an approximant at or below lfp,
      so by monotonicity the hull of the true points stays at or below it.
    - A frozen false point q was evaluated in the last round, which read
      the final values, only at demanded points or under the hull.  For a
      Kleene iterate rho_k that is bottom at every demanded false point,
      f(hull join rho_k) reads what f(hull) read, so it is bottom at q, and
      so is rho_k+1 = f(rho_k).  By induction lfp(q) is bottom.  Points
      frozen by earlier solves are exact, so this holds across solves.
    """
    if not (isinstance(f.ty, Arrow) and f.ty.domain == f.ty.codomain):
        raise ValueError(f"lfp needs an element of type s -> s, got {f.ty}")
    s = f.ty.domain
    bound = _max_rounds(height(s))
    # True: found true; False: frozen false; None: demanded, false so far.
    points: dict[tuple[Element, ...], bool | None] = {}
    trues: list[tuple[Element, ...]] = []  # the points at which f gave top

    def read(p: tuple) -> bool:
        """The approximant at p; demands p when it is new and false."""
        v = points.setdefault(p, None)
        if v is None and any(all(map(Element.leq, q, p)) for q in trues):
            v = points[p] = True
        return bool(v)

    def evaluate(p: tuple) -> bool:
        return functools.reduce(Element.apply, p, f.apply(_on_arguments(s, read))).flag

    def value(p: tuple) -> bool:
        if not read(p) and points[p] is None:
            for _ in range(bound):
                before = dict(points)
                for q, v in before.items():
                    if v is None and points[q] is None and evaluate(q):
                        points[q] = True
                        trues.append(q)
                if points == before:
                    break
            else:
                raise FixpointInvariantError(f"least fixed point at {type_to_str(s)} "
                                             f"did not stabilize within {bound} rounds")
            for q, v in points.items():
                if v is None:
                    points[q] = False
        return points[p]

    return _on_arguments(s, value)


def eval_term(t: Term) -> Element:
    """Denotation of a closed term, typed by the fold that compiles it.
    An ill-typed or open term raises TypingError with type_of's message."""
    return _run(_compile(t), {})


def _compile(t: Term) -> list:
    """t's code, from one fold whose hooks make type_of's checks in its
    post-order and whose environment maps bound names to their types.
    The code is post-order: a variable's name, a constant's element,
    (type, binder, body code) for an abstraction, None for an application."""
    codes: list[list] = [[]]  # the code of each open abstraction body, innermost last

    def leaf(s: Term, scope: dict[str, SimpleType]) -> SimpleType:
        if isinstance(s, Var):
            codes[-1].append(s.name)
            return check_var(s, scope.get(s.name))
        el = bottom_element(s.ty) if isinstance(s, OmegaConst) else Element(
            Arrow(Arrow(s.ty, s.ty), s.ty), lfp)
        codes[-1].append(el)
        return el.ty

    def bind(s: Lam, scope: dict[str, SimpleType]) -> dict[str, SimpleType]:
        codes.append([])
        return {**scope, s.var: s.var_ty}

    def lam(s: Lam, body_ty: SimpleType) -> SimpleType:
        body = codes.pop()
        codes[-1].append((ty := Arrow(s.var_ty, body_ty), s.var, body))
        return ty

    def app(s: App, fun_ty: SimpleType, arg_ty: SimpleType) -> SimpleType:
        codes[-1].append(None)
        return check_app(s, fun_ty, arg_ty)

    fold(t, leaf, lam, app, bind, {})
    return codes[0]


def _run(code: list, env: dict[str, Element]) -> Element:
    """The value of code in env, on one operand stack.  A closure applied
    here runs in place while its caller's ops and env wait in a frame."""
    stack: list[Element] = []
    frame = None  # the caller's (ops, env, frame); None for the outermost code
    ops = iter(code)
    while True:
        for op in ops:
            if op is None:
                arg, fun = stack.pop(), stack.pop()
                fn = fun._fn
                if fn.__class__ is tuple:
                    var, body, closed = fn
                    frame = ops, env, frame
                    ops, env = iter(body), {**closed, var: arg}
                    break
                stack.append(fun.apply(arg))
            elif op.__class__ is str:
                stack.append(env[op])
            elif op.__class__ is tuple:
                ty, var, body = op
                stack.append(Element(ty, (var, body, env)))
            else:
                stack.append(op)
        else:
            if frame is None:
                return stack[0]
            ops, env, frame = frame


# ---------------------------------------------------------------------------
# Test and probe elements.  test_t(s) applies its argument to one probe
# per argument type; probe_s(s) answers the conjunction of the tests of
# the arguments it receives.  At ground type the test is the identity
# and the probe is top.  The head test replaces every probe by the top
# element, which weakens the test to head availability.

def _make_test(ty: SimpleType, probe: Callable[[SimpleType], Element]) -> Element:
    probes = [probe(a) for a in argument_types(ty)]
    return _on_arguments(Arrow(ty, GROUND),
                         lambda args: functools.reduce(Element.apply, probes, args[0]).flag)


@functools.cache
def test_t(ty: SimpleType) -> Element:
    """The normal-form test at ty, an element of type ty -> o."""
    return _make_test(ty, probe_s)


@functools.cache
def head_test_t(ty: SimpleType) -> Element:
    """The head-form test at ty: apply to top elements."""
    return _make_test(ty, top_element)


@functools.cache
def probe_s(ty: SimpleType) -> Element:
    """The probe at ty, an element of the domain at ty."""
    return _on_arguments(ty, lambda args: all(
        test_t(a).apply(x).flag for a, x in zip(argument_types(ty), args)))


def render_element(el: Element) -> str:
    """Nested table over the canonical argument domains; bot/top at ground.

    It forces the whole value, so a table with more points, height(el.ty),
    than the size limit raises DomainTooLarge before anything is forced."""
    if height(el.ty) > _default_size_limit:
        raise DomainTooLarge(el.ty, f"more than {_default_size_limit}")
    return _render(el.ty, [el.mask()])[0]


def render_domain(dom: Domain) -> list[str]:
    """Every element's rendering, in canonical order."""
    return _render(dom.ty, dom.masks)


def _render(ty: SimpleType, masks: Sequence[int]) -> list[str]:
    """The renderings of masks at ty, one level of table at a time.

    Going down, each level splits its tables into one column of
    sub-tables per position, and the next level renders their distinct
    masks; the ground level renders as bot/top.  Going back up, each
    column maps to the strings of the level below, and a row joins them.
    """
    levels = []  # (masks, columns) per level, the top first
    width = height(ty)
    for a in argument_types(ty):
        n = len(enumerate_domain(a))
        width //= n
        low = (1 << width) - 1
        columns = [[m >> width * k & low for m in masks] for k in reversed(range(n))]
        levels.append((masks, columns))
        masks = list(set().union(*columns))
    strings = ["top" if m else "bot" for m in masks]
    while levels:
        up, columns = levels.pop()
        text = dict(zip(masks, strings)).__getitem__
        strings = ["[" + ", ".join(row) + "]"
                   for row in zip(*[list(map(text, column)) for column in columns])]
        masks = up
    return strings


def dump_domain(dom: Domain) -> str:
    """Line-oriented dump: type, size, elements in canonical order, covers."""
    lines = [f"type {type_to_str(dom.ty)}", f"size {len(dom)}"]
    lines += [f"element {i} {r}" for i, r in enumerate(render_domain(dom))]
    lines += [f"cover {i} {j}" for i, j in dom.covers()]
    return "\n".join(lines) + "\n"


__all__ = [
    "DEFAULT_SIZE_LIMIT",
    "Domain",
    "DomainTooLarge",
    "Element",
    "FixpointInvariantError",
    "bottom_element",
    "cardinality",
    "clear_domain_cache",
    "default_size_limit",
    "dump_domain",
    "enumerate_domain",
    "eval_term",
    "head_test_t",
    "height",
    "lfp",
    "probe_s",
    "render_domain",
    "render_element",
    "set_default_size_limit",
    "test_t",
    "top_element",
]

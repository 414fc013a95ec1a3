"""A small untyped normal-order reducer, independent of yflow.

It reads the benchmark's own surface syntax (type annotations are
skipped, numerals #k{t} become Church numerals) into de Bruijn terms
and reduces leftmost-outermost, unfolding Y f to f (Y f).  Within a
step budget it can confirm that a term has a normal form, or a head
normal form, free of constants; it can never refute one, so a
negative answer only means the budget ran out.
"""

from __future__ import annotations

import re

# Terms: ("var", index) | ("lam", body) | ("app", fun, arg) | ("y",) | ("omega",)
_TOKEN = re.compile(r"\s*(?:(\\)|(\()|(\))|#(\d+)\{|(Y|Omega)\{|([A-Za-z_][A-Za-z0-9_']*))")


def _skip_braced(text: str, pos: int) -> int:
    """pos is just past an opening brace; return the index past its match."""
    depth = 1
    while depth:
        c = text[pos]
        depth += (c == "{") - (c == "}")
        pos += 1
    return pos


def parse(text: str):
    pos, term = _parse_term(text, 0, [])
    if text[pos:].strip():
        raise ValueError(f"trailing input at {pos}")
    return term


def _church(k: int):
    body = ("var", 0)
    for _ in range(k):
        body = ("app", ("var", 1), body)
    return ("lam", ("lam", body))


def _parse_term(text, pos, scope):
    m = _TOKEN.match(text, pos)
    if m and m.group(1):
        name_end = text.index(":", m.end())
        name = text[m.end():name_end].strip()
        body_start = text.index(".", name_end) + 1
        pos, body = _parse_term(text, body_start, [name] + scope)
        return pos, ("lam", body)
    pos, fun = _parse_atom(text, pos, scope)
    while True:
        m = _TOKEN.match(text, pos)
        if not m or m.group(1) or m.group(3):
            return pos, fun
        pos, arg = _parse_atom(text, pos, scope)
        fun = ("app", fun, arg)


def _parse_atom(text, pos, scope):
    m = _TOKEN.match(text, pos)
    if m is None:
        raise ValueError(f"unexpected input at {pos}: {text[pos:pos + 20]!r}")
    if m.group(2):
        pos, term = _parse_term(text, m.end(), scope)
        close = _TOKEN.match(text, pos)
        if not (close and close.group(3)):
            raise ValueError(f"missing ')' at {pos}")
        return close.end(), term
    if m.group(4) is not None:
        return _skip_braced(text, m.end()), _church(int(m.group(4)))
    if m.group(5):
        end = _skip_braced(text, m.end())
        return end, ("y",) if m.group(5) == "Y" else ("omega",)
    if m.group(6):
        return m.end(), ("var", scope.index(m.group(6)))
    raise ValueError(f"unexpected token at {pos}")


def _shift(t, d, cutoff=0):
    tag = t[0]
    if tag == "var":
        return ("var", t[1] + d) if t[1] >= cutoff else t
    if tag == "lam":
        return ("lam", _shift(t[1], d, cutoff + 1))
    if tag == "app":
        return ("app", _shift(t[1], d, cutoff), _shift(t[2], d, cutoff))
    return t


def _subst(t, s, depth=0):
    """t[0 := s] for the body of an abstraction, lowering the rest."""
    tag = t[0]
    if tag == "var":
        i = t[1]
        if i == depth:
            return _shift(s, depth)
        return ("var", i - 1) if i > depth else t
    if tag == "lam":
        return ("lam", _subst(t[1], s, depth + 1))
    if tag == "app":
        return ("app", _subst(t[1], s, depth), _subst(t[2], s, depth))
    return t


class _OutOfFuel(Exception):
    pass


class Reducer:
    def __init__(self, fuel: int):
        self.fuel = fuel

    def _tick(self):
        self.fuel -= 1
        if self.fuel < 0:
            raise _OutOfFuel

    def whnf(self, t):
        """Weak head normal form: contract head redexes only."""
        while True:
            spine = []  # arguments, last one first
            while t[0] == "app":
                spine.append(t[2])
                t = t[1]
            if spine and t[0] == "lam":
                self._tick()
                t = _subst(t[1], spine.pop())
            elif spine and t[0] == "y":
                self._tick()
                f = spine.pop()
                t = ("app", f, ("app", ("y",), f))
            else:
                for arg in reversed(spine):
                    t = ("app", t, arg)
                return t
            for arg in reversed(spine):
                t = ("app", t, arg)

    def head_normal(self, t):
        """Head normal form: under abstractions, reduce until a head rests."""
        binders = 0
        while True:
            t = self.whnf(t)
            if t[0] != "lam":
                break
            t = t[1]
            binders += 1
        head = t
        while head[0] == "app":
            head = head[1]
        return binders, head, t

    def normal(self, t):
        binders, _, t = self.head_normal(t)
        args = []
        while t[0] == "app":
            args.append(self.normal(t[2]))
            t = t[1]
        for arg in reversed(args):
            t = ("app", t, arg)
        for _ in range(binders):
            t = ("lam", t)
        return t


def _has_constant(t) -> bool:
    stack = [t]
    while stack:
        s = stack.pop()
        if s[0] in ("y", "omega"):
            return True
        stack.extend(s[1:] if s[0] in ("lam", "app") else ())
    return False


def confirms(text: str, kind: str, fuel: int = 20_000) -> bool:
    """True when reduction reaches a constant-free (head) normal form of
    the closed term within fuel contractions."""
    reducer = Reducer(fuel)
    try:
        term = parse(text)
        if kind == "hnf":
            _, head, _ = reducer.head_normal(term)
            return head[0] == "var"
        return not _has_constant(reducer.normal(term))
    except (_OutOfFuel, RecursionError):
        return False

"""Checking that terms define number-theoretic functions, and the
elimination pipeline that turns recursive definitions into pure ones.

A function table names the numeral parameter types of the arguments and
the result, a reference mapping from argument tuples to expected values
(None meaning the term should have no normal form there), and the sample
tuples to try.  check_defines applies the candidate term to literal
numerals, decides normalization semantically, normalizes under the
certificate and decodes the result.

The pipeline stages a recursive definition through truncation, bottom
expansion and bottom elimination, then replays the same table against
the resulting pure term.  Each stage failure is reported with the stage
name attached.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable

from .analysis import certified_normalize, tilde_Y
from .parser import parse_term, parse_type
from .printer import term_to_str
from .reduction import assured_normalize, decode_numeral, eliminate_omega, term_size
from .terms import (
    App,
    Lam,
    Term,
    TypingError,
    Var,
    church_numeral,
    contains_omega,
    contains_y,
    tilde_omega_map,
    type_of,
    y_tilde,
)
from .types import Arrow, SimpleType, arrow, numeral_type, type_to_str


@dataclass(frozen=True)
class FunctionSpec:
    """A finite table describing a numeric function to check against."""

    name: str
    arg_alphas: tuple[SimpleType, ...]
    result_alpha: SimpleType
    reference: Callable[..., int | None]
    samples: tuple[tuple[int, ...], ...]

    @staticmethod
    def make(name: str, arg_alphas: tuple[SimpleType, ...], result_alpha: SimpleType,
             reference: Callable[..., int | None],
             samples: tuple[tuple[int, ...], ...] | None = None) -> "FunctionSpec":
        if samples is None:
            samples = default_samples(len(arg_alphas))
        return FunctionSpec(name, tuple(arg_alphas), result_alpha, reference,
                            tuple(tuple(s) for s in samples))

    def expected_type(self) -> SimpleType:
        return arrow([numeral_type(a) for a in self.arg_alphas],
                     numeral_type(self.result_alpha))


def default_samples(k: int) -> tuple[tuple[int, ...], ...]:
    """The grid {0..4}^k in lexicographic order."""
    return tuple(itertools.product(range(5), repeat=k))


@dataclass(frozen=True)
class SampleRow:
    args: tuple[int, ...]
    expected: int | None
    observed: str  # a decimal numeral, "no-normal-form" or "not-a-numeral"
    decoded: int | None
    ok: bool


@dataclass(frozen=True)
class DefinabilityVerdict:
    name: str
    term_type: SimpleType
    rows: tuple[SampleRow, ...]
    consistent: bool
    witness: SampleRow | None  # first failing row, if any

    def render_table(self) -> str:
        k = len(self.rows[0].args) if self.rows else 0
        headers = [f"n{i + 1}" for i in range(k)] + ["expected", "observed", "ok"]
        body = [
            [str(a) for a in r.args]
            + ["_" if r.expected is None else str(r.expected), r.observed,
               "yes" if r.ok else "NO"]
            for r in self.rows
        ]
        widths = [max(len(h), *(len(row[c]) for row in body)) if body else len(h)
                  for c, h in enumerate(headers)]
        def line(cells: list[str]) -> str:
            return "  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip()
        out = [line(headers), line(["-" * w for w in widths])]
        out.extend(line(row) for row in body)
        return "\n".join(out)

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "type": type_to_str(self.term_type),
            "consistent": self.consistent,
            "rows": [
                {"args": list(r.args), "expected": r.expected,
                 "observed": r.observed, "ok": r.ok}
                for r in self.rows
            ],
        }


def check_defines(term: Term, spec: FunctionSpec) -> DefinabilityVerdict:
    """Run the candidate term against every sample of the table."""
    ty = type_of(term, {})
    want = spec.expected_type()
    if ty != want:
        raise TypingError(
            f"term has type {type_to_str(ty)} but the table for "
            f"{spec.name!r} needs {type_to_str(want)}", term)
    rows = []
    for sample in spec.samples:
        applied = term
        for m, a in zip(sample, spec.arg_alphas):
            applied = App(applied, church_numeral(m, a))
        expected = spec.reference(*sample)
        nf = certified_normalize(applied)
        if nf is None:
            row = SampleRow(sample, expected, "no-normal-form", None,
                            ok=expected is None)
        else:
            decoded = decode_numeral(nf, spec.result_alpha)
            observed = str(decoded) if decoded is not None else "not-a-numeral"
            row = SampleRow(sample, expected, observed, decoded,
                            ok=expected is not None and decoded == expected)
        rows.append(row)
    witness = next((r for r in rows if not r.ok), None)
    return DefinabilityVerdict(name=spec.name, term_type=ty, rows=tuple(rows),
                               consistent=witness is None, witness=witness)


def extended_poly(name: str, alpha: SimpleType, *, k: int | None = None,
                  i: int | None = None, arity: int | None = None) -> Term:
    """Stock numeric combinators at parameter type alpha.

    zero, succ, add, mul need no extras; const takes k (value) and an
    optional arity; proj takes i (1-based) and arity; ifzero is the
    three-place conditional D with D 0 a b = a and D (m+1) a b = b,
    built so that it types uniformly at every parameter type.
    """
    w = type_to_str(numeral_type(alpha))
    a = type_to_str(alpha)
    step = type_to_str(Arrow(alpha, alpha))
    if name == "zero":
        return church_numeral(0, alpha)
    if name == "succ":
        return parse_term(f"\\n:{w}. \\f:{step}. \\x:{a}. f (n f x)")
    if name == "add":
        return parse_term(f"\\m:{w}. \\n:{w}. \\f:{step}. \\x:{a}. m f (n f x)")
    if name == "mul":
        return parse_term(f"\\m:{w}. \\n:{w}. \\f:{step}. m (n f)")
    if name == "ifzero":
        # n (\z. b f x) (a f x): zero iterations land on the a branch,
        # one or more discard the iterate and land on b.
        return parse_term(
            f"\\n:{w}. \\a:{w}. \\b:{w}. \\f:{step}. \\x:{a}. "
            f"n (\\z:{a}. b f x) (a f x)")
    if name == "const":
        if k is None:
            raise ValueError("const needs k")
        body: Term = church_numeral(k, alpha)
        for j in range(arity or 0, 0, -1):
            body = Lam(f"n{j}", numeral_type(alpha), body)
        return body
    if name == "proj":
        if i is None or arity is None:
            raise ValueError("proj needs i and arity")
        if not 1 <= i <= arity:
            raise ValueError(f"projection index {i} out of range 1..{arity}")
        body = Var(f"n{i}", numeral_type(alpha))
        for j in range(arity, 0, -1):
            body = Lam(f"n{j}", numeral_type(alpha), body)
        return body
    raise ValueError(f"unknown combinator {name!r}")


class PipelineError(Exception):
    def __init__(self, stage: str, message: str):
        super().__init__(f"[{stage}] {message}")
        self.stage = stage


@dataclass(frozen=True)
class PipelineResult:
    name: str
    stages: tuple[tuple[str, Term], ...]
    source: DefinabilityVerdict
    target: DefinabilityVerdict
    holds: bool  # source consistent implies target consistent, rows agreeing

    def render(self) -> str:
        out = [f"pipeline for {self.name}"]
        for label, t in self.stages:
            out.append(f"  {label}: size {term_size(t)}")
        out.append("source term:")
        out.append(_indent(self.source.render_table()))
        out.append("pure term after elimination:")
        out.append(_indent(self.target.render_table()))
        out.append(f"conservativity {'holds' if self.holds else 'FAILS'} "
                   f"on these samples")
        return "\n".join(out)

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "stages": [
                {"label": label, "size": term_size(t), "term": term_to_str(t)}
                for label, t in self.stages
            ],
            "source": self.source.to_json(),
            "target": self.target.to_json(),
            "holds": self.holds,
        }


def _indent(text: str) -> str:
    return "\n".join("  " + line for line in text.splitlines())


def conservativity_pipeline(term: Term, spec: FunctionSpec) -> PipelineResult:
    """Truncate, expand bottoms to ground, eliminate them, re-check.

    The outcome demonstrates, for this table, that the recursive
    definition and the extracted pure term define the same values.
    """
    def stage(label: str, thunk: Callable[[], object]):
        try:
            return thunk()
        except Exception as e:
            raise PipelineError(label, str(e)) from e

    ty = stage("type-check", lambda: type_of(term, {}))
    if ty != spec.expected_type():
        raise PipelineError(
            "type-check",
            f"term has type {type_to_str(ty)} but the table needs "
            f"{type_to_str(spec.expected_type())}")
    truncated = stage("truncate", lambda: tilde_Y(term))
    expanded = stage("expand-bottoms", lambda: tilde_omega_map(truncated))
    pure = stage("eliminate-bottoms",
                 lambda: eliminate_omega(expanded,
                                         numeral_args=len(spec.arg_alphas)))
    if contains_omega(pure) or contains_y(pure):
        raise PipelineError("eliminate-bottoms",
                            "output still mentions a constant")
    source = stage("check-source", lambda: check_defines(term, spec))
    target = stage("check-target", lambda: check_defines(pure, spec))
    agree = all(s.observed == t.observed
                for s, t in zip(source.rows, target.rows))
    holds = (not source.consistent) or (target.consistent and agree)
    return PipelineResult(name=spec.name,
                          stages=(("source", term), ("truncated", truncated),
                                  ("expanded", expanded), ("pure", pure)),
                          source=source, target=target, holds=holds)


@dataclass(frozen=True)
class ProbeReport:
    outcome: str  # "zero", "omega" or "other"
    claimed_first_zero: int
    depth: int
    alpha: SimpleType
    normal_form: Term

    @property
    def bound_violated(self) -> bool:
        """Whether the search succeeded below the claimed budget.

        Never true when the claim about the tested function is honest:
        a search over 0..depth-1 cannot find a zero that only appears
        at claimed_first_zero >= depth.
        """
        return self.outcome == "zero" and self.depth < self.claimed_first_zero

    def render(self) -> str:
        note = " (claimed bound violated)" if self.bound_violated else ""
        return (f"depth-{self.depth} search, first zero claimed at "
                f"{self.claimed_first_zero}: {self.outcome}{note}\n"
                f"normal form: {term_to_str(self.normal_form)}")

    def to_json(self) -> dict:
        return {
            "outcome": self.outcome,
            "claimed_first_zero": self.claimed_first_zero,
            "depth": self.depth,
            "alpha": type_to_str(self.alpha),
            "bound_violated": self.bound_violated,
            "normal_form": term_to_str(self.normal_form),
        }


def recursion_depth_probe(tested: Term, m: int, alpha: SimpleType,
                          depth: int) -> ProbeReport:
    """Search for a zero of the tested function by depth-bounded recursion.

    The tested term must be a fixed-point-free closed term of type
    w -> w at parameter alpha.  The probe iterates x from 0 upward,
    stopping with numeral 0 as soon as tested(x) is zero; the recursion
    is a truncated unfolding of the given depth, so an unsuccessful
    search leaves a bottom constant in the normal form (the "omega"
    outcome).  m annotates where the tested function is first expected
    to be zero; when the annotation is honest, a search of depth < m
    can never report "zero", which is the obstruction this probe
    demonstrates.
    """
    w = numeral_type(alpha)
    ew = Arrow(w, w)
    ty = type_of(tested, {})
    if ty != ew:
        raise TypingError(
            f"probe needs a term of type {type_to_str(ew)}, got {type_to_str(ty)}",
            tested)
    if contains_y(tested):
        raise ValueError("probe needs a fixed-point-free term")
    ifz = extended_poly("ifzero", alpha)
    succ = extended_poly("succ", alpha)
    zero = church_numeral(0, alpha)
    f = Var("f", ew)
    x = Var("x", w)
    body = App(App(App(ifz, App(tested, x)), zero), App(f, App(succ, x)))
    recur = Lam("f", ew, Lam("x", w, body))
    probe = App(App(y_tilde(depth, ew), recur), zero)
    nf = assured_normalize(probe)
    if decode_numeral(nf, alpha) == 0:
        outcome = "zero"
    elif contains_omega(nf):
        outcome = "omega"
    else:
        outcome = "other"
    return ProbeReport(outcome=outcome, claimed_first_zero=m, depth=depth,
                       alpha=alpha, normal_form=nf)


def load_spec_file(path: str) -> tuple[FunctionSpec, Term]:
    """Parse a function-table file.

    Line oriented; "--" starts a comment.  Required entries:

        name NAME
        args T1, T2, ...      (may be empty for a constant)
        result T
        term SURFACE-SYNTAX
        sample m1 m2 ... -> m    (or -> _ for "no normal form")

    The argument and result types are the numeral parameter types, not
    the numeral types themselves.  Sample values are runs of ASCII
    digits, and no arguments are sampled twice.
    """
    name = None
    arg_alphas: tuple[SimpleType, ...] | None = None
    result_alpha: SimpleType | None = None
    term: Term | None = None
    table: dict[tuple[int, ...], tuple[int | None, int]] = {}  # args -> (value, line), file order
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            text = raw.split("--", 1)[0].strip()
            if not text:
                continue
            head, _, rest = text.partition(" ")
            rest = rest.strip()
            try:
                if head == "name":
                    name = rest
                elif head == "args":
                    arg_alphas = tuple(
                        parse_type(s) for s in rest.split(",") if s.strip()
                    ) if rest else ()
                elif head == "result":
                    result_alpha = parse_type(rest)
                elif head == "term":
                    term = parse_term(rest)
                elif head == "sample":
                    left, sep, right = rest.partition("->")
                    if not sep:
                        raise ValueError("sample needs '->'")
                    *args, value = *left.split(), right.strip()
                    for w in args if value == "_" else (*args, value):
                        if not (w.isascii() and w.isdigit()):
                            raise ValueError("numerals are non-negative" if w[:1] == "-" else
                                             f"expected a run of ASCII digits, found {w!r}")
                    args, value = tuple(map(int, args)), None if value == "_" else int(value)
                    if args in table:
                        raise ValueError(f"sample {args} repeats an earlier line")
                    table[args] = value, lineno
                else:
                    raise ValueError(f"unknown entry {head!r}")
            except Exception as e:
                raise ValueError(f"{path}:{lineno}: {e}") from e
    missing = [k for k, v in [("name", name), ("args", arg_alphas),
                              ("result", result_alpha), ("term", term)]
               if v is None]
    if missing:
        raise ValueError(f"{path}: missing entries: {', '.join(missing)}")
    if not table:
        raise ValueError(f"{path}: no sample lines")
    k = len(arg_alphas)
    for args, (_, lineno) in table.items():
        if len(args) != k:
            raise ValueError(f"{path}:{lineno}: sample {args} has {len(args)} values, "
                             f"the table takes {k}")
    spec = FunctionSpec.make(name, arg_alphas, result_alpha,
                             lambda *xs: table[xs][0], samples=tuple(table))
    return spec, term


__all__ = [
    "DefinabilityVerdict",
    "FunctionSpec",
    "PipelineError",
    "PipelineResult",
    "ProbeReport",
    "SampleRow",
    "check_defines",
    "conservativity_pipeline",
    "default_samples",
    "extended_poly",
    "load_spec_file",
    "recursion_depth_probe",
]

"""Command line front end for the workbench.

Every subcommand is registered through _command, or _term_command, which
adds the [TERM] argument and --file; so each takes --json and runs under
guarded.  Each prints its result through _report, which builds only the
form asked for: a sorted JSON record or the text.

Exit status: 0 on success, 1 when a flagged analysis answers negatively
(no normal form, improper, refuted table, failed pipeline, fuel
exhausted), 2 on any error.  Every failure path names the stage that
failed; with --json a machine-readable error record also goes to
stdout.  No term or type depth costs a Python frame; a RecursionError,
from deeply nested fixed-point solves, fails at stage input.
"""

from __future__ import annotations

import functools
import json
import sys

import click

from .analysis import (
    AnalysisInvariantError,
    certified_normalize,
    has_head_normal_form,
    has_normal_form,
    tilde_Y,
)
from .harness import (
    PipelineError,
    check_defines,
    conservativity_pipeline,
    load_spec_file,
    recursion_depth_probe,
)
from .parser import ParseError, _parse_typed, parse_term, parse_type
from .printer import term_to_str
from .reduction import (
    DEFAULT_FUEL,
    BlackHoleError,
    Normal,
    classify_properness,
    eliminate_omega,
    long_normal_form,
    normalize,
    term_size,
)
from .semantics import (
    DomainTooLarge,
    FixpointInvariantError,
    default_size_limit,
    dump_domain,
    enumerate_domain,
    eval_term,
    height,
    render_domain,
    render_element,
    set_default_size_limit,
)
from .terms import TypingError, tilde_omega_map
from .types import type_to_str


def _echo(message: str, err: bool = False, nl: bool = True) -> None:
    """click.echo to the stream that stdout or stderr is now.

    Without a file, click.echo caches a wrapper per stream that keeps the
    stream alive, so every in-process invocation (CliRunner) would leak
    its captured output; get_text_stream resolves the same wrapper uncached.
    """
    stream = click.get_text_stream("stderr" if err else "stdout", errors=None)
    click.echo(message, file=stream, nl=nl)


def _fail(stage: str, message: str, as_json: bool):
    if as_json:
        _echo(json.dumps({"error": message, "stage": stage}, sort_keys=True))
    _echo(f"error [{stage}]: {message}", err=True)
    sys.exit(2)


def guarded(fn):
    """Translate module errors into attributed exit-2 failures."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        as_json = bool(kwargs.get("as_json"))
        try:
            return fn(*args, **kwargs)
        except ParseError as e:
            _fail("parse", str(e), as_json)
        except TypingError as e:
            _fail("typing", str(e), as_json)
        except DomainTooLarge as e:
            _fail("semantics", f"undecided at the configured size limit: {e}", as_json)
        except PipelineError as e:
            _fail(e.stage, str(e), as_json)
        except (AnalysisInvariantError, FixpointInvariantError) as e:
            _fail("invariant", str(e), as_json)
        except RecursionError:
            _fail("input", "term nesting exceeds the interpreter limit", as_json)
        except (ValueError, RuntimeError, OSError) as e:
            _fail("input", str(e), as_json)

    return wrapper


_TERM = (click.argument("term_text", metavar="[TERM]", required=False),
         click.option("--file", "-f", "file", type=click.File("r"),
                      help="Read the term from a file instead."))
_SUGAR = click.option("--no-sugar", is_flag=True, help="Print numerals structurally.")
_JSON = click.option("--json", "as_json", is_flag=True, help="Emit a structured record.")
_TYPE = click.argument("type_text", metavar="TYPE")
_SPECFILE = click.argument("specfile", type=click.Path(exists=True, dir_okay=False))


def _read_term(term_text, file, typed=False):
    """The term given inline or in the file; with typed, (term, type)."""
    if (term_text is None) == (file is None):
        raise click.UsageError("give a term inline or via --file, not both")
    text = file.read() if file is not None else term_text
    return _parse_typed(text) if typed else parse_term(text)


def _report(as_json: bool, record, text, ok: bool = True) -> None:
    """Print record() as sorted JSON or text(), then exit 1 unless ok.

    Both are called only when chosen, so only the requested form is built."""
    _echo(json.dumps(record(), sort_keys=True) if as_json else text())
    if not ok:
        sys.exit(1)


def _printed(t, no_sugar: bool):
    """The record and text callables of a result term: {"term", "size"} or the term."""
    def text():
        return term_to_str(t, sugar=not no_sugar)
    return lambda: {"term": text(), "size": term_size(t)}, text


@click.group()
@click.option("--size-limit", type=click.IntRange(min=2), envvar="YFLOW_SIZE_LIMIT", default=None,
              metavar="N", help="Domain enumeration bound for this invocation "
              "(env YFLOW_SIZE_LIMIT).")
@click.pass_context
def main(ctx, size_limit):
    """Workbench for simply typed lambda terms with recursion and bottom
    constants: normalization, finite-domain evaluation, decision
    procedures and numeral definability checks."""
    if size_limit is not None:
        # the bound is process state: restore it when the command ends, so
        # an in-process caller's next invocation starts from its own
        ctx.call_on_close(functools.partial(set_default_size_limit, default_size_limit()))
        set_default_size_limit(size_limit)


def _command(name: str, *params):
    """Register a guarded subcommand with the parameter decorators params, then --json."""
    def register(fn):
        fn = guarded(fn)
        for param in reversed((*params, _JSON)):
            fn = param(fn)
        return main.command(name)(fn)
    return register


def _term_command(name: str, *params):
    """_command with [TERM] and --file before `params`."""
    return _command(name, *_TERM, *params)


@_term_command("parse", _SUGAR)
def parse_cmd(term_text, file, no_sugar, as_json):
    """Parse a term, print its canonical rendering."""
    t, ty = _read_term(term_text, file, typed=True)
    record, text = _printed(t, no_sugar)
    _report(as_json, lambda: {**record(), "type": type_to_str(ty)}, text)


@_term_command("typecheck")
def typecheck_cmd(term_text, file, as_json):
    """Print a term's type; its prefix types free variables."""
    _, ty = _read_term(term_text, file, typed=True)
    _report(as_json, lambda: {"type": type_to_str(ty)}, lambda: type_to_str(ty))


@_term_command("normalize",
               click.option("--fuel", type=click.IntRange(min=0), default=DEFAULT_FUEL,
                            show_default=True,
                            help="Contraction budget: beta steps and Y unfoldings."),
               _SUGAR)
def normalize_cmd(term_text, file, fuel, no_sugar, as_json):
    """Reduce to beta-eta normal form within the fuel budget.

    Exit 1 when the budget runs out or the term has no normal form."""
    t = _read_term(term_text, file)
    try:
        outcome = normalize(t, fuel=fuel)
    except BlackHoleError as e:
        reason, message = "black hole", f"no normal form: {e}"
    else:
        if isinstance(outcome, Normal):
            nf = term_to_str(outcome.term, sugar=not no_sugar)
            _report(as_json, lambda: {"normalized": True, "steps": outcome.steps, "term": nf},
                    lambda: nf)
            return
        reason, message = "fuel exhausted", f"fuel exhausted after {fuel} steps"
    if not as_json:
        _echo(message, err=True)
        sys.exit(1)
    _report(True, lambda: {"normalized": False, "fuel": fuel, "reason": reason}, None, False)


@_term_command("long-nf", _SUGAR)
def long_nf_cmd(term_text, file, no_sugar, as_json):
    """Print the long (eta-expanded) normal form of a fixed-point-free term."""
    _report(as_json, *_printed(long_normal_form(_read_term(term_text, file)), no_sugar))


@_term_command("proper")
def proper_cmd(term_text, file, as_json):
    """Check whether the long normal form mentions a bottom constant.

    Exit 1 when it does."""
    nf = long_normal_form(_read_term(term_text, file))
    verdict = classify_properness(nf)
    _report(as_json, lambda: {"proper": bool(verdict),
                              "path": None if verdict else verdict.render_path(),
                              "long_normal_form": term_to_str(nf)},
            lambda: "proper" if verdict else f"improper at {verdict.render_path()}",
            bool(verdict))


@_term_command("eval")
def eval_cmd(term_text, file, as_json):
    """Evaluate a closed term and print its domain element."""
    t = _read_term(term_text, file)
    value = eval_term(t)
    _report(as_json, lambda: {"value": render_element(value), "type": type_to_str(value.ty)},
            lambda: render_element(value))


@_command("height", _TYPE)
def height_cmd(type_text, as_json):
    """Longest strict ascending chain length in the domain at TYPE."""
    ty = parse_type(type_text)
    h = height(ty)
    _report(as_json, lambda: {"type": type_to_str(ty), "height": h}, lambda: str(h))


@_command("domain", _TYPE)
def domain_cmd(type_text, as_json):
    """Dump the domain at TYPE: elements in canonical order plus covers."""
    ty = parse_type(type_text)
    dom = enumerate_domain(ty)
    if not as_json:
        _echo(dump_domain(dom), nl=False)
        return
    _report(True, lambda: {"type": type_to_str(ty), "size": len(dom),
                           "elements": render_domain(dom), "covers": dom.covers()}, None)


def _decide(term_text, file, as_json, decide, noun: str) -> None:
    """Print the verdict of decide on the term; exit 1 when negative."""
    t = _read_term(term_text, file)
    report = decide(t)
    _report(as_json, report.to_json,
            lambda: f"{noun} exists" if report.verdict else f"no {noun}", report.verdict)


@_term_command("decide-nf")
def decide_nf_cmd(term_text, file, as_json):
    """Decide whether a closed term has a beta-eta normal form.

    Exit 1 on a negative verdict."""
    _decide(term_text, file, as_json, has_normal_form, "normal form")


@_term_command("decide-hnf")
def decide_hnf_cmd(term_text, file, as_json):
    """Decide whether a closed term has a head normal form.

    Exit 1 on a negative verdict."""
    _decide(term_text, file, as_json, has_head_normal_form, "head normal form")


@_term_command("certify-nf", _SUGAR)
def certify_nf_cmd(term_text, file, no_sugar, as_json):
    """Decide normalizability and print the extracted normal form.

    Exit 1 when no normal form exists."""
    t = _read_term(term_text, file)
    report = has_normal_form(t)
    nf = certified_normalize(t, report)
    text = "no normal form" if nf is None else term_to_str(nf, sugar=not no_sugar)
    _report(as_json, lambda: {**report.to_json(), "normal_form": None if nf is None else text},
            lambda: text, nf is not None)


@_term_command("tilde-y", _SUGAR)
def tilde_y_cmd(term_text, file, no_sugar, as_json):
    """Replace fixed points by their height-deep truncated unfoldings."""
    _report(as_json, *_printed(tilde_Y(_read_term(term_text, file)), no_sugar))


@_term_command("tilde-omega", _SUGAR)
def tilde_omega_cmd(term_text, file, no_sugar, as_json):
    """Expand higher-type bottom constants to ground ones."""
    _report(as_json, *_printed(tilde_omega_map(_read_term(term_text, file)), no_sugar))


@_term_command("eliminate-omega",
               click.option("--numeral-args", type=int, default=None, metavar="K",
                            help="Read the type as K numeral arguments before the "
                                 "numeral result (default: as many as possible)."),
               _SUGAR)
def eliminate_omega_cmd(term_text, file, numeral_args, no_sugar, as_json):
    """Rewrite a ground-bottom term at numeral type into a pure one."""
    out = eliminate_omega(_read_term(term_text, file), numeral_args=numeral_args)
    _report(as_json, *_printed(out, no_sugar))


@_command("check-defines", _SPECFILE)
def check_defines_cmd(specfile, as_json):
    """Check a term against a function table file.

    Exit 1 when refuted."""
    spec, term = load_spec_file(specfile)
    verdict = check_defines(term, spec)
    ending = "consistent" if verdict.consistent else f"refuted at {verdict.witness.args}"
    _report(as_json, verdict.to_json, lambda: f"{verdict.render_table()}\n{ending}",
            verdict.consistent)


@_command("pipeline", _SPECFILE)
def pipeline_cmd(specfile, as_json):
    """Truncate, expand and eliminate bottoms, then re-check the table.

    Exit 1 when the extracted pure term fails to match."""
    spec, term = load_spec_file(specfile)
    result = conservativity_pipeline(term, spec)
    _report(as_json, result.to_json, result.render, result.holds)


@_term_command("depth-probe",
               click.option("--first-zero", "-m", type=int, required=True, metavar="M",
                            help="Where the tested function is first claimed to be zero."),
               click.option("--alpha", default="o", show_default=True, metavar="TYPE",
                            help="Numeral parameter type."),
               click.option("--depth", type=int, required=True, help="Unfolding budget."))
def depth_probe_cmd(term_text, file, first_zero, alpha, depth, as_json):
    """Run the depth-bounded zero search against a tested function."""
    t = _read_term(term_text, file)
    report = recursion_depth_probe(t, first_zero, parse_type(alpha), depth)
    _report(as_json, report.to_json, report.render)


if __name__ == "__main__":
    main()

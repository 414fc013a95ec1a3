"""Command line behavior: outputs, exit codes, error attribution."""

import hashlib
import json
import os
import subprocess
import sys

import click
import pytest
from click.testing import CliRunner

from oracles import oracle_eliminate
from term_corpus import HNF_NOT_NF_WITNESS, WIDE_Y_CONVERGES, WIDE_Y_LOOPS
from yflow.analysis import truncation_depths
from yflow.cli import main
from yflow.parser import parse_term
from yflow.printer import term_to_str
from yflow.semantics import (Element, bottom_element, default_size_limit,
                             set_default_size_limit, top_element)
from yflow.types import GROUND, Arrow


@pytest.fixture(autouse=True)
def _isolate_size_limit():
    # --size-limit mutates module state shared by the whole process.
    saved = default_size_limit()
    yield
    set_default_size_limit(saved)


@pytest.fixture()
def run():
    runner = CliRunner()

    def invoke(*args, **kwargs):
        return runner.invoke(main, list(args), **kwargs)

    return invoke


def test_parse(run):
    r = run("parse", r"\x:o. x")
    assert r.exit_code == 0 and r.output == "\\x:o. x\n"


def test_invocations_release_their_output_streams(run):
    # click.echo's per-stream cache used to keep every captured stdout alive
    import gc
    import io

    def live_text_streams():
        gc.collect()
        return sum(isinstance(o, io.TextIOWrapper) for o in gc.get_objects())

    run("parse", "#1{o}")
    before = live_text_streams()
    for _ in range(20):
        assert run("parse", "#1{o}").exit_code == 0
    assert live_text_streams() - before < 5


def test_parse_json(run):
    r = run("parse", "--json", "#2{o}")
    rec = json.loads(r.output)
    assert rec == {"term": "#2{o}", "size": 7, "type": "(o -> o) -> o -> o"}


def test_parse_no_sugar(run):
    r = run("parse", "--no-sugar", "#2{o}")
    assert r.output == "\\f:o -> o. \\x:o. f (f x)\n"


def test_typecheck(run):
    r = run("typecheck", r"\x:o->o. \y:o. x (x y)")
    assert r.output == "(o -> o) -> o -> o\n"


def test_a_context_prefix_types_free_variables(run):
    for command, out in [("typecheck", "(o -> o) -> o\n"), ("parse", "\\z:o -> o. z y\n")]:
        r = run(command, r"[y:o] \z:o->o. z y")
        assert r.exit_code == 0 and r.output == out, command
    r = run("typecheck", "--json", r"[y:o] \z:o->o. z y")
    assert json.loads(r.stdout) == {"type": "(o -> o) -> o"}


def test_normalize_examples(run):
    r = run("normalize", "--fuel", "100", r"(\x:o. x) Omega{o}")
    assert r.exit_code == 0 and r.output == "Omega{o}\n"
    # readback keeps the outer binder's name; the result is alpha-equal
    # to \y:o. y, which contracting redexes in place would print
    r = run("normalize", r"#2{o} (\y:o. y)")
    assert r.output == "\\x:o. x\n"
    assert parse_term(r.output) == parse_term(r"\y:o. y")


def test_normalize_fuel_exhaustion_exit_code(run):
    # Y{o} (\x:o. x) needs its own value after 2 contractions: a black hole
    r = run("normalize", "--fuel", "10", r"Y{o} (\x:o. x)")
    assert r.exit_code == 1
    assert r.stderr == "no normal form: a shared subterm needs its own value\n"
    assert r.stdout == ""
    r = run("normalize", "--fuel", "10", r"Y{o->o} (\f:o->o. \x:o. f x)")
    assert r.exit_code == 1
    assert r.stderr == "fuel exhausted after 10 steps\n"


def test_normalize_json_records(run):
    r = run("normalize", "--json", r"#2{o} (\y:o. y)")
    assert r.exit_code == 0
    assert json.loads(r.stdout) == {"normalized": True, "steps": 3, "term": "\\x:o. x"}
    r = run("normalize", "--json", "--fuel", "10", r"Y{o} (\x:o. x)")
    assert r.exit_code == 1
    assert json.loads(r.stdout) == {"normalized": False, "fuel": 10, "reason": "black hole"}
    r = run("normalize", "--json", "--fuel", "10", r"Y{o->o} (\f:o->o. \x:o. f x)")
    assert r.exit_code == 1
    assert json.loads(r.stdout) == {"normalized": False, "fuel": 10,
                                    "reason": "fuel exhausted"}


def test_long_nf(run):
    r = run("long-nf", r"\g:(o->o)->o. g")
    assert r.output == "\\g:(o -> o) -> o. \\e2:o -> o. g (\\e1:o. e2 e1)\n"
    r = run("long-nf", "--json", r"\g:(o->o)->o. g")
    assert json.loads(r.output) == {
        "term": "\\g:(o -> o) -> o. \\e2:o -> o. g (\\e1:o. e2 e1)", "size": 8}


def test_proper_and_exit_codes(run):
    assert run("proper", r"\x:o. x").exit_code == 0
    r = run("proper", r"\f:o->o. f Omega{o}")
    assert r.exit_code == 1 and r.output.startswith("improper at")


def test_eval(run):
    r = run("eval", r"\x:o. x")
    assert r.output == "[bot, top]\n"


def test_height(run):
    r = run("height", "(o->o)->(o->o)")
    assert r.output == "6\n"


def test_domain_dump(run):
    r = run("domain", "o->o")
    assert r.output.splitlines() == [
        "type o -> o",
        "size 3",
        "element 0 [bot, bot]",
        "element 1 [bot, top]",
        "element 2 [top, top]",
        "cover 0 1",
        "cover 1 2",
    ]


def test_domain_json_record(run):
    r = run("domain", "--json", "(o->o)->o")
    assert r.exit_code == 0 and json.loads(r.output) == {
        "type": "(o -> o) -> o",
        "size": 4,
        "elements": ["[bot, bot, bot]", "[bot, bot, top]", "[bot, top, top]",
                     "[top, top, top]"],
        "covers": [[0, 1], [1, 2], [2, 3]],
    }


def test_domain_dumps_are_pinned_byte_for_byte(run):
    # sha256 of the whole output, taken before domains were counted first
    for args, digest in [
        (["domain", "--json", "o->o->o->o->o"],
         "e92e7e057a7159c848011aa935e616eb77fb8eac13e0951a6b8e92dff2a0d98c"),
        (["domain", "--json", "(o->o->o)->o->o->o"],
         "fe3e1f79cffaa152a0e51f5323fe7458479e5e7685e42442bdfaf65b8028ffe5"),
        (["domain", "(o->o)->o->o->o"],
         "4d168d30b0cc62c7788af8ab5256ba7fadcafa9e0e0932396e9b418705cb592a"),
    ]:
        r = run(*args)
        assert r.exit_code == 0, args
        assert hashlib.sha256(r.stdout_bytes).hexdigest() == digest, args


def test_an_oversized_domain_fails_as_a_semantics_error(run):
    # 2^621 elements at least: the size bound stops it before any walk
    r = run("domain", "(o->o->o->o->o->o)->o")
    assert r.exit_code == 2
    assert r.stderr.startswith("error [semantics]:")


VERDICT_KEYS = {"kind", "verdict", "test_value", "type", "elapsed_ms"}


def test_decide_nf_negative(run):
    r = run("decide-nf", r"Y{o} (\x:o. x)")
    assert r.exit_code == 1 and r.output == "no normal form\n"


def test_decide_nf_positive_json(run):
    r = run("decide-nf", "--json", "#2{o}")
    rec = json.loads(r.output)
    assert r.exit_code == 0 and rec["verdict"] is True
    assert set(rec) == VERDICT_KEYS


def test_decide_hnf(run):
    r = run("decide-hnf", r"\x:o->o. Y{o->o} (\f:o->o. \y:o. x (f y))")
    assert r.exit_code == 0 and r.output == "head normal form exists\n"
    r = run("decide-hnf", "--json", r"\x:o->o. Y{o->o} (\f:o->o. \y:o. x (f y))")
    rec = json.loads(r.output)
    assert set(rec) == VERDICT_KEYS and rec["kind"] == "hnf"
    assert truncation_depths(HNF_NOT_NF_WITNESS) == {Arrow(GROUND, GROUND): 2}


def test_verdicts_decide_where_heights_are_past_enumeration(run):
    for command in ("decide-nf", "decide-hnf"):
        assert run(command, WIDE_Y_CONVERGES).exit_code == 0
        assert run(command, WIDE_Y_LOOPS).exit_code == 1
    r = run("certify-nf", WIDE_Y_LOOPS)
    assert r.exit_code == 1 and r.output == "no normal form\n"
    r = run("certify-nf", WIDE_Y_CONVERGES)  # certifying needs the height
    assert r.exit_code == 2 and r.stderr.startswith("error [semantics]:")


def test_certify_nf(run):
    r = run("certify-nf", r"Y{o->o} (\f:o->o. \y:o. y)")
    assert r.output == "\\y:o. y\n"
    r = run("certify-nf", r"Y{o} (\x:o. x)")
    assert r.exit_code == 1 and r.output == "no normal form\n"


def test_tilde_y(run):
    r = run("tilde-y", r"Y{o} (\x:o. x)")
    assert r.output == "(\\f:o -> o. f Omega{o}) (\\x:o. x)\n"
    r = run("tilde-y", "--json", r"Y{o} (\x:o. x)")
    assert json.loads(r.output) == {"term": "(\\f:o -> o. f Omega{o}) (\\x:o. x)", "size": 7}


def test_tilde_omega(run):
    r = run("tilde-omega", "Omega{(o->o)->o}")
    assert r.output == "\\x1:o -> o. Omega{o}\n"
    r = run("tilde-omega", "--json", "Omega{(o->o)->o}")
    assert json.loads(r.output) == {"term": "\\x1:o -> o. Omega{o}", "size": 2}


def test_eliminate_omega(run):
    r = run("eliminate-omega", "--numeral-args", "0", r"\f:o->o. \x:o. f Omega{o}")
    assert r.output == "#1{o}\n"
    r = run("eliminate-omega", "--json", "--no-sugar", "--numeral-args", "0",
            r"\f:o->o. \x:o. f Omega{o}")
    assert r.output == '{"size": 5, "term": "\\\\f:o -> o. \\\\x:o. f x"}\n'


def test_file_input(run, tmp_path):
    p = tmp_path / "t.lam"
    p.write_text("-- a numeral\n#3{o}\n")
    r = run("typecheck", "--file", str(p))
    assert r.output == "(o -> o) -> o -> o\n"


def test_inline_and_file_conflict(run, tmp_path):
    p = tmp_path / "t.lam"
    p.write_text("#3{o}\n")
    r = run("typecheck", "--file", str(p), "#3{o}")
    assert r.exit_code == 2


def test_parse_error_attribution(run):
    r = run("parse", r"\x:o. y")
    assert r.exit_code == 2
    assert r.stderr.startswith("error [parse]:")


def test_typing_error_attribution(run):
    r = run("typecheck", r"(\x:o. x) (\y:o. y)")
    assert r.exit_code == 2
    assert r.stderr.startswith("error [typing]:")


def test_json_error_record(run):
    r = run("decide-nf", "--json", r"\x:o. y")
    assert r.exit_code == 2
    rec = json.loads(r.stdout)
    assert rec["stage"] == "parse" and "unbound" in rec["error"]


@pytest.mark.parametrize("name", sorted(main.commands))
def test_every_command_has_the_one_command_shape(run, name):
    command = main.commands[name]
    assert "--json" in [opt for param in command.params for opt in param.opts]
    if "term_text" not in [param.name for param in command.params]:
        return
    required = [arg for param in command.params
                if isinstance(param, click.Option) and param.required
                for arg in (param.opts[0], "0")]
    r = run(name, "--json", *required, "(")
    assert r.exit_code == 2
    rec = json.loads(r.stdout)
    assert set(rec) == {"error", "stage"} and rec["stage"] == "parse"
    assert r.stderr.startswith("error [parse]:")


def test_deep_terms_succeed_and_recursion_errors_fail_as_input(run, monkeypatch):
    # past the interpreter's default recursion limit, which this test
    # keeps: #20000 is that many applications deep, n-fold SUCC nests its
    # closures 2,000 deep at run time, and the spelled-out #2000 nests its
    # parentheses 2,000 deep
    w = "((o->o)->o->o)"
    for command in ["decide-nf", "decide-hnf", "certify-nf", "eval"]:
        r = run(command, f"(\\x:{w}. x) #20000{{o}}")
        assert r.exit_code == 0, (command, r.output)
    succ = f"(\\n:{w}. \\f:o->o. \\x:o. f (n f x))"
    spelled = run("parse", "--no-sugar", "#2000{o}").stdout
    for text in (f"#2000{{{w}}} {succ} #0{{o}}", spelled):
        for command, out in [("decide-nf", "normal form exists\n"),
                             ("decide-hnf", "head normal form exists\n"),
                             ("eval", "[[bot, bot], [bot, top], [top, top]]\n")]:
            r = run(command, text)
            assert (r.exit_code, r.stdout) == (0, out), (command, text[:20], r.stderr)

    # nested fixed-point solves still recurse; guarded reports their
    # RecursionError at stage input
    def overflow(*_args):
        raise RecursionError

    monkeypatch.setattr("yflow.cli.has_normal_form", overflow)
    r = run("decide-nf", r"\x:o. x")
    assert r.exit_code == 2
    assert r.stderr == "error [input]: term nesting exceeds the interpreter limit\n"


def test_a_type_of_arity_2000_types_decides_and_certifies(run):
    # 2,000 nested binders: the type is interned, so it hashes and compares
    # in constant time, and it prints in a loop along its arity.  Its
    # table has 2^2000 points, more than the size limit, so eval fails at
    # stage semantics before forcing anything.
    text = "".join(f"\\x{i}:o. " for i in range(2000)) + "x0"
    for command in ["typecheck", "parse", "decide-nf", "decide-hnf", "certify-nf"]:
        for flags in [(), ("--json",)]:
            r = run(command, *flags, text)
            assert r.exit_code == 0, (command, flags, r.stderr)
    assert run("typecheck", text).stdout == " -> ".join(["o"] * 2001) + "\n"
    assert run("decide-nf", text).stdout == "normal form exists\n"
    r = run("eval", text)
    assert r.exit_code == 2
    assert r.stderr.startswith("error [semantics]: undecided at the configured size limit: "
                               "domain at o -> o -> o")
    assert r.stderr.endswith("exceeds the enumeration limit (more than 5000000 elements)\n")
    # Constants build along the arity in a loop, and a domain whose height
    # reaches the size limit fails before recursing down its codomains.
    ty = " -> ".join(["o"] * 2001)
    for command in ["decide-nf", "certify-nf"]:
        r = run(command, f"Omega{{{ty}}}")
        assert (r.exit_code, r.stdout) == (1, "no normal form\n"), (command, r.stderr)
    for args in [("eval", f"Omega{{{ty}}}"), ("domain", ty)]:
        r = run(*args)
        assert r.exit_code == 2 and r.stderr.startswith("error [semantics]: "), args
    r = run("decide-hnf", f"\\y:{ty}. y")
    assert (r.exit_code, r.stdout) == (0, "head normal form exists\n"), r.stderr
    wide = GROUND
    for _ in range(3000):
        wide = Arrow(GROUND, wide)
    for constant, flag in [(bottom_element, False), (top_element, True)]:
        el = constant(wide)
        for _ in range(3000):
            el = el.apply(Element.of_bool(not flag))
        assert el.flag is flag


def test_size_limit_flag(run):
    r = run("--size-limit", "5", "domain", "(o->o)->o->o")
    assert r.exit_code == 2
    assert "undecided at the configured size limit" in r.stderr


def test_size_limit_env(run):
    r = run("domain", "(o->o)->o->o", env={"YFLOW_SIZE_LIMIT": "5"})
    assert r.exit_code == 2


def test_size_limit_lasts_one_invocation(run):
    saved = default_size_limit()
    for args, env in [(["--size-limit", "5"], {}), ([], {"YFLOW_SIZE_LIMIT": "5"})]:
        assert run(*args, "domain", "(o->o)->o->o", env=env).exit_code == 2
        assert default_size_limit() == saved
        r = run("domain", "--json", "(o->o)->o->o")
        assert r.exit_code == 0 and json.loads(r.stdout)["size"] == 10


def test_out_of_range_numbers_are_usage_errors(run):
    for args, env, option in [
        (["--size-limit", "1", "height", "o"], {}, "--size-limit"),
        (["height", "o"], {"YFLOW_SIZE_LIMIT": "1"}, "--size-limit"),
        (["normalize", "--fuel", "-5", r"\x:o. x"], {}, "--fuel"),
    ]:
        r = run(*args, env=env)
        assert r.exit_code == 2, args
        assert option in r.stderr and "Traceback" not in r.stderr + r.stdout, args
    assert run("normalize", "--fuel", "0", r"\x:o. x").exit_code == 0
    r = run("normalize", "--fuel", "0", r"(\x:o. x) Omega{o}")
    assert r.exit_code == 1 and "fuel exhausted after 0 steps" in r.stderr


def test_deep_results_print_as_numerals(run):
    # #3600 is 3600 applications deep, well past the default recursion limit
    w = "((o->o)->o->o)"
    mul = f"(\\m:{w}. \\n:{w}. \\f:o->o. m (n f))"
    r = run("certify-nf", "--json", f"{mul} #60{{o}} #60{{o}}")
    assert r.exit_code == 0 and json.loads(r.stdout)["normal_form"] == "#3600{o}"
    r = run("normalize", "--json", "#2{o->o} #60{o}")
    assert r.exit_code == 0 and json.loads(r.stdout)["term"] == "#3600{o}"


def _write_add_spec(tmp_path):
    p = tmp_path / "add.fn"
    p.write_text(
        "name add\nargs o, o\nresult o\n"
        "term \\m:(o->o)->o->o. \\n:(o->o)->o->o. \\f:o->o. \\x:o. m f (n f x)\n"
        "sample 0 0 -> 0\nsample 1 2 -> 3\nsample 2 2 -> 4\n")
    return str(p)


def test_check_defines(run, tmp_path):
    r = run("check-defines", _write_add_spec(tmp_path))
    assert r.exit_code == 0
    assert r.output.rstrip().endswith("consistent")


def test_check_defines_refuted(run, tmp_path):
    p = tmp_path / "bad.fn"
    p.write_text(
        "name bad\nargs o, o\nresult o\n"
        "term \\m:(o->o)->o->o. \\n:(o->o)->o->o. \\f:o->o. \\x:o. m f (n f x)\n"
        "sample 1 1 -> 7\n")
    r = run("check-defines", str(p))
    assert r.exit_code == 1
    assert "refuted at (1, 1)" in r.output


def test_pipeline(run, tmp_path):
    r = run("pipeline", _write_add_spec(tmp_path))
    assert r.exit_code == 0
    assert "conservativity holds" in r.output


def test_pipeline_json(run, tmp_path):
    r = run("pipeline", "--json", _write_add_spec(tmp_path))
    rec = json.loads(r.output)
    assert rec["holds"] is True
    assert [s["label"] for s in rec["stages"]] == ["source", "pure"]
    source = parse_term(rec["stages"][0]["term"])
    assert rec["stages"][1]["term"] == term_to_str(oracle_eliminate(source, 2))


SPEC = "{spec}"  # replaced by the path of the add spec file
CHECK_KEYS = {"name", "type", "consistent", "rows"}


@pytest.mark.parametrize("args, keys", [
    (["parse", "--json", "#2{o}"], {"term", "type", "size"}),
    (["typecheck", "--json", "#2{o}"], {"type"}),
    (["eval", "--json", r"\x:o. x"], {"value", "type"}),
    (["height", "--json", "(o->o)->(o->o)"], {"type", "height"}),
    (["proper", "--json", r"\x:o. x"], {"proper", "path", "long_normal_form"}),
    (["proper", "--json", r"\f:o->o. f Omega{o}"], {"proper", "path", "long_normal_form"}),
    (["certify-nf", "--json", r"Y{o->o} (\f:o->o. \y:o. y)"], VERDICT_KEYS | {"normal_form"}),
    (["certify-nf", "--json", r"Y{o} (\x:o. x)"], VERDICT_KEYS | {"normal_form"}),
    (["check-defines", "--json", SPEC], CHECK_KEYS),
    (["pipeline", "--json", SPEC], {"name", "stages", "source", "target", "holds"}),
    (["depth-probe", "--json", r"\n:(o->o)->o->o. #0{o}", "--first-zero", "0", "--depth", "1"],
     {"outcome", "claimed_first_zero", "depth", "alpha", "bound_violated", "normal_form"}),
])
def test_json_record_key_sets(run, tmp_path, args, keys):
    spec = _write_add_spec(tmp_path)
    r = run(*[spec if a == SPEC else a for a in args])
    assert r.exit_code in (0, 1)
    rec = json.loads(r.stdout)
    assert set(rec) == keys
    if args[0] == "check-defines":
        assert all(set(row) == {"args", "expected", "observed", "ok"} for row in rec["rows"])
    if args[0] == "pipeline":
        assert set(rec["source"]) == set(rec["target"]) == CHECK_KEYS
        assert all(set(stage) == {"label", "size", "term"} for stage in rec["stages"])


def test_depth_probe(run):
    r = run("depth-probe", r"\n:(o->o)->o->o. #1{o}",
            "--first-zero", "1", "--depth", "3")
    assert r.exit_code == 0
    assert r.output.splitlines()[0].endswith("omega")


def test_depth_probe_json(run):
    r = run("depth-probe", "--json", r"\n:(o->o)->o->o. #0{o}",
            "--first-zero", "0", "--depth", "1")
    rec = json.loads(r.output)
    assert rec["outcome"] == "zero" and rec["bound_violated"] is False


def test_a_fixed_point_past_its_round_bound_fails_as_an_invariant(run, monkeypatch):
    # the solve demands (bot, top) from (top, top), so it needs a second round
    import yflow.semantics as semantics

    monkeypatch.setattr(semantics, "_max_rounds", lambda h: 1)
    term = r"Y{o->o->o} (\f:o->o->o. \x:o. \y:o. f Omega{o} y)"
    r = run("decide-nf", term)
    assert r.exit_code == 2
    assert r.stderr == ("error [invariant]: least fixed point at o -> o -> o "
                        "did not stabilize within 1 rounds\n")
    r = run("decide-nf", "--json", term)
    assert r.exit_code == 2 and json.loads(r.stdout)["stage"] == "invariant"
    monkeypatch.undo()
    assert run("decide-nf", term).exit_code == 1


def test_nested_solves_decide_at_the_default_recursion_limit():
    # A fixed point read inside the solve of another costs Python frames
    # per nesting level; 180 nested solves decide in a fresh interpreter
    # at its default limit (under 3.11 the ceiling is 195).
    w = "((o->o)->o->o)"
    term = f"#180{{{w}}} (\\m:{w}. Y{{{w}}} (\\y:{w}. m)) #0{{o}}"
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    r = subprocess.run([sys.executable, "-m", "yflow.cli", "decide-nf", term],
                       env={**os.environ, "PYTHONPATH": src}, capture_output=True,
                       text=True, timeout=120)
    assert (r.returncode, r.stdout, r.stderr) == (0, "normal form exists\n", "")

"""The yflow benchmark: one command, seeded workloads, checked outputs.

    python3 bench/run.py                       # every workload, then a summary
    python3 bench/run.py --workload decide --seed 7 --seconds 20 --trace 0

Each workload is a closed loop with one client: items go one at a time
through ``yflow.cli.main`` in-process (click's CliRunner, ``--json``),
so argument parsing, the printer and the JSON record are all timed.
Whole passes over the seeded item list repeat until --seconds have
passed.  Every output is checked against a reference that does not
come from the program (see workloads.py), outside the timed region.
The last line of output is one JSON object: correct, attempted, failed
and metrics (end-to-end with --trace 0, per layer with --trace 1).

Without --workload the command runs every workload in a fresh
interpreter, one after the other, and prints every metric by name.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import workloads  # noqa: E402  (bench-local modules, need HERE on the path)
from reference import confirms  # noqa: E402

# CPython's default; raising it would hide the nesting defect.
DEFAULT_RECURSION_LIMIT = 1000
SETUP_PROBES = 7
# nesting is not in BENCHMARK.json: its deep items fail at this commit.
ALL_WORKLOADS = ("decide", "certify", "domain", "nesting")
WORK_DIR = os.path.join(ROOT, ".bench_work")


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _import_yflow():
    if not os.path.isfile(os.path.join(SRC, "yflow", "__init__.py")):
        raise SystemExit(f"error: no yflow sources under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import yflow.cli  # noqa: F401
    import yflow.semantics  # noqa: F401


def setup(workload: str, seed: int, workdir: str):
    """Everything before the first item: import, generate, write files."""
    _import_yflow()
    items = workloads.make_items(workload, seed)
    os.makedirs(workdir, exist_ok=True)
    return workloads.write_files(items, workdir)


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def measure_setup(workload: str, seed: int) -> float:
    """Median CPU time of fresh interpreters doing the set-up alone."""
    times = []
    for i in range(SETUP_PROBES):
        workdir = os.path.join(WORK_DIR, f"probe-{os.getpid()}-{i}")
        start = _children_cpu()
        subprocess.run([sys.executable, os.path.abspath(__file__), "--setup-probe",
                        "--workload", workload, "--seed", str(seed),
                        "--workdir", workdir], check=True, timeout=120)
        times.append(_children_cpu() - start)
        shutil.rmtree(workdir, ignore_errors=True)
    return statistics.median(times)


# ---------------------------------------------------------------------------
# Checking outputs

def decode_numeral(text: str) -> int | None:
    """Read #m{o}, the spelled-out numeral at o, or the eta-short one."""
    text = text.strip()
    if text.startswith("#") and text.endswith("{o}"):
        digits = text[1:-3]
        return int(digits) if digits.isdigit() else None
    if not text.startswith("\\"):
        return None
    f, _, rest = text[1:].partition(":o -> o. ")
    if not f or not rest:
        return None
    if rest == f:
        return 1
    if not rest.startswith("\\"):
        return None
    x, _, body = rest[1:].partition(":o. ")
    m = 0
    while body.startswith(f + " (") and body.endswith(")"):
        body, m = body[len(f) + 2:-1], m + 1
    if body.startswith(f + " "):
        body, m = body[len(f) + 1:], m + 1
    return m if body == x else None


def _longest_chain(size: int, covers: list) -> int:
    above = [[] for _ in range(size)]
    for lo, hi in covers:
        above[lo].append(hi)
    best = [0] * size
    for i in reversed(range(size)):  # canonical order extends the order
        best[i] = max((1 + best[j] for j in above[i]), default=0)
    return max(best, default=0)


class Checker:
    """Compares one item's output with its reference."""

    def __init__(self):
        self._confirmed: dict[tuple[str, str], bool] = {}
        self.unchecked = 0

    def check(self, item, code, stdout, value) -> tuple[bool, str]:
        """(ok, stage) where stage names what failed."""
        lines = stdout.strip().splitlines()
        try:
            record = json.loads(lines[-1]) if lines else None
        except json.JSONDecodeError:
            record = None
        if code == 2:
            return False, (record or {}).get("stage", "unknown")
        if value is not None:  # enumerate_domain, called directly
            return len(value) == item.expect["size"], "reference"
        if record is None or code not in (0, 1):
            return False, "output"
        return self._matches(item, code, record), "reference"

    def _matches(self, item, code, record) -> bool:
        want = item.expect
        if "verdict" in want:
            if record.get("kind") != want["kind"] or record.get("verdict") != want["verdict"]:
                return False
            if code != (0 if want["verdict"] else 1):
                return False
            if want["verdict"]:
                self._confirm(item.argv[-1], want["kind"])
            return True
        if "numeral" in want:
            text = record.get("normal_form", record.get("term"))
            return code == 0 and text is not None and decode_numeral(text) == want["numeral"]
        if "spelled" in want:
            return code == 0 and decode_numeral(record.get("term", "")) == want["spelled"]
        if "rows" in want:
            if code != 0 or not record.get("holds"):
                return False
            for side in ("source", "target"):
                rows = record[side]["rows"]
                got = [[r["args"], r["observed"]] for r in rows]
                if got != [[args, str(v)] for args, v in want["rows"]]:
                    return False
            return True
        if "size" in want:
            size = record.get("size")
            return (code == 0 and size == want["size"] == len(record["elements"])
                    and _longest_chain(size, record["covers"]) == want["height"])
        raise ValueError(f"no check for {want}")

    def _confirm(self, text: str, kind: str) -> None:
        key = (text, kind)
        if key not in self._confirmed:
            self._confirmed[key] = confirms(text, kind)
        if not self._confirmed[key]:
            self.unchecked += 1


# ---------------------------------------------------------------------------
# Running items

class Runner:
    def __init__(self, checker: Checker, tracer=None):
        from click.testing import CliRunner
        from yflow.cli import main
        from yflow.parser import parse_type
        from yflow import semantics

        self.cli = CliRunner()
        self.main = main
        self.parse_type = parse_type
        self.semantics = semantics
        self.checker = checker
        self.tracer = tracer
        self.wall_s = 0.0  # wall time of all items, next to their CPU time

    def run(self, item):
        """Run one item; return (CPU seconds, ok, stage).

        Item time is this process's CPU time: the loop is single-threaded
        and CPU-bound, and on a shared machine wall time also counts the
        time the processor spent on other tenants.
        """
        # Start each item as a fresh CLI process would: no domains cached,
        # and no garbage or long-lived objects of earlier items for the
        # collector to walk (a frozen object is never traversed again).
        self.semantics.clear_domain_cache()
        gc.collect()
        gc.freeze()
        if self.tracer is not None:
            self.tracer.domain_cache_cleared()
        value, code, stdout = None, 0, ""
        wall = time.perf_counter()
        start = time.process_time()
        if item.argv[0] == "enumerate_domain":
            try:
                value = self.semantics.enumerate_domain(self.parse_type(item.argv[1]))
            except Exception as e:  # reported as a failed item, never dropped
                code, stdout = 2, json.dumps({"stage": type(e).__name__})
        elif self.tracer is not None:
            with self.tracer.span("cli.invoke"):
                result = self.cli.invoke(self.main, item.argv)
        else:
            result = self.cli.invoke(self.main, item.argv)
        elapsed = time.process_time() - start
        self.wall_s += time.perf_counter() - wall
        if value is None and code == 0:
            exc = result.exception
            if exc is not None and not isinstance(exc, SystemExit):
                return elapsed, False, f"exception:{type(exc).__name__}"
            code, stdout = result.exit_code, result.stdout
        ok, stage = self.checker.check(item, code, stdout, value)
        return elapsed, ok, None if ok else stage


def one_pass(runner: Runner, items) -> list:
    return [(item,) + runner.run(item) for item in items]


def run_passes(runner: Runner, items, seconds: float):
    """Whole passes until `seconds` have gone by; returns per-item results."""
    results = []
    start = time.perf_counter()
    passes = 0
    while passes == 0 or time.perf_counter() - start < seconds:
        results += one_pass(runner, items)
        passes += 1
    return results, passes


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; failures enter as +inf."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end(workload, results, setup_s) -> dict:
    lat = [e if ok else math.inf for _, e, ok, _ in results]
    busy = sum(e for _, e, _, _ in results)
    n_ok = sum(1 for _, _, ok, _ in results if ok)
    metrics = {
        "setup_s": (setup_s, "s"),
        "items_per_s": (n_ok / busy, "items/s"),
        "item_p50_ms": (percentile(lat, 0.5) * 1000, "ms"),
        "item_p90_ms": (percentile(lat, 0.9) * 1000, "ms"),
        "ok_share": (n_ok / len(results), "fraction"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    if workload == "nesting":  # faster failures must not read as a gain
        del metrics["items_per_s"], metrics["peak_rss_mb"], metrics["item_p90_ms"]
    # A percentile that lands on a failure has no finite value.
    return {k: {"value": v if math.isfinite(v) else None, "unit": u}
            for k, (v, u) in metrics.items()}


def metadata(workload: str, seed: int) -> dict:
    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        out = subprocess.run(["git", "--git-dir", os.path.join(ROOT, ".git"),
                              "rev-parse", "HEAD"], capture_output=True, text=True,
                             timeout=30)
        commit = out.stdout.strip() or "unknown"
    lines = 0
    pkg = os.path.join(SRC, "yflow")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), encoding="utf-8") as fh:
                lines += sum(1 for _ in fh)
    return {"workload": workload, "seed": seed, "commit": commit,
            "python": sys.version.split()[0], "nproc": os.cpu_count(),
            "loadavg_start": os.getloadavg()[0], "src_yflow_lines": lines}


def run_workload(args) -> int:
    if sys.getrecursionlimit() != DEFAULT_RECURSION_LIMIT:
        print(f"error: recursion limit is {sys.getrecursionlimit()}, "
              f"not the default {DEFAULT_RECURSION_LIMIT}", file=sys.stderr)
        return 2
    _import_yflow()
    meta = metadata(args.workload, args.seed)
    workdir = os.path.join(WORK_DIR, f"run-{os.getpid()}")
    try:
        setup_s = measure_setup(args.workload, args.seed)
        items = setup(args.workload, args.seed, workdir)
        checker = Checker()
        if args.trace:
            layer, results = traced_run(args, items, checker)
        else:
            runner = Runner(checker)
            results, meta["passes"] = run_passes(runner, items, args.seconds)
            meta["items_wall_s"] = runner.wall_s
            meta["items_cpu_s"] = sum(r[1] for r in results)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = [(item, stage) for item, _, ok, stage in results if not ok]
    meta["unchecked"] = checker.unchecked
    meta["items_per_pass"] = len(items)
    for (family, label, stage), n in Counter(
            (item.family, item.label, stage) for item, stage in failed).items():
        print(f"failed [{stage}] {family}: {label} (x{n})")
    if args.trace:
        metrics = {m["name"]: {"value": layer.get(m["name"], 0.0), "unit": m["unit"]}
                   for m in _spec()["per_layer"]}
    else:
        metrics = end_to_end(args.workload, results, setup_s)
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']} {m['unit']}")
    print(json.dumps({"meta": meta}, sort_keys=True))
    print(json.dumps({"correct": not failed, "attempted": len(results),
                      "failed": len(failed), "metrics": metrics}))
    return 0


def traced_run(args, items, checker) -> dict:
    """Alternate untraced and traced passes; per-layer numbers, averaged
    per traced pass, come from the traced ones, and the tracing overhead
    from the difference in their wall time."""
    from layers import Tracer

    tracer = Tracer()
    plain, traced = Runner(checker), Runner(checker, tracer)
    wall_plain = wall_traced = 0.0
    results = []
    start = time.perf_counter()
    pairs = 0
    while pairs == 0 or time.perf_counter() - start < args.seconds:
        t0 = time.perf_counter()
        one_pass(plain, items)
        t1 = time.perf_counter()
        tracer.install()
        try:
            results += one_pass(traced, items)
        finally:
            tracer.uninstall()
        wall_plain += t1 - t0
        wall_traced += time.perf_counter() - t1
        pairs += 1
    os.makedirs(WORK_DIR, exist_ok=True)
    tracer.write_spans(os.path.join(WORK_DIR, f"spans-{args.workload}-{args.seed}.jsonl"))
    for (module, kind), n in sorted(tracer.errors.items()):
        print(f"{args.workload} {module}.errors.{kind} = {n / pairs} count")
    out = {k: v / pairs for k, v in tracer.summary().items()}
    out["trace.untraced_pass_s"] = wall_plain / pairs
    out["trace.traced_pass_s"] = wall_traced / pairs
    out["trace.overhead_s"] = (wall_traced - wall_plain) / pairs
    out["trace.overhead_share"] = (wall_traced - wall_plain) / wall_plain
    return out, results


def run_all(args) -> int:
    """Every workload in a fresh interpreter, one at a time, then a table."""
    rows, status = [], 0
    for name in ALL_WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not proc.stdout.strip():
            status = 1
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        for metric, m in result["metrics"].items():
            rows.append((name, metric, m["value"], m["unit"]))
        rows.append((name, "failed", result["failed"], f"of {result['attempted']}"))
    print(f"\n{'workload':8} {'metric':44} {'value':>14} unit")
    for name, metric, v, unit in rows:
        print(f"{name:8} {metric:44} {v:14.6g} {unit}")
    return status


def _corrupt(expect: dict) -> dict:
    bad = json.loads(json.dumps(expect))
    if "verdict" in bad:
        bad["verdict"] = not bad["verdict"]
    elif "rows" in bad:
        bad["rows"][0][1] += 1
    else:
        key = next(k for k in ("numeral", "spelled", "size") if k in bad)
        bad[key] += 1
    return bad


def self_check() -> int:
    """Run cheap items of every workload twice: as generated they must
    pass, and with a corrupted reference they must be reported failed."""
    cheap = {"decide": {"ooo", "oo_o", "w1", "w2"}, "certify": {"mul", "pipeline", "w2"},
             "domain": {"dump"}, "nesting": {"control"}}
    workdir = os.path.join(WORK_DIR, f"check-{os.getpid()}")
    problems = checked = 0
    try:
        for workload in ALL_WORKLOADS:
            items = [it for it in setup(workload, 0, workdir)
                     if it.family in cheap[workload] and it.expect.get("size", 0) < 100][:6]
            runner = Runner(Checker())
            for item in items:
                _, ok, _ = runner.run(item)
                item.expect = _corrupt(item.expect)
                _, bad_ok, stage = runner.run(item)
                checked += 1
                if not ok or bad_ok or stage != "reference":
                    problems += 1
                    print(f"self-check: {workload} {item.label}: clean ok={ok}, "
                          f"corrupted ok={bad_ok} stage={stage}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"self-check: {checked} items, {problems} problems")
    return 1 if problems else 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=ALL_WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=15)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-check", action="store_true",
                   help="show that a corrupted reference is reported as a failure")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--workdir", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.self_check:
        return self_check()
    if args.setup_probe:
        setup(args.workload, args.seed, args.workdir)
        return 0
    if args.workload is None:
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())

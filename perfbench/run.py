#!/usr/bin/env python3
"""Time-to-verified-report benchmark for transgress.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A workload is a fixed list of CLI configurations ("a pass").  Each config goes
through the public driver, ``cli.parse_config`` -> ``cli.run`` ->
``Report.to_json``, and every report is checked against the outcome pinned in
``expected.json`` (verdict, per-method term counts, digest of the rendered
forms).  The program under test is imported from ``src/`` next to this
directory; nothing is installed.

--trace 0 prints the end-to-end metrics:
  run_s        seconds of one untraced pass, config to rendered JSON, with
               each config at its fastest over the run's passes.  Each pass
               runs in a fresh child process, one at a time.
  setup_s      median seconds of replaying the set-up calls ``cli.run`` makes
               before its first route (algebra, validation, split, universal
               model, polynomial build, ad-invariance gate).
  peak_rss_mb  median peak resident memory of those pass children.
  passed_share share of checked operations whose outcome matched the pin:
               1 - failed_share.  The failed count itself is the ``failed``
               field of the result line.
--trace 1 runs untraced and traced passes in this process and prints the
per-layer metrics of ``spans.LAYER_METRICS`` plus the tracing overhead; the
spans of the last traced pass are written under ``perfbench/out/``.

Every run also executes the negative controls once, untimed: corrupted
configurations that must fail as pinned.  Any mismatch is printed, makes
``correct`` false and the exit code 1.  The last stdout line is the JSON
result.  Without the ``src/transgress`` sources the command exits 2 before
measuring anything.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

from spans import LAYER_METRICS, Tracer, median_metrics

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
EXPECTED = BENCH_DIR / "expected.json"
OUT_DIR = BENCH_DIR / "out"

IJ = "integral,johnson"


class Config(NamedTuple):
    algebra: str
    sub: str
    poly: str           # pfaffian, trace^k, or a tensor file in this directory
    methods: str
    corrupt: str = ""

    @property
    def label(self) -> str:
        text = f"{self.algebra}/{self.sub} {self.poly} {self.methods}"
        return text + (f" corrupt={self.corrupt}" if self.corrupt else "")

    def argv(self, seed: int) -> list:
        poly = str(BENCH_DIR / self.poly) if self.poly.endswith(".json") else self.poly
        argv = ["--algebra", self.algebra, "--sub", self.sub, "--poly", poly,
                "--method", self.methods, "--check", "all",
                "--seed", str(seed), "--output", "json"]
        return argv + (["--corrupt", self.corrupt] if self.corrupt else [])


# Why these workloads: so8 is the Pfaffian yardstick rung, dominated by the
# factorial and dense enumerations and the invariance certificate; the gl
# ladder is the rational control with no Pfaffian, no chern route and a cheap
# ad-invariance gate; the u ladder runs the same layers over the Gaussian
# field, where a rational-only fast path would show.  so10 is left out: one
# pass is estimated at about 11 minutes.
WORKLOADS = {
    "so8-pfaffian": (
        Config("so8", "so7", "pfaffian", "integral,johnson,chern"),
    ),
    "gl-trace-ladder": (
        Config("gl3", "gl2", "trace^2", IJ),
        Config("gl3", "gl2", "trace^3", IJ),
        Config("gl3", "gl2", "trace^4", IJ),
        Config("gl4", "gl3", "trace^2", IJ),
        Config("gl4", "gl3", "trace^3", IJ),
    ),
    "u-gaussian-ladder": (
        Config("su2", "u1", "trace^2", IJ),
        Config("u2", "0,1", "trace^2", IJ),
        Config("u3", "0,1,2", "trace^3", IJ),
        Config("u3", "0,1,2", "trace^4", IJ),
        Config("u4", "0,1,2,3", "trace^2", IJ),
    ),
}

# Fewest timed passes and set-up replays per run, whatever --seconds says.
# An so8 pass takes about 15 s and its set-up about 4.5 s; a ladder pass
# about 2.5 s and its set-up about 1 s.
MIN_PASSES = {"so8-pfaffian": 2, "gl-trace-ladder": 5, "u-gaussian-ladder": 5}
SETUP_REPEATS = {"so8-pfaffian": 3, "gl-trace-ladder": 5, "u-gaussian-ladder": 5}

# Each must fail as pinned; a control that passes is a failed operation.
CONTROLS = (
    Config("so6", "so5", "pfaffian", IJ, "aij=0,0"),
    Config("so6", "so5", "pfaffian", "integral,chern", "prefactor"),
    Config("u3", "0,1,2", "trace^2", IJ, "aij=1,0"),
    Config("gl3", "gl2", "noninvariant_gl3.json", IJ),
)

CHILD_TIMEOUT_S = 170


class BenchError(Exception):
    """The program under test could not be run at all."""


def load_engine():
    """Import transgress from this checkout's ``src`` and return the package."""
    init = SRC / "transgress" / "__init__.py"
    if not init.is_file():
        raise BenchError(f"no transgress sources at {init.parent}")
    sys.path.insert(0, str(SRC))
    pkg = importlib.import_module("transgress")
    importlib.import_module("transgress.cli")
    if Path(pkg.__file__).resolve() != init.resolve():
        raise BenchError(f"imported transgress from {pkg.__file__}, not {init}")
    return pkg


def workload_configs(workload: str, seed: int) -> list:
    """The workload's configs in the order the seed picks."""
    configs = list(WORKLOADS[workload])
    random.Random(seed).shuffle(configs)
    return configs


def run_pass(pkg, configs, seed: int, tracer=None):
    """Run each config through the public driver.

    Returns the seconds each config took, from config to rendered JSON, and
    the JSON reports.
    """
    cli = pkg.cli
    seconds, reports = [], []
    for i, config in enumerate(configs):
        if tracer is not None:
            tracer.config_id = i
        start = time.perf_counter()
        run_config, _ = cli.parse_config(config.argv(seed))
        reports.append(cli.run(run_config).to_json())
        seconds.append(time.perf_counter() - start)
    return seconds, reports


def outcome(report_json: str) -> dict:
    """The parts of a report that are pinned; timings are left out."""
    report = json.loads(report_json)
    failing = [c["name"] for c in report["checks"] if c["status"] != "pass"]
    gate = [c.get("witness", "") for c in report["checks"]
            if c["name"] == "polynomial-ad-invariant"]
    forms = json.dumps(report["forms"], sort_keys=True, separators=(",", ":"))
    return {
        "verdict": "fail" if failing else "pass",
        "failing": failing,
        "gate_witness": gate[0] if gate else None,
        "term_counts": {m: f["term_count"] for m, f in report["forms"].items()},
        "forms_sha256": hashlib.sha256(forms.encode()).hexdigest(),
    }


def config_mismatch(pinned: dict, got: dict) -> str:
    for key in ("verdict", "term_counts", "forms_sha256"):
        if got[key] != pinned[key]:
            return f"{key} is {got[key]!r}, pinned {pinned[key]!r}"
    return ""


def control_mismatch(pinned: dict, got: dict) -> str:
    if got["verdict"] != "fail":
        return "the control passed"
    missing = [name for name in pinned["failing"] if name not in got["failing"]]
    if missing:
        return f"checks {missing} did not fail"
    if got["gate_witness"] != pinned["gate_witness"]:
        return f"gate witness {got['gate_witness']!r}, pinned {pinned['gate_witness']!r}"
    return ""


class Ledger:
    """Checked operations of one invocation and the mismatches among them."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def check(self, what: str, problem: str) -> None:
        self.attempted += 1
        if problem:
            self.failures.append(f"{what}: {problem}")

    def check_pass(self, configs, outcomes, pinned) -> None:
        for config, got in zip(configs, outcomes):
            self.check(config.label, config_mismatch(pinned["configs"][config.label], got))


def run_controls(pkg, seed: int, pinned: dict, ledger: Ledger) -> None:
    for config in CONTROLS:
        _, (report,) = run_pass(pkg, [config], seed)
        ledger.check(f"control {config.label}",
                     control_mismatch(pinned["controls"][config.label], outcome(report)))


def replay_setup(pkg, configs) -> tuple:
    """Time the public calls ``cli.run`` makes before its first route."""
    lie, inv = pkg.lie, pkg.invariants
    ok = True
    start = time.perf_counter()
    for config in configs:
        algebra = lie.named_algebra(config.algebra)
        ok = lie.validate(algebra).passed and ok
        split = lie.named_split(algebra, config.sub)
        ok = lie.validate_split(algebra, split).passed and ok
        pkg.weil.UniversalSetup(algebra, split)
        if config.poly == "pfaffian":
            P = inv.pfaffian(algebra)
        else:
            P = inv.symmetrized_trace(algebra, int(config.poly[len("trace^"):]))
        ok = P.ad_invariance_witness() is None and ok
    return time.perf_counter() - start, ok


def child_pass(workload: str, seed: int) -> dict:
    """One untraced pass in a fresh interpreter; waits for it to end."""
    try:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--child"],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        raise BenchError(f"pass child ran longer than {CHILD_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise BenchError(f"pass child exited {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def child_main(args) -> int:
    pkg = load_engine()
    configs = workload_configs(args.workload, args.seed)
    seconds, reports = run_pass(pkg, configs, args.seed)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps({"config_s": seconds, "peak_rss_mb": peak_rss_mb,
                      "outcomes": [outcome(r) for r in reports]}))
    return 0


def measure_untraced(pkg, args, pinned, ledger) -> dict:
    configs = workload_configs(args.workload, args.seed)
    setup_times, passes = [], []
    repeats = SETUP_REPEATS[args.workload]

    def replay():
        seconds, ok = replay_setup(pkg, configs)
        ledger.check("set-up replay", "" if ok else "a set-up certificate failed")
        setup_times.append(seconds)

    # Set-up replays alternate with the passes, so that both sample the
    # whole run rather than one stretch of it.
    start = time.perf_counter()
    while (len(passes) < MIN_PASSES[args.workload]
           or time.perf_counter() - start < args.seconds):
        if len(setup_times) < repeats:
            replay()
        result = child_pass(args.workload, args.seed)
        ledger.check_pass(configs, result["outcomes"], pinned)
        passes.append(result)
    while len(setup_times) < repeats:
        replay()
    pass_times = [sum(p["config_s"]) for p in passes]
    print(f"  passes {len(passes)}: " + " ".join(f"{t:.3f}" for t in pass_times)
          + f" s; median {statistics.median(pass_times):.3f} s")
    print("  set-up replays: " + " ".join(f"{s:.3f}" for s in setup_times) + " s")
    # The host's speed swings by up to 2x as other tenants load it, in
    # stretches of seconds.  A pass median flips between the two speeds; each
    # config's fastest run of the run's passes tracks the uncontended cost.
    fastest = [min(times) for times in zip(*(p["config_s"] for p in passes))]
    return {
        "run_s": (sum(fastest), "s"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
    }


def measure_traced(pkg, args, pinned, ledger) -> dict:
    configs = workload_configs(args.workload, args.seed)
    tracer = Tracer()
    untraced, traced, layers, first_counts = [], [], [], None
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < args.seconds:
        seconds, reports = run_pass(pkg, configs, args.seed)
        ledger.check_pass(configs, [outcome(r) for r in reports], pinned)
        untraced.append(sum(seconds))

        tracer.reset()
        tracer.install()
        try:
            seconds, reports = run_pass(pkg, configs, args.seed, tracer)
        finally:
            tracer.uninstall()
        # Both passes are held to the same pinned digests, so a traced pass
        # whose forms differ from the untraced ones is a mismatch here.
        ledger.check_pass(configs, [outcome(r) for r in reports], pinned)
        counts = dict(tracer.counts)
        if first_counts is None:
            first_counts = counts
        else:
            ledger.check("traced counts", "" if counts == first_counts
                         else "counts differ between traced passes")
        traced.append(sum(seconds))
        layers.append(tracer.layer_metrics())

    values = median_metrics(layers)
    metrics = {name: (values[name], LAYER_METRICS[name][0]) for name in LAYER_METRICS}
    metrics["trace.run_s"] = (statistics.median(traced), "s")
    metrics["trace.overhead_s"] = (statistics.median(traced) - statistics.median(untraced), "s")
    print(f"  traced passes {len(traced)}: " + " ".join(f"{s:.3f}" for s in traced)
          + " s; untraced: " + " ".join(f"{s:.3f}" for s in untraced) + " s")

    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
    dump = tracer.dump()
    dump.update(workload=args.workload, seed=args.seed,
                configs=[c.label for c in configs],
                metrics={k: v for k, (v, _) in metrics.items()})
    path.write_text(json.dumps(dump) + "\n")
    print(f"  spans of the last traced pass: {path.relative_to(ROOT)}")
    return metrics


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if args.child:
        return child_main(args)
    pkg = load_engine()
    pinned = json.loads(EXPECTED.read_text())
    ledger = Ledger()
    print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
          f"seconds {args.seconds:g} python {platform.python_version()} "
          f"nproc {os.cpu_count()}")
    run_controls(pkg, args.seed, pinned, ledger)
    measure = measure_traced if args.trace else measure_untraced
    metrics = measure(pkg, args, pinned, ledger)

    failed = len(ledger.failures)
    if not args.trace:
        metrics["passed_share"] = ((ledger.attempted - failed) / ledger.attempted, "ratio")
    for line in ledger.failures:
        print(f"  MISMATCH {line}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:.6g} {unit}")
    print(f"  {'failed_share':40s} {failed / ledger.attempted:.6g} ratio "
          f"({failed} of {ledger.attempted} operations)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": ledger.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)

"""Command-line driver: configure a run, execute the constructions and
checks, and emit a deterministic text or JSON report.

Exit codes: 0 all checks pass, 1 at least one check fails, 2 usage or
input-validation error.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import sys
import time
from dataclasses import dataclass, field

from .algebra import ContractError, Scalar, render_monomial
from .invariants import invariant_from_dict, pfaffian, symmetrized_trace
from .lie import (
    LieAlgebra,
    algebra_from_file,
    named_algebra,
    named_split,
    so_block,
    validate,
    validate_split,
)
from .transgression import (
    CheckResult,
    ad_invariance_identity_check,
    coefficient_A,
    coefficient_A_by_integration,
    deformation_bianchi_check,
    derivative_identity_check,
    tp_chern_euler,
    tp_integral,
    tp_johnson,
    verify_transgression,
)
from .weil import UniversalSetup

__all__ = ["RunConfig", "Report", "UsageError", "parse_config", "run", "main"]

METHOD_NAMES = ("integral", "johnson", "chern")
CHECK_NAMES = ("d2", "transgression", "basicness", "agreement",
               "coefficients", "derivative-identity")

PRESETS = {
    "paper-so4": {
        "algebra": "so4", "subalgebra": "so3", "polynomial": "pfaffian",
        "methods": "integral,johnson,chern", "checks": "all",
    },
    "paper-so6": {
        "algebra": "so6", "subalgebra": "so5", "polynomial": "pfaffian",
        "methods": "integral,johnson,chern", "checks": "all",
    },
    "paper-gl3": {
        "algebra": "gl3", "subalgebra": "gl2", "polynomial": "trace^2",
        "methods": "integral,johnson", "checks": "all",
    },
}

_CONFIG_KEYS = ("algebra", "subalgebra", "polynomial", "methods", "checks",
                "output", "field", "seed", "corrupt")


class UsageError(Exception):
    """Bad flags, unknown keys, or unusable input files."""


@dataclass
class RunConfig:
    algebra: str
    subalgebra: str = "none"
    polynomial: str = "trace^1"
    methods: tuple = ("integral",)
    checks: tuple = CHECK_NAMES
    output: str = "text"
    field: str = ""          # "" means infer from the algebra data
    seed: int = 0
    corrupt: tuple = ()      # testing hook: ("aij", i, j) | ("structure", a, b, c) | ("prefactor",)


@dataclass
class Report:
    config: dict
    checks: list = field(default_factory=list)
    forms: dict = field(default_factory=dict)
    stats: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(e.passed for e in self.checks)

    def to_dict(self) -> dict:
        return {
            "config": self.config,
            "checks": [
                {"name": e.name, "status": e.status,
                 **({"witness": e.witness} if e.witness else {})}
                for e in self.checks
            ],
            "forms": self.forms,
            "stats": self.stats,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    def to_text(self) -> str:
        lines = ["config: " + " ".join(f"{k}={v}" for k, v in self.config.items() if v != "")]
        for e in self.checks:
            line = f"[{e.status.upper()}] {e.name}"
            if e.witness:
                line += f"  witness: {e.witness}"
            lines.append(line)
        for method, info in self.forms.items():
            lines.append(
                f"TP[{method}]: degree {info['degree']}, {info['term_count']} terms")
        n_pass = sum(e.passed for e in self.checks)
        lines.append(f"result: {'PASS' if self.passed else 'FAIL'} "
                     f"({n_pass}/{len(self.checks)} checks)")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _Parser:
    p = _Parser(prog="transgress",
                description="Construct and verify transgression forms for "
                            "characteristic classes, exactly.")
    p.add_argument("--preset", choices=sorted(PRESETS),
                   help="start from a bundled configuration")
    p.add_argument("--config", help="JSON config file (same keys as the flags)")
    p.add_argument("--algebra", help="built-in name (so4, gl3, su2, u2, abelian3) "
                                     "or a JSON table file")
    p.add_argument("--sub", dest="subalgebra",
                   help="subalgebra: so3, gl2, u1, 'none', or h indices '0,1,3'")
    p.add_argument("--poly", dest="polynomial",
                   help="pfaffian | trace^k | tensor JSON file")
    p.add_argument("--method", dest="methods",
                   help="comma list from: " + ",".join(METHOD_NAMES))
    p.add_argument("--check", dest="checks",
                   help="'all' or comma list from: " + ",".join(CHECK_NAMES))
    p.add_argument("--output", choices=("text", "json"))
    p.add_argument("--out", help="write the report to this path")
    p.add_argument("--field", choices=("rational", "gaussian"))
    p.add_argument("--seed", type=int, help="seed for the randomized d2 probe")
    p.add_argument("--corrupt",
                   help="regression hook: aij=i,j | structure=a,b,c | prefactor")
    return p


def _csv(value) -> tuple:
    if isinstance(value, (list, tuple)):
        return tuple(value)
    return tuple(tok.strip() for tok in str(value).split(",") if tok.strip())


def _unique(tokens: tuple, what: str) -> tuple:
    """The tokens, refused if one repeats: it would run twice and keep only
    the second run's time."""
    for i, tok in enumerate(tokens):
        if tok in tokens[:i]:
            raise UsageError(f"{what} {tok!r} given more than once")
    return tokens


def _parse_corrupt(spec) -> tuple:
    if not spec:
        return ()
    if spec == "prefactor":
        return ("prefactor",)
    kind, _, rest = str(spec).partition("=")
    try:
        nums = tuple(int(tok) for tok in rest.split(","))
    except ValueError:
        raise UsageError(f"bad corrupt spec: {spec!r}") from None
    if kind == "aij" and len(nums) == 2:
        return ("aij",) + nums
    if kind == "structure" and len(nums) == 3:
        return ("structure",) + nums
    raise UsageError(f"bad corrupt spec: {spec!r}")


def _parse_seed(value) -> int:
    # an integer, or a string of one; a float or bool would be truncated
    if isinstance(value, (int, str)) and not isinstance(value, bool):
        try:
            return int(value)
        except ValueError:
            pass
    raise UsageError(f"seed must be an integer, not {value!r}")


def _is_file_ref(name: str) -> bool:
    return name.endswith(".json") or "/" in name


def parse_config(argv, config_file: str = None) -> tuple:
    """Validate flags (plus optional preset/config file) into a RunConfig.

    Returns (RunConfig, out_path).  Raises UsageError on anything malformed,
    including an invalid method/check token, an unusable polynomial spec, or
    the chern method outside so(2k) over so(2k-1) with the Pfaffian.
    """
    ns = _build_parser().parse_args(list(argv))
    merged = {}
    if ns.preset:
        merged.update(PRESETS[ns.preset])
    path = config_file or ns.config
    if path:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, ValueError) as exc:
            raise UsageError(f"cannot read config file {path}: {exc}") from None
        if not isinstance(data, dict):
            raise UsageError(f"config file {path} must hold a JSON object")
        unknown = set(data) - set(_CONFIG_KEYS)
        if unknown:
            raise UsageError(f"unknown config keys: {sorted(unknown)}")
        merged.update(data)
    for key in _CONFIG_KEYS:
        value = getattr(ns, key, None)
        if value is not None:
            merged[key] = value

    if not merged.get("algebra"):
        raise UsageError("an algebra is required (--algebra or --preset)")

    methods = _unique(_csv(merged.get("methods", "integral")), "method")
    for m in methods:
        if m not in METHOD_NAMES:
            raise UsageError(f"unknown method {m!r}")
    if not methods:
        raise UsageError("at least one method is required")

    checks_raw = merged.get("checks", "all")
    checks = _unique(_csv(checks_raw), "check")
    if checks == ("all",):
        checks = CHECK_NAMES
    for c in checks:
        if c not in CHECK_NAMES:
            raise UsageError(f"unknown check {c!r}")
    if not checks:
        raise UsageError("at least one check is required")

    poly = str(merged.get("polynomial", "trace^1"))
    if poly != "pfaffian" and not _is_file_ref(poly):
        if not (poly.startswith("trace^") and poly[6:].isdigit()
                and int(poly[6:]) >= 1):
            raise UsageError(f"unknown polynomial {poly!r}")

    algebra_name = str(merged["algebra"])
    sub = merged.get("subalgebra")
    sub = "none" if sub is None else str(sub)

    if "chern" in methods:
        ok = (not _is_file_ref(algebra_name)
              and algebra_name.startswith("so")
              and algebra_name[2:].isdigit()
              and int(algebra_name[2:]) % 2 == 0
              and poly == "pfaffian")
        if ok:
            n = int(algebra_name[2:])
            if sub.startswith("so") and sub[2:].isdigit():
                given = so_block(n, int(sub[2:]))
            elif sub in ("none", ""):
                given = ()
            else:
                try:
                    given = tuple(sorted(int(t) for t in sub.split(",")))
                except ValueError:
                    given = None
            ok = given == so_block(n, n - 1)
        if not ok:
            raise UsageError(
                "the chern method needs so(2k) with the so(2k-1) splitting "
                "and the pfaffian polynomial")

    corrupt = _parse_corrupt(merged.get("corrupt"))
    if corrupt[:1] == ("aij",) and "johnson" not in methods:
        raise UsageError("--corrupt aij perturbs only the johnson method")

    config = RunConfig(
        algebra=algebra_name,
        subalgebra=sub,
        polynomial=poly,
        methods=methods,
        checks=checks,
        output=str(merged.get("output", "text")),
        field=str(merged.get("field", "") or ""),
        seed=_parse_seed(merged.get("seed", 0)),
        corrupt=corrupt,
    )
    if config.output not in ("text", "json"):
        raise UsageError(f"unknown output format {config.output!r}")
    if config.field not in ("", "rational", "gaussian"):
        raise UsageError(f"unknown field {config.field!r}")
    return config, ns.out


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------

def _resolve_algebra(config: RunConfig) -> LieAlgebra:
    name = config.algebra
    try:
        if _is_file_ref(name):
            algebra = algebra_from_file(name)
        else:
            algebra = named_algebra(name)
    except (OSError, ContractError) as exc:
        raise UsageError(str(exc)) from None
    if config.corrupt and config.corrupt[0] == "structure":
        a, b, c = config.corrupt[1:]
        if not all(0 <= idx < algebra.dim for idx in (a, b, c)):
            raise UsageError(f"--corrupt structure indices {(a, b, c)} out of "
                             f"range for dimension {algebra.dim}")
        structure = dict(algebra.structure)
        bumped = structure.get((a, b, c), Scalar(0)) + Scalar(1)
        structure[(a, b, c)] = bumped
        structure[(a, c, b)] = -bumped
        algebra = LieAlgebra(algebra.dim, algebra.labels, structure,
                             algebra._realization, name=algebra.name + "+corrupt",
                             meta=algebra.meta)
    return algebra


def _resolve_polynomial(config: RunConfig, algebra: LieAlgebra):
    poly = config.polynomial
    try:
        if poly == "pfaffian":
            P = pfaffian(algebra)
        elif poly.startswith("trace^"):
            P = symmetrized_trace(algebra, int(poly[6:]))
        else:
            with open(poly, "r", encoding="utf-8") as fh:
                P = invariant_from_dict(algebra, json.load(fh))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError, ContractError) as exc:
        raise UsageError(f"cannot build polynomial {poly!r}: {exc}") from None
    if config.corrupt and config.corrupt[0] == "prefactor":
        P = P.scaled(Scalar(2))
    return P


def _entry_from_validation(name: str, report) -> CheckResult:
    first = report.first()
    return CheckResult(name, report.passed, "" if first is None else
                       f"{first.invariant} at {first.indices}: {first.detail}")


def _rendered_terms(form):
    ctx = form.ctx
    return [[coeff.render(), render_monomial(ctx, mono)]
            for mono, coeff in form.sorted_terms()]


def _run_method(config: RunConfig, setup, P, method: str):
    """One transgression route; ``--corrupt aij`` perturbs the johnson one."""
    if method == "integral":
        return tp_integral(setup, P)
    if method == "chern":
        return tp_chern_euler(setup, P)
    if config.corrupt[:1] != ("aij",):
        return tp_johnson(setup, P)
    ci, cj = config.corrupt[1:]
    perturbed = []

    def coefficient_fn(k, i, j):
        base = coefficient_A(k, i, j)
        if (i, j) != (ci, cj):
            return base
        perturbed.append((i, j))
        return base + Scalar(1)

    result = tp_johnson(setup, P, coefficient_fn=coefficient_fn)
    # tp_johnson asks only for the coefficients of nonzero terms
    if not perturbed:
        raise UsageError(
            f"--corrupt aij={ci},{cj} perturbs nothing: the johnson "
            f"sum at degree {P.degree} has no nonzero term (i, j) = "
            f"({ci}, {cj})")
    return result


@dataclass
class _Run:
    """What the checks of one run read.  ``forms`` holds one record
    [form, rendered terms, checks or None] per distinct route form, and the
    routes hold its form, so that routes with equal forms share one
    certificate."""

    config: RunConfig
    setup: UniversalSetup
    P: object
    results: dict
    forms: list


def _check_d2(run: _Run) -> list:
    witness = run.setup.d_squared_witness()
    if witness is not None:
        return [CheckResult("d2", False,
                            f"d(d({witness[0]})) = {witness[1].leading_term_str()}")]
    probe = run.setup.d_squared_probe(run.config.seed)
    return [CheckResult("d2", probe is None, "" if probe is None else probe.leading_term_str())]


def _check_routes(run: _Run, name: str) -> list:
    entries = []
    for method, result in run.results.items():
        record = next(r for r in run.forms if r[0] is result.form)
        if record[2] is None:
            record[2] = verify_transgression(result, run.setup, run.P)
        checks = record[2]
        # basicness is horizontality together with invariance
        parts = ([checks["transgression"]] if name == "transgression"
                 else [checks["horizontality"], checks["invariance"]])
        entries.append(CheckResult(f"{name}[{method}]", all(parts),
                                   next((c.witness for c in parts if c.witness), "")))
    return entries


def _check_agreement(run: _Run) -> list:
    for a, b in itertools.combinations(run.results, 2):
        diff = run.results[a].form - run.results[b].form
        if not diff.is_zero:
            return [CheckResult("agreement", False, f"{a} vs {b}: {diff.leading_term_str()}")]
    return [CheckResult("agreement", True)]


def _check_coefficients(run: _Run) -> list:
    k = run.P.degree
    for i, j in ((i, j) for i in range(k) for j in range(k - i)):
        closed, integrated = coefficient_A(k, i, j), coefficient_A_by_integration(k, i, j)
        if closed != integrated:
            return [CheckResult("coefficients", False, f"(k,i,j)=({k},{i},{j}): "
                                f"{closed.render()} vs {integrated.render()}")]
    return [CheckResult("coefficients", True)]


def _check_identities(run: _Run) -> list:
    return [derivative_identity_check(run.setup, run.P), deformation_bianchi_check(run.setup),
            ad_invariance_identity_check(run.setup, run.P)]


# check name -> the function giving its report entries
CHECKS = {
    "d2": _check_d2,
    "transgression": lambda run: _check_routes(run, "transgression"),
    "basicness": lambda run: _check_routes(run, "basicness"),
    "agreement": _check_agreement,
    "coefficients": _check_coefficients,
    "derivative-identity": _check_identities,
}


def run(config: RunConfig) -> Report:
    """Execute the configured constructions and checks, deterministically."""
    t_start = time.perf_counter()
    timing = {}
    with _stage(timing, "algebra"):
        algebra = _resolve_algebra(config)
        needs_gaussian = algebra.has_imaginary_data()
        field_resolved = config.field or ("gaussian" if needs_gaussian else "rational")
        if field_resolved == "rational" and needs_gaussian:
            raise UsageError(
                f"algebra {algebra.name!r} needs the gaussian field "
                "(imaginary entries present)")
        try:
            split = named_split(algebra, config.subalgebra)
        except ContractError as exc:
            raise UsageError(str(exc)) from None

    report = Report(config={
        "algebra": config.algebra,
        "subalgebra": config.subalgebra,
        "polynomial": config.polynomial,
        "methods": ",".join(config.methods),
        "checks": ",".join(config.checks),
        "field": field_resolved,
        "seed": config.seed,
        "corrupt": "=".join(str(x) for x in config.corrupt[:1])
                   + (":" + ",".join(str(x) for x in config.corrupt[1:])
                      if len(config.corrupt) > 1 else "") if config.corrupt else "",
        "output": config.output,
    })
    entries = report.checks

    with _stage(timing, "algebra-valid"):
        algebra_report = validate(algebra)
        entries.append(_entry_from_validation("algebra-valid", algebra_report))
    with _stage(timing, "split-valid"):
        split_report = validate_split(algebra, split)
        entries.append(_entry_from_validation("split-valid", split_report))

    if not (algebra_report.passed and split_report.passed):
        for name in config.checks:
            entries.append(CheckResult(name, False, "not run: invalid algebra or split"))
        timing["total"] = round(time.perf_counter() - t_start, 6)
        report.stats = {"seed": config.seed, "term_counts": {}, "timing": timing}
        return report

    with _stage(timing, "setup"):
        setup = UniversalSetup(algebra, split)
    with _stage(timing, "polynomial"):
        P = _resolve_polynomial(config, algebra)
    with _stage(timing, "polynomial-ad-invariant"):
        witness = P.ad_invariance_witness()
        entries.append(CheckResult("polynomial-ad-invariant", witness is None,
                                   "" if witness is None
                                   else f"direction {witness[0]}, tuple {witness[1]}: "
                                   f"{witness[2].render()}"))

    results, forms = {}, []
    for method in config.methods:
        with _stage(timing, f"tp[{method}]"):
            results[method] = result = _run_method(config, setup, P, method)
            record = next((r for r in forms if r[0] == result.form), None)
            if record is None:
                record = [result.form, _rendered_terms(result.form), None]
                forms.append(record)
            form = result.form = record[0]  # keep one copy of the form
            report.forms[method] = {
                "degree": form.degree() if not form.is_zero else None,
                "term_count": form.term_count,
                "terms": record[1],
            }

    state = _Run(config, setup, P, results, forms)
    for name in config.checks:
        with _stage(timing, name):
            entries += CHECKS[name](state)

    timing["total"] = round(time.perf_counter() - t_start, 6)
    report.stats = {
        "seed": config.seed,
        "term_counts": {m: info["term_count"] for m, info in report.forms.items()},
        "timing": timing,
    }
    return report


@contextlib.contextmanager
def _stage(timing: dict, name: str):
    """Record the wall time of the block under ``name`` once it completes."""
    t0 = time.perf_counter()
    yield
    timing[name] = round(time.perf_counter() - t0, 6)


@contextlib.contextmanager
def _report_stream(path):
    """The report's destination, opened before any computation so that an
    unwritable path is a usage error rather than a late crash."""
    if not path:
        yield sys.stdout
        return
    try:
        fh = open(path, "w", encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot write report to {path}: {exc}") from None
    with fh:
        yield fh


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        config, out_path = parse_config(argv)
        with _report_stream(out_path) as out:
            report = run(config)
            print(report.to_json() if config.output == "json" else report.to_text(),
                  file=out)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())

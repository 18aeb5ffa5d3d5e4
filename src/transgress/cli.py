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
from dataclasses import asdict, dataclass, field, fields

from .algebra import ContractError, Scalar, render_monomial
from .invariants import invariant_from_dict, pfaffian, symmetrized_trace
from .lie import (
    LieAlgebra,
    algebra_from_dict,
    named_algebra,
    named_split,
    validate,
    validate_split,
)
from .transgression import (
    CheckResult,
    ad_invariance_identity_check,
    check_euler_split,
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


class UsageError(Exception):
    """Bad flags, unknown keys, or unusable input files."""


def _text(key: str, value) -> str:
    if not isinstance(value, str):
        raise UsageError(f"{key} must be a string, not {value!r}")
    return value


def _one_of(*allowed):
    """A reader of one of ``allowed``, and its help."""
    def read(key, value):
        if _text(key, value) not in allowed:
            raise UsageError(f"unknown {key} {value!r}")
        return value
    return read, " | ".join(allowed)


def _names(allowed: tuple, what: str, every: str = ""):
    """A comma list, or a list of strings, of distinct names from
    ``allowed``, or ``every`` alone for all of them.  A repeated name would
    run twice and keep only the second run's time."""
    def read(key, value):
        if isinstance(value, list) and all(isinstance(tok, str) for tok in value):
            tokens = tuple(value)
        else:
            tokens = tuple(tok.strip() for tok in _text(key, value).split(",")
                           if tok.strip())
        if every and tokens == (every,):
            return allowed
        for i, tok in enumerate(tokens):
            if tok not in allowed:
                raise UsageError(f"unknown {what} {tok!r}")
            if tok in tokens[:i]:
                raise UsageError(f"{what} {tok!r} given more than once")
        if not tokens:
            raise UsageError(f"at least one {what} is required")
        return tokens
    return read


def _is_file_ref(name: str) -> bool:
    return name.endswith(".json") or "/" in name


def _trace_degree(spec: str):
    """k for ``trace^k`` with k >= 1, None for ``pfaffian`` or a tensor file."""
    if spec == "pfaffian" or _is_file_ref(spec):
        return None
    if spec.startswith("trace^") and spec[6:].isdecimal() and int(spec[6:]) >= 1:
        return int(spec[6:])
    raise UsageError(f"unknown polynomial {spec!r}")


def _polynomial(key, value) -> str:
    _trace_degree(_text(key, value))
    return value


def _seed(key, value) -> int:
    # an integer, or a string of one; a float or bool would be truncated
    if isinstance(value, (int, str)) and not isinstance(value, bool):
        try:
            return int(value)
        except ValueError:
            pass
    raise UsageError(f"{key} must be an integer, not {value!r}")


def _corrupt(key, value) -> tuple:
    spec = _text(key, value)
    if not spec:
        return ()
    if spec == "prefactor":
        return ("prefactor",)
    kind, _, rest = spec.partition("=")
    try:
        nums = tuple(int(tok) for tok in rest.split(","))
    except ValueError:
        raise UsageError(f"bad corrupt spec: {spec!r}") from None
    if (kind, len(nums)) in (("aij", 2), ("structure", 3)):
        return (kind,) + nums
    raise UsageError(f"bad corrupt spec: {spec!r}")


def _key(flag: str, read, help: str, **default):
    """A RunConfig field whose ``read(key, value)`` takes a flag's text, or a
    preset's or config file's JSON value, to the field's value."""
    return field(metadata={"flag": flag, "read": read, "help": help}, **default)


@dataclass
class RunConfig:
    """One run.  Each field is a key of presets and config files and has a
    flag: the field's default, and its metadata's flag, help and reader, are
    the whole rule for that key.  The report shows the fields in this order."""

    algebra: str = _key("--algebra", _text, "built-in name (so4, gl3, su2, u2, "
                        "abelian3) or a JSON table file")
    subalgebra: str = _key("--sub", _text, "subalgebra: so3, gl2, u1, 'none', or h "
                           "indices '0,1,3'", default="none")
    polynomial: str = _key("--poly", _polynomial, "pfaffian | trace^k | tensor JSON file",
                           default="trace^1")
    methods: tuple = _key("--method", _names(METHOD_NAMES, "method"),
                          "comma list from: " + ",".join(METHOD_NAMES),
                          default=("integral",))
    checks: tuple = _key("--check", _names(CHECK_NAMES, "check", "all"),
                         "'all' or comma list from: " + ",".join(CHECK_NAMES),
                         default=CHECK_NAMES)
    seed: int = _key("--seed", _seed, "seed for the randomized d2 probe", default=0)
    # testing hook: ("aij", i, j) | ("structure", a, b, c) | ("prefactor",)
    corrupt: tuple = _key("--corrupt", _corrupt, "regression hook: aij=i,j | "
                          "structure=a,b,c | prefactor", default=())
    output: str = _key("--output", *_one_of("text", "json"), default="text")


_KEYS = fields(RunConfig)


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
    p.add_argument("--config", help="JSON config file with the keys "
                                    + ", ".join(f.name for f in _KEYS))
    for f in _KEYS:
        p.add_argument(f.metadata["flag"], dest=f.name, help=f.metadata["help"])
    p.add_argument("--out", help="write the report to this path")
    return p


def _read_json(path: str, what: str):
    """The JSON document of a ``what`` file.  A file that cannot be opened
    or decoded, nested too deeply or holding an integer literal too long to
    convert among them, is a usage error naming the file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise UsageError(f"cannot read {what} file {path}: {exc}") from None


def parse_config(argv) -> tuple:
    """Read flags over a config file over a preset into a RunConfig.

    Returns (RunConfig, out_path).  Raises UsageError on anything malformed,
    including a value of the wrong JSON type, an invalid method/check token,
    an unusable polynomial spec, or the chern method without the Pfaffian.
    Whether chern fits the algebra and split is decided by ``run``.
    """
    ns = _build_parser().parse_args(list(argv))
    given = dict(PRESETS[ns.preset]) if ns.preset else {}
    if ns.config:
        data = _read_json(ns.config, "config")
        if not isinstance(data, dict):
            raise UsageError(f"config file {ns.config} must hold a JSON object")
        unknown = set(data) - {f.name for f in _KEYS}
        if unknown:
            raise UsageError(f"unknown config keys: {sorted(unknown)}")
        given.update(data)
    given.update((f.name, getattr(ns, f.name)) for f in _KEYS
                 if getattr(ns, f.name) is not None)
    if not given.get("algebra"):
        raise UsageError("an algebra is required (--algebra or --preset)")
    config = RunConfig(**{f.name: f.metadata["read"](f.name, given[f.name])
                          for f in _KEYS if f.name in given})
    if config.corrupt[:1] == ("aij",) and "johnson" not in config.methods:
        raise UsageError("--corrupt aij perturbs only the johnson method")
    if "chern" in config.methods and config.polynomial != "pfaffian":
        raise UsageError("the chern method needs the pfaffian polynomial")
    return config, ns.out


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------

def _resolve_algebra(config: RunConfig) -> LieAlgebra:
    name = config.algebra
    try:
        if _is_file_ref(name):
            algebra = algebra_from_dict(_read_json(name, "algebra"))
        else:
            algebra = named_algebra(name)
    except ContractError as exc:
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
    k = _trace_degree(poly)
    try:
        if k:
            P = symmetrized_trace(algebra, k)
        elif poly == "pfaffian":
            P = pfaffian(algebra)
        else:
            P = invariant_from_dict(algebra, _read_json(poly, "polynomial"))
    except ContractError as exc:
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
        number_field = "gaussian" if algebra.has_imaginary_data() else "rational"
        try:
            split = named_split(algebra, config.subalgebra)
            if "chern" in config.methods:
                check_euler_split(algebra, split)
        except ContractError as exc:
            raise UsageError(str(exc)) from None

    # the field the algebra's data needs, shown between the checks and the seed
    shown = list(asdict(config).items())
    shown.insert([key for key, _ in shown].index("seed"), ("field", number_field))
    report = Report(config={
        **dict(shown), "methods": ",".join(config.methods),
        "checks": ",".join(config.checks),
        "corrupt": "=".join(str(x) for x in config.corrupt[:1])
                   + (":" + ",".join(str(x) for x in config.corrupt[1:])
                      if len(config.corrupt) > 1 else "") if config.corrupt else "",
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

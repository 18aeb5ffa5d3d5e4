import contextlib
import importlib.util
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import transgress
from transgress import cli
from transgress.algebra import ContractError
from transgress.cli import (
    CHECK_NAMES,
    PRESETS,
    UsageError,
    main,
    parse_config,
    run,
)
from transgress.lie import (
    LieAlgebra,
    algebra_from_dict,
    named_algebra,
    named_split,
    so_algebra,
    so_block,
)
from transgress.transgression import tp_chern_euler, verify_transgression
from transgress.weil import UniversalSetup


# the repository root, which some configurations name files relative to
ROOT = Path(__file__).resolve().parents[1]
# the pinned configurations, their algebra files and digest()
_SPEC = importlib.util.spec_from_file_location(
    "report_digest", ROOT / "scripts" / "report_digest.py")
REPORT_DIGEST = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(REPORT_DIGEST)


def parse(args):
    config, _ = parse_config(args)
    return config


class TestParseConfig:
    def test_happy_path(self):
        config = parse(["--algebra", "so4", "--sub", "so3",
                        "--poly", "pfaffian", "--method", "integral,chern",
                        "--check", "all"])
        assert config.algebra == "so4"
        assert config.subalgebra == "so3"
        assert config.methods == ("integral", "chern")
        assert config.checks == CHECK_NAMES

    def test_chern_needs_even_so_with_pfaffian(self):
        with pytest.raises(UsageError):
            run(parse(["--algebra", "so5", "--sub", "so4",
                       "--poly", "pfaffian", "--method", "chern"]))
        with pytest.raises(UsageError):
            run(parse(["--algebra", "so4", "--sub", "so3",
                       "--poly", "trace^2", "--method", "chern"]))
        with pytest.raises(UsageError):
            run(parse(["--algebra", "gl3", "--sub", "gl2",
                       "--poly", "pfaffian", "--method", "chern"]))

    def test_chern_accepts_index_list_subalgebra(self):
        config = parse(["--algebra", "so4", "--sub", "0,1,3",
                        "--poly", "pfaffian", "--method", "chern"])
        assert config.methods == ("chern",)

    @pytest.mark.parametrize("n", range(2, 11))
    def test_chern_split_rule_matches_route(self, n):
        # the CLI admits a split for chern exactly when tp_chern_euler
        # accepts it, and it admits the standard block for every even n,
        # whatever the case of the names
        algebra = so_algebra(n)
        block = so_block(n, n - 1)
        # the last basis element, E[n-1,n], lies outside the so(n-1) block
        subs = [f"so{n - 1}", ",".join(map(str, block)), f"so{n - 2}", "none",
                ",".join(map(str, block[:-1])),
                ",".join(map(str, block + (algebra.dim - 1,))),
                ",".join(map(str, block + block[-1:])), f"SO{n - 1}"]
        for name, sub in [(f"so{n}", sub) for sub in subs] + [(f"SO{n}", f"so{n - 1}")]:
            try:
                run(parse(["--algebra", name, "--sub", sub,
                           "--poly", "pfaffian", "--method", "chern"]))
                parsed = True
            except UsageError:
                parsed = False
            try:
                tp_chern_euler(UniversalSetup(algebra, named_split(algebra, sub)))
                routed = True
            except ContractError:
                routed = False
            assert parsed == routed, (name, sub)
            if sub.lower() == f"so{n - 1}":
                assert parsed == (n % 2 == 0)

    @pytest.mark.parametrize("algebra, sub", [
        ("gl3", "gl2"), ("u2", "0"), ("u2", "none"), ("file", "0,1"), ("file", "none")])
    def test_chern_rule_off_the_so_family(self, tmp_path, monkeypatch, algebra, sub):
        # outside the built-in so family the CLI refuses chern, and exactly
        # when tp_chern_euler does: before any route runs
        if algebra == "file":
            path = tmp_path / "so3_cyclic.json"
            table = {"dim": 3, "entries": [[2, 0, 1, "1"], [0, 1, 2, "1"], [1, 2, 0, "1"]]}
            path.write_text(json.dumps(table))
            algebra, resolved = str(path), algebra_from_dict(table)
        else:
            resolved = named_algebra(algebra)
        with pytest.raises(ContractError):
            tp_chern_euler(UniversalSetup(resolved, named_split(resolved, sub)))
        config = parse(["--algebra", algebra, "--sub", sub,
                        "--poly", "pfaffian", "--method", "chern"])

        def no_route(*args):
            raise AssertionError("a route ran before the chern rule refused")

        monkeypatch.setattr(cli, "_run_method", no_route)
        with pytest.raises(UsageError, match="Euler transgression"):
            run(config)

    def test_custom_file_passthrough(self):
        config = parse(["--algebra", "my.json", "--sub", "0,1,2",
                        "--poly", "trace^2"])
        assert config.algebra == "my.json"
        assert config.subalgebra == "0,1,2"

    def test_unknown_tokens_rejected(self):
        with pytest.raises(UsageError):
            parse(["--algebra", "so4", "--method", "magic"])
        with pytest.raises(UsageError):
            parse(["--algebra", "so4", "--check", "vibes"])
        with pytest.raises(UsageError):
            parse(["--algebra", "so4", "--poly", "det"])
        with pytest.raises(UsageError):
            parse(["--algebra", "so4", "--frobnicate"])
        with pytest.raises(UsageError):
            parse([])

    def test_preset(self):
        config = parse(["--preset", "paper-so4"])
        assert config.algebra == "so4"
        assert config.polynomial == "pfaffian"
        assert set(config.methods) == {"integral", "johnson", "chern"}

    def test_flags_override_preset(self):
        config = parse(["--preset", "paper-so4", "--method", "integral"])
        assert config.methods == ("integral",)

    def test_config_file(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({
            "algebra": "su2", "subalgebra": "u1", "polynomial": "trace^2",
            "methods": ["integral", "johnson"], "checks": "all",
        }))
        config = parse(["--config", str(path)])
        assert config.algebra == "su2"
        assert config.methods == ("integral", "johnson")

    def test_config_file_unknown_keys_rejected(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"algebra": "so4", "banana": 1}))
        with pytest.raises(UsageError):
            parse(["--config", str(path)])

    def test_bad_corrupt_spec(self):
        with pytest.raises(UsageError):
            parse(["--algebra", "so4", "--corrupt", "aij=x"])


class TestRun:
    def test_so4_all_pass(self):
        config = parse(["--preset", "paper-so4"])
        report = run(config)
        assert report.passed
        names = [e.name for e in report.checks]
        assert "transgression[chern]" in names
        assert report.forms["integral"]["degree"] == 3
        assert report.forms["integral"]["terms"] == report.forms["chern"]["terms"]

    def test_abelian_trace_linear(self):
        config = parse(["--algebra", "abelian2", "--sub", "none",
                        "--poly", "trace^1"])
        report = run(config)
        assert report.passed
        terms = report.forms["integral"]["terms"]
        assert terms == [["1", "w[0]"], ["1", "w[1]"]]

    def test_json_report_stable_and_schema(self):
        config = parse(["--preset", "paper-so4", "--output", "json"])
        d1 = run(config).to_dict()
        d2 = run(config).to_dict()
        d1["stats"].pop("timing")
        d2["stats"].pop("timing")
        assert d1 == d2
        assert set(d1) == {"config", "checks", "forms", "stats"}
        for entry in d1["checks"]:
            assert entry["status"] in ("pass", "fail")
            assert set(entry) <= {"name", "status", "witness"}
        for info in d1["forms"].values():
            for coeff, mono in info["terms"]:
                assert isinstance(coeff, str) and isinstance(mono, str)

    def test_stage_timings_cover_the_run(self):
        timing = run(parse(["--preset", "paper-so4"])).stats["timing"]
        for stage in ("algebra", "algebra-valid", "split-valid", "setup",
                      "polynomial", "polynomial-ad-invariant"):
            assert stage in timing
        staged = sum(v for name, v in timing.items() if name != "total")
        assert staged >= 0.95 * timing["total"], timing

    def test_rendered_two_pi_convention(self):
        config = parse(["--algebra", "so2", "--sub", "none",
                        "--poly", "pfaffian"])
        report = run(config)
        assert report.forms["integral"]["terms"] == [["-1*(2pi)^-1", "w[0]"]]

    def test_corrupted_coefficient_fixture(self):
        config = parse(["--algebra", "so4", "--sub", "so3",
                        "--poly", "pfaffian", "--method", "johnson",
                        "--corrupt", "aij=1,0"])
        report = run(config)
        assert not report.passed
        failing = [e for e in report.checks if e.status == "fail"]
        assert failing
        assert any(e.witness for e in failing)

    def test_corrupted_structure_fixture(self):
        config = parse(["--algebra", "so4", "--sub", "so3",
                        "--poly", "pfaffian", "--corrupt", "structure=0,0,1"])
        report = run(config)
        assert not report.passed
        assert any(e.name == "algebra-valid" and e.status == "fail"
                   for e in report.checks)

    def test_custom_algebra_file_runs(self, tmp_path):
        path = tmp_path / "alg.json"
        path.write_text(json.dumps({
            "dim": 2,
            "labels": ["a", "b"],
            "entries": [],
        }))
        config = parse(["--algebra", str(path), "--sub", "0",
                        "--poly", "trace^1"])
        with pytest.raises(UsageError):
            # no matrices: the trace builder cannot work
            run(config)

    def test_custom_algebra_with_matrices_full_run(self, tmp_path):
        path = tmp_path / "so3_cyclic.json"
        path.write_text(json.dumps({
            "dim": 3,
            "labels": ["L1", "L2", "L3"],
            "entries": [[2, 0, 1, "1"], [0, 1, 2, "1"], [1, 2, 0, "1"]],
            "matrices": [
                [["0", "0", "0"], ["0", "0", "-1"], ["0", "1", "0"]],
                [["0", "0", "1"], ["0", "0", "0"], ["-1", "0", "0"]],
                [["0", "-1", "0"], ["1", "0", "0"], ["0", "0", "0"]],
            ],
        }))
        config = parse(["--algebra", str(path), "--sub", "2",
                        "--poly", "trace^2", "--method", "integral,johnson"])
        report = run(config)
        assert report.passed
        assert report.forms["integral"]["terms"] == \
            report.forms["johnson"]["terms"]

    def test_missing_polynomial_file(self):
        config = parse(["--algebra", "so4", "--poly", "nowhere/poly.json"])
        with pytest.raises(UsageError):
            run(config)

    def test_custom_polynomial_file(self, tmp_path):
        poly = tmp_path / "poly.json"
        poly.write_text(json.dumps({
            "degree": 1,
            "values": [[[1], "1"]],
        }))
        config = parse(["--algebra", "abelian2", "--sub", "0",
                        "--poly", str(poly)])
        report = run(config)
        assert report.passed
        assert report.forms["integral"]["terms"] == [["1", "w[1]"]]

    def test_zero_prefactor_file(self, tmp_path, capsys):
        # the zero polynomial passes the gate whichever factor is zero
        forms = []
        for tensor in ({"degree": 1, "values": [[[0], "1"]], "prefactor": "0"},
                       {"degree": 1, "values": [[[0], "0"]]}):
            poly, out = tmp_path / "poly.json", tmp_path / "report.json"
            poly.write_text(json.dumps(tensor))
            assert main(["--algebra", "so4", "--sub", "so3", "--poly", str(poly),
                         "--method", "integral,johnson", "--output", "json",
                         "--out", str(out)]) == 0
            forms.append(json.loads(out.read_text())["forms"])
        assert forms[0] == forms[1]

    @pytest.mark.parametrize("names", [("so4", "SO3"), ("SO4", "so3")])
    @pytest.mark.parametrize("method", ["chern", "integral"])
    def test_names_read_in_any_case(self, names, method, capsys):
        # one name grammar for every method: named_algebra and named_split
        assert main(["--algebra", names[0], "--sub", names[1], "--poly",
                     "pfaffian", "--method", method]) == 0
        assert "result: PASS (11/11 checks)" in capsys.readouterr().out


class TestSameReports:
    """SHA-256 of the JSON report without ``stats.timing``, computed by
    ``digest`` of ``scripts/report_digest.py`` for each of its
    configurations.  A change that alters a form, a verdict, a witness or
    the order of terms changes a digest.  A label that the script runs and
    this class does not pin, or the other way round, fails as well."""

    ARGV = dict(REPORT_DIGEST.CONFIGS + REPORT_DIGEST.LARGE)
    DIGESTS = {
        "paper-so4": "ff42e65733d9fd4549fef7d917af576abb0caeb5dceda0c6ad7235f8327df6b1",
        "paper-so6": "5f60fb62c57185d8e40649b577f5d02970869097c9545b602f45b904a81e204d",
        "paper-gl3": "b823001adaf725fca73d7df1492599efedd5faeb1b6e5464d781bcb23f277049",
        "so4:structure=0,1,2":
            "28ef242b6eb6a34a978c623ee00ef011ab57fa93b53a7c27ece4fe17383c098f",
        "u2:structure=1,2,3":
            "e5a6900ddeae7d17a1786d264ac7afbbf43a5bdbdaefc919240e7a50b53cb499",
        "so8/so7": "6f094bfe6cc65f3f9fd7874c8cbdfae1f6d6ae5534b367ec1b25566266f42a33",
        "so10/so9": "e2fd961e9837f7975526a579e952c856a67b454812af23dac363b5f615852a05",
        "u3:trace^4": "4df4e76c4047e42cdbee3979a1ca0ca9bd9b77018a915f4d581b33629a10f892",
        "u3:trace^3": "8b2bf61a4b8582bf41f4e3cb7b5e49c01e2fc1bfaebcb617f099fb21623331e1",
        "u4:trace^2": "ff0925c6094a97cb35046813ee7d2a8b88e6c2b0fb85ad8f857bbbc15afa43e3",
        "gl4/gl3:trace^3":
            "d3633dfd38a91a2a3817f578f07d7c9f92f53dd396fcb9e793098391d05c035c",
        "so6:aij=0,0": "f969bad0a7cf54407411e3a49a8b52325c84f192c75bd75c86e5a87d7975cb2b",
        "so6:prefactor": "73047cc55e4a7a375c7a3b56c4ae39696019cbe6ac81cf08e28b03a56d9269c0",
        "gl3/gl2:trace^1":
            "1ddb4967da13fa0768b9b6ac68a45b52816e94c84696a05e12518ba00d63f3b3",
        "u2:trace^1": "23bbe89406b4756afc1c63861bbfce2fc0e3fce4050ea71465fb118a743c570f",
        "su2/u1": "b2c90868054cf4fa1cbe7093f8d50c1d6ba72bcee79014685515e73fc2a7eaec",
        "so4:structure=5,3,4":
            "adbaf92415388e358b815f7e34a404408346fd9314ffd3563298c664954cb927",
        "gl3:structure=0,1,3":
            "0b8a4bdb86ecf4934bca8901b45087c8c9d31d7fb4873df9deede32b55ca507d",
        "gl3:noninvariant":
            "98193bb1ca18e98f401d50d1c860049795f021a06cbbcdf9b77e91d1baad651c",
        "gl3:nonbasic": "7b3186d953ca2f4bc110cd22d9db42bebf851eed8723c687b64b1e2f1d72acda",
    }

    @pytest.mark.parametrize("label", {**DIGESTS, **ARGV})
    def test_report_digest(self, label, monkeypatch):
        monkeypatch.chdir(ROOT)
        assert REPORT_DIGEST.digest(self.ARGV[label]) == self.DIGESTS[label]

    FILES = {
        "su2-file": "d83e9cf3c7bde3f3000153dcaab352048a593b4229f2cdaa671da697ff7b4642",
        "su2-bad-matrix-file":
            "9125f0588807e5f6d1e15ef174612505cc0bc17a987ca34b54506af69580a308",
        "so3-broken-file": "eaac8fc20a8d32da78dbb0c8515a8114eb9c4aee7f492055575c6989c1d77031",
        "su2-hermitian-file":
            "f4545270c602e037023af7a19d83118264fe3e691300d942e467963833e36260",
    }

    @pytest.mark.parametrize("label", {**FILES, **REPORT_DIGEST.FILES})
    def test_file_report_digest(self, label, tmp_path, monkeypatch):
        # the report names the file, so it is read by a path relative to tmp_path
        monkeypatch.chdir(tmp_path)
        (tmp_path / f"{label}.json").write_text(json.dumps(REPORT_DIGEST.FILES[label]))
        argv = ("--algebra", f"{label}.json") + REPORT_DIGEST.FILE_ARGS
        assert REPORT_DIGEST.digest(argv) == self.FILES[label]


@pytest.mark.parametrize("argv", [
    ("--preset", "paper-so4"),
    ("--algebra", "gl3", "--sub", "gl2", "--poly", "trace^3", "--method", "integral,johnson"),
    ("--algebra", "u2", "--sub", "0,1", "--poly", "trace^2", "--method", "integral,johnson"),
    ("--algebra", "su2", "--sub", "u1", "--poly", "trace^2", "--method", "integral,johnson"),
    ("--algebra", "abelian2", "--sub", "0", "--poly", "trace^1"),
])
def test_run_builds_no_dense_matrices(argv, monkeypatch):
    def refuse(algebra):
        raise AssertionError("the dense matrices were built")

    monkeypatch.setattr(LieAlgebra, "matrices", property(refuse))
    assert run(parse(list(argv) + ["--check", "all"])).passed


class TestCertifyOnce:
    """Routes whose forms are equal share one certificate; a route whose form
    differs gets its own, with its own witness."""

    @pytest.fixture
    def certified(self, monkeypatch):
        forms = []

        def counting(result, setup, P=None):
            forms.append(result.method)
            return verify_transgression(result, setup, P)

        monkeypatch.setattr(cli, "verify_transgression", counting)
        return forms

    @pytest.fixture
    def rendered(self, monkeypatch):
        forms = []
        render = cli._rendered_terms

        def counting(form):
            forms.append(form)
            return render(form)

        monkeypatch.setattr(cli, "_rendered_terms", counting)
        return forms

    def run_so6(self, *extra):
        return run(parse(["--algebra", "so6", "--sub", "so5",
                          "--poly", "pfaffian",
                          "--method", "integral,johnson,chern",
                          "--check", "transgression,basicness", *extra]))

    @staticmethod
    def verdicts(report):
        return [(e.name, e.status, bool(e.witness)) for e in report.checks[3:]]

    def test_three_equal_forms_certified_once(self, certified):
        report = self.run_so6()
        assert report.passed
        assert certified == ["integral"]
        assert [e.name for e in report.checks[3:]] == [
            f"{check}[{m}]" for check in ("transgression", "basicness")
            for m in ("integral", "johnson", "chern")]

    def test_corrupt_aij_certified_apart(self, certified):
        report = self.run_so6("--corrupt", "aij=0,0")
        assert certified == ["integral", "johnson"]
        assert self.verdicts(report) == [
            ("transgression[integral]", "pass", False),
            ("transgression[johnson]", "fail", True),
            ("transgression[chern]", "pass", False),
            ("basicness[integral]", "pass", False),
            ("basicness[johnson]", "pass", False),
            ("basicness[chern]", "pass", False)]

    @pytest.mark.parametrize("extra, apart", [
        ((), None), (("--corrupt", "aij=0,0"), "johnson"),
        (("--corrupt", "prefactor"), "chern")], ids=["equal", "aij", "prefactor"])
    def test_equal_forms_rendered_once(self, rendered, extra, apart):
        report = self.run_so6(*extra)
        assert len(rendered) == (1 if apart is None else 2)
        terms = {m: info["terms"] for m, info in report.forms.items()}
        assert all(terms.values())
        for method in terms:
            assert (terms[method] == terms["integral"]) == (method != apart)

    def test_corrupt_prefactor_certified_apart(self, certified):
        # the doubled polynomial doubles the integral and johnson forms and
        # the d-image they are checked against; the chern form stays put
        report = self.run_so6("--corrupt", "prefactor")
        assert certified == ["integral", "chern"]
        assert self.verdicts(report) == [
            ("transgression[integral]", "pass", False),
            ("transgression[johnson]", "pass", False),
            ("transgression[chern]", "fail", True),
            ("basicness[integral]", "pass", False),
            ("basicness[johnson]", "pass", False),
            ("basicness[chern]", "pass", False)]


class TestMain:
    def test_exit_codes(self, tmp_path, capsys):
        assert main(["--preset", "paper-so4"]) == 0
        capsys.readouterr()
        assert main(["--algebra", "so4", "--sub", "so3", "--poly", "pfaffian",
                     "--method", "johnson", "--corrupt", "aij=0,1"]) == 1
        capsys.readouterr()
        assert main(["--algebra", "so5", "--sub", "so4", "--poly", "pfaffian",
                     "--method", "chern"]) == 2
        capsys.readouterr()

    def test_out_file(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(["--algebra", "su2", "--sub", "u1", "--poly", "trace^2",
                     "--output", "json", "--out", str(out)])
        assert code == 0
        capsys.readouterr()
        data = json.loads(out.read_text())
        assert data["config"]["field"] == "gaussian"
        assert all(e["status"] == "pass" for e in data["checks"])

    @pytest.mark.parametrize("algebra, sub, field", [("su2", "u1", "gaussian"),
                                                     ("gl3", "gl2", "rational")])
    def test_report_shows_the_field_of_the_data(self, algebra, sub, field):
        # the field the algebra's data needs, between the checks and the seed
        report = run(parse(["--algebra", algebra, "--sub", sub, "--poly", "trace^2",
                            "--check", "d2"]))
        assert list(report.config) == ["algebra", "subalgebra", "polynomial", "methods",
                                       "checks", "field", "seed", "corrupt", "output"]
        assert report.config["field"] == field
        assert f" checks=d2 field={field} seed=0 output=text" in report.to_text()

    def test_high_degree_trace(self):
        # deep enough to overflow the interpreter stack if the trace walk or
        # a group product recursed once per factor
        code, err = run_cli("--algebra", "u1", "--poly", "trace^1500",
                            "--method", "integral",
                            "--check", "transgression,basicness")
        assert code == 0, err
        assert "Traceback" not in err

    def test_presets_exist(self):
        assert set(PRESETS) == {"paper-so4", "paper-so6", "paper-gl3"}


def run_fresh(*argv):
    """``python argv`` in a fresh interpreter with the package's source
    directory on PYTHONPATH, as a CompletedProcess."""
    src = str(Path(transgress.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *argv],
                          capture_output=True, text=True, env=env, timeout=120)


def run_cli(*args):
    """The CLI in a fresh interpreter: (exit code, stderr)."""
    proc = run_fresh("-m", "transgress", *args)
    return proc.returncode, proc.stderr


def test_scripts_run():
    # no other test runs these scripts, which read the package's internals
    out = {}
    for name in ("run_presets", "coefficient_table", "term_memory"):
        proc = run_fresh(str(ROOT / "scripts" / f"{name}.py"))
        assert proc.returncode == 0, proc.stderr
        out[name] = proc.stdout.splitlines()
    assert sum(": PASS (" in line for line in out["run_presets"]) == 3
    assert out["term_memory"][0].startswith("so8/so7 P(F_t, ..., F_t): 1078 terms,")
    assert out["term_memory"][1].startswith("so10/so9 P(F_t, ..., F_t): 15228 terms,")
    assert out["term_memory"][2].startswith("so8/so7 d(integrand): 1078 terms,")
    assert out["term_memory"][3].startswith("so10/so9 d(integrand): 15228 terms,")
    assert out["term_memory"][4].startswith("so8/so7 d_basic(integrand): 1078 terms,")
    assert out["term_memory"][5].startswith("so10/so9 d_basic(integrand): 15228 terms,")


SO4 = ("--algebra", "so4", "--sub", "so3", "--poly", "pfaffian")
SO4_CONFIG = {"algebra": "so4", "subalgebra": "so3", "polynomial": "pfaffian"}


class TestUsageErrors:
    """Bad input exits 2 with a one-line error and no traceback."""

    @pytest.mark.parametrize("args", [
        # an unwritable report path
        SO4 + ("--out", "/nonexistent/x"),
        # i + j > k - 1: no coefficient A_ij at degree 2
        SO4 + ("--method", "johnson", "--corrupt", "aij=1,1"),
        SO4 + ("--method", "johnson", "--corrupt", "aij=9,9"),
        # without johnson the coefficient hook touches nothing
        SO4 + ("--method", "integral,chern", "--corrupt", "aij=0,0"),
        # a structure index >= dim
        SO4 + ("--corrupt", "structure=9,9,9"),
        SO4 + ("--corrupt", "structure=0,1,6"),
        # a repeated token would run twice, and its timing would keep one run
        SO4 + ("--check", "d2,d2"),
        SO4 + ("--method", "integral,integral"),
        # an empty list would run nothing and still pass
        SO4 + ("--check", ""),
        SO4 + ("--check", ","),
        SO4 + ("--method", ""),
        # a subalgebra larger than the algebra
        ("--algebra", "so4", "--sub", "so5", "--poly", "pfaffian"),
        ("--algebra", "gl2", "--sub", "gl3", "--poly", "trace^2"),
        # a digit that is no decimal digit
        ("--algebra", "so\u00b2"),
        ("--algebra", "so4", "--sub", "so\u00b2"),
        ("--algebra", "so4", "--poly", "trace^\u00b2"),
        # the field is read off the algebra's data, not given
        SO4 + ("--field", "rational"),
    ], ids=["out", "aij-range", "aij-far", "aij-no-johnson",
            "structure-range", "structure-one-off", "check-repeated",
            "method-repeated", "check-empty", "check-commas", "method-empty",
            "so-sub-too-large", "gl-sub-too-large", "algebra-superscript",
            "sub-superscript", "trace-superscript", "field-flag"])
    def test_exit_2_without_traceback(self, args):
        code, err = run_cli(*args)
        assert code == 2, err
        assert err.startswith("error: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("spec", [",,,", "0,,1", "1,"])
    def test_sub_index_list_with_an_empty_token(self, spec):
        # an empty token is no index: ",,," would run with no subalgebra
        # and "0,,1" as "0,1"
        code, err = run_cli("--algebra", "so4", "--sub", spec, "--poly", "pfaffian")
        assert code == 2, err
        assert err.startswith("error: ") and repr(spec) in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("flag, payload, names", [
        ("--algebra", {"dim": 2, "entries": 5}, "entries"),
        ("--algebra", {"dim": 2, "entries": [[0, 0, 1, 0.1]]}, "0.1"),
        ("--algebra", {"dim": 2, "entries": [[0, 0, 1, True]]}, "True"),
        ("--algebra", {"dim": 1, "entries": [], "matrices": [[[0.5]]]}, "0.5"),
        ("--algebra", {"dim": 2, "entries": [],
                       "matrices": [[["1"]], [["1", "0"], ["0", "1"]]]}, "square"),
        ("--algebra", [1, 2], "JSON object"),
        ("--poly", {"degree": 2, "values": [[[0, 0], 0.1]]}, "0.1"),
        ("--poly", {"degree": 2, "values": [[[0, 0], "1"]], "prefactor": 0.5},
         "0.5"),
        ("--poly", {"degree": 2, "values": [[[False, 0], "1"]]}, "False"),
        ("--poly", {"degree": 1, "values": [[[0], "1"], [[0], "5"]]}, "duplicate"),
        ("--config", {"algebra": "so4", "seed": "x"}, "seed"),
        ("--config", {"algebra": "so4", "seed": 1.5}, "seed"),
        ("--config", ["so4"], "JSON object"),
        ("--config", {"algebra": "so4", "checks": []}, "at least one check"),
        ("--config", {"algebra": "so4", "methods": []}, "at least one method"),
        # a key whose flag takes text takes a JSON string, not a bool or number
        ("--config", {**SO4_CONFIG, "output": False}, "output"),
        ("--config", {**SO4_CONFIG, "corrupt": 0}, "corrupt"),
        ("--config", {**SO4_CONFIG, "corrupt": False}, "corrupt"),
        ("--config", {**SO4_CONFIG, "subalgebra": 0}, "subalgebra"),
    ], ids=["entries-int", "entry-float", "entry-bool", "matrix-float",
            "matrix-ragged", "algebra-list", "value-float", "prefactor-float", "index-bool",
            "value-duplicate", "seed-str", "seed-float", "config-list", "checks-empty",
            "methods-empty", "output-bool", "corrupt-zero", "corrupt-bool", "subalgebra-int"])
    def test_bad_input_file(self, tmp_path, flag, payload, names):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(payload))
        args = {"--algebra": ("--algebra", str(path), "--sub", "none"),
                "--poly": ("--algebra", "gl2", "--sub", "none",
                           "--poly", str(path)),
                "--config": ("--config", str(path))}[flag]
        code, err = run_cli(*args)
        assert code == 2, err
        assert err.startswith("error: ")
        assert names in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("text", ["[" * 200_000, "[" + "9" * 4301 + "]"],
                             ids=["deep-nesting", "long-integer"])
    @pytest.mark.parametrize("flag", ["--algebra", "--poly", "--config"])
    def test_undecodable_json(self, tmp_path, flag, text):
        # the JSON decoder raises RecursionError on the one and ValueError
        # on the other, past its 4300-digit limit for integer literals
        path = tmp_path / "input.json"
        path.write_text(text)
        args = {"--algebra": ("--algebra", str(path), "--sub", "none"),
                "--poly": ("--algebra", "gl2", "--sub", "none", "--poly", str(path)),
                "--config": ("--config", str(path))}[flag]
        code, err = run_cli(*args)
        assert code == 2, err
        assert err.startswith("error: cannot read ")
        assert str(path) in err
        assert "Traceback" not in err

    def test_out_path_checked_before_computing(self, monkeypatch, capsys):
        def no_run(config):
            raise AssertionError("computed before the report path was opened")

        monkeypatch.setattr(cli, "run", no_run)
        assert main(list(SO4) + ["--out", "/nonexistent/x"]) == 2
        assert "cannot write report" in capsys.readouterr().err

    def test_aij_on_a_zero_term(self, capsys):
        # with no subalgebra the sub-curvature vanishes, so every j >= 1
        # term of the johnson sum is zero and A_01 perturbs nothing
        assert main(["--algebra", "so4", "--sub", "none", "--poly", "pfaffian",
                     "--method", "johnson", "--corrupt", "aij=0,1"]) == 2
        assert "perturbs nothing" in capsys.readouterr().err


# Fuzzed input files: mostly well-formed, with any field, item or leaf
# replaced by JSON junk now and then, fields left out, junk keys added and
# keys repeated.  Text is drawn from an alphabet without "/" or ".", so that
# no junk string names a file, and every algebra stays small, so that each
# run is cheap.
_TEXT = st.text(alphabet="xyz01,^-= ", max_size=4)
_JUNK = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 5) | st.floats(width=16) | _TEXT,
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(_TEXT, inner, max_size=3)),
    max_leaves=6)


_RARELY = st.sampled_from((False,) * 5 + (True,))  # True one time in six


def _mostly(valid):
    """The valid strategy, or JSON junk one time in six."""
    return _RARELY.flatmap(lambda junk: _JUNK if junk else valid)


_SCALAR = _RARELY.flatmap(lambda bad: (
    st.sampled_from(["1/0", "x", "", "2.5", "1e3"]) | _JUNK if bad
    else st.sampled_from([0, 1, -2, "1", "-1/2", "i", "1/2+3/4i"])))


def _object(required: dict, optional: dict):
    """A JSON object's (key, value) pairs: the required fields, some of the
    optional ones and, one time in six each, a key left out, a key repeated
    (the decoder keeps the last) or a junk key."""
    fields = {**required, **optional}
    field = st.sampled_from(sorted(fields)).flatmap(
        lambda key: st.tuples(st.just(key), fields[key]))
    return st.tuples(
        st.fixed_dictionaries(required, optional=optional).map(
            lambda d: list(d.items())),
        _RARELY.flatmap(lambda drop: st.integers(0, 9) if drop else st.none()),
        _RARELY.flatmap(lambda twice: st.lists(field, min_size=1, max_size=1)
                        if twice else st.just([])),
        _RARELY.flatmap(lambda junk: st.lists(st.tuples(_TEXT, _JUNK),
                                              min_size=1, max_size=1)
                        if junk else st.just([])),
    ).map(lambda t: [kv for i, kv in enumerate(t[0]) if i != t[1]] + t[2] + t[3])


def _object_text(pairs) -> str:
    return "{" + ", ".join(f"{json.dumps(k)}: {json.dumps(v)}"
                           for k, v in pairs) + "}"


def _matrices(dim):
    return st.integers(1, 2).flatmap(lambda m: st.lists(
        _mostly(st.lists(_mostly(st.lists(_SCALAR, min_size=m, max_size=m)),
                         min_size=m, max_size=m)),
        min_size=dim, max_size=dim))


_FILE_TEXT = {
    "--algebra": st.integers(1, 3).flatmap(lambda dim: _object(
        {"dim": _mostly(st.just(dim)),
         "entries": _mostly(st.lists(
             _mostly(st.tuples(*[_mostly(st.integers(0, dim - 1))] * 3,
                               _SCALAR).map(list)),
             max_size=4)),
         "matrices": _mostly(_matrices(dim))},
        {"labels": _mostly(st.lists(_TEXT, min_size=dim, max_size=dim)),
         "name": _mostly(_TEXT)})),
    "--poly": st.integers(1, 3).flatmap(lambda degree: _object(
        {"degree": _mostly(st.just(degree)),
         "values": _mostly(st.lists(
             _mostly(st.tuples(
                 _mostly(st.lists(st.integers(0, 3), min_size=degree,
                                  max_size=degree).map(sorted)),
                 _SCALAR).map(list)),
             max_size=4))},
        {"prefactor": _SCALAR})),
    "--config": _object(
        {"algebra": _mostly(st.sampled_from(
            ["so3", "so4", "gl2", "su2", "u1", "abelian2", "bogus"]))},
        {"subalgebra": _mostly(st.sampled_from(
            ["none", "so3", "gl1", "u1", "0", "0,1", "9"])),
         "polynomial": _mostly(st.sampled_from(
             ["pfaffian", "trace^1", "trace^2", "trace^0", "trace^x"])),
         "methods": _mostly(st.sampled_from(
             ["integral", "johnson", "chern", "integral,johnson,chern", ""])),
         "checks": _mostly(st.sampled_from(["all", "d2", "agreement", "bogus"])),
         "output": _mostly(st.sampled_from(["json", "text"])),
         "seed": _mostly(st.integers(-2, 2)),
         "corrupt": _mostly(st.sampled_from(
             ["prefactor", "aij=0,0", "aij=x", "structure=0,1,2",
              "structure=9,9,9"]))}),
}


class TestLoaderFuzz:
    """Random algebra, polynomial and config files never crash the CLI:
    the exit code is 0, 1 or 2, stderr has no traceback, and exit 1 comes
    only with a failed check that carries a witness."""

    @staticmethod
    def run_main(flag, text):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "input.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            out = os.path.join(tmp, "report.json")
            args = {"--algebra": ["--algebra", path, "--sub", "none"],
                    "--poly": ["--algebra", "gl2", "--sub", "none",
                               "--poly", path],
                    "--config": ["--config", path]}[flag]
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = main(args + ["--output", "json", "--out", out])
            report = None
            if code != 2:
                with open(out, encoding="utf-8") as fh:
                    report = json.load(fh)
        return code, err.getvalue(), report

    def check(self, flag, text):
        code, err, report = self.run_main(flag, text)
        assert code in (0, 1, 2), err
        assert "Traceback" not in err
        if code == 2:
            assert err.startswith("error: ")
            return
        failed = [c for c in report["checks"] if c["status"] == "fail"]
        if code == 1:
            assert failed and all(c.get("witness") for c in failed)
        else:
            assert not failed

    @pytest.mark.parametrize("flag", sorted(_FILE_TEXT))
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_random_file(self, flag, data):
        text = _object_text(data.draw(_FILE_TEXT[flag]))
        if data.draw(_RARELY):
            text = text[:data.draw(st.integers(0, len(text)))]  # malformed JSON
        self.check(flag, text)

    @pytest.mark.parametrize("flag", sorted(_FILE_TEXT))
    @settings(max_examples=15, deadline=None)
    @given(value=_JUNK)
    def test_junk_document(self, flag, value):
        self.check(flag, json.dumps(value))

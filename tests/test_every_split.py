"""The transgression theorem over every index split of small algebras.

Every subset h of the basis indices of gl2, u2, so4, gl3 and so5 is run
through ``cli.parse_config`` and ``cli.run`` with two routes and every
check.  A split that ``validate_split`` accepts must give a run that passes
every check; any other split must stop the run at ``split-valid`` with the
first witness of ``validate_split``.  The shortcuts of the basic
differential rest on h being closed and the split reductive, and the pinned
reports cover only a few fixed splits.
"""

import contextlib
import io
import itertools

import pytest

from transgress import cli
from transgress.lie import ReductiveSplit, named_algebra, validate_split

NOT_RUN = "not run: invalid algebra or split"

# (algebra, polynomial) -> how many of its splits pass split-valid
VALID_SPLITS = {
    ("gl2", "trace^2"): 5,
    ("gl2", "trace^3"): 5,
    ("u2", "trace^2"): 7,
    ("u2", "trace^3"): 7,
    ("so4", "trace^2"): 15,
    ("so4", "pfaffian"): 15,
    ("gl3", "trace^2"): 15,
    ("gl3", "trace^3"): 15,
    ("so5", "trace^2"): 52,
}


def argv(name, h, poly):
    return ["--algebra", name, "--sub", ",".join(map(str, h)) or "none", "--poly", poly,
            "--method", "integral,johnson", "--check", "all"]


def witness(report):
    first = report.first()
    return f"{first.invariant} at {first.indices}: {first.detail}"


@pytest.mark.parametrize("name, poly", VALID_SPLITS)
def test_every_split(name, poly):
    algebra = named_algebra(name)
    subsets = [h for size in range(algebra.dim + 1)
               for h in itertools.combinations(range(algebra.dim), size)]
    valid, sample = 0, {}
    for h in subsets:
        config, _ = cli.parse_config(argv(name, h, poly))
        checks = cli.run(config).checks
        assert checks[0].name == "algebra-valid" and checks[0].passed
        assert checks[1].name == "split-valid"
        expected = validate_split(algebra, ReductiveSplit.from_h(algebra.dim, h))
        if expected.passed:
            valid += 1
            assert all(check.passed for check in checks), (h, checks)
        else:
            assert checks[1].witness == witness(expected), h
            assert [check.witness for check in checks[2:]] == [NOT_RUN] * len(checks[2:]), h
        # the first split of each verdict checks the exit code of main
        sample.setdefault(expected.passed, h)
    assert valid == VALID_SPLITS[name, poly]
    for passed, h in sample.items():
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv(name, h, poly)) == (0 if passed else 1), h

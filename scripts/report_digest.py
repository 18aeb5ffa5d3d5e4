#!/usr/bin/env python3
"""Print one SHA-256 digest per configuration of its JSON report, timings
removed, so that two checkouts can be compared in one command.

Each configuration goes through ``cli.parse_config`` and ``cli.run``; the
digest covers ``Report.to_dict()`` without ``stats.timing``.  Run it on both
checkouts and compare the outputs:

    PYTHONPATH=<checkout>/src python3 scripts/report_digest.py [--large]

This is the one list of pinned reports: ``TestSameReports`` in
``tests/test_cli.py`` reads ``CONFIGS``, ``LARGE``, ``FILES``, ``FILE_ARGS``
and ``digest`` from here and holds only the label -> SHA-256 pins.  The
custom algebra files of ``FILES`` follow ``CONFIGS``: each is written to a
temporary directory as ``<label>.json`` and run there with ``FILE_ARGS``.
``--large`` adds so10/so9 with three routes; README.md gives its cost.
"""

import argparse
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

from transgress.cli import parse_config, run

# one config names a file relative to the repository root
ROOT = Path(__file__).resolve().parents[1]

SO_ROUTES = ("--poly", "pfaffian", "--method", "integral,johnson,chern")
TRACE_ROUTES = ("--method", "integral,johnson")

CONFIGS = [
    ("paper-gl3", ("--preset", "paper-gl3")),
    ("paper-so4", ("--preset", "paper-so4")),
    ("paper-so6", ("--preset", "paper-so6")),
    ("so8/so7", ("--algebra", "so8", "--sub", "so7") + SO_ROUTES),
    ("u3:trace^4", ("--algebra", "u3", "--sub", "0,1,2", "--poly", "trace^4")
     + TRACE_ROUTES),
    # all 19 tensor values are imaginary: the Gaussian evaluate path
    ("u3:trace^3", ("--algebra", "u3", "--sub", "0,1,2", "--poly", "trace^3")
     + TRACE_ROUTES),
    # degree 1: the only pinned reports whose evaluations have no
    # product before the last group; the u2 one is Gaussian
    ("gl3/gl2:trace^1", ("--algebra", "gl3", "--sub", "gl2", "--poly", "trace^1")
     + TRACE_ROUTES),
    ("u2:trace^1", ("--algebra", "u2", "--sub", "none", "--poly", "trace^1")
     + TRACE_ROUTES),
    ("gl4/gl3:trace^3", ("--algebra", "gl4", "--sub", "gl3", "--poly", "trace^3")
     + TRACE_ROUTES),
    # dim 16 over the Gaussian field: the heaviest config on brackets
    ("u4:trace^2", ("--algebra", "u4", "--sub", "0,1,2,3", "--poly", "trace^2")
     + TRACE_ROUTES),
    ("su2/u1", ("--algebra", "su2", "--sub", "u1", "--poly", "trace^2")
     + TRACE_ROUTES),
    ("so4:structure=0,1,2", ("--algebra", "so4", "--sub", "so3",
                             "--corrupt", "structure=0,1,2") + SO_ROUTES),
    ("so4:structure=5,3,4", ("--algebra", "so4", "--sub", "so3",
                             "--corrupt", "structure=5,3,4") + SO_ROUTES),
    # two routes agree and one does not, so there are two certificates
    ("so6:aij=0,0", ("--algebra", "so6", "--sub", "so5", "--corrupt", "aij=0,0")
     + SO_ROUTES),
    ("so6:prefactor", ("--algebra", "so6", "--sub", "so5", "--corrupt", "prefactor")
     + SO_ROUTES),
    ("gl3:structure=0,1,3", ("--algebra", "gl3", "--sub", "gl2", "--poly",
                             "trace^2", "--corrupt", "structure=0,1,3")
     + TRACE_ROUTES),
    ("u2:structure=1,2,3", ("--algebra", "u2", "--sub", "0,1", "--poly",
                            "trace^2", "--corrupt", "structure=1,2,3")
     + TRACE_ROUTES),
    # a tensor file that is not ad-invariant, named relative to the root
    ("gl3:noninvariant", ("--algebra", "gl3", "--sub", "gl2", "--poly",
                          "perfbench/noninvariant_gl3.json") + TRACE_ROUTES),
    # a tensor valued at (2, 2), in p: TP is horizontal but not
    # h-invariant, so the certificate takes its non-basic path
    ("gl3:nonbasic", ("--algebra", "gl3", "--sub", "gl2", "--poly",
                      "tests/nonbasic_gl3.json") + TRACE_ROUTES),
]

# The pinned custom algebra files, each run as --algebra <label>.json
# FILE_ARGS: su2, su2 with one matrix entry wrong, and a cyclic so3 table
# with a spurious constant that breaks the Jacobi identity, pinned at the
# commit before the set-up read integer numerators; that table over three
# 1x1 zero matrices, which realize it but are dependent, so the Jacobi scan
# still runs; and su2 in the Hermitian basis of the Pauli matrices, whose
# constants 2i eps multiply Gaussian factors on both sides.
FILES = json.loads((ROOT / "tests" / "algebra_files.json").read_text())
FILE_ARGS = ("--sub", "2", "--poly", "trace^2", "--method", "integral,johnson")

LARGE = [
    # the largest pin: polarized evaluation merges the most residuals here
    ("so10/so9", ("--algebra", "so10", "--sub", "so9") + SO_ROUTES),
]


def digest(argv) -> str:
    config, _ = parse_config(list(argv) + ["--check", "all", "--output", "json"])
    report = run(config).to_dict()
    del report["stats"]["timing"]
    text = json.dumps(report, indent=2, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--large", action="store_true",
                        help="also run so10/so9 with three routes")
    args = parser.parse_args()
    os.chdir(ROOT)
    for label, argv in CONFIGS:
        print(label, digest(argv), flush=True)
    with tempfile.TemporaryDirectory() as tmp:
        # the report names the file, so it is read by a path relative to tmp
        os.chdir(tmp)
        for label, data in FILES.items():
            Path(f"{label}.json").write_text(json.dumps(data))
            print(label, digest(("--algebra", f"{label}.json") + FILE_ARGS), flush=True)
        os.chdir(ROOT)
    for label, argv in LARGE if args.large else []:
        print(label, digest(argv), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

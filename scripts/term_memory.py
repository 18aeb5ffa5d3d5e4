#!/usr/bin/env python3
"""Bytes per term of P(F_t, ..., F_t) for the Pfaffian on so(2k) over
so(2k-1), with F_t the deformed curvature, and the peak RSS of the process.

    PYTHONPATH=<checkout>/src python3 scripts/term_memory.py

It measures so8/so7 and so10/so9.  For each, the inputs are built first
and evaluated once, and a second evaluation runs under tracemalloc:
``retained`` is what is still allocated once it returns (the result), and
``peak`` the most that was allocated during it, both per term of the
result.  The last line is the peak resident set size of the whole process
(``ru_maxrss``).  Standard library only.
"""

import gc
import resource
import sys
import tracemalloc

from transgress.invariants import evaluate, pfaffian
from transgress.lie import named_algebra, named_split
from transgress.weil import UniversalSetup


def measure(n: int) -> tuple:
    algebra = named_algebra(f"so{n}")
    setup = UniversalSetup(algebra, named_split(algebra, f"so{n - 1}"))
    P = pfaffian(algebra)
    args = [setup.deformed_curvature] * P.degree
    # the polynomial keeps its numerator table from the first evaluation
    # on, so a first evaluation runs untraced and only the result is counted
    evaluate(P, args)
    gc.collect()
    tracemalloc.start()
    before = tracemalloc.get_traced_memory()[0]
    result = evaluate(P, args)
    now, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return result.term_count, now - before, peak - before


def main() -> int:
    for n in (8, 10):
        terms, retained, peak = measure(n)
        print(f"so{n}/so{n - 1} P(F_t, ..., F_t): {terms} terms, "
              f"retained {retained / terms:.0f} B/term, peak {peak / terms:.0f} B/term")
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"peak RSS {rss_mb:.1f} MB")
    return 0


if __name__ == "__main__":
    sys.exit(main())

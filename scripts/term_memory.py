#!/usr/bin/env python3
"""Bytes per term of P(F_t, ..., F_t) and of d(integrand) for the Pfaffian
on so(2k) over so(2k-1), with F_t the deformed curvature and the integrand
P(x, F_t, ..., F_t), and the peak RSS of the process.  d(integrand) is
measured twice: with the full d, and through ``d_basic``, the restricted
derivation the derivative identity uses on the h-basic integrand.

    PYTHONPATH=<checkout>/src python3 scripts/term_memory.py

It measures so8/so7 and so10/so9.  For each, the inputs are built first
and each step runs once, and a second run of the step runs under
tracemalloc: ``retained`` is what is still allocated once it returns (the
result), and ``peak`` the most that was allocated during it, both per term
of the result.  The last line is the peak resident set size of the whole
process (``ru_maxrss``).  Standard library only.
"""

import gc
import resource
import sys
import tracemalloc

from transgress.invariants import evaluate, pfaffian
from transgress.lie import named_algebra, named_split
from transgress.weil import UniversalSetup


def traced(step) -> tuple:
    """(terms, retained bytes, peak bytes) of a second call of ``step``.
    The first call runs untraced, so that what the step keeps for later
    calls (the polynomial's numerator table, the derivation's image
    tables) is not counted."""
    step()
    gc.collect()
    tracemalloc.start()
    before = tracemalloc.get_traced_memory()[0]
    result = step()
    now, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return result.term_count, now - before, peak - before


def steps(n: int) -> dict:
    """The measured steps of so(n)/so(n-1) by name, their inputs built."""
    algebra = named_algebra(f"so{n}")
    setup = UniversalSetup(algebra, named_split(algebra, f"so{n - 1}"))
    P = pfaffian(algebra)
    integrand = setup.transgression_integrand(P)
    return {"P(F_t, ..., F_t)": lambda: evaluate(P, [setup.deformed_curvature] * P.degree),
            "d(integrand)": lambda: setup.d(integrand),
            "d_basic(integrand)": lambda: setup.d_basic(integrand)}


def main() -> int:
    rungs = {n: steps(n) for n in (8, 10)}
    for name in rungs[8]:
        for n, rung in rungs.items():
            terms, retained, peak = traced(rung[name])
            print(f"so{n}/so{n - 1} {name}: {terms} terms, "
                  f"retained {retained / terms:.0f} B/term, peak {peak / terms:.0f} B/term")
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"peak RSS {rss_mb:.1f} MB")
    return 0


if __name__ == "__main__":
    sys.exit(main())

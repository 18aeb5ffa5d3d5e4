#!/usr/bin/env python3
"""Write expected.json, the outcomes every benchmark run is checked against.

    python3 perfbench/pin.py

Run it only at a commit whose reports are known to be right.  A change that
claims to keep the computed forms identical must not re-pin.  For each
workload config it pins the verdict, the per-method term counts and a digest
of the rendered forms.  For each negative control it pins the verdict, the
checks that must fail and the ad-invariance gate's witness.  A control whose
gate fails pins only the gate among its failing checks, since the checks
requested after a failed gate may later be skipped instead of run.
"""

import json
import sys

import run


def main() -> int:
    pkg = run.load_engine()
    pinned = {"configs": {}, "controls": {}}
    configs = sorted({c for configs in run.WORKLOADS.values() for c in configs})
    for config in configs:
        _, (report,) = run.run_pass(pkg, [config], 0)
        got = run.outcome(report)
        pinned["configs"][config.label] = {
            key: got[key] for key in ("verdict", "term_counts", "forms_sha256")}
    for config in run.CONTROLS:
        _, (report,) = run.run_pass(pkg, [config], 0)
        got = run.outcome(report)
        failing = (["polynomial-ad-invariant"] if got["gate_witness"]
                   else got["failing"])
        pinned["controls"][config.label] = {
            "verdict": got["verdict"], "failing": failing,
            "gate_witness": got["gate_witness"]}
    run.EXPECTED.write_text(json.dumps(pinned, indent=2) + "\n")
    print(f"wrote {run.EXPECTED}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Re-record ``reference.json``: the simulated fingerprint of each
untraced cell at the default and the held-out seed.

    python3 perfbench/record_reference.py

Run it only in a change that alters simulated behaviour on purpose;
a speed-only change must leave every fingerprint identical.
"""

from __future__ import annotations

import json
import pathlib

from run import DEFAULT_SEED, HOLDOUT_SEED, spawn
from workloads import UNTRACED, WORKLOADS

HERE = pathlib.Path(__file__).resolve().parent


def main() -> None:
    fingerprints = {}
    for workload in WORKLOADS:
        if workload in UNTRACED:
            continue
        fingerprints[workload] = {
            str(seed): spawn(workload, seed, "timed")["fingerprint"]
            for seed in (DEFAULT_SEED, HOLDOUT_SEED)}
    reference = {"default_seed": DEFAULT_SEED, "holdout_seed": HOLDOUT_SEED,
                 "fingerprints": fingerprints}
    (HERE / "reference.json").write_text(
        json.dumps(reference, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()

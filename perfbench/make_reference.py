"""Regenerate the committed Table-1 reference verdicts.

Runs every Table-1 application through the sequential engine with the
graph backend and a full dynamic sweep (the paper's set-up and the
defaults of ``run_app_campaign``) and writes, under
``perfbench/reference/``:

* ``<app>.classification.json`` -- the classification exactly as
  ``ClassificationResult.to_json`` serializes it;
* ``digests.json`` -- per app, the plan size and the SHA-256 of the run
  log's JSON, with and without per-run provenance.

The script runs under ``PYTHONHASHSEED=0`` (it re-executes itself if
needed), as the benchmark does: see ``common.pin_hash_seed``.

The benchmark compares every campaign it times against these files.
Regenerate them only when a change is meant to alter the verdicts::

    python3 perfbench/make_reference.py
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

from perfbench.common import import_program, pin_hash_seed  # noqa: E402


def main() -> int:
    pin_hash_seed()
    import_program()
    from perfbench.verdicts import REFERENCE_DIR, digest_outcome
    from repro.experiments.campaign import run_app_campaign
    from repro.experiments.programs import ALL_PROGRAMS

    os.makedirs(REFERENCE_DIR, exist_ok=True)
    digests = {}
    for program in ALL_PROGRAMS:
        outcome = run_app_campaign(program)
        path = os.path.join(REFERENCE_DIR, f"{program.name}.classification.json")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(outcome.classification.to_json())
        digests[program.name] = digest_outcome(outcome)
        print(f"{program.name}: {digests[program.name]['plan_points']} points")
    with open(
        os.path.join(REFERENCE_DIR, "digests.json"), "w", encoding="utf-8"
    ) as handle:
        json.dump(digests, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Fingerprint the closed-loop campaign documents of one source tree.

Runs six seeded, deterministic campaigns and prints one line per
document: its name and the first 16 hex digits of the SHA-256 of its
``json.dumps(doc, sort_keys=True)``.  A refactor of the closed loop
(:func:`repro.faults.loop.march` and what it calls) that claims bit
identity must leave all six lines unchanged.  To compare two trees, run
the script against each one's ``src`` and ``cmp`` the outputs::

    PYTHONPATH=base/src python benchmarks/campaign_hashes.py > base.txt
    PYTHONPATH=src python benchmarks/campaign_hashes.py > head.txt
    cmp base.txt head.txt

With a directory argument the documents are also written there, one
``<name>.json`` each, for a ``diff`` when a hash moves.  The six runs
take about 30 s on a two-core Xeon.

The documents:

- ``faults-quick=True`` / ``faults-quick=False`` — the fault campaign
  at n=6, with every run's fault events folded in;
- ``mpc6-quick=True`` / ``mpc6-quick=False`` — the MPC campaign at n=6;
- ``mpc20`` — the full MPC campaign at n=20, the ``control-replay``
  benchmark's workload;
- ``mpc6-weather-quick`` — the quick MPC campaign priced through the
  chiller plant under a diurnal wet-bulb trace.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import sys
from typing import Optional

from repro.control.campaign import run_mpc_campaign
from repro.experiments.common import default_context
from repro.faults.campaign import run_campaign
from repro.units import celsius_to_kelvin
from repro.workload.weather import diurnal_wetbulb

SEED = 2012


def documents():
    """``(name, document)`` for each of the six campaigns, in order."""
    for quick in (True, False):
        results, doc = run_campaign(seed=SEED, n_machines=6, quick=quick)
        doc["fault_events"] = {
            f"{result.name}/{name}": [e.to_dict() for e in run.fault_events]
            for result in results
            for name, run in result.runs.items()
        }
        yield f"faults-quick={quick}", doc
        yield f"mpc6-quick={quick}", run_mpc_campaign(
            seed=SEED, n_machines=6, quick=quick
        )[1]
    yield "mpc20", run_mpc_campaign(seed=SEED, n_machines=20)[1]
    weather = diurnal_wetbulb(
        mean=celsius_to_kelvin(12.0), swing=6.0, duration=4000.0,
        period=4000.0, seed=7,
    )
    yield "mpc6-weather-quick", run_mpc_campaign(
        seed=SEED, n_machines=6, quick=True,
        context=default_context(seed=SEED, n_machines=6), weather=weather,
    )[1]


def main(out: Optional[pathlib.Path]) -> None:
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
    for name, doc in documents():
        text = json.dumps(doc, sort_keys=True)
        if out is not None:
            (out / f"{name}.json").write_text(text)
        print(name, hashlib.sha256(text.encode()).hexdigest()[:16],
              flush=True)


if __name__ == "__main__":
    main(pathlib.Path(sys.argv[1]) if len(sys.argv) > 1 else None)

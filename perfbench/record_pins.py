"""Record ``pins.json``: the makespans the benchmark checks outputs against.

Run once from the root of a checkout, at the commit whose outputs are
the contract::

    python3 perfbench/record_pins.py

It simulates every config the cold-requests and service-open workloads
can generate (see :func:`plan.pinned_configs`) through
``repro.api.simulate`` and writes their makespans.  A speed-only change
must leave every pin intact; a change to the simulated model must
re-record them in a change of its own.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
PINS_PATH = HERE / "pins.json"


def record() -> dict:
    sys.path.insert(0, str(HERE.parent / "src"))
    sys.path.insert(0, str(HERE))
    from plan import pin_key, pinned_configs
    from repro.api import simulate

    pins = {}
    for workload, configs in pinned_configs().items():
        pins[workload] = {
            pin_key(b, s, seed): simulate(b, s, seed=seed).makespan
            for b, s, seed in configs
        }
    return pins


def main() -> int:
    pins = record()
    PINS_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    total = sum(len(v) for v in pins.values())
    print(f"wrote {total} pinned makespans to {PINS_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

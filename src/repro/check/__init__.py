"""Conformance subsystem: invariant checking, differential validation, goldens.

Three legs, per the validation methodology of trace-driven simulators
(GPGPU-Sim's functional checker, accel-sim's trace validation):

* :mod:`repro.check.invariants` — a :class:`ConformanceChecker` that
  attaches through the :mod:`repro.obs` tracer hook points and asserts
  runtime invariants (clock monotonicity, CTA conservation, residency
  caps, HWQ occupancy, FCFS stream order, SPAWN Algorithm 1 re-evaluation,
  stats identities) over every simulation it observes.
* :mod:`repro.check.reference` — naive pure-Python reference
  implementations of the engine's batch-stepping components and a
  per-event engine built on them, and a differential runner that asserts
  identical event streams and bit-identical stats.
* :mod:`repro.check.golden` — a versioned golden-trace regression corpus
  (compressed JSONL event traces for a pinned benchmark x scheme matrix)
  with a first-divergence diff report.
"""

from repro.check.golden import (
    GOLDEN_MATRIX,
    GoldenMismatch,
    diff_traces,
    golden_path,
    load_golden,
    write_golden,
)
from repro.check.invariants import ConformanceChecker, Violation
from repro.check.reference import (
    DifferentialMismatch,
    ReferenceEventQueue,
    ReferenceSimulator,
    run_differential,
)

__all__ = [
    "ConformanceChecker",
    "Violation",
    "ReferenceEventQueue",
    "ReferenceSimulator",
    "DifferentialMismatch",
    "run_differential",
    "GOLDEN_MATRIX",
    "GoldenMismatch",
    "diff_traces",
    "golden_path",
    "load_golden",
    "write_golden",
]

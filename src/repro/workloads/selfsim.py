"""Self-similar-density workloads (Quezada et al., arXiv:2206.02255).

Dynamic-parallelism benchmark generators whose work density follows a
*self-similar* (fractal) distribution: a multiplicative cascade splits the
domain's total work mass recursively, applying the same random splitting
law at every scale, so hot spots cluster inside hot spots — the structure
DP subdivision schemes are built for.  The ``concentration`` parameter of
the Beta splitting law tunes burstiness: low values concentrate almost all
mass in a few deep branches (sparse, spiky density), values near 1 spread
it (dense, milder skew).

The parent kernel owns one domain segment per thread.  In the DP variant a
segment heavier than :data:`MIN_OFFLOAD` becomes a child launch site (the
parent pays a small probe cost); lighter segments are processed serially.
Child grids re-read the parent's segment region, so the L2 model sees the
genuine parent/child footprint sharing.

Two registered benchmarks (deliberately NOT part of ``TABLE1_NAMES`` — the
paper's Table I is a closed set):

* ``SelfSim-dense``  — milder cascade, most segments carry real work;
* ``SelfSim-sparse`` — aggressive cascade, a few towering hot spots.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.sim.kernel import Application, ChildRequest, KernelSpec
from repro.workloads.base import REGISTRY, AddressAllocator, Benchmark, input_cache

#: Segments below this many items have no launch site in the DP source.
MIN_OFFLOAD = 64

#: Cascade depth: the domain has ``2**LEVELS`` segments.
LEVELS = 12

#: Work items the parent spends probing a segment it offloads.
PROBE_ITEMS = 2

CYCLES_PER_ITEM = 12.0
ACCESSES_PER_ITEM = 0.6
ITEM_BYTES = 8
THREADS_PER_CTA = 128
CHILD_ITEMS_PER_THREAD = 8


@input_cache
def cascade_items(
    levels: int, total_items: int, concentration: float, seed: int
) -> np.ndarray:
    """Per-segment work items from a binary multiplicative cascade.

    Starting from one interval holding ``total_items`` of mass, each level
    splits every interval in two, giving the left child a Beta(c, c)
    fraction of the parent's mass.  Applying the identical law at every
    level is what makes the resulting density self-similar: zooming into
    any subtree shows the same statistical structure as the whole.
    """
    if levels < 1:
        raise ValueError("cascade needs at least one level")
    if total_items < 1:
        raise ValueError("cascade needs positive total work")
    if concentration <= 0:
        raise ValueError("concentration must be positive")
    rng = np.random.default_rng(seed)
    mass = np.array([float(total_items)])
    for _ in range(levels):
        left = rng.beta(concentration, concentration, size=mass.size)
        mass = np.stack([mass * left, mass * (1.0 - left)], axis=1).ravel()
    # Every segment does at least one item (reading its header); the
    # cascade's skew survives the floor because mass is conserved up to it.
    items = np.maximum(mass.astype(np.int64), 1)
    return items


def build(
    flavor: str,
    *,
    variant: str = "dp",
    seed: int = 1,
    cta_threads: Optional[int] = None,
) -> Application:
    """Build one self-similar application (``flavor``: dense or sparse)."""
    if flavor == "dense":
        total, concentration = 300_000, 0.45
    elif flavor == "sparse":
        total, concentration = 150_000, 0.15
    else:
        raise ValueError(f"unknown self-similar flavor {flavor!r}")
    items = cascade_items(LEVELS, total, concentration, seed)
    num_segments = items.size
    alloc = AddressAllocator()
    domain_base = alloc.alloc(int(items.sum()) * ITEM_BYTES)
    bases = domain_base + np.concatenate(
        ([0], np.cumsum(items[:-1]))
    ).astype(np.int64) * ITEM_BYTES
    name = f"SelfSim-{flavor}"
    if variant != "dp":
        spec = KernelSpec(
            name=f"{name}-segments",
            threads_per_cta=THREADS_PER_CTA,
            thread_items=items,
            cycles_per_item=CYCLES_PER_ITEM,
            accesses_per_item=ACCESSES_PER_ITEM,
            mem_bases=bases,
            mem_stride=ITEM_BYTES,
        )
        return Application(
            name=name, kernels=[spec], flat_items=int(items.sum())
        )

    cta = cta_threads or THREADS_PER_CTA
    offload = items > MIN_OFFLOAD
    parent_items = np.where(offload, PROBE_ITEMS, items)
    requests = {
        int(tid): ChildRequest(
            name=f"{name}-seg{tid}",
            items=int(items[tid]),
            cta_threads=cta,
            items_per_thread=CHILD_ITEMS_PER_THREAD,
            cycles_per_item=CYCLES_PER_ITEM,
            accesses_per_item=ACCESSES_PER_ITEM,
            mem_base=int(bases[tid]),
            mem_stride=ITEM_BYTES,
        )
        for tid in np.flatnonzero(offload)
    }
    spec = KernelSpec(
        name=f"{name}-segments",
        threads_per_cta=THREADS_PER_CTA,
        thread_items=parent_items,
        cycles_per_item=CYCLES_PER_ITEM,
        accesses_per_item=ACCESSES_PER_ITEM,
        mem_bases=bases,
        mem_stride=ITEM_BYTES,
        child_requests=requests,
    )
    # The parent probe replaces the offloaded work rather than adding to
    # it, so flat and DP variants agree on total work: offloaded segments
    # run their items in the child, probes are accounted as parent items.
    flat_items = int(items.sum())
    return Application(
        name=name, kernels=[spec], flat_items=flat_items
    )


def _register(flavor: str, label: str, description: str) -> Benchmark:
    return REGISTRY.register(
        Benchmark(
            name=f"SelfSim-{flavor}",
            application="Self-Similar Density",
            input_name=label,
            build_flat=lambda seed, f=flavor: build(f, variant="flat", seed=seed),
            build_dp=lambda seed, cta, f=flavor: build(
                f, variant="dp", seed=seed, cta_threads=cta
            ),
            default_threshold=MIN_OFFLOAD,
            sweep_thresholds=(64, 128, 256, 512, 1024, 2048),
            default_cta_threads=THREADS_PER_CTA,
            description=description,
        )
    )


_register(
    "dense",
    "Cascade c=0.45",
    "Binary multiplicative cascade, mild skew; child kernel per hot segment.",
)
_register(
    "sparse",
    "Cascade c=0.15",
    "Aggressive cascade, few towering hot spots; child kernel per hot segment.",
)

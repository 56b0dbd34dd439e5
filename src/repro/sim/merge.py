"""Merged child-kernel construction for consolidate / aggregate schemes.

Both merging schemes buffer admitted :class:`~repro.sim.kernel.ChildRequest`
launches and submit them later as one coarser kernel.  This module builds
that kernel's :class:`~repro.sim.kernel.KernelSpec` so the construction is
shared — and therefore bit-identical — between the engine and the
per-event reference (:mod:`repro.check.reference`), which does not
override it.

**CTA conservation.**  The merged grid must contain exactly as many CTAs as
the constituents would have launched individually (the conformance checker
enforces this), so each constituent's thread block is zero-padded to a
multiple of the CTA size before concatenation:

* ``n_i >= cta_threads``: the constituent's own spec uses
  ``threads_per_cta == cta_threads`` too, so padding to a multiple keeps
  ``ceil(n_i / cta_threads)`` CTAs exactly;
* ``n_i < cta_threads``: the constituent's own spec shrinks its CTA to
  ``n_i`` threads (one CTA); padded to ``cta_threads`` it still occupies
  exactly one CTA of the merged grid.

Zero-item pad threads are inert: they contribute no work items, and their
zero-extent memory regions are masked out of the footprint model
(:func:`repro.sim.memory.region_lines_arrays` skips ``extents <= 0``).

Merged grids set ``contiguous_footprint=False`` so both engines take the
identical per-thread-array dispatch path — the contiguous fast path assumes
one uniform child request, which a merged grid is not.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.sim.kernel import ChildRequest, KernelSpec


def merge_key(req: ChildRequest) -> Tuple:
    """Compatibility key: requests merge only when these fields agree.

    A merged kernel has a single CTA geometry and per-item cost model, so
    requests that disagree on any of them go into separate merged kernels
    (mirroring the real constraint that aggregated launches share one
    kernel function and block shape).
    """
    return (
        req.cta_threads,
        req.items_per_thread,
        req.regs_per_thread,
        req.shmem_per_cta,
        req.cycles_per_item,
        req.accesses_per_item,
        req.mem_stride,
    )


def build_merged_spec(
    requests: Sequence[ChildRequest],
    *,
    depth: int,
    unpadded: bool = False,
) -> KernelSpec:
    """One :class:`KernelSpec` covering every request in ``requests``.

    All requests must share a :func:`merge_key` (the caller groups by it).
    ``unpadded=True`` is a TEST-ONLY seeded bug: constituents are
    concatenated without the conservation padding, so the merged grid can
    repack threads across CTA boundaries and launch *fewer* CTAs than the
    constituents — exactly the error the checker's conservation invariant
    exists to catch.  Never set outside tests.
    """
    if not requests:
        raise ValueError("cannot merge zero requests")
    first = requests[0]
    tpc = first.cta_threads
    items_parts: List[np.ndarray] = []
    bases_parts: List[np.ndarray] = []
    child_requests = {}
    offset = 0
    for req in requests:
        n = req.num_threads
        items = np.full(n, req.items_per_thread, dtype=np.int64)
        items[-1] = req.items - (n - 1) * req.items_per_thread
        bases = (
            req.mem_base
            + np.arange(n, dtype=np.int64)
            * req.items_per_thread
            * req.mem_stride
        )
        pad = 0 if unpadded else (-n) % tpc
        if pad:
            items = np.concatenate([items, np.zeros(pad, dtype=np.int64)])
            bases = np.concatenate([bases, np.zeros(pad, dtype=np.int64)])
        items_parts.append(items)
        bases_parts.append(bases)
        for tid, reqs in req.nested.items():
            child_requests[offset + tid] = list(reqs)
        offset += n + pad
    thread_items = (
        np.concatenate(items_parts) if len(items_parts) > 1 else items_parts[0]
    )
    mem_bases = (
        np.concatenate(bases_parts) if len(bases_parts) > 1 else bases_parts[0]
    )
    return KernelSpec(
        name=f"{first.name}+merge{len(requests)}",
        threads_per_cta=min(tpc, int(thread_items.size)),
        thread_items=thread_items,
        regs_per_thread=first.regs_per_thread,
        shmem_per_cta=first.shmem_per_cta,
        cycles_per_item=first.cycles_per_item,
        accesses_per_item=first.accesses_per_item,
        mem_bases=mem_bases,
        mem_stride=first.mem_stride,
        child_requests=child_requests,
        depth=depth,
        contiguous_footprint=False,
    )

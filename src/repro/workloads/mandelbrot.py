"""Mandelbrot Set — Table I ``Mandel``.

Mariani-Silver style subdivision: the image is tiled into blocks; a parent
thread samples its block cheaply and, if the block straddles the set
boundary (high, varied iteration counts), launches a child kernel that
evaluates every pixel.  Interior/exterior blocks are filled serially.  The
per-block iteration counts come from an actual escape-time computation, so
the work distribution is the real one: a compute-bound workload (few memory
accesses per item), unlike the graph benchmarks.

One work *item* is :data:`ITERS_PER_ITEM` escape iterations of one pixel.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.sim.kernel import Application, ChildRequest, KernelSpec
from repro.workloads.base import REGISTRY, AddressAllocator, Benchmark, input_cache

WIDTH = 512
HEIGHT = 512
BLOCK = 16  # pixels per block side
MAX_ITERS = 256
ITERS_PER_ITEM = 4
CYCLES_PER_ITEM = 8.0
ACCESSES_PER_ITEM = 0.1  # compute-bound
PIXEL_BYTES = 4
MIN_OFFLOAD = 24
THREADS_PER_CTA = 128
#: Progressive-rendering passes; one host kernel each.
PASSES = 2


@input_cache
def _block_items(seed: int) -> np.ndarray:
    """Per-block work items from a real escape-time computation.

    ``seed`` jitters the viewport slightly so different seeds give
    different (but statistically identical) workloads.
    """
    rng = np.random.default_rng(seed)
    cx = -0.6 + rng.uniform(-0.02, 0.02)
    cy = 0.0 + rng.uniform(-0.02, 0.02)
    scale = 1.4
    xs = np.linspace(cx - scale, cx + scale, WIDTH)
    ys = np.linspace(cy - scale, cy + scale, HEIGHT)
    c = (xs[None, :] + 1j * ys[:, None]).ravel()
    # Iterate only the still-bounded points: ``idx``/``z``/``c`` are
    # compacted after every step.  A point that escapes at step k was live
    # after k steps; one that never escapes gets MAX_ITERS.
    idx = np.arange(c.size)
    z = np.zeros_like(c)
    iters = np.full(c.size, MAX_ITERS, dtype=np.int64)
    for step in range(MAX_ITERS):
        z = z * z + c
        escaped = np.abs(z) > 2.0
        iters[idx[escaped]] = step
        bounded = ~escaped
        idx, z, c = idx[bounded], z[bounded], c[bounded]
        if not idx.size:
            break
    # Sum iterations per block, convert to items.
    blocks_y = HEIGHT // BLOCK
    blocks_x = WIDTH // BLOCK
    per_block = iters.reshape(blocks_y, BLOCK, blocks_x, BLOCK).sum(axis=(1, 3))
    items = np.maximum(per_block.ravel() // ITERS_PER_ITEM, 1)
    return items.astype(np.int64)


def build(
    *,
    variant: str = "dp",
    seed: int = 1,
    cta_threads: Optional[int] = None,
) -> Application:
    """Build the Mandelbrot application."""
    block_items = _block_items(seed)
    num_blocks = block_items.size
    pixels_per_block = BLOCK * BLOCK
    alloc = AddressAllocator()
    img_base = alloc.alloc(WIDTH * HEIGHT * PIXEL_BYTES)
    bases = img_base + np.arange(num_blocks, dtype=np.int64) * pixels_per_block * PIXEL_BYTES
    cta = cta_threads or THREADS_PER_CTA
    if variant != "dp":
        spec = KernelSpec(
            name="Mandel-blocks",
            threads_per_cta=128,
            thread_items=block_items,
            cycles_per_item=CYCLES_PER_ITEM,
            accesses_per_item=ACCESSES_PER_ITEM,
            mem_bases=bases,
            mem_stride=PIXEL_BYTES,
        )
        return Application(
            name="Mandel", kernels=[spec], flat_items=int(block_items.sum())
        )

    # Progressive rendering: the image is produced in sequential passes.
    blocks_per_pass = num_blocks // PASSES
    kernels = []
    for p in range(PASSES):
        lo = p * blocks_per_pass
        hi = num_blocks if p == PASSES - 1 else lo + blocks_per_pass
        tile = block_items[lo:hi]
        offload = tile > MIN_OFFLOAD
        # The border sample costs ~one item per block edge pixel row.
        items = np.where(offload, 4, tile)
        requests = {
            int(tid): ChildRequest(
                name=f"Mandel-b{lo + tid}",
                items=int(tile[tid]),
                cta_threads=cta,
                items_per_thread=max(1, int(tile[tid]) // pixels_per_block),
                cycles_per_item=CYCLES_PER_ITEM,
                accesses_per_item=ACCESSES_PER_ITEM,
                mem_base=int(bases[lo + tid]),
                mem_stride=PIXEL_BYTES,
            )
            for tid in np.flatnonzero(offload)
        }
        kernels.append(
            KernelSpec(
                name=f"Mandel-blocks{p}",
                threads_per_cta=128,
                thread_items=items,
                cycles_per_item=CYCLES_PER_ITEM,
                accesses_per_item=ACCESSES_PER_ITEM,
                mem_bases=bases[lo:hi],
                mem_stride=PIXEL_BYTES,
                child_requests=requests,
            )
        )
    return Application(
        name="Mandel", kernels=kernels, flat_items=int(block_items.sum())
    )


REGISTRY.register(
    Benchmark(
        name="Mandel",
        application="Mandelbrot Set",
        input_name="N/A",
        build_flat=lambda seed: build(variant="flat", seed=seed),
        build_dp=lambda seed, cta: build(variant="dp", seed=seed, cta_threads=cta),
        default_threshold=MIN_OFFLOAD,
        sweep_thresholds=(24, 48, 96, 256, 512, 1024, 4096),
        default_cta_threads=THREADS_PER_CTA,
        description="Mariani-Silver subdivision; child kernel per boundary block.",
    )
)

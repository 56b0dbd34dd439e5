"""Property-based tests (hypothesis) on core data structures and invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.metrics import WindowedConcurrencyAverage
from repro.sim.config import CacheConfig, GPUConfig, MemoryConfig, small_debug_gpu
from repro.sim.events import EventQueue
from repro.sim.instances import CTAInstance, KernelInstance
from repro.sim.kernel import ChildRequest, KernelSpec, spec_from_request
from repro.sim.memory import MemorySystem, SetAssociativeCache
from repro.sim.smx import SMX
from repro.workloads.base import AddressAllocator


@given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=1, max_size=50))
def test_event_queue_pops_in_sorted_order(times):
    queue = EventQueue()
    seen = []
    for t in times:
        queue.schedule(t, lambda t=t: seen.append(t))
    queue.run()
    assert seen == sorted(times)


@given(
    st.lists(st.integers(min_value=0, max_value=400), min_size=1, max_size=300),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=8),
)
def test_cache_capacity_invariant(lines, sets_log2, assoc):
    sets = 1 << sets_log2
    cache = SetAssociativeCache(
        CacheConfig(size_bytes=sets * assoc * 128, line_bytes=128, associativity=assoc)
    )
    for line in lines:
        cache.access_line(line)
        for idx, ways in enumerate(cache._sets):
            assert len(ways) <= assoc
            assert all(w % sets == idx for w in ways)
    assert cache.hits + cache.misses == len(lines)


@given(st.lists(st.integers(min_value=0, max_value=63), min_size=2, max_size=100))
def test_cache_immediate_rereference_hits(lines):
    cache = SetAssociativeCache(
        CacheConfig(size_bytes=8 * 2 * 128, line_bytes=128, associativity=2)
    )
    for line in lines:
        cache.access_line(line)
        assert cache.access_line(line) is True


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=10**7),
            st.integers(min_value=1, max_value=4096),
        ),
        min_size=1,
        max_size=30,
    )
)
def test_region_lines_cover_every_region(regions):
    mem = MemorySystem(MemoryConfig(), max_lines_per_cta=10**6)
    lines = set(mem.region_lines(regions))
    for base, extent in regions:
        assert base // 128 in lines
        assert (base + extent - 1) // 128 in lines


@given(st.lists(st.integers(min_value=1, max_value=10**6), min_size=1, max_size=50))
def test_allocator_regions_never_overlap(sizes):
    alloc = AddressAllocator()
    spans = []
    for size in sizes:
        base = alloc.alloc(size)
        spans.append((base, base + size))
    spans.sort()
    for (_, end), (start, _) in zip(spans, spans[1:]):
        assert start >= end


@given(
    st.integers(min_value=1, max_value=10**5),
    st.integers(min_value=1, max_value=512),
    st.integers(min_value=1, max_value=64),
)
def test_spec_from_request_conserves_items(items, cta_threads, ipt):
    req = ChildRequest(
        name="c", items=items, cta_threads=cta_threads, items_per_thread=ipt
    )
    spec = spec_from_request(req, depth=1)
    assert int(spec.thread_items.sum()) == items
    assert spec.num_threads == req.num_threads
    assert spec.thread_items.min() >= 1


@given(
    st.lists(
        st.tuples(st.floats(min_value=1, max_value=1e5), st.floats(min_value=0, max_value=1e5)),
        min_size=1,
        max_size=4,
    ),
    st.floats(min_value=1.0, max_value=1e4),
)
@settings(max_examples=50)
def test_smx_progress_is_monotone_and_bounded(warp_work, horizon):
    """Consumed progress never decreases, never exceeds total work."""
    smx = SMX(0, small_debug_gpu())
    spec = KernelSpec(
        name="k", threads_per_cta=32, thread_items=np.ones(32, dtype=np.int64)
    )
    kernel = KernelInstance(0, spec, stream_id=0, is_child=False)
    cta = CTAInstance(
        kernel,
        0,
        num_threads=32,
        num_warps=len(warp_work),
        regs=0,
        shmem=0,
        warp_total=[w for w, _ in warp_work],
        warp_issue=[min(i, w) for w, i in warp_work],
    )
    smx.add(cta, 0.0)
    last = 0.0
    for step in range(1, 5):
        smx.advance(horizon * step / 4)
        consumed = smx.progress(cta)
        assert consumed >= last
        assert consumed <= cta.total_work + 1e-6
        last = consumed


@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0, max_value=10_000),  # event time
            st.sampled_from([-1, 1]),  # concurrency delta
        ),
        min_size=1,
        max_size=60,
    )
)
def test_windowed_average_bounded_by_peak(changes):
    avg = WindowedConcurrencyAverage(256)
    level = 0
    peak = 0
    for time, delta in sorted(changes, key=lambda c: c[0]):
        if level + delta < 0:
            continue
        avg.change(time, delta)
        level += delta
        peak = max(peak, level)
    assert 0 <= avg.average <= max(peak, 0)


@given(st.integers(min_value=1, max_value=200), st.integers(min_value=0, max_value=199))
def test_kernel_spec_cta_ranges_partition_threads(threads, probe):
    spec = KernelSpec(
        name="k", threads_per_cta=32, thread_items=np.ones(threads, dtype=np.int64)
    )
    covered = []
    for cta in range(spec.num_ctas):
        covered.extend(spec.cta_thread_range(cta))
    assert covered == list(range(threads))


@given(st.floats(min_value=0.0, max_value=1.0))
def test_stall_cycles_monotone_in_miss_rate(hit_rate):
    mem = MemoryConfig()
    assert mem.stall_cycles(hit_rate) >= mem.stall_cycles(min(1.0, hit_rate + 0.1)) - 1e-9


@given(st.integers(min_value=1, max_value=32))
def test_launch_latency_monotone_in_batch(x):
    config = GPUConfig().launch
    assert config.latency(x + 1) > config.latency(x)

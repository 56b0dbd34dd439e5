"""Exactness pins for the workload input generators.

Every generated input feeds the golden corpus, the bench makespans and the
benchmark pins, so the array-at-a-time generators must reproduce the
original per-vertex ones byte for byte.  The digests below were recorded
from those per-vertex loops (the generators before vectorization), over
input seeds 1, 2 and 7:

* ``graph`` / ``gc-graph``: CSR ``indptr`` and ``indices`` of the
  BFS/SSSP and GC input graphs;
* ``bfs-levels``, ``sssp-rounds``, ``gc-rounds``: every level or round the
  benchmarks simulate (``gc-all-rounds``: the uncapped colouring);
* ``mandel``: the Mandelbrot per-block work items;
* ``app-dp`` / ``app-flat``: every kernel and child request the built
  applications carry.

A digest hashes each array's dtype, shape and bytes, so a change of dtype
or order fails as loudly as a change of value.
"""

import hashlib

import numpy as np
import pytest

from repro.workloads import bfs, get_benchmark, graph_coloring, mandelbrot, sssp
from repro.workloads.graphs import coloring_rounds, graph_input

DIGESTS = {
    "app-dp/BFS-citation/1": "f62e34bdf1c53354",
    "app-dp/BFS-citation/2": "2e981609fc12b65a",
    "app-dp/BFS-citation/7": "cf6fa8eea35d4a30",
    "app-dp/BFS-graph500/1": "cec2d6be6a5c1793",
    "app-dp/BFS-graph500/2": "2becf3faa0d73d6a",
    "app-dp/BFS-graph500/7": "64c10d2ffcfa8032",
    "app-dp/GC-citation/1": "60bbbd0bb973f097",
    "app-dp/GC-citation/2": "e4d4924f64b0b245",
    "app-dp/GC-citation/7": "ca1bbca7f66e539c",
    "app-dp/GC-graph500/1": "d05f1f00adac92bc",
    "app-dp/GC-graph500/2": "2a0386dc5aba8141",
    "app-dp/GC-graph500/7": "b5e77caf7ea07690",
    "app-dp/Mandel/1": "6179d55aa9aeeed3",
    "app-dp/Mandel/2": "2c30c6416bb0c56a",
    "app-dp/Mandel/7": "f05e02a4ef01d635",
    "app-dp/SSSP-citation/1": "455acd1506ef912c",
    "app-dp/SSSP-citation/2": "268b24c12edc4c83",
    "app-dp/SSSP-citation/7": "4ccf8f47cdc09b4e",
    "app-dp/SSSP-graph500/1": "40ec4b318d91de77",
    "app-dp/SSSP-graph500/2": "8023e7bc752c500c",
    "app-dp/SSSP-graph500/7": "8ed8fdec0f59b80d",
    "app-flat/BFS-citation/1": "a7430b6c30aa9d8c",
    "app-flat/BFS-citation/2": "a54ca1861b70d0de",
    "app-flat/BFS-citation/7": "c49bd31b1214a252",
    "app-flat/BFS-graph500/1": "e50b8d94ce59dafa",
    "app-flat/BFS-graph500/2": "4928847a9c9cd42c",
    "app-flat/BFS-graph500/7": "56d893c5c1e31f6a",
    "app-flat/GC-citation/1": "b67d65d936e1fa76",
    "app-flat/GC-citation/2": "22dd594a2b458b40",
    "app-flat/GC-citation/7": "ec8ff1c47cc12551",
    "app-flat/GC-graph500/1": "951cc27b60a4b4e9",
    "app-flat/GC-graph500/2": "ec380e035c6ad60c",
    "app-flat/GC-graph500/7": "2977fabf9f7741bd",
    "app-flat/Mandel/1": "076f1863d02015e6",
    "app-flat/Mandel/2": "d537d726d5eae090",
    "app-flat/Mandel/7": "d259f7bbacb46486",
    "app-flat/SSSP-citation/1": "35d7f9423ee3e60a",
    "app-flat/SSSP-citation/2": "94eb7793872f5ac8",
    "app-flat/SSSP-citation/7": "0a2ef99f5b848c4a",
    "app-flat/SSSP-graph500/1": "7d2dea220791d3de",
    "app-flat/SSSP-graph500/2": "26842de92903e846",
    "app-flat/SSSP-graph500/7": "af31f13fd3dbdf5a",
    "bfs-levels/citation/1": "a634e3ca182b9ba2",
    "bfs-levels/citation/2": "ef98e4cd562f33ce",
    "bfs-levels/citation/7": "a696b79da495cabf",
    "bfs-levels/graph500/1": "02ff84a459c9ce39",
    "bfs-levels/graph500/2": "6a38caab56259b08",
    "bfs-levels/graph500/7": "564dd9dd57243696",
    "gc-all-rounds/citation/1": "86588599d432d9c1",
    "gc-all-rounds/citation/2": "70df30c5be93e8e3",
    "gc-all-rounds/citation/7": "dfc7c40630a61100",
    "gc-all-rounds/graph500/1": "738b795c0b21dccb",
    "gc-all-rounds/graph500/2": "4ab18850be6962f2",
    "gc-all-rounds/graph500/7": "f4a50176adecbbd3",
    "gc-graph/citation/1": "7be96a259a52c11b",
    "gc-graph/citation/2": "54ecc7f04dcfe50e",
    "gc-graph/citation/7": "efe6486ba90beca6",
    "gc-graph/graph500/1": "fcdd252b800610ce",
    "gc-graph/graph500/2": "e9f7aff938b00846",
    "gc-graph/graph500/7": "958c3852317c6865",
    "gc-rounds/citation/1": "96263668eb73bf13",
    "gc-rounds/citation/2": "b79c351a528d4f97",
    "gc-rounds/citation/7": "0e573ca5fb10c217",
    "gc-rounds/graph500/1": "66dfebc7d1c616db",
    "gc-rounds/graph500/2": "e65e3165a42f6f1a",
    "gc-rounds/graph500/7": "5619de07d67c9cfd",
    "graph/citation/1": "8332191d17194ee5",
    "graph/citation/2": "5ff94fede4f50571",
    "graph/citation/7": "7ab52a3d37072da5",
    "graph/graph500/1": "f5d43f5d7825d06a",
    "graph/graph500/2": "7d288780a7abfcff",
    "graph/graph500/7": "758f7eedee5ff884",
    "mandel/1": "e68ee080b97b6307",
    "mandel/2": "f90fddb65dbb1955",
    "mandel/7": "64d04cbd4a903f87",
    "sssp-rounds/citation/1": "f16b2c927fc62da2",
    "sssp-rounds/citation/2": "aef6f0235f43b82c",
    "sssp-rounds/citation/7": "475174666a8676e6",
    "sssp-rounds/graph500/1": "1444b93ef18d0738",
    "sssp-rounds/graph500/2": "9fb0562205b11e19",
    "sssp-rounds/graph500/7": "34f76c87a9f5169e",
}


def _digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape};".encode())
        h.update(a.tobytes())
    return h.hexdigest()[:16]


def _request(r) -> tuple:
    return (
        r.name, int(r.items), int(r.cta_threads), int(r.items_per_thread),
        int(r.regs_per_thread), float(r.cycles_per_item),
        float(r.accesses_per_item), int(r.mem_base), int(r.mem_stride),
        float(r.at_fraction),
    )


def _app_digest(app) -> str:
    h = hashlib.sha256(f"{app.name};{int(app.flat_items)}".encode())
    for k in app.kernels:
        h.update(repr((
            k.name, int(k.threads_per_cta), int(k.regs_per_thread),
            float(k.cycles_per_item), float(k.accesses_per_item),
            int(k.mem_stride), int(k.header_items),
        )).encode())
        h.update(_digest([k.thread_items, k.mem_bases]).encode())
        for tid in sorted(k.child_requests):
            h.update(repr((int(tid), [_request(r) for r in k.child_requests[tid]])).encode())
    return h.hexdigest()[:16]


def _compute(key: str) -> str:
    kind, *rest = key.split("/")
    seed = int(rest[-1])
    name = rest[0]
    if kind == "graph":
        g = graph_input(name, seed)
        return _digest([g.indptr, g.indices])
    if kind == "gc-graph":
        g = graph_coloring._graph(name, seed)
        return _digest([g.indptr, g.indices])
    if kind == "bfs-levels":
        return _digest(bfs._levels(name, seed))
    if kind == "sssp-rounds":
        return _digest(sssp._rounds(name, seed))
    if kind == "gc-rounds":
        return _digest(graph_coloring._rounds(name, seed))
    if kind == "gc-all-rounds":
        return _digest(coloring_rounds(graph_coloring._graph(name, seed), seed=seed))
    if kind == "mandel":
        return _digest([mandelbrot._block_items(seed)])
    bench = get_benchmark(name)
    if kind == "app-dp":
        return _app_digest(bench.dp(seed))
    assert kind == "app-flat", key
    return _app_digest(bench.flat(seed))


@pytest.mark.parametrize("key", sorted(DIGESTS))
def test_generator_output_is_byte_identical(key):
    assert _compute(key) == DIGESTS[key]

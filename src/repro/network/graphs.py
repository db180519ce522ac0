"""Graph generators for every topology family the experiments need.

All generators return :class:`~repro.network.topology.Topology` objects.
Random families take an explicit :class:`~repro.util.rng.RandomSource` so
experiments are reproducible.
"""

from __future__ import annotations

import math

from repro.network.topology import (
    CompleteBipartiteTopology,
    CompleteTopology,
    CycleTopology,
    ExplicitTopology,
    HypercubeTopology,
    StarTopology,
    Topology,
    diameter,
    is_connected,
)
from repro.util.rng import RandomSource

__all__ = [
    "as_explicit",
    "barbell",
    "complete",
    "complete_bipartite",
    "cycle",
    "diameter_two_gnp",
    "erdos_renyi",
    "hypercube",
    "lollipop",
    "path",
    "random_regular",
    "star",
    "torus",
    "wheel",
]


def complete(n: int) -> CompleteTopology:
    """Complete graph K_n (diameter 1)."""
    return CompleteTopology(n)


def star(n: int) -> StarTopology:
    """Star on n nodes, centre 0 (diameter 2)."""
    return StarTopology(n)


def complete_bipartite(a: int, b: int) -> CompleteBipartiteTopology:
    """Complete bipartite K_{a,b} (diameter 2 when both parts >= 2)."""
    return CompleteBipartiteTopology(a, b)


def hypercube(dimension: int) -> HypercubeTopology:
    """d-dimensional hypercube on 2^d nodes."""
    return HypercubeTopology(dimension)


def cycle(n: int) -> CycleTopology:
    """Cycle C_n (used by the ring leader-election baselines).

    Arithmetic ports (no stored adjacency), so C_n scales to millions of
    nodes; the port layout matches the old explicit construction exactly.
    """
    if n < 3:
        raise ValueError(f"cycle needs n >= 3, got {n}")
    return CycleTopology(n)


def path(n: int) -> ExplicitTopology:
    """Path P_n."""
    if n < 2:
        raise ValueError(f"path needs n >= 2, got {n}")
    return ExplicitTopology(n, [(i, i + 1) for i in range(n - 1)])


def wheel(n: int) -> ExplicitTopology:
    """Wheel: cycle on 1..n-1 plus hub 0 (diameter 2 for n >= 5)."""
    if n < 4:
        raise ValueError(f"wheel needs n >= 4, got {n}")
    edges = [(0, i) for i in range(1, n)]
    rim = list(range(1, n))
    edges += [(rim[i], rim[(i + 1) % len(rim)]) for i in range(len(rim))]
    return ExplicitTopology(n, edges)


def torus(rows: int, cols: int) -> ExplicitTopology:
    """2-D torus grid (4-regular); diameter ~ (rows + cols)/2."""
    if rows < 3 or cols < 3:
        raise ValueError(f"torus needs rows, cols >= 3, got {rows}x{cols}")
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            edges.append((v, r * cols + (c + 1) % cols))
            edges.append((v, ((r + 1) % rows) * cols + c))
    return ExplicitTopology(rows * cols, edges)


def random_regular(n: int, degree: int, rng: RandomSource) -> ExplicitTopology:
    """Random d-regular graph — an expander with high probability.

    Retries the configuration-model draw until the result is connected.
    """
    if degree < 3:
        raise ValueError(f"degree must be >= 3 for an expander, got {degree}")
    if n <= degree:
        raise ValueError(f"need n > degree, got n={n}, degree={degree}")
    if n * degree % 2 != 0:
        raise ValueError(f"n * degree must be even, got n={n}, degree={degree}")
    import networkx as nx

    for _ in range(100):
        seed = rng.uniform_int(0, 2**31 - 1)
        graph = nx.random_regular_graph(degree, n, seed=seed)
        topology = ExplicitTopology.from_networkx(graph)
        if is_connected(topology):
            return topology
    raise RuntimeError(
        f"failed to draw a connected {degree}-regular graph on {n} nodes"
    )


def erdos_renyi(
    n: int,
    p: float,
    rng: RandomSource,
    ensure_connected: bool = True,
) -> ExplicitTopology:
    """G(n, p), optionally retried until connected."""
    if not 0.0 < p <= 1.0:
        raise ValueError(f"p must be in (0, 1], got {p}")
    import networkx as nx

    attempts = 100 if ensure_connected else 1
    for _ in range(attempts):
        seed = rng.uniform_int(0, 2**31 - 1)
        graph = nx.fast_gnp_random_graph(n, p, seed=seed)
        topology = ExplicitTopology.from_networkx(graph)
        if not ensure_connected or is_connected(topology):
            return topology
    raise RuntimeError(f"failed to draw a connected G({n}, {p}) graph")


def diameter_two_gnp(n: int, rng: RandomSource, p: float | None = None) -> ExplicitTopology:
    """A random graph of diameter exactly 2, via G(n, p) above the threshold.

    G(n, p) has diameter 2 w.h.p. once p >= sqrt(2 ln n / n); we draw at a
    comfortable margin and retry on the rare failure.  This is the dense
    regime in which the Θ(n) classical lower bound of [CPR20] lives.
    """
    if n < 5:
        raise ValueError(f"need n >= 5 for a non-trivial diameter-2 graph, got {n}")
    if p is None:
        p = min(0.9, 2.0 * math.sqrt(math.log(n) / n))
    for _ in range(100):
        topology = erdos_renyi(n, p, rng, ensure_connected=True)
        if diameter(topology) == 2:
            return topology
    raise RuntimeError(f"failed to draw a diameter-2 G({n}, {p}) graph")


def barbell(clique_size: int) -> ExplicitTopology:
    """Two k-cliques joined by one edge — the classic bad-mixing graph."""
    if clique_size < 3:
        raise ValueError(f"cliques need >= 3 nodes, got {clique_size}")
    k = clique_size
    edges = []
    for i in range(k):
        for j in range(i + 1, k):
            edges.append((i, j))
            edges.append((k + i, k + j))
    edges.append((k - 1, k))
    return ExplicitTopology(2 * k, edges)


def lollipop(clique_size: int, tail_length: int) -> ExplicitTopology:
    """A k-clique with a path of ``tail_length`` nodes attached."""
    if clique_size < 3 or tail_length < 1:
        raise ValueError(
            f"need clique >= 3 and tail >= 1, got {clique_size}, {tail_length}"
        )
    k = clique_size
    edges = [(i, j) for i in range(k) for j in range(i + 1, k)]
    previous = k - 1
    for t in range(tail_length):
        edges.append((previous, k + t))
        previous = k + t
    return ExplicitTopology(k + tail_length, edges)


def as_explicit(topology: Topology) -> ExplicitTopology:
    """Materialize any topology into adjacency lists (for walk machinery)."""
    if isinstance(topology, ExplicitTopology):
        return topology
    return ExplicitTopology(topology.n, topology.edges())

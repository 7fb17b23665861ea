"""Seeded generators for the benchmark corpus: paths, grids, stars, random
regular graphs, and fixed-size random sparse graphs."""

from __future__ import annotations

import numpy as np

from .graph_core import WeightedGraph


def path_graph(n: int) -> WeightedGraph:
    return WeightedGraph(n, [(i, i + 1, 1) for i in range(n - 1)])


def grid_graph(rows: int, cols: int) -> WeightedGraph:
    def vid(r, c):
        return r * cols + c

    edges = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                edges.append((vid(r, c), vid(r, c + 1), 1))
            if r + 1 < rows:
                edges.append((vid(r, c), vid(r + 1, c), 1))
    return WeightedGraph(rows * cols, edges)


def star_graph(leaves: int) -> WeightedGraph:
    return WeightedGraph(leaves + 1, [(0, i + 1, 1) for i in range(leaves)])


def random_regular_graph(n: int, degree: int, seed: int, *, max_tries: int = 2000) -> WeightedGraph:
    """Uniform-ish d-regular graph via the pairing model with rejection."""
    if n * degree % 2:
        raise ValueError("n * degree must be even")
    rng = np.random.default_rng(np.random.SeedSequence([seed & (2**64 - 1), 11]))
    stubs = np.repeat(np.arange(n), degree)
    for _ in range(max_tries):
        perm = rng.permutation(stubs)
        u = np.minimum(perm[0::2], perm[1::2])
        v = np.maximum(perm[0::2], perm[1::2])
        if (u == v).any():
            continue
        keys = np.sort(u.astype(np.int64) * n + v)
        if (keys[1:] == keys[:-1]).any():
            continue
        w = np.ones_like(u)
        return WeightedGraph(n, np.stack([u, v, w], axis=1))
    raise RuntimeError(f"no simple {degree}-regular pairing found for n={n}")


def erdos_renyi_m(n: int, m: int, seed: int) -> WeightedGraph:
    """Uniform graph with exactly m distinct edges."""
    total = n * (n - 1) // 2
    if m > total:
        raise ValueError("too many edges requested")
    rng = np.random.default_rng(np.random.SeedSequence([seed & (2**64 - 1), 13]))
    picks = rng.choice(total, size=m, replace=False)
    picks.sort()
    # Decode linear index k into the pair (u, v), u < v, rows of the upper
    # triangle in order.
    u = (
        n
        - 2
        - np.floor(np.sqrt(-8 * picks.astype(np.float64) + 4 * n * (n - 1) - 7) / 2 - 0.5)
    ).astype(np.int64)
    v = picks + u + 1 - (n * (n - 1) - (n - u) * (n - u - 1)) // 2
    w = np.ones_like(u)
    return WeightedGraph(n, np.stack([u, v.astype(np.int64), w], axis=1))

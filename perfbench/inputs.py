"""Seeded benchmark inputs and the reference distances they are checked
against.

Graphs, bit strings and query pairs are made here, apart from the program's
own generators, so the program under test only receives them. Reference
distances come from networkx.
"""

from __future__ import annotations

import math

import networkx as nx
import numpy as np


def rng_for(seed: int, *stream: int) -> np.random.Generator:
    """Generator for one input stream of one run; same seed, same inputs."""
    return np.random.default_rng(np.random.SeedSequence([seed, *stream]))


def regular_graph_edges(n: int, degree: int, rng: np.random.Generator) -> list[tuple[int, int]]:
    """Edges of a simple degree-regular graph, by the pairing model with
    rejection of loops and multi-edges."""
    stubs = np.repeat(np.arange(n), degree)
    for _ in range(10_000):
        perm = rng.permutation(stubs)
        u = np.minimum(perm[0::2], perm[1::2])
        v = np.maximum(perm[0::2], perm[1::2])
        if (u == v).any():
            continue
        keys = u.astype(np.int64) * n + v
        if np.unique(keys).size != keys.size:
            continue
        return list(zip(u.tolist(), v.tolist()))
    raise RuntimeError(f"no simple {degree}-regular pairing found for n={n}")


def poisson_degrees(n: int, mean: int) -> list[int]:
    """The degree sequence of a sparse random graph with average degree
    `mean`: the expected Poisson(mean) histogram, rounded to n vertices,
    with the degree sum trimmed to exactly mean * n."""
    pmf, k, p = [], 0, math.exp(-mean)
    while len(pmf) < 2 * mean + 1 or p * n >= 0.5:
        pmf.append(p)
        k += 1
        p *= mean / k
    counts = [int(n * q) for q in pmf]
    by_remainder = sorted(range(len(pmf)), key=lambda i: n * pmf[i] - counts[i], reverse=True)
    for i in by_remainder[: n - sum(counts)]:
        counts[i] += 1
    degrees = [d for d, c in enumerate(counts) for _ in range(c)]
    excess = sum(degrees) - mean * n
    step = 1 if excess > 0 else -1
    i = len(degrees) - 1
    while excess:
        degrees[i] -= step
        excess -= step
        i = i - 1 if i > 0 else len(degrees) - 1
    return degrees


def degree_sequence_edges(degrees: list[int], rng: np.random.Generator) -> list[tuple[int, int]]:
    """A simple graph with exactly the given degrees on randomly permuted
    vertices: a random pairing of edge stubs, then random double-edge swaps
    until no loop or repeated edge is left."""
    n = len(degrees)
    labels = rng.permutation(n)
    stubs = rng.permutation(np.repeat(labels, degrees))
    edges = [tuple(sorted(e)) for e in stubs.reshape(-1, 2).tolist()]
    for _ in range(100_000):
        seen, bad = set(), []
        for i, (u, v) in enumerate(edges):
            if u == v or (u, v) in seen:
                bad.append(i)
            seen.add((u, v))
        if not bad:
            return sorted(edges)
        for i in bad:
            j = int(rng.integers(0, len(edges)))
            (a, b), (c, d) = edges[i], edges[j]
            edges[i], edges[j] = tuple(sorted((a, d))), tuple(sorted((c, b)))
    raise RuntimeError("double-edge swaps did not reach a simple graph")


def write_graph_file(path, n: int, edges) -> None:
    """Unit-weight graph in the program's graph file format."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{n} {len(edges)}\n")
        fh.writelines(f"{u} {v} 1\n" for u, v in edges)


def nx_graph(n: int, edges) -> nx.Graph:
    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(edges)
    return g


def bfs_distances(g: nx.Graph, source: int) -> dict[int, int]:
    """Unit-weight distances from source; unreachable vertices are absent."""
    return nx.single_source_shortest_path_length(g, source)


def balanced_bits(m: int, rng: np.random.Generator) -> str:
    """A bit string of length m with exactly m // 2 ones, in seeded order."""
    bits = np.array([1] * (m // 2) + [0] * (m - m // 2))
    return "".join(str(int(b)) for b in rng.permutation(bits))


def index_pair(bits: str, want: int, rng: np.random.Generator) -> tuple[int, int]:
    """A seeded (a, b) whose summed index (a + b) mod m holds the bit want."""
    m = len(bits)
    a = int(rng.integers(0, m))
    choices = [b for b in range(m) if bits[(a + b) % m] == str(want)]
    return a, int(rng.choice(choices))


def digits(value: int, base: int, count: int) -> tuple[int, ...]:
    """Base-`base` digits of value, least significant first."""
    out = []
    for _ in range(count):
        out.append(value % base)
        value //= base
    return tuple(out)


def unique_path_length(b: int, ell: int, a: int, bidx: int) -> int:
    """The paper's unique-path length between Alice's vertex v_{0,2x} and
    Bob's vertex v_{2 ell,2z}, where x and z are the base-(s/2) digit vectors
    of a and bidx: 2 ell A + 2 sum (z_i - x_i)^2, with A = 3 ell s^2."""
    s = 2**b
    xs = digits(a, s // 2, ell)
    zs = digits(bidx, s // 2, ell)
    return 2 * ell * 3 * ell * s * s + 2 * sum((z - x) ** 2 for x, z in zip(xs, zs))

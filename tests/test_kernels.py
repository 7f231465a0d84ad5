"""Seed derivation, the sampler's pair draw, a graph's row masks and the
matching kernel."""

from fractions import Fraction as F
from itertools import combinations

import numpy as np
import pytest

from hamdec import _kernels, sampling
from hamdec._seeds import derive, fnv1a64, generator, splitmix64
from hamdec.model import step_graphon
from hamdec.sampling import SampledGraph, sample_graph

from helpers import (
    adjacency_lists,
    brute_max_matching,
    hopcroft_karp_lists,
    random_graphon,
    scan_pairs_rows,
)


class TestSeeds:
    def test_splitmix_reference(self):
        # first outputs of the reference sequence for seed 0
        assert splitmix64(0) == 0xE220A8397B1DCDAF

    def test_fnv_reference(self):
        assert fnv1a64(b"") == 0xCBF29CE484222325
        assert fnv1a64(b"a") == 0xAF63DC4C8601EC8C

    def test_derive_order_sensitive(self):
        assert derive(1, "coords") != derive(1, "edges")
        assert derive(1, "trial", 0) != derive(1, "trial", 1)
        assert derive(1, "trial", 0) != derive(0, "trial", 1)

    def test_derive_stable(self):
        # frozen: the documented scheme must never drift
        assert derive(12345, "coords") == 13173903763817068481

    def test_derive_rejects_seeds_outside_64_bits(self):
        # masking would alias -1 to 2**64 - 1 and 2**64 to 0
        for master in (-1, 2**64):
            with pytest.raises(ValueError, match="outside"):
                derive(master, "trial", 0)
        assert derive(2**64 - 1, "trial", 0) != derive(0, "trial", 0)


def _probs(w):
    return np.array([[float(v) for v in row] for row in w.values])


class TestPairScan:
    HALF = F(1, 2)
    GRAPHONS = (
        step_graphon([0, F(1, 3), F(2, 3), 1], [[0, HALF, HALF], [HALF, 0, HALF], [HALF, HALF, 0]]),
        step_graphon([0, 1], [[HALF]]),
        step_graphon([0, HALF, 1], [[0, F(3, 10)], [F(3, 10), 0]]),
        random_graphon(np.random.default_rng(2)),
    )

    @pytest.mark.parametrize("n", [1, 2, 3, 30, 200])
    def test_matches_the_row_loop_across_chunk_seams(self, monkeypatch, n):
        # the sampler's bands of one row, of five rows (seams that split a
        # byte), of n - 1 rows, and the default: the matrix's upper triangle
        # holds the hits of the row loop over the "edges" stream's uniforms
        for cells in (1, 5 * n, (n - 1) * n, sampling.BAND_CELLS):
            monkeypatch.setattr(sampling, "BAND_CELLS", cells)
            for w in self.GRAPHONS:
                for seed in range(3):
                    g = sample_graph(w, n, seed)
                    dense = np.unpackbits(g.adjacency(), axis=1, count=n, bitorder="little")
                    got = np.nonzero(np.triu(dense, 1))
                    u = generator(derive(seed, sampling.EDGES_STREAM)).random(n * (n - 1) // 2)
                    want = scan_pairs_rows(g.blocks, _probs(w), u)
                    for a, b in zip(got, want):
                        assert np.array_equal(a, b)

    def test_chunked_draws_equal_one_draw(self):
        whole = generator(7).random(100_000)
        rng = generator(7)
        parts = [rng.random(k) for k in (0, 1, 6, 65_536, 33_000, 1_457)]
        assert np.array_equal(np.concatenate(parts), whole)


def _masks(nl, nr, rows, cols):
    """Row masks of the bipartite graph with edges (rows[k], cols[k])."""
    masks = [0] * nl
    for u, v in zip(np.asarray(rows).tolist(), np.asarray(cols).tolist()):
        masks[u] |= 1 << v
    return masks


class TestRowMasks:
    def test_bit_k_is_column_k(self):
        # a graph's rows of some nodes over other nodes, both in any order:
        # bit k of the row of rows[r] is the edge to cols[k]
        rng = np.random.default_rng(5)
        for n in (1, 8, 13, 64, 65, 130):
            edges = [p for p in combinations(range(n), 2) if rng.random() < 0.5]
            g = SampledGraph.from_edges(n, np.zeros(n), np.zeros(n, dtype=int), edges)
            dense = np.zeros((n, n), dtype=bool)
            for i, j in edges:
                dense[i, j] = dense[j, i] = True
            for nl, nr in [(0, 0), (0, n), (n, 0), (1, 1), (n // 2, n - n // 2), (n, n)]:
                rows, cols = rng.permutation(n)[:nl], rng.permutation(n)[:nr]
                got = g.row_masks(rows, cols)
                assert got == [sum(1 << k for k in np.flatnonzero(dense[r, cols]).tolist()) for r in rows]
            assert g.row_masks() == g.row_masks(np.arange(n), np.arange(n))


class TestMatchingProperties:
    def test_matching_is_valid(self):
        rng = np.random.default_rng(79)
        for _ in range(100):
            nl = int(rng.integers(1, 15))
            nr = int(rng.integers(1, 15))
            edges = {
                (int(rng.integers(nl)), int(rng.integers(nr)))
                for _ in range(int(rng.integers(0, nl * nr + 1)))
            }
            rows = [u for u, _ in edges]
            cols = [v for _, v in edges]
            ml, mr = _kernels.hopcroft_karp(_masks(nl, nr, rows, cols), nr)
            for u in range(nl):
                if ml[u] != -1:
                    assert (u, int(ml[u])) in edges
                    assert mr[int(ml[u])] == u
            size = int(np.sum(ml >= 0))
            assert size == int(np.sum(mr >= 0))
            if nl + nr <= 10:  # brute force is exponential
                assert size == brute_max_matching(nl, nr, edges)


def _random_edges(rng, nl, nr, mean_degree, empty_rows=0.0, hall_violation=False):
    """Seeded random bipartite edges (rows, cols), repeats allowed.
    `empty_rows` is the share of rows left empty; `hall_violation` squeezes
    nl//2 + 1 rows into nl//2 columns."""
    m = int(mean_degree * nl) if nr else 0
    rows = rng.integers(0, max(nl, 1), m)
    cols = rng.integers(0, max(nr, 1), m)
    if empty_rows:
        keep = rng.random(nl) >= empty_rows
        sel = keep[rows]
        rows, cols = rows[sel], cols[sel]
    if hall_violation:
        k = nl // 2
        squeezed = rows <= k
        cols = np.where(squeezed, cols % max(k, 1), cols)
    return rows, cols


HALF = F(1, 2)
SAMPLED = {
    "triangle-1/2": step_graphon(
        [0, F(1, 3), F(2, 3), 1], [[0, HALF, HALF], [HALF, 0, HALF], [HALF, HALF, 0]]
    ),
    "er-1/2": step_graphon([0, 1], [[HALF]]),
    "bipartite-0.3": step_graphon([0, F(3, 10), 1], [[0, HALF], [HALF, 0]]),
    "er-1/100": step_graphon([0, 1], [[F(1, 100)]]),
}


class TestRowScannedMatching:
    """The word-parallel `hopcroft_karp` must return exactly the matching of
    `helpers.hopcroft_karp_lists`, the same traversal one edge at a time."""

    @staticmethod
    def assert_same(nl, nr, rows, cols):
        ml, mr = _kernels.hopcroft_karp(_masks(nl, nr, rows, cols), nr)
        ml_ref, mr_ref = hopcroft_karp_lists(nl, nr, adjacency_lists(nl, rows, cols))
        np.testing.assert_array_equal(ml, ml_ref)
        np.testing.assert_array_equal(mr, mr_ref)
        return ml

    def test_random_shapes(self):
        rng = np.random.default_rng(83)
        for _ in range(400):
            nl = int(rng.integers(0, 80))
            nr = int(rng.integers(0, 80))
            degree = float(rng.uniform(0, min(nr, 40))) if nr else 0.0
            empty = float(rng.choice([0.0, 0.3]))
            self.assert_same(nl, nr, *_random_edges(rng, nl, nr, degree, empty_rows=empty))

    def test_empty_sides(self):
        rng = np.random.default_rng(89)
        for nl, nr in [(0, 0), (0, 7), (7, 0), (1, 0), (0, 1)]:
            rows, cols = _random_edges(rng, nl, nr, 3)
            ml, mr = _kernels.hopcroft_karp(_masks(nl, nr, rows, cols), nr)
            assert ml.shape == (nl,) and mr.shape == (nr,)
            assert np.all(ml == -1) and np.all(mr == -1)
            self.assert_same(nl, nr, rows, cols)

    def test_large_with_and_without_perfect_matching(self):
        rng = np.random.default_rng(97)
        perfect = []
        for n, degree in [(1000, 3), (1000, 30), (1000, 300), (300, 100), (600, 10)]:
            for hall in (False, True):
                rows, cols = _random_edges(rng, n, n, degree, hall_violation=hall)
                perfect.append(bool(np.all(self.assert_same(n, n, rows, cols) >= 0)))
        assert any(perfect) and not all(perfect)

    def test_unequal_sides_dense(self):
        rng = np.random.default_rng(101)
        for nl, nr, degree in [(400, 250, 120), (250, 400, 120), (700, 500, 60)]:
            self.assert_same(nl, nr, *_random_edges(rng, nl, nr, degree, empty_rows=0.1))

    @pytest.mark.parametrize("name", sorted(SAMPLED))
    @pytest.mark.parametrize("n", [200, 1000])
    def test_full_adjacency_of_sampled_graphs(self, name, n):
        # the existence oracle's input: every node on both sides
        g = sample_graph(SAMPLED[name], n, 3)
        i, j = g.edges[:, 0], g.edges[:, 1]
        ml, mr = _kernels.hopcroft_karp(g.row_masks(), n)
        adj = adjacency_lists(n, np.concatenate([i, j]), np.concatenate([j, i]))
        ml_ref, mr_ref = hopcroft_karp_lists(n, n, adj)
        np.testing.assert_array_equal(ml, ml_ref)
        np.testing.assert_array_equal(mr, mr_ref)

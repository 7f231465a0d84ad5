"""Hot inner loops: the pair-probability scan, CSR row gathers and maximum
bipartite matching.

The exact-rational machinery (LP certificates, matrix rounding, partition
refinement) is deliberately not here: it runs on ``fractions.Fraction``.
"""

from __future__ import annotations

import numpy as np

# There is no compiled path; the constant stays because benchmark reports
# record it next to the library versions.
NUMBA_ENABLED = False


# Pairs tested per pass of `scan_pairs` (whole rows, at least one).  Median
# scan time with draws on a 2-CPU x86-64 host (2 MB L2 per core), numpy 2.4,
# triangle-1/2, chunk 2^14 / 2^16 / 2^18 / 2^20: n=1000 2.6 / 2.4 / 3.9 /
# 5.0 ms; n=3000 21 / 20 / 22 / 26 ms; n=200 is one pass (0.14 ms).  At 2^16
# a pass's thresholds, uniforms and row labels (~1.6 MB) stay in L2.
PAIR_CHUNK = 1 << 16


def scan_pairs(blocks, probs, rng):
    """Unordered pairs (i, j), i < j, with u < probs[blocks[i], blocks[j]].

    The pairs are taken in lexicographic order, the k-th against the k-th
    uniform of `rng.random`, and the hits come out in that order.  Whole rows
    go through at a time, about `PAIR_CHUNK` pairs per pass, each pass drawing
    its own uniforms: successive `Generator.random(k)` calls continue one
    stream, so the draws are those of a single call while memory stays
    O(n + PAIR_CHUNK).
    """
    n = blocks.shape[0]
    # row a, column j: the probability of a pair of a block-a node with j
    thresholds = probs[:, blocks]
    labels = blocks.tolist()
    lengths = np.arange(n - 1, 0, -1)  # row i holds the pairs (i, i+1..n-1)
    ends = np.cumsum(lengths)  # pair offset one past each row
    # a pair's column is its offset plus this, read at its row
    shift = np.arange(1, n) - (ends - lengths)
    hits_i = [np.empty(0, np.int64)]
    hits_j = [np.empty(0, np.int64)]
    i0 = 0
    while i0 < n - 1:
        start = int(ends[i0] - lengths[i0])
        i1 = max(i0 + 1, int(np.searchsorted(ends, start + PAIR_CHUNK, side="right")))
        row_t = np.concatenate([thresholds[labels[i], i + 1:] for i in range(i0, i1)])
        hit = np.flatnonzero(rng.random(row_t.size) < row_t)
        hi = np.repeat(np.arange(i0, i1), lengths[i0:i1])[hit]
        hits_i.append(hi)
        hits_j.append(hit + start + shift[hi])
        i0 = i1
    return np.concatenate(hits_i), np.concatenate(hits_j)


def gather_rows(indptr, indices, rows):
    """Row lengths and the concatenated CSR rows `rows`, in the given order."""
    rows = np.asarray(rows, dtype=np.int64)
    starts = indptr[rows]
    lengths = indptr[rows + 1] - starts
    offsets = np.cumsum(lengths) - lengths  # where each row lands in the output
    pos = np.arange(lengths.sum()) + np.repeat(starts - offsets, lengths)
    return lengths, indices[pos]


# Mean CSR row length from which `hopcroft_karp` scans rows with numpy.
# Measured per call (best of 3) on a 2-CPU x86-64 host, numpy 2.4, random
# square CSRs, lists vs rows: n=17, row 8: 0.08 vs 0.22 ms; n=200, row 19:
# 1.3 vs 1.6 ms; n=300, row 38: 5.9 vs 5.1 ms; n=1000, row 5: 11 vs 22 ms;
# n=1000, row 95: 38 vs 17 ms; the triangle-1/2 existence oracle at n=1000
# (row ~333): 115-138 vs 16-20 ms.  The two break even at rows of ~20 (n=1000)
# to ~40 (n <= 300); 48 leaves the doubtful middle to the list version.
ROW_SCAN_MIN_ROW = 48


def hopcroft_karp(nl, nr, indptr, indices):
    """Maximum matching of the bipartite CSR graph (left rows, right columns).

    Layered BFS plus shortest-path DFS (Hopcroft and Karp, SIAM J. Comput.
    2(4), 1973); the traversal follows the CSR order, so the returned
    (match_l, match_r) is deterministic.  Unmatched is -1.  Two versions of
    the same traversal return the same arrays: dense inputs scan rows with
    numpy, sparse or small ones walk the edges in Python.
    """
    indptr = np.asarray(indptr, dtype=np.int64)
    indices = np.asarray(indices, dtype=np.int64)
    if indices.size >= ROW_SCAN_MIN_ROW * nl:
        return _hk_rows(nl, nr, indptr, indices)
    return _hk_lists(nl, nr, indptr, indices)


def _hk_rows(nl, nr, indptr, indices):
    """`_hk_lists` with every row scan done by numpy.

    A BFS layer is one gather over the frontier's rows.  A DFS step finds
    the first usable entry of the rest of x's row in one vectorized test;
    `dist[nl]` is the distance of the free (nil) right end, so the test
    `dist[match_r[v]] == dist[x] + 1` covers free and matched v alike
    (an unmatched v reads match_r[v] = -1, the last slot of `dist`).
    """
    inf = nl + 2
    match_l = np.full(nl, -1, dtype=np.int64)
    match_r = np.full(nr, -1, dtype=np.int64)
    dist = np.empty(nl + 1, dtype=np.int64)
    bounds = indptr.tolist()
    while True:
        free = np.flatnonzero(match_l == -1)
        dist.fill(inf)
        dist[free] = 0
        dnil = inf
        frontier, d = free, 0
        while frontier.size:
            w = match_r[gather_rows(indptr, indices, frontier)[1]]
            if np.any(w == -1):
                dnil = d + 1
            w = w[w != -1]
            w = w[dist[w] == inf]
            d += 1
            dist[w] = d
            if dnil != inf:
                break
            frontier = np.flatnonzero(dist[:nl] == d)
        if dnil == inf:
            break
        dist[nl] = dnil
        for s in free.tolist():
            stack = [s]
            ptrs = [bounds[s]]
            vsel = [-1]
            while stack:
                x = stack[-1]
                p, end = ptrs[-1], bounds[x + 1]
                if p < end:
                    row = indices[p:end]
                    usable = dist[match_r[row]] == dist[x] + 1
                    k = int(usable.argmax())
                    if usable[k]:
                        ptrs[-1] = p + k + 1
                        v = int(row[k])
                        vsel[-1] = v
                        w = int(match_r[v])
                        if w == -1:
                            match_l[stack] = vsel
                            match_r[vsel] = stack
                            break
                        stack.append(w)
                        ptrs.append(bounds[w])
                        vsel.append(-1)
                        continue
                dist[x] = inf
                stack.pop()
                ptrs.pop()
                vsel.pop()
    return match_l, match_r


def _hk_lists(nl, nr, indptr, indices):
    """Reference version: the same traversal, one edge at a time on lists."""
    indptr = np.asarray(indptr).tolist()
    indices = np.asarray(indices).tolist()
    inf = nl + 2
    match_l = [-1] * nl
    match_r = [-1] * nr
    dist = [0] * nl
    while True:
        queue = []
        for s in range(nl):
            if match_l[s] == -1:
                dist[s] = 0
                queue.append(s)
            else:
                dist[s] = inf
        dnil = inf
        for x in queue:  # the loop also visits what it appends
            if dist[x] >= dnil:
                continue
            for e in range(indptr[x], indptr[x + 1]):
                w = match_r[indices[e]]
                if w == -1:
                    if dnil == inf:
                        dnil = dist[x] + 1
                elif dist[w] == inf:
                    dist[w] = dist[x] + 1
                    queue.append(w)
        if dnil == inf:
            break
        for s in range(nl):
            if match_l[s] != -1:
                continue
            stack = [s]
            ptrs = [indptr[s]]
            vsel = [-1]
            while stack:
                x = stack[-1]
                while ptrs[-1] < indptr[x + 1]:
                    e = ptrs[-1]
                    ptrs[-1] += 1
                    v = indices[e]
                    w = match_r[v]
                    if w == -1:
                        if dist[x] + 1 == dnil:
                            vsel[-1] = v
                            for left, right in zip(stack, vsel):
                                match_l[left] = right
                                match_r[right] = left
                            stack = []
                            break
                    elif dist[w] == dist[x] + 1:
                        vsel[-1] = v
                        stack.append(w)
                        ptrs.append(indptr[w])
                        vsel.append(-1)
                        break
                else:  # a dead end: no augmenting path through x
                    dist[x] = inf
                    stack.pop()
                    ptrs.pop()
                    vsel.pop()
    return np.asarray(match_l, dtype=np.int64), np.asarray(match_r, dtype=np.int64)

"""Hot inner loops: the pair-probability scan and maximum bipartite matching.

The exact-rational machinery (LP certificates, matrix rounding, partition
refinement) is deliberately not here: it runs on ``fractions.Fraction``.
"""

from __future__ import annotations

import numpy as np

# There is no compiled path; the constant stays because benchmark reports
# record it next to the library versions.
NUMBA_ENABLED = False


def scan_pairs(blocks, probs, u):
    """Unordered pairs (i, j), i < j, with u[k] < probs[blocks[i], blocks[j]].

    u[k] is the uniform draw for the k-th pair in lexicographic order; the
    hits come out in that order.  Row-sliced to bound memory.
    """
    n = blocks.shape[0]
    hits_i = []
    hits_j = []
    k = 0
    for i in range(n - 1):
        span = n - 1 - i
        row = u[k:k + span]
        k += span
        mask = row < probs[blocks[i], blocks[i + 1:]]
        js = np.nonzero(mask)[0]
        if js.size:
            hits_i.append(np.full(js.size, i, dtype=np.int64))
            hits_j.append(js.astype(np.int64) + i + 1)
    if not hits_i:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    return np.concatenate(hits_i), np.concatenate(hits_j)


def hopcroft_karp(nl, nr, indptr, indices):
    """Maximum matching of the bipartite CSR graph (left rows, right columns).

    Layered BFS plus shortest-path DFS; the traversal follows the CSR order,
    so the returned (match_l, match_r) is deterministic.  Unmatched is -1.
    """
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
        qh = 0
        while qh < len(queue):
            x = queue[qh]
            qh += 1
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
                moved = False
                while ptrs[-1] < indptr[x + 1]:
                    e = ptrs[-1]
                    ptrs[-1] += 1
                    v = indices[e]
                    w = match_r[v]
                    if w == -1:
                        if dist[x] + 1 == dnil:
                            vsel[-1] = v
                            for t in range(len(stack) - 1, -1, -1):
                                match_l[stack[t]] = vsel[t]
                                match_r[vsel[t]] = stack[t]
                            stack = []
                            moved = True
                            break
                    elif dist[w] == dist[x] + 1:
                        vsel[-1] = v
                        stack.append(w)
                        ptrs.append(indptr[w])
                        vsel.append(-1)
                        moved = True
                        break
                if not moved:
                    dist[x] = inf
                    stack.pop()
                    ptrs.pop()
                    vsel.pop()
    return np.asarray(match_l, dtype=np.int64), np.asarray(match_r, dtype=np.int64)

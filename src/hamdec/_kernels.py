"""Hot inner loops: maximum bipartite matching on rows of a packed bit
matrix.

The exact-rational machinery (LP certificates, matrix rounding, partition
refinement) is deliberately not here: it runs on ``fractions.Fraction``.
"""

from __future__ import annotations

import numpy as np

# There is no compiled path; the constant stays because benchmark reports
# record it next to the library versions.
NUMBA_ENABLED = False


def row_masks(bits):
    """The rows of a packed bit matrix (`np.packbits(..., bitorder="little")`
    along axis 1) as Python ints: bit k of row r's int is column k."""
    width = bits.shape[1]
    if width == 0:
        return [0] * bits.shape[0]
    raw = np.ascontiguousarray(bits).tobytes()
    return [int.from_bytes(raw[k:k + width], "little") for k in range(0, len(raw), width)]


def _ones(x):
    """The positions of the set bits of a nonnegative int, ascending."""
    packed = np.frombuffer(x.to_bytes((x.bit_length() + 7) // 8, "little"), np.uint8)
    return np.flatnonzero(np.unpackbits(packed, bitorder="little")).tolist()


def hopcroft_karp(rows, nr):
    """Maximum matching of a bipartite graph given by left row masks.

    `rows[x]` is an int whose bit v is set iff left node x is adjacent to
    right node v < nr.  Layered BFS plus shortest-path DFS (Hopcroft and
    Karp, SIAM J. Comput. 2(4), 1973), one word-parallel step at a time:

      * a BFS layer is the OR of its nodes' rows;
      * `layer[k]` holds the right nodes a DFS may cross from a left node
        at distance k - 1: those matched to a left node at distance k, and
        at the free end's distance also the unmatched ones;
      * each DFS frame scans its row in ascending column order, taking the
        lowest usable column past the one it took last, and a dead end or
        an augmentation moves the columns whose partner or distance
        changed.

    Roots go in index order and each DFS frame starts at its row's first
    column, so the returned (match_l, match_r) int64 arrays are those of
    the same traversal walking ascending adjacency lists one edge at a
    time.  Unmatched is -1.
    """
    nl = len(rows)
    inf = nl + 2
    match_l = [-1] * nl
    match_r = [-1] * nr
    free = (1 << nr) - 1  # right nodes without a partner
    while True:
        dist = [inf] * nl
        frontier = [s for s in range(nl) if match_l[s] == -1]
        for s in frontier:
            dist[s] = 0
        layer = [0]
        reached = 0  # matched right nodes whose partner has a distance
        while frontier:
            reach = 0
            for x in frontier:
                reach |= rows[x]
            new = reach & ~free & ~reached
            reached |= new
            layer.append(new)
            frontier = [match_r[v] for v in _ones(new)]
            for w in frontier:
                dist[w] = len(layer) - 1
            if reach & free:
                break
        else:  # no free right node is reachable: the matching is maximum
            break
        layer[-1] |= free
        layer.append(0)  # nodes at the free end's distance lead nowhere
        for s in range(nl):
            if match_l[s] != -1:
                continue
            # each frame's column taken last; the frame scans on past it
            stack, vsel = [s], [-1]
            while stack:
                x = stack[-1]
                usable = (rows[x] & layer[dist[x] + 1]) >> (vsel[-1] + 1)
                if not usable:  # a dead end: no augmenting path through x
                    if match_l[x] != -1:
                        layer[dist[x]] ^= 1 << match_l[x]
                    dist[x] = inf
                    stack.pop()
                    vsel.pop()
                    continue
                v = vsel[-1] + (usable & -usable).bit_length()
                vsel[-1] = v
                w = match_r[v]
                if w != -1:
                    stack.append(w)
                    vsel.append(-1)
                    continue
                free ^= 1 << v
                for k, (left, right) in enumerate(zip(stack, vsel)):
                    # its new partner sits at distance k, its old one at k + 1
                    layer[k + 1] ^= 1 << right
                    layer[k] |= 1 << right
                    match_l[left] = right
                    match_r[right] = left
                break
    return np.asarray(match_l, dtype=np.int64), np.asarray(match_r, dtype=np.int64)

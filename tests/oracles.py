"""Independent brute-force oracles used to pin expected test values.

Everything here is deliberately written from first principles (plain
dict/list state, exhaustive recursion) and stays independent of the library
code paths it checks.
"""

from __future__ import annotations

import numpy as np


def canonical_edge_order(edges: list[tuple[int, int, float]]
                         ) -> list[tuple[int, int, float]]:
    """Descending weight, ties by ascending ``(left, right)``."""
    return sorted(edges, key=lambda e: (-e[2], e[0], e[1]))


def best_matching_value(edges: list[tuple[int, int, float]]) -> float:
    """Maximum total weight over all matchings; exhaustive recursion.

    Only viable for small instances (<= ~8 nodes per side).
    """
    by_left: dict[int, list[tuple[int, float]]] = {}
    for l, r, w in edges:
        by_left.setdefault(l, []).append((r, w))
    lefts = sorted(by_left)

    def solve(pos: int, used_rights: frozenset[int]) -> float:
        if pos == len(lefts):
            return 0.0
        best = solve(pos + 1, used_rights)  # leave this left node single
        for r, w in by_left[lefts[pos]]:
            if r not in used_rights:
                best = max(best, w + solve(pos + 1, used_rights | {r}))
        return best

    return solve(0, frozenset())


def mutual_best_pairs(edges: list[tuple[int, int, float]],
                      threshold: float) -> set[tuple[int, int]]:
    """O(n*m) scan for reciprocally best pairs among edges >= threshold.

    Ties resolve to the smallest opposite index, mirroring the documented
    deterministic adjacency order.
    """
    kept = [(l, r, w) for l, r, w in edges if w >= threshold]
    best_of_left: dict[int, tuple[float, int]] = {}
    best_of_right: dict[int, tuple[float, int]] = {}
    for l, r, w in kept:
        cur = best_of_left.get(l)
        if cur is None or (w, -r) > (cur[0], -cur[1]):
            best_of_left[l] = (w, r)
        cur = best_of_right.get(r)
        if cur is None or (w, -l) > (cur[0], -cur[1]):
            best_of_right[r] = (w, l)
    return {
        (l, r)
        for l, (w, r) in best_of_left.items()
        if best_of_right.get(r, (None, None))[1] == l
    }


def union_find_component_count(node_count: int,
                               edges: list[tuple[int, int]]) -> tuple[int, int]:
    """(number of components, number of union operations performed)."""
    parent = list(range(node_count))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    unions = 0
    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra
            unions += 1
    return node_count - unions, unions


def rippling_reference(n1: int, n2: int,
                       edges: list[tuple[int, int, float]],
                       threshold: float) -> set[tuple[int, int]]:
    """Straight-line restatement of the sequential-rippling matcher.

    Same resolved semantics as the library (claims need to beat both sides'
    current center similarity; only genuine orphaned centers re-attach), but
    written as a direct dict-based state machine over (side, index) keys.
    """
    kept = [(l, r, w) for l, r, w in edges if w >= threshold]
    adj: dict[tuple, list[tuple[tuple, float]]] = {}
    for l, r, w in kept:
        adj.setdefault(("L", l), []).append((("R", r), w))
        adj.setdefault(("R", r), []).append((("L", l), w))
    for node, lst in adj.items():
        lst.sort(key=lambda item: (-item[1], item[0]))

    def node_order(node):
        return (node[0] == "R", node[1])

    seeds = sorted(adj, key=lambda v: (-sum(w for _, w in adj[v]) / len(adj[v]),
                                       node_order(v)))

    swc = {v: 0.0 for v in adj}
    center_of = {v: v for v in adj}
    part = {v: set() for v in adj}
    centers = set()

    for seed in seeds:
        orphans = set()
        for other, w in adj[seed]:
            if other in centers:
                continue
            if w > swc[other] and w > swc[seed]:
                part[center_of[other]].discard(other)
                part[seed].add(other)
                if center_of[other] != other:
                    orphans.add(center_of[other])
                swc[other] = w
                center_of[other] = seed
                break
        if part[seed]:
            if center_of[seed] != seed:
                part[center_of[seed]].discard(seed)
                orphans.add(center_of[seed])
            centers.add(seed)
            part[seed].add(seed)
            center_of[seed] = seed
            swc[seed] = 1.0
        for orphan in sorted(orphans, key=node_order):
            best, best_w = None, 0.0
            for other, w in adj[orphan]:
                if w > best_w and len(part[other]) < 2:
                    best, best_w = other, w
            if best is not None:
                part[orphan].clear()
                part[best].add(orphan)

    result = set()
    for members in part.values():
        if len(members) == 2:
            sides = {m[0] for m in members}
            if sides == {"L", "R"}:
                l = next(m[1] for m in members if m[0] == "L")
                r = next(m[1] for m in members if m[0] == "R")
                result.add((l, r))
    return result


def best_match_reference(n1: int, n2: int,
                         edges: list[tuple[int, int, float]],
                         threshold: float, basis_left: bool
                         ) -> set[tuple[int, int]]:
    """Straight-line restatement of best match clustering.

    Basis nodes in ascending index order each take the heaviest edge to a
    counterpart nobody has taken yet, ties to the smallest counterpart
    index; found by a full scan of the kept edges per basis node.
    """
    kept = [(l, r, w) for l, r, w in edges if w >= threshold]
    taken: set[int] = set()
    result = set()
    for node in range(n1 if basis_left else n2):
        options = []
        for l, r, w in kept:
            mine, other = (l, r) if basis_left else (r, l)
            if mine == node and other not in taken:
                options.append((-w, other))
        if options:
            _, other = min(options)
            taken.add(other)
            result.add((node, other) if basis_left else (other, node))
    return result


def kiraly_reference(n1: int, edges: list[tuple[int, int, float]],
                     threshold: float) -> set[tuple[int, int]]:
    """Straight-line restatement of the proposal matcher with one second
    chance per left node.

    Preference lists hold the kept edges, heaviest first, ties to the
    smaller right index.  A FIFO queue of free left nodes proposes; a right
    node switches to a heavier proposal, or to an equal one when its
    partner is on a second chance and the proposer is not.
    """
    prefs: dict[int, list[tuple[int, float]]] = {}
    for l, r, w in edges:
        if w >= threshold:
            prefs.setdefault(l, []).append((r, w))
    for lst in prefs.values():
        lst.sort(key=lambda item: (-item[1], item[0]))
    queue = [l for l in range(n1) if l in prefs]
    next_choice = {l: 0 for l in prefs}
    on_second = set()
    engaged: dict[int, tuple[int, float]] = {}  # right -> (left, weight)
    while queue:
        man = queue.pop(0)
        if next_choice[man] == len(prefs[man]):
            if man not in on_second:
                on_second.add(man)
                next_choice[man] = 0
                queue.append(man)
            continue
        woman, w = prefs[man][next_choice[man]]
        next_choice[man] += 1
        if woman not in engaged:
            engaged[woman] = (man, w)
            continue
        incumbent, current = engaged[woman]
        if w > current or (w == current and incumbent in on_second
                           and man not in on_second):
            engaged[woman] = (man, w)
            queue.append(incumbent)
        else:
            queue.append(man)
    return {(man, woman) for woman, (man, _) in engaged.items()}


def friedman_permutation_pvalue(matrix: np.ndarray, statistic_fn,
                                n_permutations: int = 2000,
                                seed: int = 7) -> float:
    """Permutation p-value for any rank statistic, permuting within rows."""
    rng = np.random.default_rng(seed)
    observed = statistic_fn(matrix)
    hits = 0
    work = matrix.copy()
    for _ in range(n_permutations):
        for row in work:
            rng.shuffle(row)
        if statistic_fn(work) >= observed:
            hits += 1
    return (hits + 1) / (n_permutations + 1)

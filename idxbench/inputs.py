"""Seeded inputs of the benchmark, generated without idxloc.

Graphs are lists ``side`` with ``side[i - 1]`` the set of messages
receiver i knows; code documents use the JSON layout of idxloc's code
files.  Every function draws only from the ``random.Random`` it is given.
"""

from __future__ import annotations

import checks


def graph_text(side) -> str:
    lines = [f"N={len(side)}"]
    lines += [f"{i}: {' '.join(map(str, sorted(k)))}".rstrip() for i, k in enumerate(side, 1)]
    return "\n".join(lines) + "\n"


def cycle(n: int) -> list[set[int]]:
    return [{i % n + 1} for i in range(1, n + 1)]


def by_degree(side) -> list[set[int]]:
    """The same graph with vertices renumbered by decreasing out-degree,
    then in-degree (ties keep their order).

    The searches visit receivers in label order, so a random labelling
    spreads the work of equal-sized graphs far more than their shape
    does; a fixed rule for the labels keeps each round's work steady.
    """
    n = len(side)
    indeg = [sum(v in k for k in side) for v in range(1, n + 1)]
    order = sorted(range(1, n + 1), key=lambda v: (-len(side[v - 1]), -indeg[v - 1]))
    new = {v: t for t, v in enumerate(order, 1)}
    return [{new[j] for j in side[v - 1]} for v in order]


def random_graph(rng, n: int, edges: int) -> list[set[int]]:
    pairs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
    side = [set() for _ in range(n)]
    for i, j in rng.sample(pairs, edges):
        side[i - 1].add(j)
    return by_degree(side)


def out_degree_graph(rng, n: int, d: int) -> list[set[int]]:
    return by_degree([set(rng.sample([j for j in range(1, n + 1) if j != i], d)) for i in range(1, n + 1)])


def certified_graph(rng, n: int, edges: int) -> list[set[int]]:
    """Random graph with the given edge count whose min-rank is n - 1 by
    checks.certifies_deficit_one."""
    while True:
        side = random_graph(rng, n, edges)
        if checks.certifies_deficit_one(side):
            return side


def expand(side, m: int):
    """0-based demand and known rows of each receiver for message length m."""
    n = len(side)
    demands = [[(i - 1) * m + t for t in range(m)] for i in range(1, n + 1)]
    known = [sorted((j - 1) * m + t for j in side[i - 1] for t in range(m)) for i in range(1, n + 1)]
    return demands, known


def random_code(rng, side, q: int, m: int, extra: int) -> dict:
    """A decodable code document built directly, with no search.

    Every scalar symbol gets one column equal to its unit vector plus a
    random combination of a random part of its receiver's known rows,
    which the receiver queries; ``extra`` random dense columns are added
    and queried by random receivers.  Columns are shuffled and scaled
    by random nonzero constants, which keeps every receiver decodable.
    """
    n = len(side)
    mn = m * n
    demands, known = expand(side, m)
    columns, owners = [], []
    for i in range(n):
        for j in demands[i]:
            col = [0] * mn
            col[j] = 1
            for s in known[i]:
                if rng.random() < 0.5:
                    col[s] = rng.randrange(q)
            columns.append(col)
            owners.append({i})
    for _ in range(extra):
        columns.append([rng.randrange(q) for _ in range(mn)])
        owners.append(set(rng.sample(range(n), rng.randint(1, n))))
    order = list(range(len(columns)))
    rng.shuffle(order)
    cols = []
    queries = [[] for _ in range(n)]
    for k, src in enumerate(order, 1):
        c = rng.randrange(1, q)
        cols.append([x * c % q for x in columns[src]])
        for i in owners[src]:
            queries[i].append(k)
    rows = [[cols[k][r] for k in range(len(cols))] for r in range(mn)]
    return {"q": q, "M": m, "N": n, "ell": len(cols), "L": rows, "queries": queries}


def broken_copy(rng, side, doc) -> dict | None:
    """The code with one needed query removed, or None if every single
    query can be spared.  Needed means the benchmark's own decodability
    check fails without it."""
    pairs = [(i, k) for i, r in enumerate(doc["queries"]) for k in r]
    rng.shuffle(pairs)
    for i, k in pairs:
        queries = [list(r) for r in doc["queries"]]
        queries[i].remove(k)
        if checks.undecodable_pairs(side, doc["M"], doc["q"], doc["L"], queries):
            return dict(doc, queries=queries)
    return None

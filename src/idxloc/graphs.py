"""Side-information graphs for broadcast problems with receiver side info.

A problem instance is a directed graph on receivers 1..N with an edge
(i, j) whenever receiver i already knows message j.  Receiver and message
indices are 1-based throughout the public API.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Generator, Iterable, Iterator


class GraphParseError(ValueError):
    """Raised for malformed graph files; carries the offending line number."""

    def __init__(self, message: str, line_no: int | None = None):
        self.line_no = line_no
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)


@dataclass(frozen=True)
class SideInformationGraph:
    """N receivers and, for each, the set of other messages it knows."""

    n: int
    side: tuple[frozenset[int], ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("graph needs at least one receiver")
        if len(self.side) != self.n:
            raise ValueError("side-information list length must equal n")
        for i, k in enumerate(self.side, start=1):
            if i in k:
                raise ValueError(f"receiver {i} lists itself as side information")
            for j in k:
                if not 1 <= j <= self.n:
                    raise ValueError(f"receiver {i} lists out-of-range vertex {j}")

    def side_info(self, i: int) -> frozenset[int]:
        """Side-information set K_i of receiver i (1-based)."""
        if not 1 <= i <= self.n:
            raise ValueError(f"receiver {i} out of range [1, {self.n}]")
        return self.side[i - 1]


def graph_from_side_info(side: Iterable[Iterable[int]]) -> SideInformationGraph:
    side_t = tuple([frozenset(k) for k in side])
    return SideInformationGraph(len(side_t), side_t)


def directed_cycle(n: int) -> SideInformationGraph:
    """The cycle instance: receiver i knows message i+1, receiver n knows 1."""
    if n < 2:
        raise ValueError("a directed cycle needs at least 2 vertices")
    return graph_from_side_info([{i % n + 1} for i in range(1, n + 1)])


def parse_graph(text: str) -> SideInformationGraph:
    """Parse the graph file format.

    First significant line is ``N=<int>``; each following line reads
    ``i: j1 j2 ...`` giving the side information of receiver i (possibly
    empty).  ``#`` starts a comment.  Receivers may be omitted (empty side
    information); duplicate declarations, self-loops and out-of-range
    vertices are errors.
    """
    n: int | None = None
    side: dict[int, set[int]] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if n is None:
            key, _, value = line.partition("=")
            if key.strip() != "N":
                raise GraphParseError("expected 'N=<int>' header", line_no)
            try:
                n = int(value.strip())
            except ValueError:
                raise GraphParseError(f"bad receiver count {value.strip()!r}", line_no) from None
            if n < 1:
                raise GraphParseError("receiver count must be positive", line_no)
            continue
        head, sep, tail = line.partition(":")
        if not sep:
            raise GraphParseError("expected '<receiver>: ...'", line_no)
        try:
            i = int(head.strip())
        except ValueError:
            raise GraphParseError(f"bad receiver id {head.strip()!r}", line_no) from None
        if not 1 <= i <= n:
            raise GraphParseError(f"receiver {i} out of range [1, {n}]", line_no)
        if i in side:
            raise GraphParseError(f"receiver {i} declared twice", line_no)
        members: set[int] = set()
        for tok in tail.split():
            try:
                j = int(tok)
            except ValueError:
                raise GraphParseError(f"bad vertex {tok!r}", line_no) from None
            if j == i:
                raise GraphParseError(f"self-loop at receiver {i}", line_no)
            if not 1 <= j <= n:
                raise GraphParseError(f"vertex {j} out of range [1, {n}]", line_no)
            members.add(j)
        side[i] = members
    if n is None:
        raise GraphParseError("missing 'N=<int>' header")
    return graph_from_side_info([side.get(i, set()) for i in range(1, n + 1)])


def induced_subgraph(
    g: SideInformationGraph, vertices: Iterable[int]
) -> tuple[SideInformationGraph, tuple[int, ...]]:
    """Subgraph induced by the given vertices, relabeled to 1..|S|.

    Vertices keep their relative order; the returned tuple maps new label
    t (1-based) to the original vertex mapping[t-1].
    """
    vs = sorted(set(vertices))
    if not vs:
        raise ValueError("induced subgraph needs a nonempty vertex set")
    for v in vs:
        if not 1 <= v <= g.n:
            raise ValueError(f"vertex {v} out of range [1, {g.n}]")
    old_to_new = {v: t for t, v in enumerate(vs, start=1)}
    side = [
        {old_to_new[j] for j in g.side_info(v) if j in old_to_new}
        for v in vs
    ]
    return graph_from_side_info(side), tuple(vs)


def has_directed_cycle(g: SideInformationGraph) -> bool:
    """True iff g has a directed cycle, that is iff its core is nonempty:
    in the core every vertex has an out-neighbour, so walking along them
    must close a cycle."""
    succ, pred = _adjacency(g)
    return _core(succ, pred, (1 << g.n) - 1) != 0


def shortest_directed_cycle(
    g: SideInformationGraph,
) -> tuple[int, tuple[int, ...]] | None:
    """Length and vertex list of a minimum-length directed cycle.

    Returns None iff the graph is acyclic.  Among all minimum-length
    cycles the lexicographically smallest vertex sequence is returned,
    with the cycle rotated so its smallest vertex comes first: a
    breadth-first search over ascending neighbours reaches each vertex
    first along its lexicographically smallest shortest path, so the
    search from s on the vertices s and above finds the smallest of the
    shortest cycles whose lowest vertex is s, and the lowest s reaching
    the girth gives the witness.  The search from s runs inside the core
    of the vertices s and above, which holds every cycle through s
    among them; a vertex it leaves out reaches no vertex that reaches s,
    so it is the parent of no vertex on such a cycle and the witness is
    unchanged.  That core is kept as ``rest``: once s is searched it is
    dropped, and only its neighbours are peeled again, so on one long
    cycle a single search empties it.
    """
    succ, pred = _adjacency(g)
    rest = _core(succ, pred, (1 << g.n) - 1)
    best = None
    while rest:
        low = rest & -rest
        s = low.bit_length() - 1
        cycle = _cycle_through(succ, s, rest)
        if cycle is not None and (best is None or len(cycle) < len(best)):
            best = cycle
        rest ^= low
        rest = _core(succ, pred, rest, (succ[s] | pred[s]) & rest)
    if best is None:
        return None
    return len(best), tuple(v + 1 for v in reversed(best))


def max_acyclic_induced(g: SideInformationGraph) -> int:
    """Size of a largest induced acyclic vertex set (MAIS) of g.

    Exact.  Before any branching the graph is reduced by two rules, each
    of which deletes vertices and adds no arc, until neither applies:

    - a vertex with no in- or out-neighbour left lies on no cycle, so it
      joins every largest set;
    - the arc-free rule: a vertex v whose only in-neighbour u is also an
      out-neighbour of v (or whose only out-neighbour u is also an
      in-neighbour) joins the set, and u leaves the graph.  Every cycle
      through v passes through u, and the 2-cycle on u and v keeps them
      from being in one acyclic set.  So in any largest set S, swapping u
      out for v (or adding v if neither is in S) leaves it acyclic and no
      smaller, and some largest set holds v but not u: the MAIS is 1 plus
      that of the graph less u and v.

    These are contraction rules of Levy and Low ("A contraction algorithm
    for finding small cycle cutsets", J. Algorithms 1988) that need no new
    arc, so the values can be memoized on vertex masks of g; they alone
    solve bidirected paths and trees.  What is left splits into strongly
    connected components, whose values add up because every cycle lies
    inside one component.  A cycle component is worth |C| - 1 without a
    search.  Any other component branches on the vertices of a shortest
    cycle through its lowest vertex, one of which every acyclic set leaves
    out, and stops once one deletion suffices.  Vertex sets are int
    bitmasks, and component values are memoized on them.  The branching
    keeps its own stack, so its depth is not bounded by the interpreter's
    recursion limit.
    """
    return acyclic_sizer(*_adjacency(g))((1 << g.n) - 1)


def acyclic_sizer(succ: list[int], pred: list[int]) -> Callable[[int], int]:
    """The function from a vertex set to the MAIS of the subgraph it
    induces, for a graph given as each vertex's out- and in-neighbours
    (``succ`` and ``pred``, 0-based bitmasks) and a set as an int bitmask,
    for many vertex sets of one graph: its calls share the adjacency and
    one memo, since a component's value depends only on its vertices.
    Each set is reduced on its own by ``_mais``, so vertices on no cycle
    cost no search."""
    memo: dict[int, int] = {}

    def size(mask: int) -> int:
        return _mais(succ, pred, mask, memo)

    return size


def _acyclic_sets(g: SideInformationGraph, size: int) -> list[tuple[int, ...]]:
    """The induced acyclic vertex sets of g with exactly size vertices, as
    ascending tuples of 0-based vertices in lexicographic order: the
    ``combinations(range(g.n), size)`` whose core is empty.  At size
    ``max_acyclic_induced(g)`` these are the maximum ones."""
    succ, pred = _adjacency(g)
    return [
        s for s in combinations(range(g.n), size)
        if not _core(succ, pred, sum(1 << v for v in s))
    ]


def _adjacency(g: SideInformationGraph) -> tuple[list[int], list[int]]:
    """Each vertex's out- and in-neighbours as bitmasks, 0-based."""
    succ = [0] * g.n
    pred = [0] * g.n
    for i, side in enumerate(g.side):
        for j in side:
            succ[i] |= 1 << (j - 1)
            pred[j - 1] |= 1 << i
    return succ, pred


def _core(
    succ: list[int], pred: list[int], mask: int, todo: int | None = None
) -> int:
    """The core of the subgraph induced on the bitmask mask: what is left
    after dropping every vertex with no in- or out-neighbour left, until
    none is left to drop.  Each dropped vertex lies on no cycle inside
    mask, and the core is empty iff that subgraph is acyclic.  todo is
    the bitmask of vertices to check, by default all of mask; a vertex
    of mask left out must have an in- and an out-neighbour in mask,
    which holds for every vertex of a core less some vertices but their
    neighbours.  Only the neighbours of a dropped vertex are looked at
    again."""
    if todo is None:
        todo = mask
    while todo:
        v = (todo & -todo).bit_length() - 1
        todo ^= 1 << v
        if not (succ[v] & mask and pred[v] & mask):
            mask ^= 1 << v
            todo |= (succ[v] | pred[v]) & mask
    return mask


def _mais(succ: list[int], pred: list[int], mask: int, memo: dict[int, int]) -> int:
    """MAIS of the subgraph induced on the bitmask mask, given each
    vertex's out- and in-neighbours as bitmasks.  Every set asked for is
    reduced first, and only what the rules leave gets a frame of the
    branching, a call of ``_mais_frame`` kept on an explicit stack with
    the count the reduction kept: a frame yields the bitmask whose MAIS
    it needs and is sent that value back."""
    stack = []
    while True:
        value, core = _reduce(succ, pred, mask)
        if core:
            stack.append((value, _mais_frame(succ, pred, core, memo)))
            value = None
        while stack:
            kept, frame = stack[-1]
            try:
                mask = frame.send(value)
            except StopIteration as done:
                stack.pop()
                value = kept + done.value
            else:
                break
        else:
            return value


def _mais_frame(
    succ: list[int], pred: list[int], core: int, memo: dict[int, int]
) -> Generator[int, int, int]:
    """One frame of ``_mais``: the MAIS of core, a set the reduction rules
    leave unchanged, yielding each bitmask whose MAIS it needs."""
    total = 0
    for comp in _components(succ, pred, core):
        if not comp & (comp - 1):
            total += 1
            continue
        value = memo.get(comp)
        if value is None:
            size = comp.bit_count()
            if _is_cycle(succ, comp):
                value = size - 1
            else:
                # Without the rest of the core the rules may fire inside
                # the component.
                kept, rest = _reduce(succ, pred, comp) if comp != core else (0, comp)
                if rest != comp:
                    value = kept + (yield rest)
                else:
                    value = 0
                    v = (comp & -comp).bit_length() - 1
                    for u in _cycle_through(succ, v, comp):
                        value = max(value, (yield comp ^ (1 << u)))
                        if value == size - 1:
                            break
            memo[comp] = value
        total += value
    return total


def _reduce(succ: list[int], pred: list[int], mask: int) -> tuple[int, int]:
    """(kept, rest): the reduction rules of ``max_acyclic_induced`` applied
    to the subgraph induced on the bitmask mask until neither applies.
    kept counts the vertices that joined the acyclic set, and rest is the
    bitmask of vertices left, so the MAIS of mask is kept plus the MAIS of
    rest.  Only the neighbours of deleted vertices are looked at again."""
    kept = 0
    todo = mask
    while todo:
        low = todo & -todo
        todo ^= low
        v = low.bit_length() - 1
        out = succ[v] & mask
        into = pred[v] & mask
        if out and into:
            # The arc-free rule: v's one in- (or out-) neighbour leaves.
            if not into & (into - 1) and into & out:
                drop = into
            elif not out & (out - 1) and out & into:
                drop = out
            else:
                continue
            mask ^= drop
            u = drop.bit_length() - 1
            todo |= succ[u] | pred[u]
        kept += 1
        mask ^= low
        todo = (todo | out | into) & mask
    return kept, mask


def _is_cycle(succ: list[int], comp: int) -> bool:
    """True iff every vertex of the strongly connected bitmask comp has
    one out-neighbour inside it, which makes comp one directed cycle."""
    rest = comp
    while rest:
        low = rest & -rest
        out = succ[low.bit_length() - 1] & comp
        if out & (out - 1):
            return False
        rest ^= low
    return True


def _components(succ: list[int], pred: list[int], mask: int) -> list[int]:
    """The strongly connected components of the subgraph induced on the
    bitmask mask, as bitmasks, lowest vertex first: the component of a
    vertex is what it reaches and is reached from inside mask.  Every
    vertex on a path from that component back to the vertex is reached
    from the vertex too, so the backward search runs inside what the
    forward one reached."""
    comps = []
    while mask:
        low = mask & -mask
        comp = _reach(pred, low, _reach(succ, low, mask))
        mask ^= comp
        comps.append(comp)
    return comps


def _relabel(succ: list[int], comp: int) -> tuple[list[int], list[int]]:
    """The subgraph induced on the bitmask comp, its vertices relabelled
    0, 1, ... in ascending order: each vertex's out- and in-neighbours as
    bitmasks."""
    vertices = list(_bits(comp))
    pos = {v: t for t, v in enumerate(vertices)}
    out = []
    into = [0] * len(vertices)
    for t, v in enumerate(vertices):
        mask = 0
        for w in _bits(succ[v] & comp):
            u = pos[w]
            mask |= 1 << u
            into[u] |= 1 << t
        out.append(mask)
    return out, into


def _bits(mask: int) -> Iterator[int]:
    """The set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _reach(adj: list[int], start: int, within: int) -> int:
    """The bitmask of vertices reachable from the bitmask start along adj
    inside the bitmask within."""
    seen = frontier = start
    while frontier:
        step = 0
        while frontier:
            low = frontier & -frontier
            step |= adj[low.bit_length() - 1]
            frontier ^= low
        frontier = step & within & ~seen
        seen |= frontier
    return seen


def _cycle_through(succ: list[int], s: int, comp: int) -> list[int] | None:
    """The vertices of a shortest directed cycle through s inside the
    bitmask comp, last vertex first and s last, or None if s lies on no
    cycle inside comp.  Breadth-first search over neighbours in
    ascending order, so the cycle returned is, read from s, the
    lexicographically smallest of the shortest ones."""
    parent = {s: s}
    frontier = [s]
    while frontier:
        step = []
        for u in frontier:
            if succ[u] >> s & 1:
                cycle = [u]
                while u != s:
                    u = parent[u]
                    cycle.append(u)
                return cycle
            for w in _bits(succ[u] & comp):
                if w not in parent:
                    parent[w] = u
                    step.append(w)
        frontier = step
    return None


def receiver_rows(
    g: SideInformationGraph, m: int, i: int
) -> tuple[range, tuple[int, ...]]:
    """Encoder rows of receiver i (1-based) in the length-m vector problem,
    0-based and ascending: (demand rows, side-information rows).

    Message j occupies rows (j-1)*m .. j*m-1, so receiver i demands its
    own block of m rows and knows the blocks of the messages in K_i.
    """
    if m < 1:
        raise ValueError("message length must be at least 1")
    side = [r for j in sorted(g.side_info(i)) for r in range((j - 1) * m, j * m)]
    return range((i - 1) * m, i * m), tuple(side)


def cycle_length_if_cycle(g: SideInformationGraph) -> int | None:
    """N when the instance is one directed cycle through all vertices, in
    any labelling, else None: every receiver knows exactly one message
    and the cycle through receiver 1 has N vertices."""
    if any(len(k) != 1 for k in g.side):
        return None
    succ, _ = _adjacency(g)
    cycle = _cycle_through(succ, 0, (1 << g.n) - 1)
    return g.n if cycle is not None and len(cycle) == g.n else None

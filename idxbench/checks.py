"""Reference computations the benchmark checks idxloc against.

Nothing here imports idxloc: every answer is recomputed from the raw
inputs (graph side-information sets, encoder rows, query sets) with its
own elimination, brute force and graph searches, so a fault in the
program cannot hide in its own check.

Conventions follow the file formats: receivers and codeword columns are
1-based, matrix rows and columns are 0-based lists, and a graph is a
list ``side`` where ``side[i - 1]`` is the set of messages receiver i
knows (an edge i -> j for each j in it).  Message i of length m owns the
encoder rows (i - 1) * m .. i * m - 1.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product

# Span membership is decided by enumerating every combination of the
# generators while there are at most this many; above it, by elimination.
BRUTE_SPAN_LIMIT = 729


# --- linear algebra over F_q -------------------------------------------


def rank(rows, q: int) -> int:
    """Rank over F_q by forward elimination (no back substitution)."""
    work = [[x % q for x in r] for r in rows]
    if not work:
        return 0
    r = 0
    for c in range(len(work[0])):
        piv = next((t for t in range(r, len(work)) if work[t][c]), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        inv = pow(work[r][c], q - 2, q)
        work[r] = [x * inv % q for x in work[r]]
        for t in range(r + 1, len(work)):
            f = work[t][c]
            if f:
                work[t] = [(a - f * b) % q for a, b in zip(work[t], work[r])]
        r += 1
        if r == len(work):
            break
    return r


def in_span_brute(gens, target, q: int) -> bool:
    """Target is some combination of gens, found by trying every one."""
    target = tuple(x % q for x in target)
    n = len(target)
    for coeffs in product(range(q), repeat=len(gens)):
        v = [0] * n
        for c, g in zip(coeffs, gens):
            if c:
                for t in range(n):
                    v[t] += c * g[t]
        if tuple(x % q for x in v) == target:
            return True
    return False


def in_span(gens, target, q: int) -> bool:
    if q ** len(gens) <= BRUTE_SPAN_LIMIT:
        return in_span_brute(gens, target, q)
    return rank(list(gens) + [list(target)], q) == rank(gens, q)


# --- codes ---------------------------------------------------------------


def undecodable_pairs(side, m: int, q: int, rows, queries) -> list[tuple[int, int]]:
    """Every (receiver, scalar symbol) pair that the receiver cannot
    recover from its queried columns plus its side information.

    Symbol j is recoverable iff e_j lies in the span of the queried
    columns and the unit vectors on the known rows, that is iff e_j
    restricted to the unknown rows lies in the span of the queried
    columns restricted to them.
    """
    n = len(side)
    failures = []
    for i in range(1, n + 1):
        known = {(j - 1) * m + t for j in side[i - 1] for t in range(m)}
        free = [r for r in range(n * m) if r not in known]
        gens = [[rows[r][k - 1] for r in free] for k in sorted(queries[i - 1])]
        for t in range(m):
            j = (i - 1) * m + t
            target = [1 if r == j else 0 for r in free]
            if not in_span(gens, target, q):
                failures.append((i, j + 1))
    return failures


def profile(ell: int, m: int, queries) -> tuple[Fraction, Fraction, Fraction]:
    """(beta, r, r_avg) of a code from its length and query sets."""
    sizes = [len(r) for r in queries]
    return (
        Fraction(ell, m),
        Fraction(max(sizes), m),
        Fraction(sum(sizes), m * len(sizes)),
    )


def fmt(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def code_errors(doc, side, q: int, m: int) -> list[str]:
    """Shape errors of a code document against its instance."""
    n = len(side)
    errors = []
    if (doc.get("q"), doc.get("M"), doc.get("N")) != (q, m, n):
        errors.append(f"code has q,M,N={doc.get('q')},{doc.get('M')},{doc.get('N')}")
        return errors
    ell = doc["ell"]
    if len(doc["L"]) != m * n or any(len(r) != ell for r in doc["L"]):
        errors.append("encoder shape does not match M*N x ell")
    if len(doc["queries"]) != n or any(
        not 1 <= k <= ell for r in doc["queries"] for k in r
    ):
        errors.append("query sets out of range")
    return errors


# --- graphs --------------------------------------------------------------


def has_cycle(side, vertices=None) -> bool:
    """Directed cycle inside the subgraph induced by vertices (default all)."""
    alive = set(range(1, len(side) + 1)) if vertices is None else set(vertices)
    # Repeatedly strip vertices with no out-edge inside the alive set.
    changed = True
    while changed:
        changed = False
        for v in list(alive):
            if not (side[v - 1] & alive):
                alive.discard(v)
                changed = True
    return bool(alive)


def max_induced_acyclic(side) -> int:
    """Size of the largest vertex set inducing an acyclic subgraph."""
    n = len(side)
    for size in range(n, 0, -1):
        for subset in combinations(range(1, n + 1), size):
            if not has_cycle(side, subset):
                return size
    return 0


def simple_cycles(side) -> set[frozenset[int]]:
    """Vertex sets of all simple directed cycles."""
    n = len(side)
    found: set[frozenset[int]] = set()

    def walk(start: int, path: list[int]) -> None:
        for j in side[path[-1] - 1]:
            if j == start:
                found.add(frozenset(path))
            elif j > start and j not in path:
                walk(start, path + [j])

    for s in range(1, n + 1):
        walk(s, [s])
    return found


def max_disjoint_cycles(side) -> int:
    """Largest number of vertex-disjoint directed cycles."""
    cycles = sorted(simple_cycles(side), key=lambda c: (len(c), sorted(c)))

    def best(used: frozenset[int], start: int) -> int:
        top = 0
        for t in range(start, len(cycles)):
            c = cycles[t]
            if not (c & used):
                top = max(top, 1 + best(used | c, t + 1))
        return top

    return best(frozenset(), 0)


def girth(side) -> int | None:
    """Length of a shortest directed cycle, by breadth-first search."""
    n = len(side)
    lengths = []
    for s in range(1, n + 1):
        dist = {s: 0}
        frontier = [s]
        while frontier:
            nxt = []
            for v in frontier:
                for j in side[v - 1]:
                    if j not in dist:
                        dist[j] = dist[v] + 1
                        nxt.append(j)
            frontier = nxt
        lengths += [dist[v] + 1 for v in dist if s in side[v - 1]]
    return min(lengths, default=None)


def certifies_deficit_one(side) -> bool:
    """Certificate that the min-rank is n - 1 over every field.

    No 2-cycles and at least one cycle give min-rank <= n - 1 (one cycle
    saves a transmission); a vertex meeting every cycle leaves an acyclic
    subgraph on n - 1 vertices, so min-rank >= n - 1.  The missing
    2-cycles also keep the girth at 3 or more, where the paper's
    locality formulas apply.
    """
    n = len(side)
    if any(i in side[j - 1] for i in range(1, n + 1) for j in side[i - 1]):
        return False
    if not has_cycle(side):
        return False
    everyone = set(range(1, n + 1))
    return any(not has_cycle(side, everyone - {v}) for v in everyone)


def fitting_errors(a, side, q: int) -> list[str]:
    """Why a is not a matrix fitting the graph: square, unit diagonal,
    nonzero off the diagonal only at (j, i) with j in K_i."""
    n = len(side)
    if len(a) != n or any(len(row) != n for row in a):
        return [f"witness is not {n}x{n}"]
    errors = []
    for i in range(n):
        if a[i][i] % q != 1:
            errors.append(f"witness diagonal ({i + 1},{i + 1}) is {a[i][i]}")
        for j in range(n):
            if j != i and a[j][i] % q and (j + 1) not in side[i]:
                errors.append(f"witness entry ({j + 1},{i + 1}) outside the pattern")
    return errors


# --- workload outputs ----------------------------------------------------


def minrank_errors(side, q: int, value: int, witness, exact: int | None) -> list[str]:
    """Check one `idxloc minrank` answer: the witness fits the graph and
    has the printed rank, which lies between the acyclic-subgraph lower
    bound and the cycle-packing upper bound (and equals exact if given)."""
    errors = fitting_errors(witness, side, q)
    if errors:
        return errors
    if rank(witness, q) != value:
        errors.append(f"witness rank {rank(witness, q)} != printed {value}")
    lower = max_induced_acyclic(side)
    upper = len(side) - max_disjoint_cycles(side)
    if not lower <= value <= upper:
        errors.append(f"minrank {value} outside [{lower}, {upper}]")
    if exact is not None and value != exact:
        errors.append(f"minrank {value} != certified {exact}")
    return errors


def dominates(a, b) -> bool:
    return all(x <= y for x, y in zip(a, b)) and a != b


def oracle_errors(side, q: int, m: int, rows, witnesses, facts) -> list[str]:
    """Check one `idxloc oracle` frontier.

    rows holds (beta, r, r_avg) per CSV row and witnesses the code
    document behind each.  No row may lie below the rate of the largest
    induced acyclic subgraph.  facts names the properties of the
    instance: "deficit_girth" is the girth of a certified min-rank n-1
    graph, and "empty" says that the frontier must be empty.
    """
    n = len(side)
    errors = []
    for row, doc in zip(rows, witnesses):
        shape = code_errors(doc, side, q, m)
        if shape:
            errors.extend(shape)
            continue
        bad = undecodable_pairs(side, m, q, doc["L"], doc["queries"])
        if bad:
            errors.append(f"witness for {row} undecodable at {bad}")
        if profile(doc["ell"], m, doc["queries"]) != row:
            errors.append(f"row {row} disagrees with its witness")
    for a in rows:
        for b in rows:
            if dominates(a, b):
                errors.append(f"row {a} dominates row {b}")
    mais = max_induced_acyclic(side)
    if any(b < mais for b, _, _ in rows):
        errors.append(f"a row lies below the acyclic-subgraph bound {mais}")
    if facts.get("empty") and rows:
        errors.append("the frontier should be empty but has rows")
    g = facts.get("deficit_girth")
    if g is not None:
        if any(b < n - 1 for b, _, _ in rows):
            errors.append("a row lies below the min-rank n-1")
        at_rate = [(r, ra) for b, r, ra in rows if b == n - 1]
        want = (Fraction(2), Fraction(n + g - 2, n))
        got = (min(r for r, _ in at_rate), min(ra for _, ra in at_rate)) if at_rate else None
        if got != want:
            errors.append(f"best (r, r_avg) at rate n-1 is {got}, not {want}")
    return errors


def verify_errors(side, q: int, doc, exit_code: int, lines: list[str]) -> list[str]:
    """Check one `idxloc verify` answer against the benchmark's own
    decodability computation and locality profile."""
    m = doc["M"]
    errors = code_errors(doc, side, q, m)
    if errors:
        return errors
    bad = undecodable_pairs(side, m, q, doc["L"], doc["queries"])
    if bad:
        want = ["FAIL"] + [f"undecodable receiver={i} symbol={j}" for i, j in bad]
        if exit_code != 2 or lines != want:
            errors.append(f"expected exit 2 and {want}, got exit {exit_code} and {lines[:4]}")
        return errors
    if exit_code != 0 or not lines or lines[0] != "PASS":
        return [f"expected PASS with exit 0, got exit {exit_code} and {lines[:2]}"]
    beta, r, r_avg = profile(doc["ell"], m, doc["queries"])
    if lines[1:2] != [f"beta={fmt(beta)} r={fmt(r)} r_avg={fmt(r_avg)}"]:
        errors.append(f"profile line {lines[1:2]} != beta={fmt(beta)} r={fmt(r)} r_avg={fmt(r_avg)}")
    sizes = " ".join(str(len(x)) for x in doc["queries"])
    if lines[2:3] != [f"queries_per_receiver={sizes}"]:
        errors.append(f"query sizes line {lines[2:3]} != {sizes}")
    checks = lines[3:]
    if not checks:
        errors.append("no converse check lines")
    for line in checks:
        status = line.split(": ", 1)[1] if ": " in line else ""
        if not line.startswith("check ") or not (
            status.startswith("ok ") or status.startswith("not applicable")
        ):
            errors.append(f"check line not ok on a valid code: {line}")
    return errors

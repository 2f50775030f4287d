"""Exact orbit-sum counts over Z from a subset-construction automaton.

Take a plain module C^(Z) over finite coefficients C and a witness A
whose support lies in w consecutive points.  An orbit sum over
F_n = [0, n) is a function on n + w - 1 consecutive points; read left to
right, position y holds sum_i c_i[y - i] for choices c_0, ..., c_(n-1)
in A, each seen as its window of w coefficients.  So A^[F_n] is the set
of words of length n + w - 1 of a sofic shift (Lind & Marcus, An
Introduction to Symbolic Dynamics and Coding, 1995, ch. 3-4).  They are
emitted by a nondeterministic automaton whose state is the carry: the
w - 1 partial sums that earlier choices still owe to the next
positions.  A step picks the next choice c, emits carry[0] + c[0] and
shifts in the rest of c; after the n choices, w - 1 steps without a
choice emit the carry itself.

The subset construction on the emitted symbols gives a DFA whose state
after a prefix u is the set of carries that can emit u.  The words with
prefix u are u followed by one of those carries, and distinct carries
are distinct tails, so

    |A^[F_n]| = sum over DFA states S of paths_n(start, S) * |S|.

Every state is reachable and weighs at least 1, so log|A^[F_n]| / n
tends to log lambda, lambda the largest spectral radius of a strongly
connected component of the DFA.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .intmat import left_kernel

# DFA states; a witness with a larger automaton is enumerated.  Timed on
# random witnesses over C2..C5 of width 2..4 (12 rows, one CPU of a 2-vCPU
# VM): automata of 200-7000 states cost 0.04-2.6 s in all, the enumeration
# they replace 5-46 s; the power iteration of limit_base grows with the
# edges and took 16 s at 37-44k states.
STATE_CAP = 4096
# Component size up to which a Perron vector is solved for exactly
# (left_kernel, exact integers): at most 0.05 s up to 64 states on the
# same witnesses, 0.08-0.6 s at 72-133, and 1-176 s at 149-383, where the
# entries of the elimination grow.
_EIGEN_SOLVE_MAX = 64
_POWER_STEPS = 500
_TOL = 1e-9


def applies(module, spec) -> bool:
    """log_card on a plain module over finite coefficients, acted on by Z."""
    return (spec.kind == "log_card" and module.action is None
            and module.quotient is None and module.group.free_rank == 1
            and not module.group.torsion and module.coeff.free_rank == 0)


class SubsetAutomaton:
    """The determinized carry automaton of a witness; state 0 is the start.

    A plain class: the dataclass decorator alone would take longer to
    run at import than the rest of this module."""

    __slots__ = ("sizes", "edges")

    def __init__(self, sizes: tuple[int, ...], edges: tuple[tuple[int, ...], ...]):
        self.sizes = sizes  # carries in each state
        self.edges = edges  # the successor of each state per emitted symbol

    def counts(self, n_max: int) -> list[int]:
        """|A^[F_n]| for n = 1..n_max."""
        paths = [0] * len(self.sizes)
        paths[0] = 1
        out = []
        for _ in range(n_max):
            nxt = [0] * len(paths)
            for s, p in enumerate(paths):
                if p:
                    for t in self.edges[s]:
                        nxt[t] += p
            paths = nxt
            out.append(sum(p * z for p, z in zip(paths, self.sizes)))
        return out

    def limit_base(self) -> int | None:
        """The integer k with log|A^[F_n]| / n -> log k, proved exactly, or None.

        Floats only pick k and the test vectors.  The proof is exact:
        each nontrivial component M has a positive integer v with either
        Mv = kv, so its spectral radius is k (Perron-Frobenius), or
        Mv < kv entrywise, so its radius is below k (Collatz-Wielandt),
        and at least one has Mv = kv.  None when lambda is not an
        integer, or when no such vectors are found.
        """
        blocks = _component_matrices(self.edges)
        estimates = [_perron_estimate(rows) for rows in blocks]
        k = round(max((lo + hi) / 2 for lo, hi, _ in estimates))
        attained = False
        for rows, (lo, hi, x) in zip(blocks, estimates):
            if hi < k - _TOL:
                v = _common_integers(x)
                if not all(mv < k * vi for mv, vi in zip(_times(rows, v), v)):
                    return None
            elif lo > k + _TOL:
                return None  # a radius above k: lambda is not an integer
            else:
                v = _perron_vector(rows, k)
                if v is None or _times(rows, v) != [k * vi for vi in v]:
                    return None
                attained = True
        return k if attained else None


def subset_automaton(a) -> SubsetAutomaton | None:
    """The automaton of witness a (see the module docstring), or None
    once the subset construction passes STATE_CAP states."""
    coeff = a.ambient.coeff
    zero = coeff._zero_item()
    add = coeff._add_items
    points = sorted({g[0] for item in a.items for g, _ in item})
    lo = points[0] if points else 0
    w = points[-1] - lo + 1 if points else 1
    windows = []
    for item in sorted(a.items):
        window = [zero] * w
        for g, c in item:
            window[g[0] - lo] = c
        windows.append(window)
    moves = {}  # carry -> [(emitted symbol, next carry)] per window

    def step(carry):
        out = moves.get(carry)
        if out is None:
            padded = carry + (zero,)
            out = moves[carry] = [
                (add(padded[0], c[0]), tuple(add(padded[i], c[i]) for i in range(1, w)))
                for c in windows]
        return out

    start = frozenset([(zero,) * (w - 1)])
    index = {start: 0}
    states = [start]
    edges = []
    i = 0
    while i < len(states):
        by_symbol = {}
        for carry in states[i]:
            for symbol, nxt in step(carry):
                by_symbol.setdefault(symbol, set()).add(nxt)
        successors = []
        for symbol in sorted(by_symbol):
            target = frozenset(by_symbol[symbol])
            j = index.get(target)
            if j is None:
                if len(states) == STATE_CAP:
                    return None
                j = index[target] = len(states)
                states.append(target)
            successors.append(j)
        edges.append(tuple(successors))
        i += 1
    return SubsetAutomaton(tuple(len(s) for s in states), tuple(edges))


def _component_matrices(edges) -> list[list[list[int]]]:
    """Adjacency lists, in local indices, of the nontrivial strongly
    connected components (Kosaraju; order fixed by the state numbering)."""
    n = len(edges)
    order, seen = [], [False] * n
    for root in range(n):
        if seen[root]:
            continue
        seen[root] = True
        stack = [(root, iter(edges[root]))]
        while stack:
            v, successors = stack[-1]
            for u in successors:
                if not seen[u]:
                    seen[u] = True
                    stack.append((u, iter(edges[u])))
                    break
            else:
                stack.pop()
                order.append(v)
    reverse = [[] for _ in range(n)]
    for v, successors in enumerate(edges):
        for u in successors:
            reverse[u].append(v)
    comp = [-1] * n
    blocks = []
    for root in reversed(order):
        if comp[root] >= 0:
            continue
        label = comp[root] = root
        members, stack = [root], [root]
        while stack:
            for u in reverse[stack.pop()]:
                if comp[u] < 0:
                    comp[u] = label
                    members.append(u)
                    stack.append(u)
        local = {v: i for i, v in enumerate(members)}
        rows = [[local[u] for u in edges[v] if comp[u] == label] for v in members]
        if any(rows):
            blocks.append(rows)
    return blocks


def _perron_estimate(rows):
    """(lo, hi, x): Collatz-Wielandt bounds lo <= rho(M) <= hi, up to
    rounding, from the positive float vector x, by power iteration on
    M + I (which is aperiodic); it stops before an entry of x could
    underflow to 0."""
    x = [1.0] * len(rows)
    for _ in range(_POWER_STEPS):
        y = [xi + sum(x[j] for j in r) for xi, r in zip(x, rows)]
        ratios = [yi / xi for yi, xi in zip(y, x)]
        lo, hi = min(ratios) - 1, max(ratios) - 1
        top = max(y)
        if hi - lo <= _TOL or min(y) < 1e-200 * top:
            break
        x = [yi / top for yi in y]
    return lo, hi, x


def _common_integers(x) -> list[int]:
    """The floats x, exact dyadic rationals, over their common denominator."""
    ratios = [Fraction(xi) for xi in x]
    den = math.lcm(*(q.denominator for q in ratios))
    return [q.numerator * (den // q.denominator) for q in ratios]


def _times(rows, v) -> list[int]:
    """Mv for the component matrix M given by its adjacency lists."""
    return [sum(v[j] for j in r) for r in rows]


def _perron_vector(rows, k) -> list[int] | None:
    """A positive integer v with Mv = kv, or None."""
    if all(len(r) == k for r in rows):
        return [1] * len(rows)
    s = len(rows)
    if s > _EIGEN_SOLVE_MAX:
        return None
    # (M - kI) v = 0  iff  v (M - kI)^T = 0
    transposed = [[-k if i == j else 0 for i in range(s)] for j in range(s)]
    for i, r in enumerate(rows):
        for j in r:
            transposed[j][i] += 1
    kernel = left_kernel(transposed)
    if len(kernel) != 1:
        return None
    v = kernel[0] if kernel[0][0] > 0 else [-e for e in kernel[0]]
    return v if all(e > 0 for e in v) else None

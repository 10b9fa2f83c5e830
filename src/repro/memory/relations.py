"""Finite binary-relation algebra over execution events.

Implements the notation of Section 4 of the paper: composition, reflexive /
transitive closures, inverse, the ``imm`` immediate restriction, identity
relations ``[A]``, and ``maximal(S, B)``.  Relations are stored as adjacency
sets keyed by node, which keeps closure computations near-linear for the
small graphs produced by litmus tests and unit tests.

These operations state the axioms of :func:`repro.memory.axioms
.check_consistency_reference`, the oracle the tests hold the one-pass
auditor to, and derive ``com`` for :mod:`repro.analysis`.  Neither the
sanitizer's audit (:func:`repro.memory.axioms.check_consistency`) nor
the engine builds relations: the audit walks hb's generators once, and
the engine answers hot-path happens-before queries with vector clocks.
"""

from __future__ import annotations

from collections import defaultdict, deque
from typing import Dict, Hashable, Iterable, Iterator, Set, Tuple

Node = Hashable
Edge = Tuple[Node, Node]


class Relation:
    """A finite binary relation with the closure algebra of Section 4."""

    def __init__(self, edges: Iterable[Edge] = ()):  # noqa: D107
        self._succ: Dict[Node, Set[Node]] = defaultdict(set)
        for a, b in edges:
            self._succ[a].add(b)

    # -- basic protocol ----------------------------------------------------

    def add(self, a: Node, b: Node) -> None:
        self._succ[a].add(b)

    def __contains__(self, edge: Edge) -> bool:
        a, b = edge
        return b in self._succ.get(a, ())

    def __call__(self, a: Node, b: Node) -> bool:
        return (a, b) in self

    def edges(self) -> Iterator[Edge]:
        for a, succs in self._succ.items():
            for b in succs:
                yield (a, b)

    def successors(self, a: Node) -> Set[Node]:
        return set(self._succ.get(a, ()))

    def nodes(self) -> Set[Node]:
        out: Set[Node] = set()
        for a, succs in self._succ.items():
            out.add(a)
            out |= succs
        return out

    def __len__(self) -> int:
        return sum(len(s) for s in self._succ.values())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Relation):
            return NotImplemented
        return set(self.edges()) == set(other.edges())

    def __hash__(self):  # pragma: no cover - relations are not dict keys
        raise TypeError("Relation is unhashable")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Relation({sorted(map(str, self.edges()))})"

    # -- algebra -----------------------------------------------------------

    def union(self, other: "Relation") -> "Relation":
        out = Relation(self.edges())
        for a, b in other.edges():
            out.add(a, b)
        return out

    def __or__(self, other: "Relation") -> "Relation":
        return self.union(other)

    def minus(self, other: "Relation") -> "Relation":
        return Relation(e for e in self.edges() if e not in other)

    def compose(self, other: "Relation") -> "Relation":
        """Relational composition ``self ; other``."""
        out = Relation()
        for a, mids in self._succ.items():
            for m in mids:
                for b in other._succ.get(m, ()):
                    out.add(a, b)
        return out

    def inverse(self) -> "Relation":
        """``B⁻¹``."""
        return Relation((b, a) for a, b in self.edges())

    def reflexive(self, nodes: Iterable[Node]) -> "Relation":
        """``B?`` over the given carrier set."""
        out = Relation(self.edges())
        for n in nodes:
            out.add(n, n)
        return out

    def transitive(self) -> "Relation":
        """``B⁺`` via BFS from every node."""
        out = Relation()
        for start in list(self._succ):
            seen: Set[Node] = set()
            frontier = deque(self._succ[start])
            while frontier:
                n = frontier.popleft()
                if n in seen:
                    continue
                seen.add(n)
                frontier.extend(self._succ.get(n, ()))
            for n in seen:
                out.add(start, n)
        return out

    def reflexive_transitive(self, nodes: Iterable[Node]) -> "Relation":
        """``B*`` over the given carrier set."""
        return self.transitive().reflexive(nodes)

    def restrict(self, domain: Set[Node], codomain: Set[Node]) -> "Relation":
        return Relation(
            (a, b) for a, b in self.edges() if a in domain and b in codomain
        )

    # -- predicates --------------------------------------------------------

    def is_irreflexive(self) -> bool:
        return all(a is not b and a != b for a, b in self.edges())

    def is_acyclic(self) -> bool:
        """Kahn's algorithm over the relation's nodes."""
        indeg: Dict[Node, int] = defaultdict(int)
        nodes = self.nodes()
        for _, b in self.edges():
            indeg[b] += 1
        ready = deque(n for n in nodes if indeg[n] == 0)
        visited = 0
        while ready:
            n = ready.popleft()
            visited += 1
            for b in self._succ.get(n, ()):
                indeg[b] -= 1
                if indeg[b] == 0:
                    ready.append(b)
        return visited == len(nodes)

    def is_total_over(self, nodes: Iterable[Node]) -> bool:
        """True if every distinct pair is related one way or the other."""
        nodes = list(nodes)
        for i, a in enumerate(nodes):
            for b in nodes[i + 1 :]:
                if not ((a, b) in self or (b, a) in self):
                    return False
        return True

    def empty(self) -> bool:
        return len(self) == 0


def imm(rel: Relation) -> Relation:
    """``imm(B)``: pairs with no interposed node.

    ``imm(B)(x, y) ≜ B(x, y) ∧ ¬∃z. B(x, z) ∧ B(z, y)``.
    """
    out = Relation()
    for a, b in rel.edges():
        if not any((z, b) in rel for z in rel.successors(a) if z != b):
            out.add(a, b)
    return out


def identity(nodes: Iterable[Node]) -> Relation:
    """``[A]``: the identity relation on a set."""
    return Relation((n, n) for n in nodes)


def maximal(nodes: Iterable[Node], rel: Relation) -> Set[Node]:
    """``maximal(S, B)``: elements of S with no B-successor inside S.

    ``maximal(S, B) ≜ {e | e ∈ S ∧ S ∩ [{e}];B = ∅}``.
    """
    nodes = set(nodes)
    return {
        n for n in nodes if not (rel.successors(n) & nodes)
    }

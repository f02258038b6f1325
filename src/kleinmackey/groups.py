"""The two ambient groups: C2 and the Klein four-group.

Group elements are int bitmasks in F2^2 (or F2 for C2) with XOR as the
operation, so every element is its own inverse.  The Klein group has
cyclic subgroups L, D, R: the left factor, the diagonal, and the right
factor.  The three nontrivial characters a (alpha), b (beta), g (gamma)
die on R, L, D respectively.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class GroupData:
    name: str
    elements: tuple
    levels: tuple          # subgroup names, whole group first, trivial last
    subgroups: dict        # name -> frozenset of elements
    cyclics: tuple         # proper nontrivial subgroup names
    char_kernels: dict     # character name -> subgroup name it dies on
    edges: tuple           # adjacent (upper, lower) pairs in the lattice

    def __post_init__(self):
        # Lattice, coset and position tables, built once: the oracle looks
        # these up millions of times.  coset_rep is the least element of g*H.
        subs = self.subgroups
        name_of = {elems: name for name, elems in subs.items()}
        rep = {(g, h): min(g ^ s for s in subs[h]) for g in self.elements for h in subs}
        cosets = {h: tuple(sorted({rep[(g, h)] for g in self.elements})) for h in subs}
        # chains down lattice edges, bottom up; of two routes, the edge listed first wins
        chains = {(lv, lv): (lv,) for lv in self.levels}
        for up, lo in reversed(self.edges):
            chains.update({(up, b): (up,) + c for (a, b), c in chains.items() if a == lo})
        tables = {
            "_meet": {(a, b): name_of[subs[a] & subs[b]] for a in subs for b in subs},
            "_join": {(a, b): name_of[frozenset(x ^ y for x in subs[a] for y in subs[b])]
                      for a in subs for b in subs},
            "_coset_rep": rep,
            "_cosets": cosets,
            "level_index": {lv: i for i, lv in enumerate(self.levels)},
            "edge_index": {edge: i for i, edge in enumerate(self.edges)},
            "_chains": chains,
        }
        for attr, table in tables.items():
            object.__setattr__(self, attr, table)  # the dataclass is frozen

    def meet(self, a, b):
        return self._meet[(a, b)]

    def join(self, a, b):
        return self._join[(a, b)]

    def coset_rep(self, g, h):
        return self._coset_rep[(g, h)]

    def cosets(self, h):
        return self._cosets[h]

    def subgroup_chain(self, a, b):
        """Levels from a down to b (inclusive) along lattice edges; needs b <= a."""
        try:
            return self._chains[(a, b)]
        except KeyError:
            raise ValueError(f"no chain {a} -> {b}") from None


KLEIN = GroupData(
    name="K",
    elements=(0, 1, 2, 3),
    levels=("K", "L", "D", "R", "e"),
    subgroups={
        "K": frozenset({0, 1, 2, 3}),
        "L": frozenset({0, 2}),
        "D": frozenset({0, 3}),
        "R": frozenset({0, 1}),
        "e": frozenset({0}),
    },
    cyclics=("L", "D", "R"),
    char_kernels={"alpha": "R", "beta": "L", "gamma": "D"},
    edges=(("K", "L"), ("K", "D"), ("K", "R"), ("L", "e"), ("D", "e"), ("R", "e")),
)

C2 = GroupData(
    name="C2",
    elements=(0, 1),
    levels=("C2", "e"),
    subgroups={"C2": frozenset({0, 1}), "e": frozenset({0})},
    cyclics=(),
    char_kernels={"sigma": "e"},
    edges=(("C2", "e"),),
)


def group_by_name(name):
    if name == "K":
        return KLEIN
    if name == "C2":
        return C2
    raise ValueError(f"unknown group {name!r}")


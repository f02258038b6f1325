import itertools

import pytest

from kleinmackey.groups import C2, KLEIN


@pytest.mark.parametrize("gd", [KLEIN, C2], ids=lambda gd: gd.name)
def test_tables_match_set_definitions(gd):
    """The table-backed lookups equal the set operations and positions they replace."""
    subs = gd.subgroups

    def name_of(elems):
        (name,) = [n for n, s in subs.items() if s == elems]
        return name

    for a, b in itertools.product(subs, repeat=2):
        assert gd.meet(a, b) == name_of(subs[a] & subs[b]), (a, b)
        product = frozenset(x ^ y for x in subs[a] for y in subs[b])
        assert gd.join(a, b) == name_of(product), (a, b)
    for h in subs:
        for g in gd.elements:
            assert gd.coset_rep(g, h) == min(g ^ s for s in subs[h]), (g, h)
        assert gd.cosets(h) == tuple(sorted({min(g ^ s for s in subs[h])
                                             for g in gd.elements})), h
    for i, lv in enumerate(gd.levels):
        assert gd.level_index[lv] == i
    for i, edge in enumerate(gd.edges):
        assert gd.edge_index[edge] == i

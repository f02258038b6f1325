import gc
import hashlib
import itertools
import json
import random
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from kleinmackey import bredon, sschart
from kleinmackey import mackey as mk
from kleinmackey.mackey import (CATALOG_ATOMS, DUAL_NAMES, Mackey, build_mackey, catalog,
                                check_axioms, direct_sum, dual, expr_to_mackey,
                                fingerprint, format_name_expr, hom_space,
                                identify, inflate, is_isomorphic,
                                mackey_from_json, parse_name_expr,
                                rank_tuples_of_hom, restrict_to, zero_mackey)
from kleinmackey.reps import RepC2, RepK


def test_catalog_diagrams():
    F = catalog("F")
    assert F.dims == (1, 1, 1, 1, 1)
    assert all(F.res_edge(u, lo).to_lists() == [[1]] for u, lo in F.gd.edges)
    assert all(F.tr_edge(u, lo).is_zero() for u, lo in F.gd.edges)
    g = catalog("g")
    assert g.dims == (1, 0, 0, 0, 0)
    mg = catalog("mg")
    assert mg.dims == (2, 1, 1, 1, 0)
    assert mg.res_edge("K", "L").to_lists() == [[1, 0]]
    assert mg.res_edge("K", "D").to_lists() == [[1, 1]]
    assert mg.res_edge("K", "R").to_lists() == [[0, 1]]
    Wd = catalog("W*")
    assert Wd.dims == (3, 1, 1, 1, 1)
    assert Wd.res_edge("K", "L").to_lists() == [[1, 0, 0]]
    assert Wd.tr_edge("L", "e").to_lists() == [[1]]


def test_unknown_name():
    with pytest.raises(ValueError):
        catalog("nope")
    # a Klein atom is no C2 name, and neither is an inflation
    for name in ("W", "phiL(F)", "F + m"):
        with pytest.raises(ValueError, match="unknown C2 catalog name"):
            catalog(name, "C2")


def test_zero_has_one_representation():
    # "0", "" and any zero multiplicity parse to the empty sum, which is the
    # zero functor; no table carries a "0" pseudo-atom
    for text in ("0", "", "F^0"):
        assert parse_name_expr(text) == (), text
    assert parse_name_expr("F^0 + g") == (("g", 1),)
    for group in ("K", "C2"):
        assert catalog("0", group) == zero_mackey(group)
        assert "0" not in mk._TABLES[group]
    assert "0" not in CATALOG_ATOMS and "0" not in DUAL_NAMES


def test_name_grammar_reads_the_displayed_names():
    # phi takes one cyclic subgroup or all three, the spellings display_terms
    # prints; a pair such as LD or LR is no name
    for name in ("phiLD(F)", "phiLR(F)", "phiDR(f)"):
        with pytest.raises(ValueError, match="unknown K catalog name"):
            parse_name_expr(name)
    assert parse_name_expr("phiL(F)") == (("phiL(F)", 1),)
    assert format_name_expr(parse_name_expr("phiLDR(F*)")) == "phiLDR(F*)"
    assert parse_name_expr("phiLDR(g)") == (("g", 3),)


def test_axioms_all_catalog():
    for name in CATALOG_ATOMS:
        assert check_axioms(catalog(name)) == [], name
    assert check_axioms(zero_mackey()) == []


def test_axioms_detect_corruption():
    # give F a transfer up from R while keeping the identity restriction
    doc = catalog("F").to_json_dict()
    doc["tr"]["R>K"] = [[1]]
    bad = mackey_from_json(doc)
    failures = check_axioms(bad)
    assert any("res K>R . tr R>K" in f for f in failures)


def test_axioms_check_tr_res_on_every_edge():
    k = build_mackey("K", (2, 1, 0, 0, 0), res={("K", "L"): [[1, 0]]},
                     tr={("K", "L"): [[0], [1]]})
    assert check_axioms(k) == ["tr L>K . res K>L != 0"]
    # the same shape over C2 fails the same rule
    c2 = build_mackey("C2", (2, 1), res={("C2", "e"): [[1, 0]]},
                      tr={("C2", "e"): [[0], [1]]})
    assert check_axioms(c2) == ["tr e>C2 . res C2>e != 0"]


def test_dual_names_are_the_papers_pairing():
    assert DUAL_NAMES == {
        "F": "F*", "F*": "F", "m": "m*", "m*": "m", "mg": "mg*", "mg*": "mg",
        "w": "w*", "w*": "w", "W": "W*", "W*": "W",
        "phiL(F)": "phiL(F*)", "phiL(F*)": "phiL(F)",
        "phiD(F)": "phiD(F*)", "phiD(F*)": "phiD(F)",
        "phiR(F)": "phiR(F*)", "phiR(F*)": "phiR(F)",
        "f": "f", "g": "g", "phiL(f)": "phiL(f)", "phiD(f)": "phiD(f)",
        "phiR(f)": "phiR(f)",
    }


def test_inflate_examples():
    m = inflate("R", catalog("F", "C2"))
    assert m.dims == (1, 0, 0, 1, 0)
    assert m.res_edge("K", "R").to_lists() == [[1]]
    assert m.tr_edge("K", "R").is_zero()
    assert inflate("L", zero_mackey("C2")).is_zero()


def test_restrict_to_examples():
    assert restrict_to(catalog("F"), "L") == catalog("F", "C2")
    assert restrict_to(catalog("g"), "R").is_zero()
    assert restrict_to(catalog("mg"), "R") == catalog("g", "C2")
    # inflation along one subgroup dies on the others
    for h in ("L", "D", "R"):
        infl = inflate(h, catalog("F", "C2"))
        for other in ("L", "D", "R"):
            if other != h:
                assert restrict_to(infl, other).is_zero()


def test_direct_sum_examples():
    trip = catalog("phiLDR(f)")
    assert trip.dims == (0, 1, 1, 1, 0)
    assert all(m.is_zero() for m in trip.res) and all(m.is_zero() for m in trip.tr)
    gg = direct_sum([catalog("g"), catalog("g")])
    assert gg.dims == (2, 0, 0, 0, 0)
    assert direct_sum([catalog("m"), zero_mackey()]) == catalog("m")
    # the one catalog reads C2 name expressions as it reads Klein ones
    c2_sum = direct_sum([catalog("F*", "C2"), catalog("f", "C2")])
    assert catalog("F* + f", "C2") == c2_sum and c2_sum.group == "C2"
    assert catalog("g^2", "C2") == direct_sum([catalog("g", "C2")] * 2)


def test_fingerprint_examples():
    assert fingerprint(catalog("F")) != fingerprint(catalog("F*"))
    assert fingerprint(direct_sum([catalog("g"), catalog("f")])) == \
        fingerprint(direct_sum([catalog("f"), catalog("g")]))
    # the two-dimensional quotient is not the split sum: the three
    # restriction kernels differ, which the joint restriction rank sees
    assert fingerprint(catalog("mg")) != fingerprint(catalog("m + g"))
    assert not is_isomorphic(catalog("mg"), catalog("m + g"))


def _catalog_atoms():
    return [catalog(name, group) for group in ("K", "C2") for name in GROUP_ATOMS[group]]


@lru_cache(maxsize=None)
def _small_box_functors():
    """Oracle homotopy functors: Klein RepK(0, b, c, d) with |b|, |c|, |d| <= 1
    and F, F*, m, W; C2 RepC2(0, b) with |b| <= 4 and F, F*, f, g."""
    inputs = [(RepK(0, *bcd), c) for bcd in itertools.product(range(-1, 2), repeat=3)
              for c in ("F", "F*", "m", "W")]
    inputs += [(RepC2(0, b), c) for b in range(-4, 5) for c in ("F", "F*", "f", "g")]
    return [m for v, c in inputs for m in bredon.homotopy(v, c).values()]


# The sha256 of the fingerprints of _catalog_atoms() and then
# _small_box_functors(), each written as its coordinates in order, as read
# when the transfer part was still spelled out beside the restriction part:
# a reordered or changed coordinate fails.
FINGERPRINT_SHA256 = "89b3caff5bed17853aff0ee550604fb96327c3f18d697f14db55b51f7b033945"


def test_fingerprints_are_pinned():
    functors = _catalog_atoms() + _small_box_functors()
    assert len(functors) == 323
    text = ";".join(",".join(map(str, sum(fingerprint(m), ()))) for m in functors)
    assert hashlib.sha256(text.encode()).hexdigest() == FINGERPRINT_SHA256


def test_fingerprint_dual_swaps_parts():
    for m in itertools.chain(_catalog_atoms(), _small_box_functors()):
        dims, res_part, tr_part, _ = fingerprint(m)
        ddims, dres, dtr, _ = fingerprint(dual(m))
        assert dims == ddims
        assert dres == tr_part and dtr == res_part


def test_identify_examples():
    assert identify(catalog("phiLDR(F*)")) == parse_name_expr("phiLDR(F*)")
    assert format_name_expr(identify(catalog("phiLDR(F*) + g^2"))) == \
        "phiLDR(F*) + g^2"
    assert identify(catalog("g")) == (("g", 1),)
    assert identify(zero_mackey()) == ()
    assert format_name_expr(()) == "0"
    # identify's None, for no catalog sum, prints as unidentified
    assert format_name_expr(None) == "unidentified"


def _rank_mod_prime(rows, p=(1 << 61) - 1):
    """Rank of an integer matrix over GF(p); it bounds the rational rank below."""
    rows = [[x % p for x in row] for row in rows]
    rank = 0
    for col in range(len(rows[0])):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], p - 2, p)
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col] * inv % p
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def test_atom_fingerprints_are_independent():
    for group, count in (("K", 21), ("C2", 4)):
        vecs = [vec for _, vec in mk._atom_fingerprints(group)]
        assert len(vecs) == count
        assert _rank_mod_prime(vecs) == count, group


def test_solver_inverts_the_atoms_on_its_coordinates():
    # 21 of the 41 K coordinates and 4 of the 10 C2 ones, with an integer
    # inverse: the atoms' matrix on them times it is the identity
    for group, count in (("K", 21), ("C2", 4)):
        atoms = mk._atom_fingerprints(group)
        rows = mk._solver(group)
        assert len(rows) == count and len({j for j, _ in rows}) == count
        assert all(type(c) is int and 0 < abs(c) <= 2 for _, row in rows for _, c in row)
        for k, (_, vec) in enumerate(atoms):
            product = [0] * count
            for j, row in rows:
                for i, c in row:
                    product[i] += vec[j] * c
            assert product == [int(i == k) for i in range(count)], (group, k)


def test_identify_refuses_a_negative_count(monkeypatch):
    # F's fingerprint minus phiL(F)'s has no negative coordinate, and only
    # the combination F - phiL(F) of the atoms gives it
    difference = tuple(tuple(a - b for a, b in zip(p, q)) for p, q in
                       zip(fingerprint(catalog("F")), fingerprint(catalog("phiL(F)"))))
    assert min(min(part) for part in difference) == 0
    monkeypatch.setattr(mk, "fingerprint", lambda m: difference)
    assert identify(catalog("F")) is None


def test_identify_separates_sums_that_shared_a_fingerprint():
    # without the joint res/tr ranks at L, D, R, w* + phiLDR(F) and
    # W* + phiLDR(f) had equal fingerprints
    for name in ("w* + phiLDR(F)", "W + w* + phiLDR(F)"):
        assert identify(catalog(name)) == parse_name_expr(name), name


def test_identify_round_trip_all_atoms():
    for name in CATALOG_ATOMS:
        assert identify(catalog(name)) == ((name, 1),), name


def test_identify_frees_its_search_on_return():
    # named, unnamed and zero: no call leaves a cycle for the collector
    named = catalog("phiLDR(F*) + g^2")
    unnamed = build_mackey("K", (2, 1, 0, 0, 0), res={("K", "L"): [[1, 0]]},
                           tr={("K", "L"): [[0], [1]]})
    functors = (named, unnamed, zero_mackey(), catalog("F* + f", "C2"))
    for m in functors:
        identify(m)
    gc.collect()
    gc.disable()
    try:
        for _ in range(5):
            for m in functors:
                identify(m)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_hom_space_and_iso():
    # endomorphisms of the inflation triple are the three independent scalars
    trip = catalog("phiLDR(F)")
    assert len(hom_space(trip, trip)) == 3
    assert is_isomorphic(trip, trip)
    assert not is_isomorphic(catalog("F"), catalog("F*"))
    # the zero map is an isomorphism of zero functors
    assert is_isomorphic(zero_mackey(), zero_mackey())
    # no nonzero maps from the geometric functor into the triple
    assert len(hom_space(catalog("g"), trip)) == 0


def test_json_round_trip():
    for name in ("F", "mg", "W*", "phiL(f)"):
        m = catalog(name)
        assert mackey_from_json(json.loads(json.dumps(m.to_json_dict()))) == m


# JSON values whose keys and strings are often the ones a functor document uses
_json_words = st.sampled_from(["group", "dims", "res", "tr", "K", "L", "C2", "e",
                               "K>L", "L>K", "C2>e", "e>C2"]) | st.text(max_size=2)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 3) | st.floats(allow_nan=False)
    | _json_words,
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(_json_words, kids, max_size=4),
    max_leaves=12)


def _read_or_refuse(doc):
    """mackey_from_json(doc) returns a functor or raises ValueError, nothing else."""
    try:
        assert isinstance(mackey_from_json(doc), Mackey)
    except ValueError:
        pass


@given(json_values)
@settings(max_examples=300, deadline=None)
def test_mackey_from_json_takes_any_json_value(doc):
    _read_or_refuse(doc)


@given(st.sampled_from([("F", "K"), ("mg", "K"), ("W*", "K"), ("phiL(f)", "K"),
                        ("0", "K"), ("F* + f", "C2")]),
       st.data())
@settings(max_examples=300, deadline=None)
def test_mackey_from_json_takes_mutated_documents(functor, data):
    doc = catalog(*functor).to_json_dict()
    # walk down to a random entry, then replace or delete it
    node = doc
    while True:
        key = data.draw(st.sampled_from(list(node) if isinstance(node, dict)
                                        else range(len(node))))
        child = node[key]
        if isinstance(child, (dict, list)) and child and data.draw(st.booleans()):
            node = child
        elif data.draw(st.booleans()):
            node[key] = data.draw(json_values)
            break
        else:
            del node[key]
            break
    _read_or_refuse(doc)


def test_pretty_has_diagram():
    text = catalog("mg").pretty()
    assert "2" in text and "res K>L" in text


atom_lists = st.lists(st.sampled_from(CATALOG_ATOMS), min_size=1, max_size=4)


@given(atom_lists)
@settings(max_examples=300, deadline=None)
def test_random_sums_pass_axioms(atoms):
    assert check_axioms(direct_sum([catalog(a) for a in atoms])) == []


GROUP_ATOMS = {"K": CATALOG_ATOMS, "C2": ("F", "F*", "f", "g")}
catalog_sums = st.sampled_from(sorted(GROUP_ATOMS)).flatmap(lambda group: st.tuples(
    st.just(group), st.dictionaries(st.sampled_from(GROUP_ATOMS[group]), st.integers(1, 5),
                                    min_size=1, max_size=4)))


@given(catalog_sums)
@settings(max_examples=150, deadline=None)
def test_identify_recovers_random_sums(group_counts):
    group, counts = group_counts
    m = direct_sum([catalog(a, group) for a, k in counts.items() for _ in range(k)], group)
    expected = tuple(sorted(counts.items()))
    assert identify(m) == expected
    # the unpruned search grows exponentially with the atoms in the sum: at
    # ten, some sums take it seconds
    if sum(counts.values()) <= 5:
        assert _reference_identify(m) == expected


@given(atom_lists, atom_lists)
@settings(max_examples=100, deadline=None)
def test_fingerprint_additive_over_sums(atoms1, atoms2):
    m1 = direct_sum([catalog(a) for a in atoms1])
    m2 = direct_sum([catalog(a) for a in atoms2])
    both = direct_sum([m1, m2])
    lhs = fingerprint(both)
    rhs = tuple(tuple(x + y for x, y in zip(p, q))
                for p, q in zip(fingerprint(m1), fingerprint(m2)))
    assert lhs == rhs


# ---------------------------------------------------------------------------
# rank tuples of hom spaces against brute-force enumeration


class _Maps:
    """The maps m1 -> m2 by brute force: each is the sum of a subset of a
    hom-space basis, with every level's matrix packed into one int."""

    def __init__(self, m1, m2):
        self.shapes = [(m2.dim(lv), m1.dim(lv)) for lv in m1.gd.levels]
        self.basis = [[sum(row << i * f[lv].cols for i, row in enumerate(f[lv].data))
                       for lv in m1.gd.levels] for f in hom_space(m1, m2)]
        self._rank = lru_cache(maxsize=None)(self._level_rank)

    def _level_rank(self, level, bits):
        rows, cols = self.shapes[level]
        basis = []
        for i in range(rows):
            row = bits >> i * cols & ((1 << cols) - 1)
            for b in basis:
                row = min(row, row ^ b)
            if row:
                basis.append(row)
        return len(basis)

    def ranks(self, mask):
        """The rank tuple of the sum of the basis maps that mask selects."""
        f = [0] * len(self.shapes)
        for i, g in enumerate(self.basis):
            if mask >> i & 1:
                f = [a ^ b for a, b in zip(f, g)]
        return tuple(self._rank(lv, x) for lv, x in enumerate(f))

    def all_rank_tuples(self):
        maps = [(0,) * len(self.shapes)]
        for g in self.basis:
            maps += [tuple(a ^ b for a, b in zip(f, g)) for f in maps]
        return {tuple(self._rank(lv, x) for lv, x in enumerate(f)) for f in maps}


def _chart_pairs():
    """Every (source, target) functor pair a differential of a chart n <= 20 joins."""
    pairs = set()
    for group, n in itertools.product(("K", "C2"), range(21)):
        emap = sschart.build_E1(n, group).entry_map()
        pairs.update((emap[s], emap[t], group) for s in emap for t in emap
                     if t[0] == s[0] - 1 and t[1] > s[1])
    return [(expr_to_mackey(s, g), expr_to_mackey(t, g)) for s, t, g in sorted(pairs)]


@lru_cache(maxsize=None)
def _oracle_functors(group):
    """Oracle homotopy functors: Klein RepK(0, b, c, d) with |b|, |c|, |d| <= 2
    and C2 RepC2(0, b) with |b| <= 6."""
    if group == "K":
        reps = [RepK(0, *bcd) for bcd in itertools.product(range(-2, 3), repeat=3)]
        coeffs = ("F", "F*", "m", "W", "mg*")
    else:
        reps = [RepC2(0, b) for b in range(-6, 7)]
        coeffs = ("F", "F*", "f", "g")
    return [m for v in reps for c in coeffs for m in bredon.homotopy(v, c).values()]


@lru_cache(maxsize=None)
def _oracle_outputs(group):
    """The oracle functors of _oracle_functors that identify names."""
    return [m for m in _oracle_functors(group) if identify(m) is not None]


def test_rank_tuples_match_brute_force_on_chart_pairs():
    pairs = _chart_pairs()
    assert len(pairs) == 59
    rng = random.Random(11)
    large = 0
    for m1, m2 in pairs:
        maps = _Maps(m1, m2)
        claimed = rank_tuples_of_hom(m1, m2)
        if len(maps.basis) <= 16:
            assert claimed == maps.all_rank_tuples()
            continue
        # too large to enumerate: each sampled map's ranks are claimed
        large += 1
        for _ in range(200):
            assert maps.ranks(rng.getrandbits(len(maps.basis))) in claimed
    assert large == 32


def test_rank_tuples_match_brute_force_on_catalog_sums():
    rng = random.Random(5)
    atoms = {"K": CATALOG_ATOMS, "C2": ("F", "F*", "f", "g")}
    compared = 0
    for _ in range(400):
        group = rng.choice(("K", "C2"))
        m1, m2 = (direct_sum([catalog(a, group)
                              for a in rng.choices(atoms[group], k=rng.randint(1, 3))])
                  for _ in range(2))
        if len(hom_space(m1, m2)) <= 12:
            assert rank_tuples_of_hom(m1, m2) == _Maps(m1, m2).all_rank_tuples()
            compared += 1
    assert compared >= 380


def test_rank_tuples_match_brute_force_on_oracle_outputs():
    rng = random.Random(3)
    compared = 0
    for group in ("K", "C2"):
        distinct = list(dict.fromkeys(_oracle_outputs(group)))
        pairs = list(itertools.product(distinct, repeat=2))
        for m1, m2 in rng.sample(pairs, min(len(pairs), 400)):
            if len(hom_space(m1, m2)) <= 12:
                assert rank_tuples_of_hom(m1, m2) == _Maps(m1, m2).all_rank_tuples()
                compared += 1
    assert compared >= 400


def test_rank_tuples_examples():
    F = catalog("F")
    assert rank_tuples_of_hom(F, F) == {(0,) * 5, (1,) * 5}
    assert rank_tuples_of_hom(F, catalog("F*")) == {(0,) * 5, (1, 0, 0, 0, 0)}
    assert rank_tuples_of_hom(catalog("g"), catalog("mg")) == {(0,) * 5}
    with pytest.raises(ValueError, match="more than 16"):
        rank_tuples_of_hom(catalog("F + F + F + F + F"), catalog("F + F + F + F"))


def test_identify_names_an_isomorphic_functor():
    for group in ("K", "C2"):
        for m in _oracle_outputs(group):
            assert is_isomorphic(m, expr_to_mackey(identify(m), group))


def _reference_identify(m):
    """A depth-first search over the atoms' fingerprints with no solve and no
    pruning: it tries every count of every atom, largest first, and skips a
    remainder with a negative entry."""
    if m.is_zero():
        return ()
    target = sum(fingerprint(m), ())
    atoms = mk._atom_fingerprints(m.group)

    def dfs(idx, remaining):
        if all(x == 0 for x in remaining):
            return {}
        if idx == len(atoms):
            return None
        name, vec = atoms[idx]
        bound = min((r // v for r, v in zip(remaining, vec) if v), default=0)
        for count in range(bound, -1, -1):
            nxt = [r - count * v for r, v in zip(remaining, vec)]
            if any(x < 0 for x in nxt):
                continue
            sol = dfs(idx + 1, nxt)
            if sol is not None:
                if count:
                    sol[name] = count
                return sol
        return None

    sol = dfs(0, target)
    if sol is None:
        return None
    return tuple(sorted(sol.items()))


def test_identify_matches_unpruned_search():
    """The exact solve gives the search's answer, named or not: the atoms'
    fingerprints are independent, so a nonnegative combination is unique."""
    checked = unnamed = 0
    for group in ("K", "C2"):
        for m in _oracle_functors(group):
            expected = _reference_identify(m)
            assert identify(m) == expected
            checked += 1
            unnamed += expected is None
    rng = random.Random(7)
    atoms = {"K": CATALOG_ATOMS, "C2": ("F", "F*", "f", "g")}
    for _ in range(400):
        group = rng.choice(("K", "C2"))
        m = direct_sum([catalog(a, group)
                        for a in rng.choices(atoms[group], k=rng.randint(1, 4))])
        expected = _reference_identify(m)
        assert identify(m) == expected
        checked += 1
        unnamed += expected is None
    assert unnamed > 0 and checked > unnamed

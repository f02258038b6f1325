import importlib.util
import itertools
import pkgutil
import weakref
from pathlib import Path

import kleinmackey
from kleinmackey import bredon as br
from kleinmackey.f2 import BitMatrix, column_reduction
from kleinmackey.laurent import LaurentPoly
from kleinmackey.mackey import (Mackey, catalog, direct_sum, dual, fingerprint,
                                format_name_expr, identify)
from kleinmackey.reps import RHO_K, RepC2, RepK


def level_dims(table, level_idx):
    return {n: m.dims[level_idx] for n, m in table.items() if m.dims[level_idx]}


def names(table):
    out = {}
    for n, m in sorted(table.items()):
        expr = identify(m)
        out[n] = format_name_expr(expr) if expr is not None else "unidentified"
    return out


def test_elementary_complex_shape():
    c = br.character_sphere("alpha", 1)
    assert {n: list(cs) for n, cs in c.cells.items()} == {0: ["K"], 1: ["R"]}
    c = br.character_sphere("beta", 1)
    assert c.cells[1][0] == "L"
    c = br.character_sphere("gamma", 1)
    assert c.cells[1][0] == "D"


def test_elementary_homology():
    t = br.homotopy(RepK(0, 1, 0, 0), "F")
    assert level_dims(t, 0) == {0: 1, 1: 1}       # top level, degrees 0 and 1
    assert level_dims(t, 4) == {1: 1}             # underlying circle
    t = br.homotopy(RepK(0, 0, 1, 0), "F")        # same shape for beta
    assert level_dims(t, 0) == {0: 1, 1: 1}


def test_trivial_suspension():
    unit = br.trivial_suspension(0)
    assert br.homotopy(RepK(), "F")[0] == catalog("F")
    shifted = br.trivial_suspension(3)
    assert list(shifted.cells) == [3]
    # unit is a smash identity on cells and entries
    c = br.character_sphere("alpha", 2)
    sm = br.smash(unit, c)
    assert {n: len(cs) for n, cs in sm.cells.items()} == \
        {n: len(cs) for n, cs in c.cells.items()}
    lv1 = br.with_coefficients(sm, "F")
    lv2 = br.with_coefficients(c, "F")
    for level in c.gd.levels:
        for n in c.degrees():
            assert lv1.differential(level, n) == lv2.differential(level, n)


def test_smash_orbit_counts():
    e = br.character_sphere("alpha", 1)
    sq = br.smash(e, e)
    deg2 = sq.cells[2]
    assert len(deg2) == 2 and all(stab == "R" for stab in deg2)
    mixed = br.smash(br.character_sphere("alpha", 1), br.character_sphere("beta", 1))
    assert list(mixed.cells[2]) == ["e"]
    t = br.homology(br.with_coefficients(sq, "F"))
    assert {n: m.dims[0] for n, m in t.items() if m.dims[0]} == {0: 1, 1: 1, 2: 1}
    assert br.homotopy_level_series(RepK(0, 2, 0, 0), "F", "K") == \
        LaurentPoly.from_dict({0: 1, 1: 1, 2: 1})


def test_smash_of_elementaries_matches_minimal_model():
    for b, c, d in ((2, 0, 0), (1, 1, -2), (-2, 1, 0), (1, 1, 1)):
        cx = br.trivial_suspension(0)
        for char, count in (("alpha", b), ("beta", c), ("gamma", d)):
            piece = br.character_sphere(char, 1)
            if count < 0:
                piece = br.dualize(piece)
            for _ in range(abs(count)):
                cx = br.smash(cx, piece)
        via_elem = br.homology(br.with_coefficients(cx, "F"))
        via_min = br.homotopy(RepK(0, b, c, d), "F")
        assert set(via_elem) == set(via_min)
        for n in via_elem:
            assert fingerprint(via_elem[n]) == fingerprint(via_min[n]), (b, c, d, n)


def _reference_smash(c1, c2):
    """An independent smash product that pins br.smash's cells and entries:
    it walks the product cells and, for a down entry, searches the cosets of
    the cell below for those whose up map lands on it.  It counts each
    routed entry's parity one by one, and files the odd ones under the stamp
    key recomputed from their cells."""
    gd = c1.gd
    sub = gd.subgroups

    cells = {}
    index = {}  # (deg1, i1, deg2, i2, twist) -> (degree, new index)
    for n1 in c1.degrees():
        for i1, stab1 in enumerate(c1.cells[n1]):
            for n2 in c2.degrees():
                for i2, stab2 in enumerate(c2.cells[n2]):
                    join = gd.join(stab1, stab2)
                    meet = gd.meet(stab1, stab2)
                    deg = n1 + n2
                    for tw in gd.cosets(join):
                        lst = cells.setdefault(deg, [])
                        index[(n1, i1, n2, i2, tw)] = (deg, len(lst))
                        lst.append(meet)

    def locate(stab1, stab2, p1, p2):
        tw = gd.coset_rep(p1 ^ p2, gd.join(stab1, stab2))
        for h1 in sub[stab1]:
            v = p1 ^ h1
            if (v ^ p2 ^ tw) in sub[stab2]:
                return tw, v
        raise AssertionError("orbit location failed")

    entry_parity = {}

    def toggle(deg, src, tgt, kind, trans):
        src_stab, tgt_stab = cells[deg][src], cells[deg - 1][tgt]
        mod = tgt_stab if kind == "up" else src_stab
        key = (src, tgt, kind, gd.coset_rep(trans, mod))
        bucket = entry_parity.setdefault(deg, {})
        bucket[key] = bucket.get(key, 0) ^ 1

    flat1, flat2 = c1.flat_entries(), c2.flat_entries()
    for (n1, i1, n2, i2, tw), (deg, idx) in index.items():
        stab1 = c1.cells[n1][i1]
        stab2 = c2.cells[n2][i2]
        for src1, tgt1, kind, u in flat1.get(n1, ()):
            if src1 != i1:
                continue
            tstab = c1.cells[n1 - 1][tgt1]
            if kind == "up":
                tw2, v = locate(tstab, stab2, u, tw)
                _, jdx = index[(n1 - 1, tgt1, n2, i2, tw2)]
                toggle(deg, idx, jdx, "up", v)
            else:
                for s in gd.cosets(gd.join(tstab, stab2)):
                    tw2, v = locate(stab1, stab2, u, s)
                    if tw2 == tw:
                        _, jdx = index[(n1 - 1, tgt1, n2, i2, s)]
                        toggle(deg, idx, jdx, "down", v)
        for src2, tgt2, kind, u in flat2.get(n2, ()):
            if src2 != i2:
                continue
            tstab = c2.cells[n2 - 1][tgt2]
            if kind == "up":
                tw2, v = locate(stab1, tstab, 0, tw ^ u)
                _, jdx = index[(n1, i1, n2 - 1, tgt2, tw2)]
                toggle(deg, idx, jdx, "up", v)
            else:
                for s in gd.cosets(gd.join(stab1, tstab)):
                    tw2, v = locate(stab1, stab2, 0, s ^ u)
                    if tw2 == tw:
                        _, jdx = index[(n1, i1, n2 - 1, tgt2, s)]
                        toggle(deg, idx, jdx, "down", v)

    entries = {}
    for deg, bucket in entry_parity.items():
        for (src, tgt, kind, trans), parity in bucket.items():
            if parity:
                key = (kind == "up", cells[deg][src], cells[deg - 1][tgt], trans)
                entries.setdefault(deg, {}).setdefault(key, []).append((src, tgt))
    return br.MackeyComplex(c1.group, cells, entries)


def _sorted_entries(cx):
    """cx.entries with each key's (src, tgt) list sorted, so that two
    complexes compare equal when they file the same entries under the same
    keys, as often as each other."""
    return {n: {key: sorted(pairs) for key, pairs in groups.items()}
            for n, groups in cx.entries.items()}


def _assert_same_smash(c1, c2, label):
    got, want = br.smash(c1, c2), _reference_smash(c1, c2)
    assert got.cells == want.cells, label
    assert _sorted_entries(got) == _sorted_entries(want), label
    return got


def test_smash_matches_reference():
    # the factor smashes of sphere_complex, one character at a time
    for b, c, d in itertools.product(range(-3, 4), repeat=3):
        cx = br.trivial_suspension(0)
        for char, n in (("alpha", b), ("beta", c), ("gamma", d)):
            cx = _assert_same_smash(cx, br.character_sphere(char, n), (b, c, d, char))
    # the largest series-wide spheres, |b| = |c| = |d| = 6 (559 cells), by
    # their last factor smash
    for b, c, d in itertools.product((-6, 6), repeat=3):
        cx = _assert_same_smash(br.sphere_complex(RepK(0, b, c, 0)),
                                br.character_sphere("gamma", d), (b, c, d))
        assert cx.cell_count() == 559
    # only a translation's coset modulo the larger stabilizer matters: an
    # alpha sphere whose translations are moved within their cosets by
    # 1 in ker(alpha) smashes to the same complex, reduced, and one holding
    # each entry twice, as u and u ^ 1, smashes as if it held none: the
    # twins' routed entries cancel mod 2
    for n, m in itertools.product((3, -3), (2, -2)):
        tight, other = br.character_sphere("alpha", n), br.character_sphere("beta", m)
        loose = br.MackeyComplex("K", tight.cells, {
            deg: {(transfer, src_stab, tgt_stab, u ^ 1): pairs
                  for (transfer, src_stab, tgt_stab, u), pairs in groups.items()}
            for deg, groups in tight.entries.items()})
        twinned = br.MackeyComplex("K", tight.cells, {
            deg: {**groups, **loose.entries[deg]} for deg, groups in tight.entries.items()})
        bare = br.MackeyComplex("K", tight.cells, {})
        for pair, want in (((loose, other), (tight, other)), ((other, loose), (other, tight)),
                           ((twinned, other), (bare, other)), ((other, twinned), (other, bare))):
            assert _sorted_entries(_assert_same_smash(*pair, (n, m, "loose"))) == \
                _sorted_entries(br.smash(*want))
    # nested smashes put many cells and both entry kinds in either factor
    for (ca, cb), i, j in itertools.product((("alpha", "beta"), ("gamma", "gamma")),
                                            range(-4, 5), range(-4, 5)):
        a, b = br.character_sphere(ca, i), br.character_sphere(cb, j)
        ab = _assert_same_smash(a, b, (ca, cb, i, j))
        _assert_same_smash(ab, b, (ca, cb, i, j, "left"))
        _assert_same_smash(a, ab, (ca, cb, i, j, "right"))
    # C2: sigma spheres, alone and smashed together
    for i, j in itertools.product(range(-4, 5), repeat=2):
        a = br.character_sphere("sigma", i, "C2")
        b = _assert_same_smash(br.trivial_suspension(0, "C2"), a, (i, "C2"))
        _assert_same_smash(b, br.character_sphere("sigma", j, "C2"), (i, j, "C2"))


def _sphere_box():
    """Every K sphere S^(0,b,c,d) with |b|,|c|,|d| <= 3 and every C2 sphere
    S^(0,b) with |b| <= 6."""
    spheres = [RepK(0, b, c, d) for b, c, d in itertools.product(range(-3, 4), repeat=3)]
    return spheres + [RepC2(0, b) for b in range(-6, 7)]


def test_dualize_involution_and_duality():
    # dualize shares each degree's tuple of cells with its argument
    for v in _sphere_box():
        cx = br.sphere_complex(v)
        dd = br.dualize(br.dualize(cx))
        assert dd.cells == cx.cells and dd.entries == cx.entries, v
    c = br.character_sphere("alpha", 1)
    # homology of the dual complex with F is the dual of homology with F*
    h_dual = br.homology(br.with_coefficients(br.dualize(c), "F"))
    h_star = br.homology(br.with_coefficients(c, "F*"))
    degs = set(h_dual) | {-n for n in h_star}
    for n in degs:
        lhs = h_dual.get(-n)
        rhs = h_star.get(n)
        assert (lhs is None) == (rhs is None)
        if lhs is not None:
            assert fingerprint(lhs) == fingerprint(dual(rhs))
    # the top level of the one-character desuspension vanishes entirely
    t = br.homotopy(RepK(0, -1, 0, 0), "F")
    assert level_dims(t, 0) == {}


def test_sphere_complex_examples():
    c = br.sphere_complex(RHO_K)
    assert sorted(c.cells) == [1, 2, 3, 4]
    assert all(stab == "e" for stab in c.cells[4])
    assert br.sphere_complex(RepK()).cells == br.trivial_suspension(0).cells
    d = br.sphere_complex(RepK(0, -1, 0, 0))
    dual_e = br.dualize(br.character_sphere("alpha", 1))
    assert d.cells == dual_e.cells and d.entries == dual_e.entries


def _check_d_squared_zero_and_chain_maps(group, coeff, box):
    """d^2 = 0 at every level, and res/tr commute with d, on S^(0,b,c,d)
    over K or S^(b sigma) over C2, with b, c, d in box.

    The oracle gives each map as its transpose, so each equation is checked
    transposed: (d_n d_{n+1})^T = d_{n+1}^T d_n^T."""
    if group == "K":
        spheres = [RepK(0, b, c, d) for b, c, d in itertools.product(box, repeat=3)]
    else:
        spheres = [RepC2(0, b) for b in box]
    for v in spheres:
        cx = br.sphere_complex(v)
        gd = cx.gd
        lv = br.with_coefficients(cx, coeff)
        degs = cx.degrees()
        for level in gd.levels:
            for n in degs:
                dn = lv.differential(level, n)
                dn1 = lv.differential(level, n + 1)
                assert (dn1 @ dn).is_zero(), (coeff, v, level, n)
        for upper, lower in gd.edges:
            for n in degs:
                dn_u = lv.differential(upper, n)
                dn_l = lv.differential(lower, n)
                res_n = lv.chain_res(upper, lower, n)
                res_n1 = lv.chain_res(upper, lower, n - 1)
                assert dn_u @ res_n1 == res_n @ dn_l, (coeff, v, upper, lower, n)
                tr_n = lv.chain_tr(lower, upper, n)
                tr_n1 = lv.chain_tr(lower, upper, n - 1)
                assert dn_l @ tr_n1 == tr_n @ dn_u, (coeff, v, upper, lower, n)


def test_d_squared_zero_and_mackey_chain_maps():
    _check_d_squared_zero_and_chain_maps("K", "F", (-3, -2, -1, 0, 1, 2, 3))


def test_d_squared_zero_and_chain_maps_with_nonzero_transfers():
    # F has only zero transfers; these coefficients have restrictions and
    # transfers that differ, so the cached res/tr blocks must not mix
    for coeff in ("W", "mg*", "m"):
        _check_d_squared_zero_and_chain_maps("K", coeff, (-2, -1, 0, 1, 2))


def test_d_squared_zero_and_chain_maps_over_c2():
    # C2's F* has a nonzero transfer
    for coeff in ("F", "F*"):
        _check_d_squared_zero_and_chain_maps("C2", coeff, range(-4, 5))


def test_euler_characteristic():
    for b, c, d in itertools.product((-2, 0, 1, 2), repeat=3):
        cx = br.sphere_complex(RepK(0, b, c, d))
        lv = br.with_coefficients(cx, "F")
        table = br.homology(lv)
        for j, level in enumerate(cx.gd.levels):
            chain = sum((-1) ** n * lv.dim(level, n) for n in cx.cells)
            hom = sum((-1) ** n * m.dims[j] for n, m in table.items())
            assert chain == hom, (b, c, d, level)


def test_with_coefficients_examples():
    assert names(br.homotopy(RepK(), "F")) == {0: "F"}
    # the C2 one-minus-sigma twist realizes the free functor
    t = br.homotopy(RepC2(1, -1), "F")
    assert names(t) == {0: "f"}
    # regular representation with the quotient coefficient
    t = br.homotopy(RHO_K, "m")
    assert names(t)[2] == "phiLDR(F)"
    assert names(t)[1] == "g"
    # a C2 name expression resolves to the same functor as its explicit sum
    cx = br.sphere_complex(RepC2(0, 2))
    summed = direct_sum([catalog("F*", "C2"), catalog("f", "C2")])
    assert br.homology(br.with_coefficients(cx, "F* + f")) == \
        br.homology(br.with_coefficients(cx, summed))


def test_homotopy_examples():
    assert names(br.homotopy(RHO_K, "F")) == \
        {1: "g", 2: "phiLDR(F)", 3: "mg", 4: "F"}
    assert names(br.homotopy(-RHO_K, "F")) == {-4: "F*"}
    assert names(br.homotopy(RepK(2, 2, 2, 2), "f"))[4] == "g^2"
    t = br.homotopy(RepC2(3, 3), "F")  # three rho over C2
    assert names(t) == {3: "g", 4: "g", 5: "g", 6: "F"}


def test_regular_multiple_matches_closed_form():
    for k in (1, 2):
        v = RepK(0, -k, -k, -k)
        got = br.homotopy_level_series(v, "F", "K")
        from kleinmackey.hk import poincare_K
        assert got == poincare_K(v)["K"]


def test_homotopy_with_explicit_functor():
    t = br.homotopy(RHO_K, catalog("mg"))
    assert names(t)[1] == "g^2"


def test_d_squared_zero_at_box_corners():
    for b, c, d in ((3, 3, 3), (3, -3, 3), (-3, -3, -3), (3, 3, -3)):
        cx = br.sphere_complex(RepK(0, b, c, d))
        lv = br.with_coefficients(cx, "F")
        for level in cx.gd.levels:
            for n in cx.degrees():
                # (d_n d_{n+1})^T = d_{n+1}^T d_n^T, as the oracle gives d^T
                assert (lv.differential(level, n + 1) @
                        lv.differential(level, n)).is_zero()


def test_oracle_outputs_are_mackey_functors():
    from kleinmackey.mackey import check_axioms
    for v, coeff in ((RHO_K, "F"), (-RHO_K, "F"), (RepK(0, 2, 1, -2), "F"),
                     (RepK(1, 1, 1, 1), "mg"), (RepK(0, -1, 2, 0), "F*"),
                     (RepK(2, 2, 2, 2), "f"), (RepK(1, 1, 1, 1), "W*")):
        for n, m in br.homotopy(v, coeff).items():
            assert check_axioms(m) == [], (v, coeff, n)


def test_oracle_digest_on_a_small_box():
    """scripts/oracle_digest.py over K |b|, |c|, |d| <= 1 and C2 |b| <= 2.

    The pinned digest was computed with the dense row-elimination f2 and the
    per-cell layout, before the column reduction: every complex, matrix and
    homotopy functor of this box must stay byte-identical.
    """
    path = Path(__file__).resolve().parents[1] / "scripts" / "oracle_digest.py"
    spec = importlib.util.spec_from_file_location("oracle_digest", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    assert script.oracle_digest(k_box=1, c2_box=2) == (
        8153, "d87b093074b55689ebde8448375c3fb58eab3616aa6308925db2434983fdbb41")


def _reference_slots(cx, coeff, level, n):
    """Each cell's (offset, coset reps, join, block dim, meet) in C_n(level),
    laid out cell by cell, and dim C_n(level)."""
    gd = cx.gd
    slots, off = [], 0
    for stab in cx.cells.get(n, ()):
        join, meet = gd.join(level, stab), gd.meet(level, stab)
        reps = gd.cosets(join)
        slots.append((off, reps, join, coeff.dim(meet), meet))
        off += len(reps) * coeff.dim(meet)
    return slots, off


def _reference_place(cx, coeff, cols, small, big, trans, transfer):
    """The placement rule read one bit at a time: one block per coset r of
    the smaller-stabilizer slot, at the larger slot's coset of r*trans; the
    transfer from small to big, or the restriction from big to small.  The
    map is kept as its columns: bit i of cols[j] is entry (i, j)."""
    gd = cx.gd
    s_off, s_reps, _, s_dim, s_meet = small
    b_off, b_reps, b_join, b_dim, b_meet = big
    block = coeff.tr_map(s_meet, b_meet) if transfer else coeff.res_map(b_meet, s_meet)
    for k, rep in enumerate(s_reps):
        s_pos = s_off + k * s_dim
        b_at = next(i for i, r in enumerate(b_reps) if rep ^ trans ^ r in gd.subgroups[b_join])
        b_pos = b_off + b_at * b_dim
        for i in range(block.rows):
            for j in range(block.cols):
                if block.entry(i, j):
                    if transfer:
                        cols[s_pos + j] ^= 1 << (b_pos + i)
                    else:
                        cols[b_pos + j] ^= 1 << (s_pos + i)


def _reference_differential(cx, coeff, level, n):
    srcs, src_dim = _reference_slots(cx, coeff, level, n)
    tgts, tgt_dim = _reference_slots(cx, coeff, level, n - 1)
    cols = [0] * src_dim
    for src, tgt, kind, trans in cx.flat_entries().get(n, ()):
        if kind == "up":
            _reference_place(cx, coeff, cols, srcs[src], tgts[tgt], trans, True)
        else:
            _reference_place(cx, coeff, cols, tgts[tgt], srcs[src], trans, False)
    return BitMatrix(src_dim, tgt_dim, tuple(cols))


def _reference_chain_map(cx, coeff, upper, lower, n, transfer):
    uppers, u_dim = _reference_slots(cx, coeff, upper, n)
    lowers, l_dim = _reference_slots(cx, coeff, lower, n)
    cols = [0] * (l_dim if transfer else u_dim)
    for lo_slot, u_slot in zip(lowers, uppers):
        _reference_place(cx, coeff, cols, lo_slot, u_slot, 0, transfer)
    return BitMatrix(len(cols), u_dim if transfer else l_dim, tuple(cols))


def _check_maps_match_reference(spheres, coeffs):
    for v in spheres:
        cx = br.sphere_complex(v)
        gd = cx.gd
        degs = range(cx.degrees()[0], cx.degrees()[-1] + 2)
        for coeff in coeffs:
            lv = br.with_coefficients(cx, coeff)
            for level, n in itertools.product(gd.levels, degs):
                assert lv.differential(level, n) == \
                    _reference_differential(cx, lv.coeff, level, n), (v, coeff, level, n)
            for (upper, lower), n in itertools.product(gd.edges, degs):
                assert lv.chain_res(upper, lower, n) == _reference_chain_map(
                    cx, lv.coeff, upper, lower, n, False), (v, coeff, upper, lower, n)
                assert lv.chain_tr(lower, upper, n) == _reference_chain_map(
                    cx, lv.coeff, upper, lower, n, True), (v, coeff, upper, lower, n)


def test_maps_match_entrywise_placement():
    # dualized spheres put "down" entries, and so restrictions, in d
    box = range(-2, 3)
    _check_maps_match_reference([RepK(0, b, c, d) for b, c, d in itertools.product(box, repeat=3)],
                                ("F", "F*", "m", "mg", "mg*", "W"))
    _check_maps_match_reference([RepC2(0, b) for b in range(-4, 5)], ("F", "F*", "f", "g"))


def _uncleared_homology_reps(d_out, d_in):
    """f2.homology_reps reducing every column of d_out, with no clearing."""
    span = column_reduction(d_in.data)[0].untagged()
    reps = [v for v in column_reduction(d_out.data)[1] if span.add(v, tagged=True)]
    return reps, lambda cycle: span.reduce(cycle)[1]


def _reference_homology(lvl):
    """br.homology with every chain map assembled and applied, and the
    degrees reduced bottom up with no clearing."""
    cx = lvl.cx
    gd = cx.gd
    degs = cx.degrees()
    hom = {}
    for level in gd.levels:
        for n in degs:
            hom[(level, n)] = _uncleared_homology_reps(lvl.differential(level, n),
                                                       lvl.differential(level, n + 1))

    def induced(cmap, src, tgt, n):
        reps, (tgt_reps, project) = hom[(src, n)][0], hom[(tgt, n)]
        cols = []
        for v in reps:
            image = 0
            for j in range(cmap.rows):
                if v >> j & 1:
                    image ^= cmap.data[j]
            cols.append(project(image))
        return BitMatrix(len(reps), len(tgt_reps), tuple(cols)).transpose()

    out = {}
    for n in degs:
        dims = tuple(len(hom[(level, n)][0]) for level in gd.levels)
        if any(dims):
            res = tuple(induced(lvl.chain_res(u, lo, n), u, lo, n) for u, lo in gd.edges)
            tr = tuple(induced(lvl.chain_tr(lo, u, n), lo, u, n) for u, lo in gd.edges)
            out[n] = Mackey(cx.group, dims, res, tr)
    return out


def test_skipped_chain_maps_change_nothing():
    box = range(-2, 3)
    cases = [(RepK(0, b, c, d), ("F", "F*", "m", "W", "mg*"))
             for b, c, d in itertools.product(box, repeat=3)]
    cases += [(RepC2(0, b), ("F", "F*", "f", "g")) for b in range(-6, 7)]
    for v, coeffs in cases:
        cx = br.sphere_complex(v)
        for coeff in coeffs:
            full = br.homology(br.with_coefficients(cx, coeff))
            assert repr(full) == repr(_reference_homology(br.with_coefficients(cx, coeff))), \
                (v, coeff)
            # one level alone, on a fresh complex with no other level laid out
            for j, level in enumerate(cx.gd.levels):
                assert br.homotopy_level_series(v, coeff, level) == \
                    LaurentPoly.from_dict({n: m.dims[j] for n, m in full.items()}), \
                    (v, coeff, level)


def _most_bases_alive(monkeypatch, query):
    """The most homology_reps projections alive at once while query() runs."""
    original = br.homology_reps
    alive = []
    most = 0

    def tracked(d_out, d_in):
        nonlocal most
        reps, project = original(d_out, d_in)
        alive.append(weakref.ref(project))
        alive[:] = [ref for ref in alive if ref() is not None]
        most = max(most, len(alive))
        return reps, project

    monkeypatch.setattr(br, "homology_reps", tracked)
    query()
    monkeypatch.undo()
    return most


def test_homology_holds_two_degrees_at_a_time(monkeypatch):
    # one degree's bases at every level, and the next one's while it is built;
    # the level series reads ranks and builds no basis
    for v in (RepK(0, 3, 3, 3), RepK(1, -2, 3, -1), RepC2(0, 5)):
        levels = len(br.sphere_complex(v).gd.levels)
        assert _most_bases_alive(monkeypatch, lambda: br.homotopy(v, "F")) == 2 * levels, v
        assert _most_bases_alive(
            monkeypatch, lambda: br.homotopy_level_series(v, "F")) == 0, v


def test_entries_are_filed_under_their_cells_keys():
    # differential reads a group's stamp key, not its entries' cells: every
    # key must be the one its entries' cells give, an up entry's source
    # stabilizer inside its target's and a down entry's the other way round,
    # and an entry is stored at most once
    for v in _sphere_box():
        cx = br.sphere_complex(v)
        sub = cx.gd.subgroups
        for n, groups in cx.entries.items():
            for (transfer, src_stab, tgt_stab, trans), pairs in groups.items():
                small, big = (src_stab, tgt_stab) if transfer else (tgt_stab, src_stab)
                assert pairs and sub[small] <= sub[big], (v, n, src_stab, tgt_stab)
                assert len(set(pairs)) == len(pairs), (v, n)
                for src, tgt in pairs:
                    assert (cx.cells[n][src], cx.cells[n - 1][tgt]) == \
                        (src_stab, tgt_stab), (v, n, src, tgt)


def _clear_package_caches():
    """Empty every lru_cache of the package, as a fresh interpreter has them."""
    for info in pkgutil.iter_modules(kleinmackey.__path__):
        module = importlib.import_module(f"kleinmackey.{info.name}")
        for obj in vars(module).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()


def test_warm_tables_change_nothing():
    # the route, coefficient and fingerprint tables are process-wide: each
    # reference answer is computed from empty caches, then every case again
    # as the tables fill, and once more in reverse order with all of them warm
    cases = [(RepK(0, b, c, d), coeff) for b, c, d in itertools.product(range(-1, 2), repeat=3)
             for coeff in ("F", "F*", "m", "W", "mg*")]
    cases += [(RepC2(0, b), coeff) for b in range(-3, 4) for coeff in ("F", "F*", "f", "g")]
    cold = {}
    for case in cases:
        _clear_package_caches()
        cold[case] = br.homotopy(*case)
    for order in (cases, cases[::-1]):
        for case in order:
            assert br.homotopy(*case) == cold[case], case
    for table in cold.values():
        for m in table.values():
            assert fingerprint(m) == fingerprint.__wrapped__(m)

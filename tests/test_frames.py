import dataclasses
import random
import tracemalloc
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from actlat import frames, models
from actlat.frames import (
    FrameError,
    FrameReport,
    ResiduatedFrame,
    _distinct,
    _locate,
    check_gentzen,
    check_nuclear,
    check_star_gentzen,
    dual_algebra,
    embedding_check,
    frame_of_algebra,
    frame_q_counterexample,
    frame_satisfies_q,
    gamma,
    macneille,
    polar_left,
    polar_right,
    quasimorphism_check,
    set_product,
    verify_transfer,
)
from actlat.models import (
    library,
    outside,
    pack,
    rel_algebra,
    three_chain,
    truncated_words,
    two_chain,
    validate_algebra,
    holds_quasieq,
)
from actlat.corpus import random_analytic_quasiequations
from actlat.rules import (example_structural_rules, is_analytic_quasiequation, parse_quasiequation,
                          q_a_of)
from tests.helpers import (broadcast_gentzen_laws, broadcast_order_laws, float32_within,
                           lexsort_distinct, loop_frame_q_counterexample, loop_gentzen_laws,
                           loop_quasimorphism, reference_dual)

EX = example_structural_rules()

SMALL = [two_chain(), three_chain(), rel_algebra(1), rel_algebra(2)]


def test_algebra_frames_are_nuclear():
    for a in SMALL:
        gf = frame_of_algebra(a)
        assert check_nuclear(gf.frame).ok, a.name


def test_triangles_empty_set():
    f = frame_of_algebra(two_chain()).frame
    empty = np.zeros(2, dtype=bool)
    assert polar_right(f, empty).tolist() == [True, True]  # related to the whole second sort
    # closure of the empty set: elements below everything = {0}
    assert np.flatnonzero(gamma(f, empty)).tolist() == [0]


def test_triangles_full_set():
    f = frame_of_algebra(three_chain()).frame
    right = polar_right(f, np.ones(3, dtype=bool))
    assert np.flatnonzero(right).tolist() == [2]  # only the top bounds everything


def test_gamma_idempotent_extensive():
    rng = random.Random(5)
    for a in SMALL:
        f = frame_of_algebra(a).frame
        for _ in range(20):
            subset = np.array([rng.random() < 0.4 for _ in range(f.w_size)])
            closed = gamma(f, subset)
            assert not (subset & ~closed).any()
            assert (gamma(f, closed) == closed).all()


def test_galois_antitone():
    rng = random.Random(6)
    f = frame_of_algebra(rel_algebra(2)).frame
    for _ in range(20):
        x = np.array([rng.random() < 0.5 for _ in range(16)])
        y = x.copy()
        y[rng.randrange(16)] = True
        assert not (polar_right(f, y) & ~polar_right(f, x)).any()  # X <= Y gives Y^> <= X^>


def _rows(draw, count: int, width: int) -> np.ndarray:
    """count subsets of range(width), each empty, full or random."""
    return np.array([draw(st.one_of(st.just([False] * width), st.just([True] * width),
                                     st.lists(st.booleans(), min_size=width, max_size=width)))
                     for _ in range(count)], dtype=bool)


@st.composite
def relations_and_rows(draw):
    # a frame whose sorts differ in size, with subsets of each sort; only the
    # relation matters to polars and closures
    w, wp = draw(st.tuples(st.integers(1, 6), st.integers(1, 6)).filter(lambda s: s[0] != s[1]))
    f = ResiduatedFrame(
        name="random", w_names=tuple(map(str, range(w))), wp_names=tuple(map(str, range(wp))),
        n_rel=_rows(draw, w, wp), op=np.zeros((w, w), dtype=int), eps=0,
        lres_w=np.zeros((w, wp), dtype=int), rres_w=np.zeros((wp, w), dtype=int),
    )
    count = draw(st.integers(1, 5))
    return f, _rows(draw, count, w), _rows(draw, count, wp)


@given(relations_and_rows())
def test_subset_kernel_matches_set_comprehension(case):
    f, xs, zs = case
    rel = {(x, z) for x, z in zip(*np.nonzero(f.n_rel))}
    w, wp = range(f.w_size), range(f.wp_size)

    def right(row):
        return [all((x, z) in rel for x in w if row[x]) for z in wp]

    def left(row):
        return [all((x, z) in rel for z in wp if row[z]) for x in w]

    want = [right(x) for x in xs], [left(z) for z in zs], [left(right(x)) for x in xs]
    assert (polar_right(f, xs).tolist(), polar_left(f, zs).tolist(), gamma(f, xs).tolist()) == want
    for i in range(len(xs)):
        got = polar_right(f, xs[i]).tolist(), polar_left(f, zs[i]).tolist(), gamma(f, xs[i]).tolist()
        assert got == (want[0][i], want[1][i], want[2][i])


@given(relations_and_rows())
def test_locate_finds_least_closed_superset(case):
    f, xs, _ = case
    every = np.array([[(i >> x) & 1 for x in range(f.w_size)] for i in range(2 ** f.w_size)], dtype=bool)
    closed = lexsort_distinct(gamma(f, every))
    found = _locate(pack(closed), xs)
    for row, i in zip(xs, found):
        supersets = [c for c in closed if not (row & ~c).any()]
        assert not (row & ~closed[i]).any()
        assert all(not (closed[i] & ~c).any() for c in supersets)


@pytest.mark.parametrize("width", [1, 7, 8, 63, 64, 65, 127, 128, 130])
def test_packed_subset_test_matches_set_inclusion(monkeypatch, width):
    # the padding bits of a packed row are 0, so the complemented padding of
    # ~ys never counts; checked across word boundaries, with empty and full rows
    rng = np.random.default_rng(width)
    rows = np.concatenate([np.zeros((1, width), dtype=bool), np.ones((1, width), dtype=bool),
                           rng.random((5, width)) < 0.5, rng.random((5, width)) < 0.95])
    sets = [set(np.flatnonzero(row).tolist()) for row in rows]
    bits = pack(rows)
    unpacked = np.unpackbits(bits.view(np.uint8), axis=1, bitorder="little")
    assert bits.shape == (len(rows), -(-width // 64)) and bits.dtype == np.dtype("<u8")
    assert (unpacked[:, :width] == rows).all() and not unpacked[:, width:].any()
    # the whole table in one block, one row a block, a few rows a block
    for block in (models.BIT_BLOCK_BYTES, 8, 8 * 3 * len(rows)):
        monkeypatch.setattr(models, "BIT_BLOCK_BYTES", block)
        assert (~outside(bits[None, :], bits[:, None])).tolist() == [[x <= y for y in sets] for x in sets]
        assert (~outside(bits[None, None, :], bits[:, None, None], bits[None, :, None])).tolist() == \
            [[[x & y <= z for z in sets] for y in sets] for x in sets]
    assert np.array_equal(~outside(bits[None, :], bits[:, None]), float32_within(rows, rows))


def test_nucleus_law():
    rng = random.Random(7)
    for a in SMALL:
        f = frame_of_algebra(a).frame
        for _ in range(15):
            x = np.array([rng.random() < 0.4 for _ in range(f.w_size)])
            y = np.array([rng.random() < 0.4 for _ in range(f.w_size)])
            lhs = set_product(f, gamma(f, x), gamma(f, y))
            rhs = gamma(f, set_product(f, x, y))
            assert not (lhs & ~rhs).any()  # gamma(X) o gamma(Y) inside gamma(X o Y)


def test_dual_algebra_two_chain_isomorphic():
    a = two_chain()
    dual = dual_algebra(frame_of_algebra(a).frame)
    assert len(dual.closed) == 2
    assert validate_algebra(dual.algebra).ok


def test_dual_algebra_degenerate_frame():
    # total relation: everything collapses to a single closed set
    f = ResiduatedFrame(
        name="degenerate",
        w_names=("p", "q"),
        wp_names=("u",),
        n_rel=np.ones((2, 1), dtype=bool),
        op=np.array([[0, 1], [1, 1]]),
        eps=0,
        lres_w=np.zeros((2, 1), dtype=int),
        rres_w=np.zeros((1, 2), dtype=int),
    )
    assert check_nuclear(f).ok
    dual = dual_algebra(f)
    assert len(dual.closed) == 1


def test_dual_algebra_of_frame_with_unequal_sorts():
    # W = {1, a, b} with x.y = y on {a, b}; W' = {p, q}, where p relates only
    # to 1 and q to nothing, so the closure of {a} is all of W
    f = ResiduatedFrame(
        name="right-zero",
        w_names=("1", "a", "b"),
        wp_names=("p", "q"),
        n_rel=np.array([[True, False], [False, False], [False, False]]),
        op=np.array([[0, 1, 2], [1, 1, 2], [2, 1, 2]]),
        eps=0,
        lres_w=np.array([[0, 1], [1, 1], [1, 1]]),
        rres_w=np.array([[0, 1, 1], [1, 1, 1]]),
    )
    assert check_nuclear(f).ok
    assert gamma(f, np.array([False, True, False])).tolist() == [True, True, True]
    dual = dual_algebra(f)
    assert dual.closed.tolist() == [[False, False, False], [True, False, False], [True, True, True]]
    alg = dual.algebra
    assert alg.elements == ("{}", "{1}", "{1,a,b}")
    assert alg.prod.tolist() == [[0, 0, 0], [0, 1, 2], [0, 2, 2]]
    assert alg.lres.tolist() == [[2, 2, 2], [0, 1, 2], [0, 0, 2]]
    assert alg.rres.tolist() == [[2, 0, 0], [2, 1, 0], [2, 2, 2]]
    assert alg.star.tolist() == [1, 1, 2]
    assert (alg.zero, alg.one) == (0, 1)


def _broken(gf, part: str, table: str, entry: tuple, value):
    """A copy of a Gentzen frame with one entry of one table of its frame or
    its algebra changed."""
    broken = getattr(getattr(gf, part), table).copy()
    broken[entry] = value
    return dataclasses.replace(gf, **{part: dataclasses.replace(getattr(gf, part), **{table: broken})})


def test_dual_algebra_rejects_non_nuclear_frame():
    f = _broken(frame_of_algebra(rel_algebra(2)), "frame", "lres_w", (7, 6), 0).frame
    with pytest.raises(FrameError) as err:
        dual_algebra(f)
    assert str(err.value) == "frame is not nuclear: ('x.y N z iff y N x\\\\z', (7, 8, 6))"


def test_dual_algebra_raises_for_a_residual_outside_the_closed_sets(monkeypatch):
    # with the nuclear check passed over, a non-nuclear frame is still caught
    # when a residual is not closed
    monkeypatch.setattr(frames, "check_nuclear", lambda f: frames.FrameReport())
    f = _broken(frame_of_algebra(rel_algebra(2)), "frame", "op", (0, 0), 1).frame
    with pytest.raises(FrameError) as err:
        dual_algebra(f)
    assert str(err.value) == "a residual landed outside the closed sets; frame is not nuclear"


@given(st.integers(1, 130), st.integers(1, 24), st.floats(0.05, 0.95), st.integers(0, 2**32 - 1))
def test_distinct_keeps_the_lexsort_order(width, count, density, seed):
    rng = np.random.default_rng(seed)
    rows = rng.random((count, width)) < density
    rows = np.concatenate([rows, rows[rng.integers(count, size=count)]])
    assert np.array_equal(_distinct(pack(rows)), pack(lexsort_distinct(rows)))


def test_dual_algebra_closed_set_cap(monkeypatch):
    monkeypatch.setattr(frames, "CLOSED_SET_CAP", 8)
    with pytest.raises(FrameError, match="^more than 8 closed sets$"):
        dual_algebra(frame_of_algebra(rel_algebra(2)).frame)


def test_dual_algebra_of_rel2_is_rel2():
    a = rel_algebra(2)
    dual = dual_algebra(frame_of_algebra(a).frame)
    assert len(dual.closed) == a.size
    assert validate_algebra(dual.algebra).ok


def test_dual_algebras_validate_with_star_continuity():
    for a in SMALL:
        dual = dual_algebra(frame_of_algebra(a).frame)
        report = validate_algebra(dual.algebra)
        assert report.ok, (a.name, report.violations)


# One entry of the frame of rel_algebra(2) changed, and the first witness of
# each nuclear law check_nuclear reports for it.
NUCLEAR_BROKEN = [
    ("lres_w", (7, 6), 0, [("x.y N z iff y N x\\z", (7, 8, 6))]),
    ("rres_w", (6, 2), 3, [("x.y N z iff x N z/y", (8, 2, 6))]),
    ("op", (14, 9), 4, [("x.y N z iff y N x\\z", (14, 9, 4)), ("x.y N z iff x N z/y", (14, 9, 4))]),
    ("n_rel", (7, 1), True, [("x.y N z iff y N x\\z", (6, 7, 4)), ("x.y N z iff x N z/y", (6, 13, 1))]),
]


@pytest.mark.parametrize("table,entry,value,violations", NUCLEAR_BROKEN,
                         ids=[case[0] for case in NUCLEAR_BROKEN])
def test_check_nuclear_reports_first_witness(table, entry, value, violations):
    f = frame_of_algebra(rel_algebra(2)).frame
    broken = getattr(f, table).copy()
    broken[entry] = value
    assert check_nuclear(dataclasses.replace(f, **{table: broken})).violations == violations


def test_gentzen_frames_pass():
    for a in SMALL:
        gf = frame_of_algebra(a)
        report = check_gentzen(gf, with_cut=True)
        assert report.ok, (a.name, report.violations)


def test_star_gentzen_frames_pass():
    for a in SMALL:
        gf = frame_of_algebra(a)
        report = check_star_gentzen(gf, with_cut=True)
        assert report.ok, (a.name, report.violations)


def test_gentzen_detects_broken_relation():
    gf = _broken(frame_of_algebra(two_chain()), "frame", "n_rel", (0, 1), False)  # drop 0 <= 1
    report = check_star_gentzen(gf)
    assert not report.ok


# One entry of the frame or of the algebra of rel_algebra(2) changed, and the
# one violation check_star_gentzen reports for it.
BROKEN_ENTRIES = [
    ("(.R)", "algebra", "prod", (14, 9), 4, (2, 8, 14, 9)),
    ("(\\L)", "frame", "lres_w", (7, 6), 0, (7, 2, 7, 6)),
    ("(\\R)", "algebra", "lres", (3, 7), 11, (3, 7, 4)),
    ("(/L)", "algebra", "rres", (2, 14), 9, (14, 2, 4, 2)),
    ("(/R)", "algebra", "rres", (6, 2), 3, (2, 6, 8)),
    ("(*R1)", "algebra", "star", (10,), 9, (10, 2, 8)),
    ("(*L)", "algebra", "star", (3,), 15, (3, 11)),
]


@pytest.mark.parametrize("law,part,table,entry,value,witness", BROKEN_ENTRIES,
                         ids=[case[0] for case in BROKEN_ENTRIES])
def test_star_gentzen_reports_broken_entry(law, part, table, entry, value, witness):
    gf = _broken(frame_of_algebra(rel_algebra(2)), part, table, entry, value)
    assert check_star_gentzen(gf).violations == [(law, witness)]


def test_star_gentzen_reports_first_witnesses():
    # relating {00,01,10} to {00} in the frame of rel_algebra(2) breaks nine
    # laws, most of them at several tuples; each is reported at its first
    gf = _broken(frame_of_algebra(rel_algebra(2)), "frame", "n_rel", (7, 1), True)
    assert check_star_gentzen(gf).violations == [
        ("(Cut)", (2, 7, 1)), ("(.R)", (1, 7, 1, 1)), ("(^L0)", (7, 2, 1)),
        ("(^L1)", (2, 7, 1)), ("(vR0)", (7, 1, 2)), ("(vR1)", (7, 2, 1)),
        ("(\\L)", (1, 0, 7, 0)), ("(/L)", (1, 0, 7, 0)), ("(*R1)", (1, 7, 1)),
    ]


@st.composite
def law_tables(draw):
    # inputs to _broken_rows in which no two axes that could be swapped by
    # mistake have the same size: |A| != |B|, |X| != |Y|, |V| differs from both
    na, nb, nx, ny, nc, nv = draw(st.lists(st.integers(1, 6), min_size=6, max_size=6).filter(
        lambda s: s[0] != s[1] and s[2] != s[3] and s[5] not in (s[2], s[3])))
    f = draw(st.lists(st.integers(0, nc - 1), min_size=na * nb, max_size=na * nb))
    g = draw(st.lists(st.integers(0, nv - 1), min_size=nx * ny, max_size=nx * ny))
    return (_rows(draw, na, nx), _rows(draw, nb, ny), np.array(f).reshape(na, nb),
            np.array(g).reshape(nx, ny), _rows(draw, nc, nv))


@given(law_tables())
def test_broken_rows_matches_definition(case):
    P, Q, f, g, R = case
    want = [any(P[a, x] and Q[b, y] and not R[f[a, b], g[x, y]]
                for x in range(P.shape[1]) for b in range(len(Q)) for y in range(Q.shape[1]))
            for a in range(len(P))]
    assert frames._broken_rows(*case).tolist() == want
    # the default budget gathers all pairs (a, x) in one block; 1 and 8
    # bytes, one pair per block (a pair's rows are at least one word), and
    # 300 bytes a few pairs per block give the same rows
    for budget in (1, 8, 300):
        with mock.patch.object(models, "BIT_BLOCK_BYTES", budget):
            assert frames._broken_rows(*case).tolist() == want


LOOP_LAWS = {"(.R)", "(\\L)", "(/L)", "(*L)"}
LAW_ORDER = ["(Id)", "(Cut)", "(1L)", "(1R)", "(.L)", "(.R)", "(^L0)", "(^L1)", "(^R)", "(vL)",
             "(vR0)", "(vR1)", "(\\L)", "(\\R)", "(/L)", "(/R)", "(0L)", "(*R0)", "(*R1)", "(*L)"]
CORRUPTED_TABLES = [("frame", t) for t in ("n_rel", "op", "lres_w", "rres_w")] + \
    [("algebra", t) for t in ("prod", "lres", "rres", "meet", "join", "star")]


def _corrupted_frames(rng: random.Random, per_table: int):
    """Gentzen frames of small models with one entry of one table changed,
    then of the 64-element truncated_words(6, "a") with two per table, and
    with the product of its top by itself dropped to the bottom: there the
    pairs of (.R) fill six blocks of _broken_rows, and that last frame's
    only broken (.R) element, the top, is in the last."""
    cases = [(a, per_table) for a in (two_chain(), three_chain(), rel_algebra(2),
                                      truncated_words(3, "a"), truncated_words(5, "a"))]
    for a, count in cases + [(truncated_words(6, "a"), 2)]:
        gf = frame_of_algebra(a)
        for part, table in CORRUPTED_TABLES:
            for _ in range(count):
                old = getattr(getattr(gf, part), table)
                entry = tuple(rng.randrange(size) for size in old.shape)
                yield _broken(gf, part, table, entry,
                              not old[entry] if old.dtype == bool else
                              rng.choice([v for v in range(a.size) if v != old[entry]]))
    yield _broken(gf, "algebra", "prod", (63, 63), 0)


def test_whole_table_laws_match_element_loops():
    # 5 models x 10 tables x 7 entries, and 2 per table of a 64-element
    # model: the laws the element loops checked are reported at the loops'
    # witnesses, in their place among the others
    broken = Counter()
    for gf in _corrupted_frames(random.Random(10), per_table=7):
        for star in (True, False):
            got = (check_star_gentzen(gf) if star else check_gentzen(gf, with_cut=False)).violations
            loops = loop_gentzen_laws(gf, star)
            want = sorted([v for v in got if v[0] not in LOOP_LAWS] + loops,
                          key=lambda v: LAW_ORDER.index(v[0]))
            assert got == want
            broken.update(law for law, _ in loops if star)
    assert all(broken[law] >= 5 for law in LOOP_LAWS), broken


def test_quasimorphism_on_algebra_frames():
    for a in SMALL:
        gf = frame_of_algebra(a)
        dual = dual_algebra(gf.frame)
        report = quasimorphism_check(gf, dual)
        assert report.ok, (a.name, report.violations)


def test_closed_sets_are_packed_once_per_dual(monkeypatch):
    gf = frame_of_algebra(truncated_words(3, "a"))
    dual = dual_algebra(gf.frame)
    assert dual.packed is dual.packed and (dual.packed == pack(dual.closed)).all()
    packed_rows = []
    monkeypatch.setattr(frames, "pack", lambda rows: packed_rows.append(rows) or pack(rows))
    assert quasimorphism_check(gf, dual).ok and embedding_check(gf, dual).ok
    assert packed_rows and not any(rows is dual.closed for rows in packed_rows)
    again = dataclasses.replace(dual, closed=dual.closed[::-1].copy())
    assert (again.packed == dual.packed[::-1]).all()


def _corrupted_duals(rng, per_table):
    """Duals of small algebra frames with one entry of one operation table
    changed; then, per model, duals whose closed sets are replaced by sparse
    random sets over a total relation, so that an element's members are
    those sets that hold it, several or none."""
    for a in (three_chain(), rel_algebra(2), truncated_words(3, "a")):
        gf = frame_of_algebra(a)
        dual = dual_algebra(gf.frame)
        for table in ("meet", "join", "prod", "lres", "rres", "star"):
            for _ in range(per_table):
                t = getattr(dual.algebra, table).copy()
                entry = tuple(rng.randrange(n) for n in t.shape)
                t[entry] = rng.choice([v for v in range(a.size) if v != t[entry]])
                yield gf, dataclasses.replace(
                    dual, algebra=dataclasses.replace(dual.algebra, **{table: t}))
        total = _broken(gf, "frame", "n_rel", ..., True)
        for _ in range(4 * per_table):
            rows = np.array([[rng.random() < 0.2 for _ in range(a.size)] for _ in dual.closed])
            yield total, dataclasses.replace(dual, closed=rows)


@pytest.mark.parametrize("block", [models._BLOCK_CELLS, 1, 50])
def test_quasimorphism_witness_matches_element_loop(monkeypatch, block):
    monkeypatch.setattr(models, "_BLOCK_CELLS", block)
    broken = Counter()
    for gf, dual in _corrupted_duals(random.Random(3), per_table=6):
        got = quasimorphism_check(gf, dual).violations
        assert got == loop_quasimorphism(gf, dual)
        broken.update(law for law, _ in got)
    assert all(broken[law] >= 3 for law in ("meet", "join", "prod", "lres", "rres", "star")), broken


def test_embedding_on_algebra_frames():
    for a in SMALL:
        gf = frame_of_algebra(a)
        report = embedding_check(gf, dual_algebra(gf.frame))
        assert report.ok, (a.name, report.violations)


def test_frame_satisfaction_matches_algebra():
    qc = q_a_of(EX["C"])
    qwk = q_a_of(EX["Wk"])
    for a in SMALL:
        f = frame_of_algebra(a).frame
        assert frame_satisfies_q(f, qc) == holds_quasieq(a, qc), a.name
        assert frame_satisfies_q(f, qwk) == holds_quasieq(a, qwk), a.name


def _satisfaction_frames(rng: random.Random):
    """Algebra frames, copies of them with one entry of the relation or the
    monoid changed, and random frames whose second sort is not a multiple
    of 64 elements: one word, several, and rows of one bit."""
    for a in (two_chain(), three_chain(), rel_algebra(1), truncated_words(3, "a")):
        gf = frame_of_algebra(a)
        yield gf.frame
        for table in ("n_rel", "op") * 3:
            old = getattr(gf.frame, table)
            entry = tuple(rng.randrange(size) for size in old.shape)
            yield _broken(gf, "frame", table, entry,
                          not old[entry] if old.dtype == bool else rng.randrange(a.size)).frame
    nrng = np.random.default_rng(rng.randrange(1 << 30))
    for w, wp in ((1, 1), (2, 5), (3, 63), (4, 65), (3, 70), (2, 130)):
        for density in (0.3, 0.8, 1.0):
            yield ResiduatedFrame(
                f"random {w}x{wp}", tuple(map(str, range(w))), tuple(map(str, range(wp))),
                nrng.random((w, wp)) < density, nrng.integers(0, w, (w, w)), int(nrng.integers(w)),
                nrng.integers(0, wp, (w, wp)), nrng.integers(0, wp, (wp, w)))


def test_frame_satisfaction_witness_matches_element_loop():
    edges = [parse_quasiequation(t) for t in (
        "() => x.y <= z", "(x <= z) => 1 <= z", "(1 <= z) => x <= z", "() => 1 <= z")]
    qes = [q_a_of(EX["C"]), q_a_of(EX["Wk"])] + random_analytic_quasiequations(6, 12) + edges
    outcomes = Counter()
    for f in _satisfaction_frames(random.Random(8)):
        for q in qes:
            if not is_analytic_quasiequation(q):
                with pytest.raises(FrameError, match="defined for analytic quasiequations"):
                    frame_q_counterexample(f, q)
                continue
            got = frame_q_counterexample(f, q)
            assert got == loop_frame_q_counterexample(f, q), (f.name, str(q))
            outcomes[got is None] += 1
    assert min(outcomes.values()) >= 100, outcomes
    # a unit conclusion has no product variables: the witness is z alone
    assert frame_q_counterexample(frame_of_algebra(two_chain()).frame, edges[3]) == (("z", 0),)


def test_frame_satisfaction_refuses_a_grid_over_the_budget():
    f = frame_of_algebra(truncated_words()).frame
    with pytest.raises(FrameError) as err:
        frame_q_counterexample(f, parse_quasiequation("(x.z <= w) => x.y.z <= w"))
    assert str(err.value) == ("frame satisfaction over 3 product variables on 128 elements "
                              "exceeds the exhaustive budget")


def test_transfer_biconditional():
    qes = [q_a_of(EX["C"]), q_a_of(EX["Wk"])]
    for a in SMALL:
        f = frame_of_algebra(a).frame
        dual = dual_algebra(f)
        for q in qes:
            report = verify_transfer(f, q, dual)
            assert report.ok, (a.name, str(q))


def test_macneille_small_models():
    for a in SMALL:
        result = macneille(a)
        assert result.star_gentzen.ok, a.name
        assert result.is_isomorphism, a.name
        assert validate_algebra(result.dual.algebra).ok


def test_macneille_preserves_quasiequations():
    for a in SMALL:
        result = macneille(a)
        for rule_name in ("C", "Wk"):
            q = q_a_of(EX[rule_name])
            assert holds_quasieq(a, q) == holds_quasieq(result.dual.algebra, q)


# ---------------------------------------------------------------------------
# Facts kept on models and frames: computed once per object, never stale.


def test_frame_fields_cannot_be_assigned():
    gf = frame_of_algebra(rel_algebra(1))
    dual = dual_algebra(gf.frame)
    for obj, name in ((gf, "algebra"), (gf, "to_w"), (gf.frame, "n_rel"), (gf.frame, "eps"),
                      (gf.algebra, "prod"), (dual, "closed"), (dual.stats, "rounds")):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, name, getattr(obj, name))


def test_model_and_frame_tables_are_read_only():
    a = rel_algebra(1)
    gf = frame_of_algebra(a)
    dual = dual_algebra(gf.frame)
    tables = [getattr(a, t) for t in ("le", "meet", "join", "prod", "lres", "rres", "star")]
    tables += [getattr(gf.frame, t) for t in ("n_rel", "op", "lres_w", "rres_w")]
    for t in tables + [gf.to_w, gf.to_wp, dual.closed, dual.packed]:
        corner = (0,) * t.ndim
        with pytest.raises(ValueError, match="read-only"):
            t[corner] = t[corner]


@pytest.mark.parametrize("law,part,table,entry,value,witness", BROKEN_ENTRIES,
                         ids=[case[0] for case in BROKEN_ENTRIES])
def test_facts_of_a_good_frame_are_not_served_for_a_broken_copy(law, part, table, entry, value,
                                                                 witness):
    a = rel_algebra(2)
    gf = frame_of_algebra(a)
    dual = dual_algebra(gf.frame)
    assert validate_algebra(a).ok and check_star_gentzen(gf).ok and validate_algebra(dual.algebra).ok
    bad = _broken(gf, part, table, entry, value)
    assert check_star_gentzen(bad).violations == [(law, witness)]
    if part == "frame":
        with pytest.raises(FrameError, match="not nuclear"):
            dual_algebra(bad.frame)
        return
    assert not validate_algebra(bad.algebra).ok
    own = frame_of_algebra(bad.algebra)
    assert own.frame is not gf.frame and not check_star_gentzen(own).ok
    if table == "star":  # the frame does not read star: its dual is built anew, equal to the good one
        again = dual_algebra(own.frame)
        assert again is not dual and (again.closed == dual.closed).all()
    else:
        with pytest.raises(FrameError, match="not nuclear"):
            dual_algebra(own.frame)


def test_changing_a_returned_report_changes_no_later_one():
    a = rel_algebra(2)
    gf = frame_of_algebra(a)
    bad = _broken(gf, "frame", "n_rel", (7, 1), True)
    for check in (lambda: validate_algebra(a), lambda: check_star_gentzen(gf),
                  lambda: check_star_gentzen(bad), lambda: check_star_gentzen(bad, with_cut=False)):
        want = list(check().violations)
        got = check()
        got.add("(Id)", (0,))
        assert check().violations == want
        got.violations.clear()
        assert check().violations == want
    # each value of with_cut has its own report: only the one with cut breaks (Cut)
    assert check_star_gentzen(bad, with_cut=False).violations == check_star_gentzen(bad).violations[1:]


def test_macneille_reuses_the_audit(monkeypatch):
    # the audit steps of the semantics benchmark workload, then the completion:
    # the closed sets are enumerated and the nuclear and star-Gentzen laws
    # checked once
    calls = Counter()
    for name in ("_dual_algebra", "_star_gentzen", "_check_nuclear"):
        def counted(*args, _name=name, _worker=getattr(frames, name)):
            calls[_name] += 1
            return _worker(*args)

        monkeypatch.setattr(frames, name, counted)
    qes = [q_a_of(EX["C"]), q_a_of(EX["Wk"])]
    for build in (two_chain, lambda: truncated_words(3, "a")):
        calls.clear()
        a = build()
        assert validate_algebra(a).ok
        gf = frame_of_algebra(a)
        assert check_nuclear(gf.frame).ok and check_star_gentzen(gf).ok
        dual = dual_algebra(gf.frame)
        assert validate_algebra(dual.algebra).ok
        assert quasimorphism_check(gf, dual).ok and embedding_check(gf, dual).ok
        assert all(verify_transfer(gf.frame, q, dual).ok for q in qes)
        done = macneille(a)
        assert done.gentzen is gf and done.dual is dual and done.is_isomorphism
        assert calls == {"_dual_algebra": 1, "_star_gentzen": 1, "_check_nuclear": 1}
        # a model built anew shares nothing with the last one
        assert macneille(build()).dual is not dual
        assert calls == {"_dual_algebra": 2, "_star_gentzen": 2, "_check_nuclear": 2}


# ---------------------------------------------------------------------------
# Parity with the former float32 products and boolean broadcasts (kept in
# tests/helpers.py) on the library, the semantics benchmark models and
# copies with one table entry changed.

SEMANTICS_MODELS = [two_chain(), three_chain(), rel_algebra(1), rel_algebra(2),
                    truncated_words(3, "a"), truncated_words(5, "a"), truncated_words(6, "a")]
PARITY_MODELS = list(library().values()) + SEMANTICS_MODELS


def test_packed_gentzen_laws_match_the_broadcast_forms():
    rewritten = {"(Cut)", "(.L)", "(^L0)", "(^L1)", "(^R)", "(vL)", "(vR0)", "(vR1)", "(\\R)",
                 "(/R)", "(0L)", "(*R1)", "(*L)"}
    broken = Counter()
    gfs = [frame_of_algebra(a) for a in PARITY_MODELS]
    for gf in gfs + list(_corrupted_frames(random.Random(21), per_table=4)):
        for star, cut in ((True, True), (False, False)):
            got = (check_star_gentzen(gf) if star else check_gentzen(gf, with_cut=False)).violations
            want = broadcast_gentzen_laws(gf, star, cut)
            assert [v for v in got if v[0] in rewritten] == want
            broken.update(law for law, _ in want)
    assert all(broken[law] >= 3 for law in rewritten), broken


def _whole_table_residuation(rel, op, lres, rres) -> list:
    """The former residuation check: three whole n^3 gathers."""
    lhs = rel[op]
    return [(law, tuple(int(v) for v in np.argwhere(lhs != via)[0]))
            for law, via in zip(("left", "right"), (rel[:, lres].transpose(1, 0, 2), rel[:, rres.T]))
            if (lhs != via).any()]


def test_residuation_reports_the_laws_in_law_order(monkeypatch):
    # rel2 with lres[12, 0] and rres[2, 14] changed: the right law breaks at
    # x = 8, the left at x = 12, so with one x per block the right one is
    # found first and must still be reported second
    a = rel_algebra(2)
    lres, rres = a.lres.copy(), a.rres.copy()
    lres[12, 0], rres[2, 14] = 1, 9
    want = [("left", (12, 1, 0)), ("right", (8, 14, 2))]
    assert _whole_table_residuation(a.le, a.prod, lres, rres) == want
    for budget in (models.BIT_BLOCK_BYTES, a.size ** 2, 1):
        monkeypatch.setattr(models, "BIT_BLOCK_BYTES", budget)
        report = FrameReport()
        models.residuation_law(report, ("left", "right"), a.le, a.prod, lres, rres)
        assert report.violations == want


def test_residuation_matches_the_whole_table_check():
    # corrupted models and frames, the 64-element ones over several blocks
    rng, broken = random.Random(29), Counter()
    for a in SEMANTICS_MODELS:
        f = frame_of_algebra(a).frame
        for _ in range(6):
            tables = {"rel": f.n_rel.copy(), "op": f.op.copy(), "lres": f.lres_w.copy(),
                      "rres": f.rres_w.copy()}
            for name in rng.sample(sorted(tables), 2):
                t, entry = tables[name], (rng.randrange(a.size), rng.randrange(a.size))
                t[entry] = not t[entry] if t.dtype == bool else rng.randrange(a.size)
            want = _whole_table_residuation(*tables.values())
            report = FrameReport()
            models.residuation_law(report, ("left", "right"), *tables.values())
            assert report.violations == want, a.name
            broken.update(law for law, _ in want)
    assert broken["left"] >= 10 and broken["right"] >= 10, broken


def test_law_checks_at_128_elements_stay_under_one_mebibyte():
    # every temporary of validation, the nuclear check and the Gentzen laws
    # is bounded by BIT_BLOCK_BYTES; whole n^3 tables took 8.1, 8.0 and 4.1 MiB
    a = truncated_words()
    gf = frame_of_algebra(a)
    checks = {"validation": lambda: models._validate_algebra(a),
              "nuclear": lambda: frames._check_nuclear(gf.frame),
              "gentzen": lambda: check_gentzen(gf)}
    peaks = {}
    for name, check in checks.items():
        check()  # the frame's packed relation, kept on it
        tracemalloc.start()
        try:
            assert check().ok
            peaks[name] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert max(peaks.values()) < 1 << 20, peaks


def _corrupted_models(rng: random.Random, per_table: int):
    """Models with one entry of le, meet or join changed."""
    for a in (three_chain(), rel_algebra(2), truncated_words(3, "a"), truncated_words(5, "a")):
        for table in ("le", "meet", "join"):
            for _ in range(per_table):
                t = getattr(a, table).copy()
                entry = (rng.randrange(a.size), rng.randrange(a.size))
                t[entry] = not t[entry] if t.dtype == bool else \
                    rng.choice([v for v in range(a.size) if v != t[entry]])
                yield dataclasses.replace(a, **{table: t})


def test_packed_order_laws_match_the_broadcast_forms():
    laws = {"transitivity", "meet is greatest", "join is least"}
    broken = Counter()
    for a in PARITY_MODELS + list(_corrupted_models(random.Random(22), per_table=8)):
        got = [(v.law, v.witness) for v in validate_algebra(a).violations if v.law in laws]
        assert got == broadcast_order_laws(a)
        broken.update(law for law, _ in got)
    assert all(broken[law] >= 3 for law in laws), broken


def test_dual_tables_match_the_float32_reference(monkeypatch):
    # with the nuclear check passed over, a corrupted frame gets its tables
    # too, or the residual error where the reference finds no closed set
    monkeypatch.setattr(frames, "check_nuclear", lambda f: frames.FrameReport())
    frames_ = [frame_of_algebra(a).frame for a in PARITY_MODELS]
    frames_ += [gf.frame for gf in _corrupted_frames(random.Random(23), per_table=2)]
    outcomes = Counter()
    for f in frames_:
        want = reference_dual(f)
        try:
            dual = dual_algebra(f)
        except FrameError:
            assert want is None
            outcomes["raised"] += 1
            continue
        alg = dual.algebra
        got = {"closed": dual.closed, "elements": alg.elements,
               **{t: getattr(alg, t) for t in ("le", "meet", "join", "lres", "rres", "prod")}}
        assert want is not None and set(got) == set(want)
        for name, table in want.items():
            assert np.array_equal(got[name], table), (f.name, name)
        outcomes["tables"] += 1
    assert outcomes["raised"] >= 5 and outcomes["tables"] >= len(PARITY_MODELS) + 5, outcomes


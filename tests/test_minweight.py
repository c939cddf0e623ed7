"""Minimum-weight operations, checked against the brute-force oracle (n <= 6)."""

import functools
import importlib.util
import random
import re
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccarb import counting, determinant, minweight
from ccarb.cli import main
from ccarb.counting import Arborescence, count, count_table
from ccarb.graph import ColoredDigraph, Edge, dedup_min_weight, parse_graph
from ccarb.laplacian import root_minor
from ccarb.minweight import c_alpha_r, find_min, min_weight
from ccarb.oracle import color_histogram, enumerate_arborescences, is_arborescence, oracle_min_weight

from support import alphas, planted_digraph, questions_asked, recorded, small_digraphs, unusable_arcs

ORACLE = settings(max_examples=100, deadline=None)

SUITE = Path(__file__).resolve().parents[1] / "benchmark" / "suite.py"


@st.composite
def instances(draw):
    graph = draw(small_digraphs(weights=True))
    root = draw(st.one_of(st.just(1), st.integers(1, graph.n)))
    if draw(st.booleans()):
        # A constraint met by some arborescence, when there is one.
        hists = sorted(
            {color_histogram(graph, arb.edge_ids)[: graph.q - 1] for arb in enumerate_arborescences(graph, root)}
        )
        if hists:
            return graph, root, draw(st.sampled_from(hists))
    return graph, root, draw(alphas(graph.q, graph.n))


@ORACLE
@given(instances())
def test_min_weight_matches_oracle(inst):
    expected = oracle_min_weight(*inst)
    assert min_weight(*inst) == (None if expected is None else expected[0])


@ORACLE
@given(instances())
def test_find_min_returns_a_certified_minimizer(inst):
    expected = oracle_min_weight(*inst)
    result = find_min(*inst)
    if expected is None:
        assert result is None
        return
    arb, weight = result
    graph, root, alpha = inst
    assert weight == expected[0]
    assert is_arborescence(graph, root, arb.edge_ids)
    assert color_histogram(graph, arb.edge_ids)[: graph.q - 1] == alpha
    assert sum(graph.edge(i).weight for i in arb.edge_ids) == weight
    # The choice rule: among the minimizers, the first by the in-arc id of
    # vertex 1, then of vertex 2, and so on, which is the oracle's order.
    assert arb == next(
        other
        for other in enumerate_arborescences(graph, root)
        if color_histogram(graph, other.edge_ids)[: graph.q - 1] == alpha
        and sum(graph.edge(i).weight for i in other.edge_ids) == weight
    )


@ORACLE
@given(instances())
def test_find_min_asks_only_about_usable_arcs(inst):
    expected = oracle_min_weight(*inst)
    with questions_asked() as (minors, tables):
        result = find_min(*inst)
    if expected is None:
        assert result is None
        return
    # The first minor built in counting is the count's, of the whole graph;
    # every later one is a search question's, which holds no arc into the
    # root, none of a color alpha has no room left for, and no two parallel
    # arcs of one color.  Every det_poly call in counting after the first
    # asks a question the spy saw.
    graph, root, alpha = inst
    assert len(minors) == len(tables) >= 1
    for question, _ in minors[1:]:
        assert unusable_arcs(question, root, alpha) == []
    assert result[0] == next(
        other
        for other in enumerate_arborescences(graph, root)
        if color_histogram(graph, other.edge_ids)[: graph.q - 1] == alpha
        and sum(graph.edge(i).weight for i in other.edge_ids) == expected[0]
    )


@ORACLE
@given(instances(), st.sampled_from((-3, -2, 0, 1, 2, 3, 17, 101)))
def test_c_alpha_r_is_the_weight_enumerator_at_r(inst, r):
    graph, root, alpha = inst
    expected = sum(
        r ** sum(graph.edge(i).weight for i in arb.edge_ids)
        for arb in enumerate_arborescences(graph, root)
        if color_histogram(graph, arb.edge_ids)[: graph.q - 1] == alpha
    )
    assert c_alpha_r(graph, root, alpha, r) == expected


@pytest.mark.parametrize("r", [2.0, True, "2"])
def test_c_alpha_r_base_must_be_an_integer(r):
    # root_minor builds its terms unchecked and trusts its base, so c_alpha_r,
    # where a base enters from outside, checks it before a float reaches the engine.
    with pytest.raises(ValueError, match=re.escape(f"base r {r!r} is not an integer")):
        c_alpha_r(parse_graph("2 1\ns a 1 1\n"), 1, (), r)


def test_parallel_arcs_of_one_color_are_all_counted():
    # Two arcs s -> a of color 1, weights 4 and 2: the arborescences
    # {sa, ab} weigh 5 and 3.
    graph = parse_graph("3 2\ns a 1 4\ns a 1 2\na b 2 1\n")
    assert c_alpha_r(graph, 1, (1,), 10) == 10**5 + 10**3
    assert min_weight(graph, 1, (1,)) == 3
    assert find_min(graph, 1, (1,)) == (Arborescence(1, (1, 2)), 3)


# Seven vertices, weights 150-300.  An engine with a fixed budget of 512 CRT
# primes above max(m, 2n) refused this instance ("coefficient bound needs 787
# primes, budget is 512"); the minimum is 1200, attained twice.
HEAVY = """7 2
s a 1 150
s b 2 300
a b 1 210
b a 2 180
a c 1 260
b c 2 170
c d 1 290
b d 1 230
d e 2 160
c e 1 240
e f 2 280
d f 1 190
f a 2 220
e b 1 270
f c 2 200
"""


def test_heavy_weights_are_not_refused(tmp_path, capsys):
    path = tmp_path / "heavy.g"
    path.write_text(HEAVY, encoding="utf-8")
    expected = oracle_min_weight(parse_graph(HEAVY), 1, (3,))
    assert expected == (1200, 2)
    assert main(["min-weight", str(path), "--root", "s", "--alpha", "3"]) == 0
    captured = capsys.readouterr()
    assert captured.out == f"{expected[0]}\n"
    assert captured.err == ""


def raised(text: str, head: str, extra: int) -> str:
    """The weighted graph text with every in-weight of vertex `head` raised by extra."""
    header, *lines = text.splitlines()
    for i, line in enumerate(lines):
        tail, to, color, weight = line.split()
        if to == head:
            lines[i] = f"{tail} {to} {color} {int(weight) + extra}"
    return "\n".join([header, *lines]) + "\n"


@pytest.mark.parametrize("operation, points_taken", [(min_weight, 7), (find_min, 19)])
def test_heavy_weights_take_few_evaluations(monkeypatch, operation, points_taken):
    # q = 2, so det_poly packs x1, the only variable, and evaluates once,
    # unless its packed values would pass PACKED_BITS = 4096; then nothing
    # is packed and x1 keeps its axis 0..k for the k rows that hold it.
    # With D digits of bits bits, the grid is taken when D * bits > 4096,
    # and bits is 8 * ceil((bitlen(B) + 1) / 8) for B the product of the
    # rows' absolute term sums, each row divided by its content first.
    #
    # Every non-root vertex of HEAVY has a color-1 in-arc, but d's in-arcs
    # (from b and c) all have color 1, so det_poly factors x1 out of d's
    # row.  No other row of the minor reduces (a, b, c, e and f mix colors),
    # so 5 rows keep x1: 6 digits.  min_weight takes 2 det_polys.  For the
    # count, 21, a row's sum is at most twice its in-degree 3, so
    # B <= 6^6 < 2^16, the digits have at most 24 bits and 6 * 24 <= 4096:
    # 1 point.  The coefficient at r = 22 has entries r^w, and the row of
    # a vertex, which holds only its in-arcs, has content r^m for its
    # lightest in-weight m.  Divided by it, the
    # in-arcs of a weigh 0, 30, 70 (sa, ba, fa); b 90, 0, 60 (sb, ab, eb);
    # c 90, 0, 30 (ac, bc, fc); d 60, 0 (cd, bd); e 0, 80 (de, ce); f 90, 0
    # (ef, df).  Each row's sum is at least its heaviest r^w, so
    # B >= 22^480 > 2^2140 and 6 * bits > 4096: the 6-point grid.  7 points.
    #
    # find_min adds one det_poly per search question.  The minimizers, of
    # weight 1200, are {sa, sb, bc, bd, de, df} and {sa, ab, bc, bd, de,
    # ef}.  A vertex's row keeps x1 when its usable in-arcs mix colors; a
    # row of one color factors.  A row left with its diagonal alone, as is
    # a decided vertex's whose one in-arc leaves the root or a vertex
    # expanded before, is expanded away, which deletes its column: the
    # arcs out of it then touch only their heads' rows.  In each question
    # below, every row left still holds its vertex's lightest in-arc, so
    # its content is the same r^m.
    # - a asks about sa alone (ba and fa deleted): yes.  Row a goes, and
    #   rows b, c, e and f mix colors: 5 digits.  Rows b, c, d, e and f
    #   hold r^90, r^90, r^60, r^80 and r^90, so B >= 22^410 > 2^1828 and
    #   5 * bits > 4096: 5 points.
    # - b asks about sb alone (ab and eb deleted): yes.  Rows a and b go;
    #   rows c, e and f mix colors and d (arcs cd and bd) factors: 4
    #   digits.  Rows c, d, e and f hold r^90, r^60, r^80 and r^90, so
    #   B >= 22^320 > 2^1426, bits >= 1432 and 4 * bits > 4096: 4 points.
    # - c asks about ac alone (bc and fc deleted): no, both minimizers use
    #   bc.  Rows a, b and c go, and then so does d's (cd and bd, both from
    #   expanded vertices); e (de, ce) and f (ef, df) mix colors: 3 digits.
    #   Columns c and d are gone, so e's row sums to 1 + r^80 and f's to
    #   2 r^90 + 1: B < 3 r^170 < 2^763, bits <= 768 and 3 * bits <= 4096:
    #   1 point.  The other two are halved: bc alone asks yes, and its
    #   matrix reduces the same way: 1 point.
    # - d's in-arcs cd and bd both lead back to s through the taken arcs and
    #   have one color, so the lighter, bd, is its one candidate, taken
    #   unasked.
    # - e asks about de alone (ce deleted): yes.  That leaves room for one
    #   arc, of color 1, so ef (color 2) is deleted too and f's row, df
    #   alone, goes after d's: the empty matrix, 1 point.
    # - f has one candidate, df, taken unasked.
    # That is 5 + 4 + 1 + 1 + 1 = 12 points, and 7 + 12 = 19 in all.
    #
    # Raising every in-weight of c by 1,000 raises every arborescence's
    # weight by 1,000, as each takes one in-arc of c, and leaves the count
    # and r alone.  It multiplies c's row by r^1000, which its content
    # takes out again, so every point evaluated is the same.
    graphs = {extra: parse_graph(raised(HEAVY, "c", extra)) for extra in (0, 1000)}
    assert [count(graph, 1, (3,)) for graph in graphs.values()] == [21, 21]
    points = {}
    real = determinant._evaluate
    for extra, graph in graphs.items():
        taken = points[extra] = []
        monkeypatch.setattr(determinant, "_evaluate", lambda rows, point: taken.append(point) or real(rows, point))
        result = operation(graph, 1, (3,))
        assert (result if operation is min_weight else result[1]) == 1200 + extra
        assert len(taken) == points_taken
    assert points[0] == points[1000]


def test_heaviest_benchmark_probes_match_the_oracle(monkeypatch):
    # The weighted workload's probes, four min-weight ops on n = 7 with
    # W = 150, 200, 250 and 300, are its heaviest weights, and n = 7 is
    # within the oracle's cap.  benchmark/suite.py is loaded read-only.
    spec = importlib.util.spec_from_file_location("weighted_suite", SUITE)
    suite = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, suite)
    spec.loader.exec_module(suite)
    _, probes = suite.build("weighted", 1)
    assert sorted((op.instance.n, op.instance.max_weight) for op in probes) == [(7, w) for w in (150, 200, 250, 300)]
    for op in probes:
        graph = parse_graph(op.instance.text())
        inst = graph, graph.vertex_index(f"v{op.instance.root}"), op.alpha
        weight, _ = oracle_min_weight(*inst)
        assert min_weight(*inst) == weight
        arb, found = find_min(*inst)
        assert found == weight == sum(graph.edge(i).weight for i in arb.edge_ids)
        assert is_arborescence(graph, inst[1], arb.edge_ids)
        assert color_histogram(graph, arb.edge_ids)[: graph.q - 1] == op.alpha


# Rooted at s, the lightest in-weights are 5 (a), 3 (b) and 1 (c), so the
# weighted minor's rows of a and b have contents r^5 and r^3, which the
# engine divides out, and c's has r.
SHIFTED = """4 2
s a 1 5
b a 2 7
s b 2 3
a b 1 4
a c 1 1
b c 2 6
c a 1 9
c b 2 8
"""


@pytest.mark.parametrize("alpha", [(0,), (1,), (2,), (3,)])
def test_vertices_with_different_lightest_in_weights(alpha):
    graph = parse_graph(SHIFTED)
    expected, _ = oracle_min_weight(graph, 1, alpha)
    assert min_weight(graph, 1, alpha) == expected
    arb, weight = find_min(graph, 1, alpha)
    assert weight == expected == sum(graph.edge(i).weight for i in arb.edge_ids)
    assert color_histogram(graph, arb.edge_ids)[:1] == alpha


# Weights near 1,000,000.  Of the arborescences at s with one color-1 arc,
# sb, ba, bc is the lightest: 1,000,001 + 1,000,000 + 999,999.
MILLION = """4 2
s a 1 1000000
s b 2 1000001
a b 1 1000002
b a 2 1000000
b c 1 999999
a c 2 1000003
s c 1 1000000
"""


@pytest.mark.parametrize("name, alpha", [*(("SHIFTED", (a,)) for a in range(4)), ("MILLION", (1,))])
def test_valuation_sees_only_the_cofactor_above_the_lightest_in_weights(monkeypatch, name, alpha):
    # Every arborescence weighs at least low, the sum of the lightest
    # in-weights of the non-root vertices, about 300,000 on SHIFTED with
    # every weight raised by 100,000 and 3,000,000 on MILLION.  The
    # coefficient at r then has about low * log2(r) bits, but r^low divides
    # it, and valuation sees only the small cofactor left.
    text = MILLION if name == "MILLION" else functools.reduce(lambda t, v: raised(t, v, 100_000), "abc", SHIFTED)
    graph = parse_graph(text)
    expected, _ = oracle_min_weight(graph, 1, alpha)
    values = recorded(monkeypatch, minweight, "valuation")
    assert min_weight(graph, 1, alpha) == expected
    assert find_min(graph, 1, alpha)[1] == expected
    assert len(values) == 2 and all(0 < value < 2**64 for value, _ in values)


@pytest.mark.parametrize("base", [10**5, 10**6])
def test_heavy_weights_cost_what_light_ones_do(base):
    # Three seeded 5-vertex digraphs of in-degree 3 (12 arcs), with weights
    # base to base + 3.  Every arborescence weighs about 4 base, so the full
    # coefficient at r has about 4 base log2(r) bits, and the full minor's
    # entries about base log2(r) each.  Every minor is built at
    # r^(w - m_v) instead, whose exponents are at most 3, so these take
    # what weights 1 to 4 take.
    for seed in (1, 2, 3):
        light, root = planted_digraph(random.Random(seed), 5, 2, 4)
        graph = ColoredDigraph(5, 2, tuple(e._replace(weight=e.weight + base - 1) for e in light.edges))
        for alpha in [(a,) for a in range(5)]:
            expected = oracle_min_weight(graph, root, alpha)
            assert min_weight(graph, root, alpha) == (expected and expected[0])
            result = find_min(graph, root, alpha)
            if expected is None:
                assert result is None
                continue
            arb, weight = result
            assert weight == expected[0] == sum(graph.edge(i).weight for i in arb.edge_ids)
            assert is_arborescence(graph, root, arb.edge_ids)
            assert color_histogram(graph, arb.edge_ids)[:1] == alpha


@st.composite
def planted(draw):
    """A planted digraph on up to 7 vertices, its root and a histogram one of its arborescences has."""
    n, q = draw(st.integers(2, 7)), draw(st.integers(1, 3))
    rng = random.Random(draw(st.integers(0, 2**32)))
    graph, root = planted_digraph(rng, n, q, draw(st.sampled_from((1, 3, 20))))
    hists = {color_histogram(graph, arb.edge_ids)[: q - 1] for arb in enumerate_arborescences(graph, root)}
    return graph, root, draw(st.sampled_from(sorted(hists)))


@ORACLE
@given(st.one_of(instances(), planted()))
def test_the_prune_drops_no_arc_of_a_minimizer(inst):
    # find_min offers the search the arcs of dedup_min_weight(graph) at their
    # reduced costs w - m_v, m_v each non-root vertex's lightest in-weight
    # in the input, but none above the slack W - low, low the sum of the
    # m_v.  An arc into v with w - m_v > slack is in no arborescence of
    # weight W or less, so the representative of every arc of every
    # minimizer is offered, and no question holds an arc not offered.
    graph, root, alpha = inst
    expected = oracle_min_weight(*inst)
    with mock.patch.object(minweight, "_search", wraps=counting._search) as search, questions_asked() as (minors, _):
        result = find_min(*inst)
    if expected is None:
        assert result is None and not search.called
        return
    [call] = search.call_args_list
    offered = call.args[3]
    floor = {v: min(e.weight for e in graph.edges if e.head == v) for v in range(1, graph.n + 1) if v != root}
    slack = expected[0] - sum(floor.values())
    assert slack >= 0 and all(0 <= e.weight <= slack for e in offered)
    assert all(e.weight == graph.edge(e.id).weight - floor[e.head] for e in offered)
    representative = {(e.tail, e.head, e.color): e.id for e in dedup_min_weight(graph).edges}
    ids = {e.id for e in offered}
    for arb in enumerate_arborescences(graph, root):
        arcs = [graph.edge(i) for i in arb.edge_ids]
        if color_histogram(graph, arb.edge_ids)[: graph.q - 1] == alpha and sum(e.weight for e in arcs) == expected[0]:
            assert {representative[e.tail, e.head, e.color] for e in arcs} <= ids
    for question, _ in minors[1:]:
        assert {e.id for e in question.edges} <= ids
    assert sum(graph.edge(i).weight for i in result[0].edge_ids) == expected[0]


@settings(max_examples=300, deadline=None)
@given(st.one_of(small_digraphs(weights=True), planted().map(lambda inst: inst[0])), st.integers(-3, 6))
def test_a_reduced_cost_minor_is_the_full_minor_divided_by_r_to_the_low(graph, r):
    # At every root, each arc into a non-root vertex v comes back with its
    # id, ends and color at w - m_v, m_v the lightest in-weight of v, so
    # each v with an in-arc keeps one of weight 0; arcs into the root are
    # left out.  Row v of the minor holds only v's in-arcs, so valuing them
    # at r^(w - m_v) instead of r^w divides the row by r^(m_v) and the
    # determinant by r^low, low the sum of the m_v, at every integer r: each
    # reduced coefficient times r^low, zero products dropped, is the full
    # minor's.
    for root in range(1, graph.n + 1):
        arcs, low = minweight._reduced(graph.edges, root)
        into = [e for e in graph.edges if e.head != root]
        lightest_in = {v: min(e.weight for e in into if e.head == v) for v in {e.head for e in into}}
        assert [e[:4] for e in arcs] == [e[:4] for e in into] and low == sum(lightest_in.values())
        assert [e.weight for e in arcs] == [e.weight - lightest_in[e.head] for e in into]
        reduced = determinant.det_poly(root_minor(graph.n, graph.q, arcs, root, r))
        full = determinant.det_poly(root_minor(graph.n, graph.q, graph.edges, root, r))
        assert {mono: c * r**low for mono, c in reduced.items() if c * r**low} == full


@pytest.mark.parametrize("n, q, max_weight", [(16, 2, 30), (12, 3, 60)])
def test_find_min_at_scale_weighs_the_minimum(n, q, max_weight):
    # Far past the oracle, find-min's arborescence is checked by its
    # certificate and its weight against min-weight's, on a planted digraph
    # at the histogram with the most arborescences.
    graph, root = planted_digraph(random.Random(n * q), n, q, max_weight)
    table = count_table(graph, root)
    alpha = max(table, key=table.get)
    arb, weight = find_min(graph, root, alpha)
    assert is_arborescence(graph, root, arb.edge_ids)
    assert color_histogram(graph, arb.edge_ids)[:-1] == alpha
    assert sum(graph.edge(i).weight for i in arb.edge_ids) == weight == min_weight(graph, root, alpha)


@ORACLE
@given(instances())
def test_valuation_base_exceeds_the_number_of_arborescences(inst):
    # The valuation is exact when r exceeds the number of minimizers, which
    # is at most the number of arborescences matching alpha.  min_weight
    # builds one minor in minweight, the target's, with a base; find_min
    # asks every search question, a minor built in counting with a base, at
    # that one base.  The count's minor is built in counting at r = 1.
    graph, root, alpha = inst
    matching = sum(
        color_histogram(graph, arb.edge_ids)[: graph.q - 1] == alpha for arb in enumerate_arborescences(graph, root)
    )
    for operation in (min_weight, find_min):
        with mock.patch.object(minweight, "root_minor", wraps=root_minor) as spy, questions_asked() as (minors, tables):
            operation(*inst)
        assert len(minors) == len(tables)
        assert len(spy.call_args_list) == (matching > 0)
        bases = {call.args[4] for call in spy.call_args_list}
        bases |= {r for _, r in minors if r != 1}
        if matching == 0:
            assert bases == set()
            continue
        [r] = bases
        assert r > matching


@pytest.mark.parametrize("r", [1, 0, -1])
def test_valuation_rejects_a_base_below_two(r):
    # Every integer is a multiple of 1, so r = 1 would never stop dividing.
    with pytest.raises(ValueError, match="r >= 2"):
        minweight.valuation(12, r)


@pytest.mark.parametrize("value", [0, -12])
def test_valuation_rejects_a_value_below_one(value):
    # Zero is a multiple of every power of r, so it has no valuation.
    with pytest.raises(ValueError, match="valuation needs a positive integer"):
        minweight.valuation(value, 2)


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 200), st.integers(1, 10**9), st.integers(0, 3000))
def test_valuation_strips_every_power_of_r(r, m, k):
    # Composite bases included: the valuation is the plain loop's count of
    # divisions by r, which is k when r does not divide m.
    value, plain = m * r**k, 0
    while value % r == 0:
        value //= r
        plain += 1
    assert minweight.valuation(m * r**k, r) == plain
    assert m % r == 0 or plain == k


# Four vertices, m = 12, every weight 1: the 13 arborescences with alpha 2
# all weigh 3.  One valuation at 13, the first prime above max(m, 2n), would
# read 4, because 13 divides the number of minimizers.
THIRTEEN = """4 2
s a 2 1
s b 1 1
s c 1 1
a c 1 1
b a 1 1
c b 1 1
a s 2 1
a b 2 1
a c 2 1
s a 1 1
b c 1 1
b c 2 1
"""


def test_one_valuation_is_exact_when_a_small_prime_divides_the_minimizers(monkeypatch):
    # r = 13 + 1 = 14.  Each of a, b and c has lightest in-weight 1, so
    # low = 3, and each minimizer is worth r^(3 - 3) = 1 in the lowered
    # coefficient: 13, whose one valuation at 14 is 0, for a minimum of
    # 3 + 0.
    inst = parse_graph(THIRTEEN), 1, (2,)
    assert oracle_min_weight(*inst) == (3, 13)
    values = recorded(monkeypatch, minweight, "valuation")
    assert min_weight(*inst) == 3
    assert values == [(13, 14)]


def test_find_min_halves_the_in_arcs_of_each_vertex(monkeypatch):
    # The complete 5-vertex digraph with one arc of each of colors 1 and 2
    # per ordered pair, weights 1-9.
    arcs = [(t, h, c) for t in range(1, 6) for h in range(1, 6) if t != h for c in (1, 2)]
    lines = [f"{t} {h} {c} {1 + (3 * t + 5 * h + 7 * c) % 9}" for t, h, c in arcs]
    inst = parse_graph("5 2\n" + "\n".join(lines) + "\n"), 1, (2,)
    determinants = recorded(monkeypatch, counting, "det_poly")
    _, weight = find_min(*inst)
    assert weight == oracle_min_weight(*inst)[0]
    # Alpha (2,) asks for 2 arcs of each color.  Each vertex's lightest
    # in-arcs are 1->2 and 4->2 (color 2, weight 1), 2->3 and 5->3 (color
    # 1, 2), 3->4 (color 1, 1) and 2->5 (color 2, 1), so the minimizers take
    # those; 4->2 closes a cycle with 3->4, so 1->2 is in every one.
    # The minimizers weigh 1 + 2 + 1 + 1 = 5, which is low, the sum of
    # those lightest in-weights, so the slack W - low is 0: the search is
    # offered only the arcs of weight m_v, 1->2 and 4->2 (color 2), 2->3
    # and 5->3 (color 1), 3->4 and 2->5.
    # counting's determinants are the count's on the whole graph, then one
    # per question (the target's is in minweight).  A tail that leads back
    # to 1 through the taken arcs is grouped with 1, so of each color only
    # the lightest in-arc from such tails is a candidate.
    # - Vertex 2 has 2 candidates, 1->2 and 4->2 (4 is not yet decided).
    #   1->2 alone: yes.  1 question.
    # - Tail 2 now leads back to 1, and 5 is undecided: 2 candidates, 2->3
    #   and 5->3.  2->3 alone: yes.  1 question.
    # - Vertex 4 has 1 candidate, 3->4, and vertex 5 has 1, 2->5: both taken
    #   unasked.
    # So 1 + 1 + 1 = 3, where 1 + ceil(log2(d - 1)) questions for d = 2, 2,
    # 1 and 1 would allow 1 + 1 + 1 = 3, and one question per arc n + m =
    # 5 + 40.
    assert len(determinants) == 3


def test_find_min_halves_the_candidates_its_slack_leaves():
    # Rooted at 1, with one color.  3 and 4 are entered only from 2, so 3->2
    # and 4->2 are in no arborescence, though they are 2's lightest in-arcs.
    # 6 is entered from 2 (weight 1) or from 1 (weight 3).  Every other
    # vertex's lightest in-weight is 1, so low = 5.
    arcs = [(3, 2, 1), (4, 2, 1), (6, 2, 1), (1, 2, 2), (5, 2, 2), (2, 3, 1), (2, 4, 1), (1, 5, 1), (2, 6, 1), (1, 6, 3)]
    graph = ColoredDigraph(6, 1, tuple(Edge(i, t, h, 1, w) for i, (t, h, w) in enumerate(arcs)))
    # 2 is entered by 1->2 or 5->2 (weight 2), with 2->3, 2->4, 1->5 and
    # 2->6: W = 6, so the slack W - low is 1.  Entered by 6->2, it needs
    # 1->6 and weighs 7.  The prune drops 1->6 alone (3 - 1 > 1).
    # Vertex 2 has d = 5 candidates, its in-arcs in id order: none of their
    # tails is decided.  Each question's in-arcs of 2 are:
    # - 3->2 alone: 3 is entered only from 2, so no.
    # - the first half of the other 4, {4->2, 6->2}: 4, and 6 without
    #   1->6, are entered only from 2, so no.
    # - 1->2 alone, the first of the last 2: yes, so 1->2 is taken.
    # Vertices 3-6 have 1 candidate each, taken unasked.  So 3 questions,
    # 1 + ceil(log2(d - 1)) for d = 5, after the count on the whole graph.
    with questions_asked() as (minors, _):
        arb, weight = find_min(graph, 1, ())
    assert (arb.edge_ids, weight) == ((3, 5, 6, 7, 8), 6)
    assert weight == oracle_min_weight(graph, 1, ())[0]
    into_2 = [sorted(e.id for e in question.edges if e.head == 2) for question, _ in minors[1:]]
    assert into_2 == [[0], [1, 2], [3]]


# Rooted at s: {sa, sb} has alpha 1 and weight 3, {sa, ab} alpha 2 and
# weight 4, {ba, sb} alpha 0 and weight 3.
WEIGHTED = "3 2\ns a 1 1\ns b 2 2\na b 1 3\nb a 2 1\n"
# Rooted at s, only {ba, sb} has alpha 1; it weighs 3.
CROSSED = "3 2\ns a 1 1\na b 1 2\ns b 1 2\nb a 2 1\n"


def lie_when_weighted(monkeypatch, lie) -> None:
    # Pass find_min's weighted determinants through lie: the target's, taken
    # in minweight, and each question's, in counting.  The count's, also in
    # counting, is left alone.  Each determinant is taken of the minor built
    # just before it, and only the count's is built at r = 1; a lowered
    # entry r^(w - m_v) may be 1, so the matrix alone cannot tell.
    build, real = counting.root_minor, counting.det_poly
    bases = []

    def root_minor(n, q, arcs, root, r=1):
        bases.append(r)
        return build(n, q, arcs, root, r)

    def det_poly(matrix):
        return real(matrix) if bases[-1] == 1 else lie(real(matrix))

    for module in (counting, minweight):
        monkeypatch.setattr(module, "root_minor", root_minor)
        monkeypatch.setattr(module, "det_poly", det_poly)


def always_yes(monkeypatch):
    # Every weighted determinant returns the first one's table, the target's
    # on the whole graph, so every question reads the target's lowered
    # coefficient.  Only {ba, sb} has alpha 1, so r = 2; m_a = 1 and m_b = 2,
    # so low = 3 = W and that coefficient is r^0 = 1, not a multiple of
    # r^(W + 1 - low) = 2: yes.  Every arc has w = m_v, so none is pruned.
    # a's first candidate sa is kept, and it takes the one room of color 1,
    # so ab and sb, b's only in-arcs, are deleted: b has no candidate and the
    # search refuses.
    first = []
    lie_when_weighted(monkeypatch, lambda table: first.append(table) or first[0])
    return CROSSED


def misreport_the_minimum(monkeypatch):
    # Only {sa, sb} has alpha 1, so r = count + 1 = 2, and m_a = 1 and
    # m_b = 2, so low = 3.  Doubling every weighted coefficient multiplies
    # it by r, so the minimum reads one more, 4, and the slack 1: ab, whose
    # w - m_b is 1, is still offered, so no arc is pruned.  A question then
    # holds when its doubled lowered coefficient, 2 (1 + 2k) with a
    # minimizer and 2 (2k) without, is not a multiple of r^(4 + 1 - 3) = 4,
    # so the search still follows the true minimum and ends on {sa, sb},
    # whose weight is not the reported minimum.
    lie_when_weighted(monkeypatch, lambda table: {key: 2 * value for key, value in table.items()})
    return WEIGHTED


@pytest.mark.parametrize(
    "lie, check", [(always_yes, "not an arborescence"), (misreport_the_minimum, "weight")]
)
def test_find_min_refuses_an_uncertified_result(monkeypatch, tmp_path, capsys, lie, check):
    text = lie(monkeypatch)
    with pytest.raises(ValueError, match=check):
        find_min(parse_graph(text), 1, (1,))
    path = tmp_path / "weighted.g"
    path.write_text(text, encoding="utf-8")
    assert main(["find-min", str(path), "--root", "s", "--alpha", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: certificate check failed") and check in captured.err


@pytest.mark.parametrize(
    "text",
    ["3 2\ns a 1\nb a 1\n", "3 2\ns a 1\ns b 1\n"],
    ids=["b-unreachable", "all-reachable"],
)
@pytest.mark.parametrize("operation", [min_weight, find_min])
def test_unweighted_graphs_are_refused(operation, text):
    # With b unreachable there is no arborescence, but the input is still
    # refused rather than answered None.
    with pytest.raises(ValueError, match="weight"):
        operation(parse_graph(text), 1, (1,))

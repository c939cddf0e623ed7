"""Minimum-weight operations, checked against the brute-force oracle (n <= 6)."""

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccarb import minweight
from ccarb.cli import main
from ccarb.counting import Arborescence
from ccarb.graph import parse_graph
from ccarb.laplacian import SymbolicMatrix
from ccarb.minweight import c_alpha_r, find_min, min_weight
from ccarb.oracle import color_histogram, enumerate_arborescences, is_arborescence, oracle_min_weight

from support import alphas, small_digraphs

ORACLE = settings(max_examples=100, deadline=None)


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


@pytest.mark.parametrize("operation, most", [(min_weight, 14), (find_min, 77)])
def test_heavy_weights_take_few_evaluations(monkeypatch, operation, most):
    # Every non-root vertex of HEAVY has a color-1 in-arc, so a minor has 6
    # rows with x1 and det_poly evaluates at most 7 grid points, each once
    # whatever the weights.  min_weight takes 2 det_polys (the count, then
    # the coefficient at r = count + 1): 14 points.  find_min adds one per
    # search question; halving asks at most ceil(log2 3) = 2 for each of
    # a, b and c (in-degree 3) and 1 for each of d, e and f (in-degree 2),
    # so 2 + 9 det_polys: 77 points.
    points = []
    real = SymbolicMatrix.evaluate
    monkeypatch.setattr(SymbolicMatrix, "evaluate", lambda matrix, point: points.append(point) or real(matrix, point))
    result = operation(parse_graph(HEAVY), 1, (3,))
    assert (result if operation is min_weight else result[1]) == 1200
    assert 0 < len(points) <= most


# Rooted at s, the lightest in-weights are 5 (a), 3 (b) and 1 (c), so the
# lowering totals 4 + 2 + 0 = 6, which each answer must add back.
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


@ORACLE
@given(instances())
def test_valuation_base_exceeds_the_number_of_arborescences(inst):
    # The valuation is exact when r exceeds the number of minimizers, which
    # is at most the number of arborescences matching alpha.  find_min asks
    # every step at the one base that min_weight uses.
    graph, root, alpha = inst
    matching = sum(
        color_histogram(graph, arb.edge_ids)[: graph.q - 1] == alpha for arb in enumerate_arborescences(graph, root)
    )
    for operation in (min_weight, find_min):
        with mock.patch.object(minweight, "c_alpha_r", wraps=c_alpha_r) as spy:
            operation(*inst)
        bases = {call.args[3] for call in spy.call_args_list}
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
    inst = parse_graph(THIRTEEN), 1, (2,)
    assert oracle_min_weight(*inst) == (3, 13)
    calls = []
    monkeypatch.setattr(minweight, "c_alpha_r", lambda *args: calls.append(args[3]) or c_alpha_r(*args))
    assert min_weight(*inst) == 3
    assert len(calls) == 1


def test_find_min_halves_the_in_arcs_of_each_vertex(monkeypatch):
    # The complete 5-vertex digraph with one arc of each of colors 1 and 2
    # per ordered pair, weights 1-9.
    arcs = [(t, h, c) for t in range(1, 6) for h in range(1, 6) if t != h for c in (1, 2)]
    lines = [f"{t} {h} {c} {1 + (3 * t + 5 * h + 7 * c) % 9}" for t, h, c in arcs]
    inst = parse_graph("5 2\n" + "\n".join(lines) + "\n"), 1, (2,)
    calls = []
    monkeypatch.setattr(minweight, "c_alpha_r", lambda *args: calls.append(args[3]) or c_alpha_r(*args))
    _, weight = find_min(*inst)
    assert weight == oracle_min_weight(*inst)[0]
    # min_weight, then ceil(log2 8) = 3 for each of the four non-root
    # vertices, where one question per arc would make n + m = 5 + 40.
    assert len(calls) <= 2 + 4 * 3


# Rooted at s: {sa, sb} has alpha 1 and weight 3, {sa, ab} alpha 2 and
# weight 4, {ba, sb} alpha 0 and weight 3.
WEIGHTED = "3 2\ns a 1 1\ns b 2 2\na b 1 3\nb a 2 1\n"


def approve_every_deletion(monkeypatch):
    # Every coefficient reads r, so every lowered minimum reads the same, so
    # every deletion is approved and the search keeps only the last in-arc
    # of each vertex: the cycle {ab, ba}.
    monkeypatch.setattr(minweight, "c_alpha_r", lambda graph, root, alpha, r: r)


def misreport_the_minimum(monkeypatch):
    # Multiply every coefficient by r, so every lowered minimum reads one
    # more.  The search still follows the true minimum and ends on {sa, sb},
    # whose weight is not the reported minimum.
    real = minweight.c_alpha_r
    monkeypatch.setattr(minweight, "c_alpha_r", lambda graph, root, alpha, r: r * real(graph, root, alpha, r))


@pytest.mark.parametrize(
    "lie, check", [(approve_every_deletion, "not an arborescence"), (misreport_the_minimum, "weight")]
)
def test_find_min_refuses_an_uncertified_result(monkeypatch, tmp_path, capsys, lie, check):
    lie(monkeypatch)
    with pytest.raises(ValueError, match=check):
        find_min(parse_graph(WEIGHTED), 1, (1,))
    path = tmp_path / "weighted.g"
    path.write_text(WEIGHTED, encoding="utf-8")
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

"""Interval propagation over long exact sequences.

The scenario used throughout is the restriction sequence of an ideal sheaf,
0 -> I(t) -> O(t) -> O_C(t) -> 0 for C a union of disjoint lines, because the
oracle computes every term independently.
"""

import pytest

from p3bundles.chern import ChernCharacter
from p3bundles.engine import Contradiction, DeductionGraph
from p3bundles.engine.graph import GraphError, Kind, Node
from p3bundles.engine.intervals import EmptyInterval, Interval
from p3bundles.jsonio import content_hash
from p3bundles.monad import MonadSpec, Series, _profile_graph, _summand_configs
from p3bundles.oracle import h0_ideal, ideal_cohomology, sample_ruling


def ideal_graph(k: int, twists, facts=True, seed=0, order="forward"):
    """LES bookkeeping for k disjoint lines, seeded with oracle h0 facts;
    unpropagated until the first query."""
    cfg = sample_ruling(k - 1, seed)
    g = DeductionGraph(order)
    g.add_node(Node("O", Kind.LINE, params=(0,)))
    g.add_node(Node("C", Kind.LINES, params=(k, 0)))
    g.add_node(Node("I", Kind.SHEAF))
    g.add_triple("T", [("I", 0), ("O", 0), ("C", 0)])
    for t in twists:
        g.materialize("T", t)
    if facts:
        for t in twists:
            g.add_value_fact("ORACLE", "I", t, 0, h0_ideal(cfg, t))
    return g, cfg


def monad_graph(order="forward"):
    """The sigma0 (1, 0, 5) display graph of `monad profile` at twists -8..-1,
    unpropagated, plus both triples at twist 0, where no summand is pinned:
    R5 pins E1(0) and E2(0) from twist -4, and R6 carries them into the sum."""
    spec = MonadSpec.create(Series.SIGMA0, 1, 0, 5)
    g = _profile_graph(spec, range(-8, 0), _summand_configs(spec, 0))
    g.order = order  # _profile_graph builds its graph with the default order
    g.materialize("TK", 0)
    g.materialize("TE", 0)
    return g


def sheaf_triple():
    """0 -> A -> B -> C -> 0 between three sheaves with no data at all."""
    g = DeductionGraph()
    for name in "ABC":
        g.add_node(Node(name, Kind.SHEAF))
    g.add_triple("T", [("A", 0), ("B", 0), ("C", 0)])
    g.materialize("T", 0)
    return g


def test_ideal_sequence_pins_everything():
    twists = range(-1, 6)
    g, cfg = ideal_graph(3, twists)
    for t in twists:
        expected = ideal_cohomology(cfg, t)
        for degree in range(4):
            iv = g.interval("I", t, degree)
            assert iv.pinned, (t, degree, iv)
            assert iv.value == expected[degree]


def test_tables_alone_bound_but_do_not_pin():
    g, _ = ideal_graph(3, range(0, 4), facts=False)
    iv = g.interval("I", 2, 0)
    assert not iv.pinned
    assert iv.lo == 0 and iv.hi is not None


@pytest.mark.parametrize("build", [
    pytest.param(lambda order: ideal_graph(4, range(-2, 7), order=order)[0], id="ideal-lines"),
    pytest.param(monad_graph, id="monad-sum-duality"),
])
def test_propagation_order_is_irrelevant(build):
    forward, reverse = build("forward"), build("reverse")
    forward.propagate()
    reverse.propagate()
    assert content_hash(forward.table()) == content_hash(reverse.table())
    assert content_hash(forward.table()) != content_hash(build("forward").table())  # rules fired


def test_a_query_returns_the_fixpoint():
    twists = range(-1, 6)
    lazy, _ = ideal_graph(3, twists)
    eager, _ = ideal_graph(3, twists)
    eager.propagate()
    unpropagated = content_hash(lazy.table())
    lazy.interval("I", 2, 1)
    assert content_hash(lazy.table()) == content_hash(eager.table()) != unpropagated


def counted_propagate(monkeypatch, g) -> list:
    calls: list = []
    propagate = g.propagate
    monkeypatch.setattr(g, "propagate", lambda: calls.append(1) or propagate())
    return calls


def test_a_second_query_does_not_propagate(monkeypatch):
    g, _ = ideal_graph(3, range(0, 4))
    calls = counted_propagate(monkeypatch, g)
    g.interval("I", 2, 0)
    g.instance("I", 3)
    g.interval("O", 1, 0)  # table values, an existing instance
    assert len(calls) == 1


def test_a_later_fact_reaches_the_next_query(monkeypatch):
    g, cfg = ideal_graph(3, range(0, 4), facts=False)
    calls = counted_propagate(monkeypatch, g)
    assert not g.interval("I", 2, 1).pinned
    g.add_value_fact("ORACLE", "I", 2, 0, h0_ideal(cfg, 2))
    iv = g.interval("I", 2, 1)
    assert iv.pinned and iv.value == ideal_cohomology(cfg, 2).h1
    g.add_value_fact("ORACLE", "I", 2, 0, h0_ideal(cfg, 2))  # already known: no change
    g.interval("I", 2, 1)
    assert len(calls) == 2


def test_r3_lower_bounds_fire():
    """h0(B) >= h0(A) and h3(B) >= h3(C), where R2 and R4 say nothing."""
    g = sheaf_triple()
    g.add_value_fact("ASSUMED", "A", 0, 0, 2)
    g.add_value_fact("ASSUMED", "C", 0, 3, 5)
    h0, h3 = g.interval("B", 0, 0), g.interval("B", 0, 3)
    assert (h0.lo, h0.hi, h3.lo, h3.hi) == (2, None, 5, None)
    assert g.explain("B", 0, 0)[0].endswith("via R3 h0 injects in T@0")
    assert g.explain("B", 0, 3)[0].endswith("via R3 h3 surjects in T@0")


def test_r1_and_r4_contradictions_name_their_rule():
    g = sheaf_triple()
    g.set_chern("A", ChernCharacter.from_classes(2, 0, 1, 0))  # chi(A) = 0
    for degree, value in enumerate((1, 0, 0, 0)):
        g.add_value_fact("ASSUMED", "A", 0, degree, value)
    with pytest.raises(Contradiction, match="R1 chi solve"):
        g.propagate()
    g = sheaf_triple()
    for degree, value in enumerate((2, 0, 0, 0)):
        g.add_value_fact("ASSUMED", "A", 0, degree, value)
    g.add_value_fact("ASSUMED", "B", 0, 0, 2)
    g.add_value_fact("ASSUMED", "C", 0, 0, 1)  # R2 holds, 2 - 2 + 1 != 0
    with pytest.raises(Contradiction, match="R4 alternating sum in T@0"):
        g.propagate()


def test_wrong_fact_contradicts():
    g, cfg = ideal_graph(2, range(0, 4))
    with pytest.raises((Contradiction, EmptyInterval)):
        g.add_value_fact("ASSUMED", "I", 2, 0, h0_ideal(cfg, 2) + 3)
        g.propagate()


def test_explain_names_the_deciding_rule():
    g, _ = ideal_graph(3, range(-1, 5))
    g.propagate()
    derived = g.explain("I", 1, 1)
    assert derived and "via R" in derived[0]
    asserted = g.explain("I", 1, 0)
    assert asserted and "via fact:ORACLE" in asserted[0]


def test_serre_duality_rule():
    """A rank-2 locally free node pinned at t becomes pinned at -t-4-c1."""
    g = DeductionGraph()
    g.add_node(Node("E", Kind.SHEAF, locally_free=True,
                    chern=ChernCharacter.from_classes(2, 0, 2, 0)))
    g.instance("E", -1)
    g.instance("E", -3)
    for degree, val in enumerate((0, 2, 0, 0)):
        g.add_value_fact("ORACLE", "E", -1, degree, val)
    for degree, val in enumerate((0, 0, 2, 0)):
        iv = g.interval("E", -3, degree)
        assert iv.pinned and iv.value == val


def test_sum_node_combines_members():
    g = DeductionGraph()
    g.add_node(Node("E1", Kind.SHEAF, locally_free=True,
                    chern=ChernCharacter.from_classes(2, 0, 1, 0)))
    g.add_node(Node("E2", Kind.SHEAF, locally_free=True,
                    chern=ChernCharacter.from_classes(2, 0, 2, 0)))
    g.add_sum("S", ["E1", "E2"], locally_free=True)
    g.instance("S", -1)
    for degree, val in enumerate((0, 1, 0, 0)):
        g.add_value_fact("ORACLE", "E1", -1, degree, val)
    for degree, val in enumerate((0, 2, 0, 0)):
        g.add_value_fact("ORACLE", "E2", -1, degree, val)
    assert g.interval("S", -1, 1).value == 3
    assert g.interval("S", -1, 0).value == 0


def test_duplicate_node_rejected():
    g = DeductionGraph()
    g.add_node(Node("X", Kind.SHEAF))
    with pytest.raises(GraphError):
        g.add_node(Node("X", Kind.SHEAF))


def test_triple_arity_checked():
    g = DeductionGraph()
    g.add_node(Node("A", Kind.SHEAF))
    with pytest.raises(GraphError):
        g.add_triple("T", [("A", 0), ("A", 1)])


def test_table_nodes_reject_characters():
    g = DeductionGraph()
    with pytest.raises(GraphError):
        g.add_node(Node("O", Kind.LINE, params=(0,),
                        chern=ChernCharacter.from_classes(2, 0, 1, 0)))


def test_interval_semantics():
    iv = Interval()
    assert not iv.pinned
    assert iv.tighten_lo(2)
    assert iv.tighten_hi(5)
    assert not iv.tighten_hi(9)      # loosening is a no-op
    iv.pin(3)
    assert iv.pinned and iv.value == 3
    with pytest.raises(EmptyInterval):
        iv.tighten_lo(4)
    with pytest.raises(ValueError):
        Interval(lo=-1)

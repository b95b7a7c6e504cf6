"""Interval propagation over long exact sequences.

The scenario used throughout is the restriction sequence of an ideal sheaf,
0 -> I(t) -> O(t) -> O_C(t) -> 0 for C a union of disjoint lines, because the
oracle computes every term independently.
"""

import pytest

from p3bundles.engine import Contradiction, DeductionGraph
from p3bundles.engine.graph import GraphError, Kind, Node
from p3bundles.engine.intervals import EmptyInterval, Interval
from p3bundles.jsonio import content_hash
from p3bundles.monad import MonadSpec, Series, _profile_graph, _summand_configs
from p3bundles.oracle import h0_ideal, ideal_cohomology, sample_ruling


def ideal_graph(k: int, twists, facts=True, seed=0, propagate=True):
    """LES bookkeeping for k disjoint lines, seeded with oracle h0 facts."""
    cfg = sample_ruling(k - 1, seed)
    g = DeductionGraph()
    g.add_node(Node("O", Kind.LINE, params=(0,)))
    g.add_node(Node("C", Kind.LINES, params=(k, 0)))
    g.add_node(Node("I", Kind.SHEAF))
    g.add_triple("T", [("I", 0), ("O", 0), ("C", 0)])
    for t in twists:
        g.materialize("T", t)
    if facts:
        for t in twists:
            g.add_value_fact("ORACLE", "I", t, 0, h0_ideal(cfg, t))
    if propagate:
        g.propagate()
    return g, cfg


def monad_graph():
    """The sigma0 (1, 0, 5) display graph of `monad profile` at twists -8..-1,
    unpropagated, plus both triples at twist 0, where no summand is pinned:
    R5 pins E1(0) and E2(0) from twist -4, and R6 carries them into the sum."""
    spec = MonadSpec.create(Series.SIGMA0, 1, 0, 5)
    g = _profile_graph(spec, range(-8, 0), _summand_configs(spec, 0))
    g.materialize("TK", 0)
    g.materialize("TE", 0)
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
    pytest.param(lambda: ideal_graph(4, range(-2, 7), propagate=False)[0], id="ideal-lines"),
    pytest.param(monad_graph, id="monad-sum-duality"),
])
def test_propagation_order_is_irrelevant(build):
    forward, reverse = build(), build()
    forward.propagate()
    reverse.propagate(order="reverse")
    assert content_hash(forward.table()) == content_hash(reverse.table())
    assert content_hash(forward.table()) != content_hash(build().table())  # rules fired


def test_wrong_fact_contradicts():
    g, cfg = ideal_graph(2, range(0, 4))
    with pytest.raises((Contradiction, EmptyInterval)):
        g.add_value_fact("ASSUMED", "I", 2, 0, h0_ideal(cfg, 2) + 3)
        g.propagate()


def test_explain_names_the_deciding_rule():
    g, _ = ideal_graph(3, range(-1, 5))
    derived = g.explain("I", 1, 1)
    assert derived and "via R" in derived[0]
    asserted = g.explain("I", 1, 0)
    assert asserted and "via fact:ORACLE" in asserted[0]


def test_serre_duality_rule():
    """A rank-2 locally free node pinned at t becomes pinned at -t-4-c1."""
    from p3bundles.chern import rank2_character

    g = DeductionGraph()
    g.add_node(Node("E", Kind.SHEAF, locally_free=True,
                    chern=rank2_character(0, 2)))
    g.ensure_instance("E", -1)
    g.ensure_instance("E", -3)
    for degree, val in enumerate((0, 2, 0, 0)):
        g.add_value_fact("ORACLE", "E", -1, degree, val)
    g.propagate()
    for degree, val in enumerate((0, 0, 2, 0)):
        iv = g.interval("E", -3, degree)
        assert iv.pinned and iv.value == val


def test_sum_node_combines_members():
    from p3bundles.chern import rank2_character

    g = DeductionGraph()
    g.add_node(Node("E1", Kind.SHEAF, locally_free=True, chern=rank2_character(0, 1)))
    g.add_node(Node("E2", Kind.SHEAF, locally_free=True, chern=rank2_character(0, 2)))
    g.add_sum("S", ["E1", "E2"], locally_free=True)
    g.ensure_instance("S", -1)
    for degree, val in enumerate((0, 1, 0, 0)):
        g.add_value_fact("ORACLE", "E1", -1, degree, val)
    for degree, val in enumerate((0, 2, 0, 0)):
        g.add_value_fact("ORACLE", "E2", -1, degree, val)
    g.propagate()
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
    from p3bundles.chern import rank2_character

    g = DeductionGraph()
    with pytest.raises(GraphError):
        g.add_node(Node("O", Kind.LINE, params=(0,), chern=rank2_character(0, 1)))


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

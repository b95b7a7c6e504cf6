"""Interval propagation over long exact sequences.

The scenario used throughout is the restriction sequence of an ideal sheaf,
0 -> I(t) -> O(t) -> O_C(t) -> 0 for C a union of disjoint lines, because the
oracle computes every term independently.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st
from test_golden import SCRIPT_HASHES

from p3bundles import monad as monad_module
from p3bundles.chern import ChernCharacter, NonIntegerChi
from p3bundles.engine import AssertionNotEntailed, Contradiction, DeductionGraph
from p3bundles.engine import script as script_module
from p3bundles.engine.graph import (
    GraphError,
    Kind,
    MAX_ROUNDS,
    Node,
    chi_polynomial,
    twisted_chi,
)
from p3bundles.engine.intervals import EmptyInterval, Interval
from p3bundles.jsonio import content_hash
from p3bundles.monad import MonadSpec, Series, _profile_graph, _summand_configs
from p3bundles.oracle import h0_ideal, ideal_cohomology, sample_ruling


def ideal_graph(k: int, twists, facts=True, seed=0, graph_class=DeductionGraph):
    """LES bookkeeping for k disjoint lines, seeded with oracle h0 facts;
    unpropagated until the first query."""
    cfg = sample_ruling(k - 1, seed)
    g = graph_class()
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


def monad_graph():
    """The sigma0 (1, 0, 5) display graph of `monad profile` at twists -8..-1,
    unpropagated, plus both triples at twist 0, where no summand is pinned:
    R5 pins E1(0) and E2(0) from twist -4, and R6 carries them into the sum."""
    spec = MonadSpec.create(Series.SIGMA0, 1, 0, 5)
    g = _profile_graph(spec, range(-8, 0), _summand_configs(spec, 0))
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


def reverse_creation_order(g: DeductionGraph) -> DeductionGraph:
    """The same graph, with its triple instances and instances (and so the
    walk of `propagate`) in reverse creation order."""
    g.tinsts = dict(reversed(g.tinsts.items()))
    g.instances = dict(reversed(g.instances.items()))
    return g


@pytest.mark.parametrize("build", [
    pytest.param(lambda: ideal_graph(4, range(-2, 7))[0], id="ideal-lines"),
    pytest.param(monad_graph, id="monad-sum-duality"),
])
def test_propagation_order_is_irrelevant(build):
    forward, reverse = build(), reverse_creation_order(build())
    forward.propagate()
    reverse.propagate()
    assert content_hash(forward.table()) == content_hash(reverse.table())
    assert content_hash(forward.table()) != content_hash(build().table())  # rules fired


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


def test_a_later_connecting_fact_reaches_the_segments():
    """An epi fact after a propagation splits the sequence after h0(C) and
    moves no interval, yet R4 must then solve h0(C) = h0(B) - h0(A)."""
    g = sheaf_triple()
    g.add_value_fact("ASSUMED", "A", 0, 0, 1)
    g.add_value_fact("ASSUMED", "B", 0, 0, 3)
    assert not g.interval("C", 0, 0).pinned
    g.add_conn_fact("ASSUMED", "T", 0, 0)
    iv = g.interval("C", 0, 0)
    assert iv.pinned and iv.value == 2


def test_a_later_character_reaches_r1():
    """A character set after a propagation gives an existing instance its chi,
    and R1 then solves h3 = h0 - h1 + h2 - chi."""
    g = sheaf_triple()
    for degree, value in enumerate((2, 0, 0)):
        g.add_value_fact("ASSUMED", "A", 0, degree, value)
    assert not g.interval("A", 0, 3).pinned
    g.set_chern("A", ChernCharacter.from_classes(1, 0, 0, 0))  # chi(A) = 1
    iv = g.interval("A", 0, 3)
    assert iv.pinned and iv.value == 1


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


def test_a_contradiction_leaves_the_graph_off_its_fixpoint():
    """A propagation that raises part way is no fixpoint: the next query
    raises again rather than reading a half-propagated interval."""
    g, _ = ideal_graph(3, range(0, 4))
    g.add_value_fact("ASSUMED", "I", 3, 1, 5)  # h1(I(3)) is 0
    facts = len(g.events)
    with pytest.raises(Contradiction, match="R4 alternating sum in T@3"):
        g.propagate()
    assert len(g.events) > facts  # rules narrowed slots before it raised
    with pytest.raises(Contradiction, match="R4 alternating sum in T@3"):
        g.interval("I", 2, 1)


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
    iv.tighten_lo(3)
    iv.tighten_hi(3)
    assert iv.pinned and iv.value == 3
    with pytest.raises(EmptyInterval):
        iv.tighten_lo(4)
    with pytest.raises(ValueError):
        Interval(lo=-1)


def test_a_node_takes_one_character():
    """A second character would give the instances made before it one chi and
    those made after it another."""
    g = DeductionGraph()
    g.add_node(Node("E", Kind.SHEAF))
    g.set_chern("E", ChernCharacter.from_classes(2, 0, 1, 0))
    g.instance("E", 0)
    with pytest.raises(GraphError, match="node E already has a Chern character"):
        g.set_chern("E", ChernCharacter.from_classes(2, 0, 5, 0))
    assert g.instance("E", 1).chi == ChernCharacter.from_classes(2, 0, 1, 0).twist(1).chi()
    g.add_node(Node("F", Kind.SHEAF, chern=ChernCharacter.from_classes(2, 0, 1, 0)))
    with pytest.raises(GraphError, match="node F already has a Chern character"):
        g.set_chern("F", ChernCharacter.from_classes(2, 0, 1, 0))


classes = st.integers(min_value=-50, max_value=50)


@given(st.integers(min_value=1, max_value=4), classes, classes, classes,
       st.integers(min_value=-40, max_value=40))
def test_chi_polynomial_is_riemann_roch(rank, c1, c2, c3, t):
    ch = ChernCharacter.from_classes(rank, c1, c2, c3)
    assert all(isinstance(c, int) for c in chi_polynomial(ch))
    try:
        expected = ch.twist(t).chi()
    except NonIntegerChi:
        with pytest.raises(NonIntegerChi):
            twisted_chi(chi_polynomial(ch), t, "F")
    else:
        assert twisted_chi(chi_polynomial(ch), t, "F") == expected


class LoggedGraph(DeductionGraph):
    """The engine's dirty-flag scan, logging the key of every rule body it
    calls."""

    def __init__(self) -> None:
        super().__init__()
        self.fired: list[tuple] = []

    def _fire(self, rule) -> None:
        self.fired.append(rule.key)
        super()._fire(rule)


class NoSkipGraph(LoggedGraph):
    """Runs every rule body in every round: the reference the flag scan must
    match.  Each rule stays dirty after its call, so it runs again next round."""

    def _fire(self, rule) -> None:
        super()._fire(rule)
        self._mark((rule,))


class StaleScanGraph(LoggedGraph):
    """The stamp scan the dirty flags replaced: every round walks every rule
    instance in order and calls it when one of its inputs carries a stamp
    newer than the start of its last call that returned."""

    def __init__(self) -> None:
        super().__init__()
        self.ran: dict[tuple, int] = {}

    def propagate(self) -> None:
        rules = {rule.key: rule for rule in self._layout()[0]}
        early, late = [], []
        for ti in self.tinsts.values():
            early += [("additivity", ti.name), ("connecting", ti.name)]
            late += [("segments", ti.name), ("monotone", ti.name)]
        late += [("chi", key) for key in self.instances]
        late += [("duality", pair[0].key) for pair in self._duality_pairs()]
        late += [("sum", group[0].key) for group in self._sum_groups()]
        for _ in range(MAX_ROUNDS):
            start = self._changes
            self._scan([rules[key] for key in early])
            self._rule_implications()
            self._scan([rules[key] for key in late])
            if self._changes == start:
                self._fixpoint = start
                return
        raise AssertionError("propagation did not stabilize")

    def _scan(self, rules) -> None:
        for rule in rules:
            last = self.ran.get(rule.key, -1)
            if any(x.stamp > last for x in (*rule.insts, *rule.tinsts)):
                begun = self._changes
                self._fire(rule)
                self.ran[rule.key] = begun


def replay(monkeypatch, graph_class, name, params, seed):
    """A bundled script on a graph of `graph_class`: the runner's graph and
    the hash of its report (partial, if an assert is not entailed)."""
    monkeypatch.setattr(script_module, "DeductionGraph", graph_class)
    runner = script_module.ScriptRunner(
        name, script_module.load_bundled_script(name), dict(params), seed)
    try:
        report = runner.run()
    except AssertionNotEntailed as exc:
        report = exc.report
    return runner.graph, content_hash(report.to_dict())


GOLDEN_CASES = sorted(SCRIPT_HASHES)


def case_id(case) -> str:
    return f"{case[0]}-{'-'.join(str(v) for _, v in case[1])}-s{case[2]}"


@pytest.mark.parametrize("case", GOLDEN_CASES, ids=case_id)
def test_skipping_unmoved_rules_is_hash_neutral(monkeypatch, case):
    skipping, skipping_hash = replay(monkeypatch, DeductionGraph, *case)
    every, every_hash = replay(monkeypatch, NoSkipGraph, *case)
    assert skipping_hash == every_hash == SCRIPT_HASHES[case]
    assert skipping.events == every.events
    assert skipping.table() == every.table()
    assert ({name: ti.conn_origin for name, ti in skipping.tinsts.items()}
            == {name: ti.conn_origin for name, ti in every.tinsts.items()})
    assert 0 < skipping.rule_calls < every.rule_calls


def test_skipping_halves_the_rule_bodies_over_the_golden_corpus(monkeypatch):
    calls = {DeductionGraph: 0, NoSkipGraph: 0}
    for case in SCRIPT_HASHES:
        for graph_class in calls:
            calls[graph_class] += replay(monkeypatch, graph_class, *case)[0].rule_calls
    assert 2 * calls[DeductionGraph] <= calls[NoSkipGraph]


def assert_same_calls(worklist: LoggedGraph, scan: StaleScanGraph) -> None:
    assert worklist.fired == scan.fired
    assert worklist.rule_calls == scan.rule_calls == len(scan.fired) > 0
    assert worklist.events == scan.events
    assert worklist.table() == scan.table()


@pytest.mark.parametrize("case", GOLDEN_CASES + [
    ("thmB-chain", (("m", 3), ("eps", 0), ("a", 9)), 0),
], ids=case_id)
def test_the_worklist_calls_the_bodies_the_stale_scan_calls(monkeypatch, case):
    worklist, worklist_hash = replay(monkeypatch, LoggedGraph, *case)
    scan, scan_hash = replay(monkeypatch, StaleScanGraph, *case)
    assert worklist_hash == scan_hash
    assert_same_calls(worklist, scan)


def test_the_worklist_matches_the_stale_scan_on_sums_and_duality(monkeypatch):
    """R5 and R6 rules, with a triple instance and a fact added after the
    first propagation."""
    graphs = []
    for graph_class in (LoggedGraph, StaleScanGraph):
        monkeypatch.setattr(monad_module, "DeductionGraph", graph_class)
        g = monad_graph()
        g.interval("F", -1, 1)
        g.materialize("TK", 1)
        g.add_value_fact("ASSUMED", "K", 1, 0, 0)
        g.interval("F", 1, 1)
        graphs.append(g)
    worklist, scan = graphs
    assert {key[0] for key in worklist.fired} >= {"duality", "sum"}
    assert_same_calls(worklist, scan)


def ideal_contradiction(graph_class):
    """The contradiction of `test_a_contradiction_leaves_the_graph_off_its_fixpoint`,
    and the query that meets it again."""
    g, _ = ideal_graph(3, range(0, 4), graph_class=graph_class)
    g.add_value_fact("ASSUMED", "I", 3, 1, 5)  # h1(I(3)) is 0
    return g, ("I", 2, 1)


def duality_contradiction(graph_class):
    """R5 narrows E(-4) from E(0), which marks E(-4)'s R1 after the scan has
    passed it; then R5 meets h0(E(-1)) = 0 against h3(E(-3)) = 1."""
    g = graph_class()
    g.add_node(Node("E", Kind.SHEAF, locally_free=True,
                    chern=ChernCharacter.from_classes(2, 0, 2, 0)))
    for t in (-4, -3, -1, 0):
        g.instance("E", t)
    g.add_value_fact("ASSUMED", "E", 0, 1, 3)
    g.add_value_fact("ASSUMED", "E", -1, 0, 0)
    g.add_value_fact("ASSUMED", "E", -3, 3, 1)
    return g, ("E", 0, 2)


@pytest.mark.parametrize("scenario", [ideal_contradiction, duality_contradiction],
                         ids=lambda scenario: scenario.__name__)
def test_the_worklist_matches_the_stale_scan_across_a_contradiction(scenario):
    """A propagation that raises part way, then a query that raises again:
    the rules the aborted round left dirty are the ones the stamps call."""
    graphs = []
    for graph_class in (LoggedGraph, StaleScanGraph):
        g, query = scenario(graph_class)
        with pytest.raises(Contradiction):
            g.propagate()
        raised = len(g.fired)
        with pytest.raises(Contradiction):
            g.interval(*query)
        assert len(g.fired) > raised
        graphs.append(g)
    assert_same_calls(*graphs)

"""Interval-propagation engine over twisted long exact sequences.

The graph holds sheaf nodes, short exact triples between their twists, and
direct-sum relations.  Materializing a triple at an ambient twist t creates
the twelve-slot long exact sequence

    0 -> h0(A) -> h0(B) -> h0(C) -> h1(A) -> ... -> h3(C) -> 0

and the rule set then shrinks the dimension intervals monotonically:

  R1  Euler characteristic: chi pins the fourth value once three are known,
      and chi-additivity across a triple solves or cross-checks instance chi.
  R2  exactness bound: each term is at most the sum of its two neighbours
      inside an exact run (boundaries count as zero).
  R3  H0(A) -> H0(B) injects and H3(B) -> H3(C) surjects, so h0(B) >= h0(A)
      and h3(B) >= h3(C).  The upper bounds h(B) <= h(A) + h(C),
      h0(A) <= h0(B) and h3(C) <= h3(B) are R2's at the same slots.
  R4  alternating sums over maximal exact runs are zero.  R1 and R4 share one
      solver: it solves a single unknown, or verifies when fully pinned;
      negative solutions are contradictions.
  R5  Serre duality h^i(F(t)) = h^{3-i}(F(-t - 4 - c1)) for rank-2 locally
      free nodes, applied whenever both twists exist.
  R6  direct sums: interval arithmetic between a sum node and its members.
  R7  h^{i+1}(A) = 0 makes the connecting map out of h^i(C) zero, splitting
      the sequence (for i = 0 this is surjectivity of H0(B) -> H0(C)).
  R8  nine-term commutative diagrams: if the three known H0 arrows of a
      3 x 3 restriction diagram are surjective, so is the middle one; and
      surjections compose.

Exact runs are delimited by pinned zero slots, by zero connecting maps,
and by the two ends of the sequence.  A contradiction anywhere raises;
nothing is ever reported as both proved and failed.

The graph settles itself: one counter is bumped by every write that could
let a rule fire (a narrowing, a rule setting chi or a connecting map, and
each declaration), and the query `instance` propagates first when it has
moved since `propagate` last finished cleanly.

Rule bodies run when they are dirty.  A rule instance is one body applied to
one object: chi-additivity, R7, R2/R4 segments and R3 per triple instance,
R1 per instance, R5 per dual pair and R6 per sum group (the R8 implications
run every round).  Its inputs are every instance it reads or narrows, plus
the triple instance itself for R7 and the segments.  Each input keeps the
list of rule instances that read it, and every write to it sets their dirty
flags: an instance when a narrowing shrinks it and when its chi is set, a
triple instance when a connecting map is killed.  A new rule instance starts
dirty.  Each round of `propagate` scans the fixed order: early rules
(chi-additivity and R7 per triple instance), R8, then late rules (segments
and R3 per triple instance, R1, R5, R6), and calls each rule whose flag is
set, clearing it first.  So a rule marked after the scan has passed it waits
for the next round, and one marked ahead of the scan runs in this one.
Rounds repeat until one writes nothing.  Thus exactly the bodies whose
inputs moved since their last call began are called, in the order of calling
every body every round, and the events, `explain()` chains and reports are
those of that walk: a body reads and writes only its inputs, so unmoved
inputs mean the last call found them as they are now and narrowed nothing.
A body that raises records nothing and stays dirty, and so do the rules the
scan had not reached, so the next propagation meets the contradiction again.
Each write also stamps what it wrote with the counter's new value.
A node's character is set once.  Its chi enters as the integer cubic
6 chi(F(t)) of Riemann-Roch, built when the node gets the character and
evaluated at each new instance's twist.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterable, Optional

from p3bundles.chern import ChernCharacter, NonIntegerChi
from p3bundles.engine.intervals import EmptyInterval, Interval
from p3bundles.tables import (
    CohomologyVector,
    h_disjoint_conics,
    h_disjoint_lines,
    h_p3_line_bundle,
    h_points,
    h_quadric,
)

MAX_ROUNDS = 10000
EXPLAIN_MAX_LINES = 40  # a derivation chain is cut after this many slots


class EngineError(Exception):
    pass


class GraphError(EngineError):
    """Malformed declaration (unknown node, corner mismatch, bad arity)."""


class Contradiction(EngineError):
    """The constraint system became unsatisfiable; derivations are unsound or
    a declared fact is wrong."""


class Kind(Enum):
    LINE = "line"
    QUADRIC = "quadric"
    LINES = "lines"
    CONICS = "conics"
    POINTS = "points"
    SHEAF = "sheaf"


@dataclass(frozen=True)
class Table:
    """Closed-form shape: label format, which params move with the twist,
    and the cohomology vector of the twisted params."""

    label: str
    moves: tuple[bool, ...]
    vector: Callable[..., CohomologyVector]


TABLES = {
    Kind.LINE: Table("O({})", (True,), h_p3_line_bundle),
    Kind.QUADRIC: Table("O_S({},{})", (True, True), h_quadric),
    Kind.LINES: Table("O_lines[{}]({})", (False, True), h_disjoint_lines),
    Kind.CONICS: Table("O_conics[{}]({})", (False, True), h_disjoint_conics),
    Kind.POINTS: Table("O_points[{}]", (False,), h_points),
}


@dataclass
class Node:
    name: str
    kind: Kind
    params: tuple[int, ...] = ()
    locally_free: bool = False
    support_dim: int = 3
    chern: Optional[ChernCharacter] = None
    table: Optional[Table] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.table = TABLES.get(self.kind)


def instance_key(node: Node, t: int) -> tuple:
    """(kind, twisted params) for table shapes, (name, t) for sheaves."""
    table = node.table
    if table is None:
        return (node.name, t)
    return (node.kind, *(p + t if mv else p for p, mv in zip(node.params, table.moves)))


def key_label(key: tuple) -> str:
    if isinstance(key[0], Kind):
        return TABLES[key[0]].label.format(*key[1:])
    return f"{key[0]}({key[1]:+d})" if key[1] else f"{key[0]}"


@lru_cache(maxsize=256)
def chi_polynomial(ch: ChernCharacter) -> tuple:
    """Coefficients (of t^3, t^2, t, 1) of 6 chi(F(t)) on P^3, by Riemann-Roch:
    r t^3 + (3 c1 + 6r) t^2 + (6 ch2 + 12 c1 + 11r) t + (6 ch3 + 12 ch2 + 11 c1 + 6r)
    with c1 = ch1.  They are integers whenever the Chern classes are."""
    r, c1, ch2, ch3 = ch.rank, ch.ch1, ch.ch2, ch.ch3
    coeffs = (r, 3 * c1 + 6 * r, 6 * ch2 + 12 * c1 + 11 * r,
              6 * ch3 + 12 * ch2 + 11 * c1 + 6 * r)
    return tuple(int(c) if c.denominator == 1 else c for c in coeffs)


def twisted_chi(poly: tuple, t: int, label: str) -> int:
    """chi(F(t)) from F's `chi_polynomial`; NonIntegerChi unless 6 divides it."""
    a, b, c, d = poly
    six_chi = ((a * t + b) * t + c) * t + d
    if six_chi % 6:
        raise NonIntegerChi(f"chi({label}) = {Fraction(six_chi, 6)} is not an integer")
    return six_chi // 6


@dataclass(eq=False)
class Instance:
    key: tuple
    node_name: str
    twist: int
    h: list[Interval]
    chi: Optional[int] = None
    chi_origin: str = ""
    stamp: int = 0  # the change count at its last write (creation, narrowing, chi)
    label: str = field(init=False)
    readers: list[int] = field(default_factory=list, repr=False)  # ids of rules reading it
    chi_rule: int = field(default=-1, repr=False)  # id of its R1

    def __post_init__(self) -> None:
        self.label = key_label(self.key)


@dataclass(eq=False)
class TripleInstance:
    """A short exact triple A -> B -> C at one twist.  `slots` lists the
    twelve terms (instance, degree, interval) of its long exact sequence in order;
    `conn_origin` maps i to why the connecting map out of h^i(C) is zero, and
    `stamp` is the change count when it last gained an entry."""

    name: str
    parts: tuple[Instance, Instance, Instance]
    conn_origin: dict[int, str] = field(default_factory=dict)
    stamp: int = 0
    slots: tuple[tuple[Instance, int, Interval], ...] = field(init=False, repr=False)
    readers: list[int] = field(default_factory=list, repr=False)  # ids of rules reading it
    # ids of its chi-additivity, R7, segments and R3
    rules: tuple[int, ...] = field(default=(), repr=False)

    def __post_init__(self) -> None:
        self.slots = tuple((inst, deg, inst.h[deg]) for deg in range(4) for inst in self.parts)

    @property
    def keys(self) -> tuple[tuple, tuple, tuple]:
        return tuple(inst.key for inst in self.parts)


class Rule:
    """One rule body applied to one object: `body(graph, arg)` reads and
    narrows only `insts` and `tinsts`; `dirty` is set when one of them moved
    since its last call began.  Instances name their readers by rule id, so
    a finished graph holds no reference cycle and is freed as soon as it is
    dropped."""

    __slots__ = ("key", "body", "arg", "insts", "tinsts", "dirty")

    def __init__(self, key: tuple, body: Callable, arg, insts: tuple, tinsts: tuple):
        self.key, self.body, self.arg = key, body, arg
        self.insts, self.tinsts = insts, tinsts
        self.dirty = True


def _tightens(iv: Interval, lo: int, hi: Optional[int]) -> bool:
    """Whether intersecting iv with [lo, hi] changes it (or empties it)."""
    return lo > iv.lo or (hi is not None and (iv.hi is None or hi < iv.hi))


class DeductionGraph:
    def __init__(self) -> None:
        self.nodes: dict[str, Node] = {}
        self.sums: dict[str, list[str]] = {}
        self.triples: dict[str, list[tuple[str, int]]] = {}
        self.instances: dict[tuple, Instance] = {}  # in creation order
        self.tinsts: dict[tuple[str, int], TripleInstance] = {}
        # R8: (conclusion, premises, origin); the conclusion triple's H0 map
        # is surjective once every premise triple's is
        self.implications: list[tuple[TripleInstance, tuple[TripleInstance, ...], str]] = []
        # latest derivation of each slot: (rule, source slots)
        self.events: dict[tuple, tuple[str, list[tuple]]] = {}
        self._changes = 0  # bumped by every write that could let a rule fire
        self._fixpoint = 0  # _changes when propagate last finished cleanly
        self._chi_polys: dict[str, tuple] = {}  # node name -> chi_polynomial
        self._rules: list[Rule] = []  # every rule instance, by id
        self._found_ids: dict[tuple, int] = {}  # R5 and R6 rule ids, by key
        # the rule instances in propagation order and the number of early
        # ones; None once an instance, triple instance or character is added
        self._order: Optional[tuple[list[Rule], int]] = None
        self.rule_calls = 0  # rule-instance bodies run, clean ones not counted

    # -- declarations --------------------------------------------------

    def add_node(self, node: Node) -> None:
        if node.name in self.nodes:
            raise GraphError(f"node {node.name} already declared")
        if node.kind in TABLES and node.chern is not None:
            raise GraphError("table nodes carry closed-form data, not characters")
        self.nodes[node.name] = node
        if node.chern is not None:
            self._chi_polys[node.name] = chi_polynomial(node.chern)

    def set_chern(self, name: str, ch: ChernCharacter) -> None:
        """Give a node its character, once: instances made before and after it
        must agree on chi."""
        node = self._node(name)
        if node.kind in TABLES:
            raise GraphError(f"{name}: table nodes do not take characters")
        if node.chern is not None:
            raise GraphError(f"node {name} already has a Chern character")
        node.chern = ch
        poly = self._chi_polys[name] = chi_polynomial(ch)
        self._changes += 1
        self._order = None  # the node's instances may now have Serre partners
        # retrofit chi on existing instances of this node
        for inst in self.instances.values():
            if inst.node_name == name and inst.chi is None:
                inst.chi = twisted_chi(poly, inst.twist, inst.label)
                inst.chi_origin = "character"
                self._wrote(inst)

    def add_sum(self, name: str, members: list[str], locally_free: bool = False) -> None:
        for m in members:
            self._node(m)
        chern = None
        if all(self.nodes[m].chern is not None for m in members):
            chern = self.nodes[members[0]].chern
            for m in members[1:]:
                chern = chern + self.nodes[m].chern
        self.add_node(Node(name, Kind.SHEAF, locally_free=locally_free, chern=chern))
        self.sums[name] = list(members)

    def add_triple(self, name: str, slots: list[tuple[str, int]]) -> None:
        if name in self.triples:
            raise GraphError(f"triple {name} already declared")
        if len(slots) != 3:
            raise GraphError("a short exact triple has exactly three slots")
        for node_name, _ in slots:
            self._node(node_name)
        self.triples[name] = list(slots)

    def materialize(self, name: str, t: int) -> TripleInstance:
        if name not in self.triples:
            raise GraphError(f"unknown triple {name}")
        if (name, t) not in self.tinsts:
            parts = tuple(self._instance(self._node(node_name), off + t)
                          for node_name, off in self.triples[name])
            ti = self.tinsts[(name, t)] = TripleInstance(f"{name}@{t}", parts,
                                                         stamp=self._bump())
            rule, cls = self._rule, type(self)
            ti.rules = (rule(("additivity", ti.name), cls._rule_chi_additivity, ti, parts),
                        rule(("connecting", ti.name), cls._rule_connecting, ti, parts[:1], (ti,)),
                        rule(("segments", ti.name), cls._rule_segments, ti, parts, (ti,)),
                        rule(("monotone", ti.name), cls._rule_monotone, ti, parts))
            self._order = None
        return self.tinsts[(name, t)]

    def add_diagram(self, domain_row, codomain_row, col_a, col_b, col_c) -> None:
        dom = self._tinst(domain_row)
        cod = self._tinst(codomain_row)
        cols = [self._tinst(col_a), self._tinst(col_b), self._tinst(col_c)]
        for pos, col in enumerate(cols):
            if col.keys[1] != dom.keys[pos]:
                raise GraphError(
                    f"diagram corner mismatch: column {pos} middle term "
                    f"{key_label(col.keys[1])} != domain-row term {key_label(dom.keys[pos])}")
            if col.keys[2] != cod.keys[pos]:
                raise GraphError(
                    f"diagram corner mismatch: column {pos} quotient "
                    f"{key_label(col.keys[2])} != codomain-row term {key_label(cod.keys[pos])}")
        self._changes += 1
        self.implications.append((
            cols[1], (dom, cols[0], cols[2]),
            f"R8: diagram chase with H0-epi columns {cols[0].name}, {cols[2].name} "
            f"and split domain row {dom.name}"))

    def add_composition(self, out, first, second) -> None:
        t_out, t_first, t_second = self._tinst(out), self._tinst(first), self._tinst(second)
        if t_first.keys[1] != t_out.keys[1]:
            raise GraphError("composition: first factor must share the source term")
        if t_first.keys[2] != t_second.keys[1]:
            raise GraphError("composition: factors do not chain")
        if t_second.keys[2] != t_out.keys[2]:
            raise GraphError("composition: second factor must share the target term")
        self._changes += 1
        self.implications.append((
            t_out, (t_first, t_second),
            f"R8: composite of H0-surjections {t_first.name} then {t_second.name}"))

    # -- facts -----------------------------------------------------------

    def add_value_fact(self, tag: str, node_name: str, t: int, degree: int, value: int) -> None:
        inst = self._instance(self._node(node_name), t)
        self._narrow(inst, degree, value, value, lambda: (f"fact:{tag}", []))

    def add_conn_fact(self, tag: str, tname: str, t: int, i: int) -> None:
        """Kill the connecting map out of h^i; i = 0 is H0 surjectivity (epi)."""
        if i not in (0, 1, 2):
            raise GraphError("connecting maps are indexed 0..2")
        self._kill(self._tinst((tname, t)), i, f"fact:{tag}")

    # -- queries -----------------------------------------------------------

    def instance(self, node_name: str, t: int) -> Instance:
        """The instance of a node at twist t, created if missing, at the
        rules' fixpoint: the graph propagates first if it is off it."""
        inst = self._instance(self._node(node_name), t)
        if self._changes != self._fixpoint:
            self.propagate()
        return inst

    def interval(self, node_name: str, t: int, degree: int) -> Interval:
        return self.instance(node_name, t).h[degree]

    def explain(self, node_name: str, t: int, degree: int) -> list[str]:
        """Flattened derivation chain for one slot, most recent rule first."""
        node = self._node(node_name)
        start = (instance_key(node, t), degree)
        out: list[str] = []
        seen: set[tuple] = set()
        stack = [start]
        while stack and len(out) < EXPLAIN_MAX_LINES:
            slot = stack.pop()
            if slot in seen:
                continue
            seen.add(slot)
            ev = self.events.get(slot)
            if ev is None:
                continue
            rule, sources = ev
            key, deg = slot
            inst = self.instances[key]
            out.append(f"h{deg}({inst.label}) {inst.h[deg]!r} via {rule}")
            stack.extend(sources)
        return out

    # -- propagation -------------------------------------------------------

    def propagate(self) -> None:
        order, split = self._layout()
        early, late = order[:split], order[split:]
        for _ in range(MAX_ROUNDS):
            start = self._changes
            self._settle(early)
            self._rule_implications()
            self._settle(late)
            if self._changes == start:
                self._fixpoint = start
                return
        raise EngineError("propagation did not stabilize")

    def _settle(self, rules: list[Rule]) -> None:
        """Call the dirty rules in order, each with its flag cleared; a rule
        that raises is dirty again."""
        for rule in rules:
            if rule.dirty:
                rule.dirty = False
                try:
                    self._fire(rule)
                except BaseException:
                    rule.dirty = True
                    raise

    def _fire(self, rule: Rule) -> None:
        self.rule_calls += 1
        rule.body(self, rule.arg)

    def _mark(self, rules: Iterable[Rule]) -> None:
        """Mark rules dirty: this round if the scan has not reached them yet,
        else the next."""
        for rule in rules:
            rule.dirty = True

    def _layout(self) -> tuple[list[Rule], int]:
        """The rule instances in propagation order, and how many are early.
        Propagation creates no instance and changes no character, so this is
        resolved again only after a declaration that does."""
        if self._order is None:
            cls = type(self)
            early = [i for ti in self.tinsts.values() for i in ti.rules[:2]]
            late = [i for ti in self.tinsts.values() for i in ti.rules[2:]]
            late += [inst.chi_rule for inst in self.instances.values()]
            for pair in self._duality_pairs():
                late.append(self._found(("duality", pair[0].key), cls._rule_duality, pair, pair))
            for group in self._sum_groups():
                late.append(self._found(("sum", group[0].key), cls._rule_sum, group,
                                        (group[0], *group[1])))
            self._order = ([self._rules[i] for i in early + late], len(early))
        return self._order

    def _rule(self, key: tuple, body: Callable, arg, insts: tuple, tinsts: tuple = ()) -> int:
        """The id of a new rule instance: dirty, and among the readers of its inputs."""
        rule_id = len(self._rules)
        rule = Rule(key, body, arg, insts, tinsts)
        self._rules.append(rule)
        for read in insts:
            read.readers.append(rule_id)
        for read in tinsts:
            read.readers.append(rule_id)
        return rule_id

    def _found(self, key: tuple, body: Callable, arg, insts: tuple) -> int:
        """The id of the rule instance of a dual pair or sum group, made when first found."""
        rule_id = self._found_ids.get(key)
        if rule_id is None:
            rule_id = self._found_ids[key] = self._rule(key, body, arg, insts)
        return rule_id

    def _duality_pairs(self) -> list[tuple[Instance, Instance]]:
        """R5 partners (F(t), F(-t-4-c1)) of rank-2 locally free nodes, by node
        name, then twist, with the partner twist >= t."""
        by_node: dict[str, dict[int, Instance]] = {}
        for inst in self.instances.values():
            node = self.nodes[inst.node_name]
            if node.locally_free and node.chern is not None and node.chern.rank == 2:
                by_node.setdefault(node.name, {})[inst.twist] = inst
        pairs = []
        for name in sorted(by_node):
            c1 = int(self.nodes[name].chern.ch1)
            twists = by_node[name]
            for t in sorted(twists):
                td = -t - 4 - c1
                if td >= t and td in twists:
                    pairs.append((twists[t], twists[td]))
        return pairs

    def _sum_groups(self) -> list[tuple[Instance, list[Instance], str]]:
        """R6 (total, member instances, rule) by sum name, then creation order."""
        groups = []
        for name in sorted(self.sums):
            members = [self.nodes[m] for m in self.sums[name]]
            rule = f"R6 direct sum {name} = {' + '.join(self.sums[name])}"
            for total in self.instances.values():
                if total.node_name == name:
                    parts = [self.instances[instance_key(m, total.twist)] for m in members]
                    groups.append((total, parts, rule))
        return groups

    # -- rule bodies ---------------------------------------------------

    def _rule_chi_additivity(self, ti: TripleInstance) -> None:
        """chi(A) - chi(B) + chi(C) = 0: verify it when all three are known,
        solve it when exactly one is missing."""
        signs = (1, -1, 1)
        known = [x.chi for x in ti.parts]
        missing = [i for i, v in enumerate(known) if v is None]
        if len(missing) > 1:
            return
        rest = sum(sign * v for sign, v in zip(signs, known) if v is not None)
        if not missing:
            if rest != 0:
                a, b, c = ti.parts
                raise Contradiction(
                    f"{ti.name}: chi additivity fails: "
                    f"chi({a.label})={known[0]}, chi({b.label})={known[1]}, chi({c.label})={known[2]}")
            return
        inst = ti.parts[missing[0]]
        inst.chi = -rest * signs[missing[0]]
        inst.chi_origin = f"chi-additivity through {ti.name}"
        self._wrote(inst)

    def _rule_connecting(self, ti: TripleInstance) -> None:
        a = ti.parts[0]
        for i in (0, 1, 2):
            if a.h[i + 1].hi == 0 and i not in ti.conn_origin:
                self._kill(ti, i, f"R7: h{i+1}({a.label}) = 0")

    def _rule_implications(self) -> None:
        for out, premises, origin in self.implications:
            if 0 not in out.conn_origin and all(0 in p.conn_origin for p in premises):
                self._kill(out, 0, origin)

    def _segments(self, ti: TripleInstance) -> list[list[tuple[Instance, int, Interval]]]:
        """Maximal exact runs of LES slots, zero slots excluded."""
        splits_after = {3 * i + 2 for i in ti.conn_origin}  # conn_i kills delta_i
        segments: list[list[tuple[Instance, int, Interval]]] = []
        current: list[tuple[Instance, int, Interval]] = []
        for idx, slot in enumerate(ti.slots):
            if slot[2].hi == 0:
                if current:
                    segments.append(current)
                current = []
            else:
                current.append(slot)
            if idx in splits_after and current:
                segments.append(current)
                current = []
        if current:
            segments.append(current)
        return segments

    def _rule_segments(self, ti: TripleInstance) -> None:
        for run in self._segments(ti):
            # R2: term <= left + right within the run, boundaries are zero
            last = len(run) - 1
            for pos, (inst, deg, iv) in enumerate(run):
                left = run[pos - 1][2].hi if pos else 0
                right = run[pos + 1][2].hi if pos < last else 0
                if left is None or right is None:
                    continue
                if iv.hi is None or left + right < iv.hi:
                    neighbours = run[max(pos - 1, 0):pos] + run[pos + 1:pos + 2]
                    self._narrow(inst, deg, 0, left + right, lambda: (
                        f"R2 exactness bound in {ti.name}",
                        [(n.key, d) for n, d, _ in neighbours]))
            self._solve_alternating(run, 0, lambda: f"R4 alternating sum in {ti.name}")

    def _rule_monotone(self, ti: TripleInstance) -> None:
        a, b, c = ti.parts
        if a.h[0].lo > b.h[0].lo:
            self._narrow(b, 0, a.h[0].lo, None,
                         lambda: (f"R3 h0 injects in {ti.name}", [(a.key, 0)]))
        if c.h[3].lo > b.h[3].lo:
            self._narrow(b, 3, c.h[3].lo, None,
                         lambda: (f"R3 h3 surjects in {ti.name}", [(c.key, 3)]))

    def _rule_chi(self, inst: Instance) -> None:
        if inst.chi is not None:
            self._solve_alternating(
                [(inst, deg, iv) for deg, iv in enumerate(inst.h)], inst.chi,
                lambda: f"R1 chi solve (chi = {inst.chi}, {inst.chi_origin})")

    def _solve_alternating(self, slots: list[tuple[Instance, int, Interval]], total: int,
                           rule: Callable[[], str]) -> None:
        """h(slot 0) - h(slot 1) + h(slot 2) - ... = total: verify it when every
        slot (instance, degree, interval) is pinned, solve it when exactly one
        is not.  `rule()` names it."""
        unknown, rest, sign = -1, 0, 1
        for pos, (_, _, iv) in enumerate(slots):
            if iv.lo == iv.hi:
                rest += sign * iv.lo
            elif unknown >= 0:
                return
            else:
                unknown = pos
            sign = -sign
        if unknown < 0:
            if rest != total:
                terms = ", ".join(f"h{deg}({inst.label})" for inst, deg, _ in slots)
                raise Contradiction(
                    f"{rule()}: pinned values {[iv.value for _, _, iv in slots]} of "
                    f"{terms} have alternating sum {rest}, expected {total}")
            return
        target, degree, _ = slots[unknown]
        value = (total - rest) * (-1) ** unknown
        if value < 0:
            raise Contradiction(f"{rule()} gives h{degree}({target.label}) = {value} < 0")
        self._narrow(target, degree, value, value, lambda: (
            rule(), [(inst.key, deg) for p, (inst, deg, _) in enumerate(slots) if p != unknown]))

    def _rule_duality(self, pair: tuple[Instance, Instance]) -> None:
        left, right = pair

        def rule(i: int) -> str:
            return f"R5 Serre duality h{i}({left.label}) = h{3-i}({right.label})"

        for i in range(4):
            li, ri = left.h[i], right.h[3 - i]
            if _tightens(li, ri.lo, ri.hi):
                self._narrow(left, i, ri.lo, ri.hi, lambda: (rule(i), [(right.key, 3 - i)]))
            if _tightens(ri, li.lo, li.hi):
                self._narrow(right, 3 - i, li.lo, li.hi, lambda: (rule(i), [(left.key, i)]))

    def _rule_sum(self, group: tuple[Instance, list[Instance], str]) -> None:
        total, parts, rule = group

        def member(part: Instance, deg: int) -> tuple[str, list[tuple]]:
            """A member's bound comes from the total and the other members."""
            return rule, [(total.key, deg)] + [(p.key, deg) for p in parts if p is not part]

        for deg in range(4):
            whole, ivs = total.h[deg], [p.h[deg] for p in parts]
            lo_sum = sum(iv.lo for iv in ivs)
            his = [iv.hi for iv in ivs]
            hi_sum = sum(his) if None not in his else None
            if _tightens(whole, lo_sum, hi_sum):
                self._narrow(total, deg, lo_sum, hi_sum,
                             lambda: (rule, [(p.key, deg) for p in parts]))
            for j, (part, iv) in enumerate(zip(parts, ivs)):
                others_lo = lo_sum - iv.lo
                if whole.hi is not None and _tightens(iv, 0, whole.hi - others_lo):
                    self._narrow(part, deg, 0, whole.hi - others_lo, lambda: member(part, deg))
                others_hi = [other.hi for i2, other in enumerate(ivs) if i2 != j]
                if None not in others_hi and whole.lo - sum(others_hi) > iv.lo:
                    self._narrow(part, deg, whole.lo - sum(others_hi), None,
                                 lambda: member(part, deg))

    # -- internals -------------------------------------------------------

    def _node(self, name: str) -> Node:
        if name not in self.nodes:
            raise GraphError(f"unknown node {name}")
        return self.nodes[name]

    def _tinst(self, ref: tuple[str, int]) -> TripleInstance:
        if tuple(ref) not in self.tinsts:
            raise GraphError(f"triple {ref[0]} not materialized at twist {ref[1]}")
        return self.tinsts[tuple(ref)]

    def _instance(self, node: Node, t: int) -> Instance:
        key = instance_key(node, t)
        if key in self.instances:
            return self.instances[key]
        if node.table is not None:
            vec = node.table.vector(*key[1:])
            h = [Interval(v, v) for v in vec]
            inst = Instance(key, node.name, t, h, vec.chi(), "closed form")
        else:
            h = [Interval() for _ in range(4)]
            if node.support_dim <= 1:
                h[2] = Interval(0, 0)
                h[3] = Interval(0, 0)
            if node.support_dim == 0:
                h[1] = Interval(0, 0)
            inst = Instance(key, node.name, t, h)
            if node.chern is not None:
                inst.chi = twisted_chi(self._chi_polys[node.name], t, inst.label)
                inst.chi_origin = "character"
        self.instances[key] = inst
        inst.stamp = self._bump()
        inst.chi_rule = self._rule(("chi", key), type(self)._rule_chi, inst, (inst,))
        self._order = None
        # creating a member instance of a sum keeps R6 complete
        if node.name in self.sums:
            for m in self.sums[node.name]:
                self._instance(self._node(m), t)
        return inst

    def _narrow(self, inst: Instance, degree: int, lo: int, hi: Optional[int],
                why: Callable[[], tuple[str, list[tuple]]]) -> None:
        """Intersect h^degree(inst) with [lo, hi] (hi None: no upper bound),
        lo first.  If it shrank, record one event (rule, source slots) = why()
        and mark the instance written."""
        iv = inst.h[degree]
        if not _tightens(iv, lo, hi):
            return
        try:
            iv.tighten_lo(lo)
            if hi is not None:
                iv.tighten_hi(hi)
        except EmptyInterval as exc:
            raise Contradiction(
                f"h{degree}({inst.label}) in [{lo}, {'inf' if hi is None else hi}] "
                f"from {why()[0]} contradicts the established range ({exc})") from exc
        self.events[(inst.key, degree)] = why()
        self._wrote(inst)

    def _kill(self, ti: TripleInstance, i: int, origin: str) -> None:
        """The connecting map out of h^i(C) is zero (the first origin stays);
        a write to ti either way."""
        ti.conn_origin.setdefault(i, origin)
        self._wrote(ti)

    def _wrote(self, obj: Instance | TripleInstance) -> None:
        """Stamp a written instance or triple instance and mark its readers dirty."""
        self._changes += 1
        obj.stamp = self._changes
        self._mark(map(self._rules.__getitem__, obj.readers))

    def _bump(self) -> int:
        """Count one write that could let a rule fire; the count stamps it."""
        self._changes += 1
        return self._changes

    # -- reporting --------------------------------------------------------

    def table(self) -> dict[str, list]:
        """Final intervals for every instance, sorted, JSON-friendly."""
        rows = []
        for key in sorted(self.instances, key=lambda k: (str(k[0]), k[1:])):
            inst = self.instances[key]
            rows.append({
                "instance": inst.label,
                "h": [[iv.lo, iv.hi] for iv in inst.h],
                "chi": inst.chi,
            })
        return {"instances": rows}

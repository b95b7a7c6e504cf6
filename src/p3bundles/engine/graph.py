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

Rule bodies are skipped when their inputs did not move.  A rule instance is
one body applied to one object: chi-additivity, R7, R2/R4 segments and R3 per
triple instance, R1 per instance, R5 per dual pair and R6 per sum group (the
R8 implications run every round).  Its inputs are every instance it reads or
narrows, plus the connecting maps of its triple for R7 and the segments.
Each write stamps what it wrote with the counter's new value: an instance
at its creation, when a narrowing shrinks it and when its chi is set, and a
triple instance when a connecting map is killed.  A rule instance remembers
the counter's value when its last call that returned began, and `propagate`
skips it while no input carries a newer stamp.  This is hash-neutral: a
body reads and writes only its inputs, so unmoved inputs mean the last call
found them as they are now and narrowed nothing, and a call now would do the
same.  The round-robin order is kept, so the events, `explain()` chains and
reports are those of running every body every round.  A body that raises
records nothing, so the next propagation meets the contradiction again.
A node's character is set once.  Its chi enters as the integer cubic
6 chi(F(t)) of Riemann-Roch, built when the node gets the character and
evaluated at each new instance's twist.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Callable, Optional

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


def instance_key(node: Node, t: int) -> tuple:
    """(kind, twisted params) for table shapes, (name, t) for sheaves."""
    table = TABLES.get(node.kind)
    if table is None:
        return (node.name, t)
    return (node.kind, *(p + t if mv else p for p, mv in zip(node.params, table.moves)))


def key_label(key: tuple) -> str:
    if isinstance(key[0], Kind):
        return TABLES[key[0]].label.format(*key[1:])
    return f"{key[0]}({key[1]:+d})" if key[1] else f"{key[0]}"


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


@dataclass
class Instance:
    key: tuple
    node_name: str
    twist: int
    h: list[Interval]
    chi: Optional[int] = None
    chi_origin: str = ""
    stamp: int = 0  # the change count at its last write (creation, narrowing, chi)

    @property
    def label(self) -> str:
        return key_label(self.key)


@dataclass
class TripleInstance:
    """A short exact triple A -> B -> C at one twist.  `slots` lists the
    twelve terms (instance, degree) of its long exact sequence in order;
    `conn_origin` maps i to why the connecting map out of h^i(C) is zero, and
    `conn_stamp` is the change count when it last gained an entry."""

    name: str
    parts: tuple[Instance, Instance, Instance]
    conn_origin: dict[int, str] = field(default_factory=dict)
    conn_stamp: int = 0
    slots: tuple[tuple[Instance, int], ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.slots = tuple((inst, deg) for deg in range(4) for inst in self.parts)

    @property
    def keys(self) -> tuple[tuple, tuple, tuple]:
        return tuple(inst.key for inst in self.parts)


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
        # rule instance -> _changes when its last call that returned began
        self._ran: dict[tuple, int] = {}
        self.rule_calls = 0  # rule-instance bodies run, skipped ones not counted

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
        # retrofit chi on existing instances of this node
        for inst in self.instances.values():
            if inst.node_name == name and inst.chi is None:
                inst.chi = twisted_chi(poly, inst.twist, inst.label)
                inst.chi_origin = "character"
                inst.stamp = self._bump()

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
            self.tinsts[(name, t)] = TripleInstance(f"{name}@{t}", parts,
                                                    conn_stamp=self._bump())
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
        self._narrow(inst, degree, value, value, f"fact:{tag}", [])

    def add_conn_fact(self, tag: str, tname: str, t: int, i: int) -> None:
        """Kill the connecting map out of h^i; i = 0 is H0 surjectivity (epi)."""
        if i not in (0, 1, 2):
            raise GraphError("connecting maps are indexed 0..2")
        ti = self._tinst((tname, t))
        ti.conn_origin.setdefault(i, f"fact:{tag}")
        ti.conn_stamp = self._bump()

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
            out.append(f"h{deg}({key_label(key)}) {self.instances[key].h[deg]!r} via {rule}")
            stack.extend(sources)
        return out

    # -- propagation -------------------------------------------------------

    def propagate(self) -> None:
        # propagation creates no instance and changes no character, so the
        # rule instances every round walks are resolved once, each as
        # (memo key, body, argument, input instances, input triple instances)
        early, late = [], []
        for ti in self.tinsts.values():
            early += [(("additivity", ti.name), self._rule_chi_additivity, ti, ti.parts, ()),
                      (("connecting", ti.name), self._rule_connecting, ti, ti.parts[:1], (ti,))]
            late += [(("segments", ti.name), self._rule_segments, ti, ti.parts, (ti,)),
                     (("monotone", ti.name), self._rule_monotone, ti, ti.parts, ())]
        late += [(("chi", inst.key), self._rule_chi, inst, (inst,), ())
                 for inst in self.instances.values()]
        late += [(("duality", pair[0].key), self._rule_duality, pair, pair, ())
                 for pair in self._duality_pairs()]
        late += [(("sum", group[0].key), self._rule_sum, group, (group[0], *group[1]), ())
                 for group in self._sum_groups()]
        for _ in range(MAX_ROUNDS):
            start = self._changes
            self._run(early)
            self._rule_implications()
            self._run(late)
            if self._changes == start:
                self._fixpoint = start
                return
        raise EngineError("propagation did not stabilize")

    def _run(self, rules: list[tuple]) -> None:
        """Call each rule instance's body unless none of its inputs moved
        since its last call that returned began."""
        ran = self._ran
        for key, body, arg, insts, tinsts in rules:
            if not self._stale(ran.get(key, -1), insts, tinsts):
                continue
            begun = self._changes
            self.rule_calls += 1
            body(arg)
            ran[key] = begun

    def _stale(self, last: int, insts: tuple[Instance, ...],
               tinsts: tuple[TripleInstance, ...]) -> bool:
        for inst in insts:
            if inst.stamp > last:
                return True
        for ti in tinsts:
            if ti.conn_stamp > last:
                return True
        return False

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
        inst.stamp = self._bump()

    def _rule_connecting(self, ti: TripleInstance) -> None:
        a = ti.parts[0]
        for i in (0, 1, 2):
            iv = a.h[i + 1]
            if i not in ti.conn_origin and iv.pinned and iv.value == 0:
                ti.conn_origin[i] = f"R7: h{i+1}({a.label}) = 0"
                ti.conn_stamp = self._bump()

    def _rule_implications(self) -> None:
        for out, premises, origin in self.implications:
            if 0 not in out.conn_origin and all(0 in p.conn_origin for p in premises):
                out.conn_origin[0] = origin
                out.conn_stamp = self._bump()

    def _segments(self, ti: TripleInstance) -> list[list[tuple[Instance, int]]]:
        """Maximal exact runs of LES slots, zero slots excluded."""
        splits_after = {3 * i + 2 for i in ti.conn_origin}  # conn_i kills delta_i
        segments: list[list[tuple[Instance, int]]] = []
        current: list[tuple[Instance, int]] = []
        for idx, (inst, deg) in enumerate(ti.slots):
            iv = inst.h[deg]
            if iv.pinned and iv.value == 0:
                if current:
                    segments.append(current)
                current = []
            else:
                current.append((inst, deg))
            if idx in splits_after and current:
                segments.append(current)
                current = []
        if current:
            segments.append(current)
        return segments

    def _rule_segments(self, ti: TripleInstance) -> None:
        bound, alternating = f"R2 exactness bound in {ti.name}", f"R4 alternating sum in {ti.name}"
        for run in self._segments(ti):
            # R2: term <= left + right within the run, boundaries are zero
            for pos, (inst, deg) in enumerate(run):
                neighbours = run[max(pos - 1, 0):pos] + run[pos + 1:pos + 2]
                his = [n.h[d].hi for n, d in neighbours]
                if None not in his:
                    self._narrow(inst, deg, 0, sum(his), bound,
                                 [(n.key, d) for n, d in neighbours])
            self._solve_alternating(run, 0, alternating)

    def _rule_monotone(self, ti: TripleInstance) -> None:
        a, b, c = ti.parts
        self._narrow(b, 0, a.h[0].lo, None, f"R3 h0 injects in {ti.name}", [(a.key, 0)])
        self._narrow(b, 3, c.h[3].lo, None, f"R3 h3 surjects in {ti.name}", [(c.key, 3)])

    def _rule_chi(self, inst: Instance) -> None:
        if inst.chi is not None:
            self._solve_alternating([(inst, deg) for deg in range(4)], inst.chi,
                                    f"R1 chi solve (chi = {inst.chi}, {inst.chi_origin})")

    def _solve_alternating(self, slots: list[tuple[Instance, int]], total: int,
                           rule: str) -> None:
        """h(slot 0) - h(slot 1) + h(slot 2) - ... = total: verify it when every
        slot is pinned, solve it when exactly one is not."""
        ivs = [inst.h[deg] for inst, deg in slots]
        unknown = [pos for pos, iv in enumerate(ivs) if not iv.pinned]
        if len(unknown) > 1:
            return
        rest = sum((-1) ** pos * iv.value for pos, iv in enumerate(ivs) if iv.pinned)
        if not unknown:
            if rest != total:
                terms = ", ".join(f"h{deg}({inst.label})" for inst, deg in slots)
                raise Contradiction(f"{rule}: pinned values {[iv.value for iv in ivs]} of "
                                    f"{terms} have alternating sum {rest}, expected {total}")
            return
        pos = unknown[0]
        target, degree = slots[pos]
        value = (total - rest) * (-1) ** pos
        if value < 0:
            raise Contradiction(f"{rule} gives h{degree}({target.label}) = {value} < 0")
        self._narrow(target, degree, value, value, rule,
                     [(inst.key, deg) for p, (inst, deg) in enumerate(slots) if p != pos])

    def _rule_duality(self, pair: tuple[Instance, Instance]) -> None:
        left, right = pair
        for i in range(4):
            rule = f"R5 Serre duality h{i}({left.label}) = h{3-i}({right.label})"
            li, ri = left.h[i], right.h[3 - i]
            self._narrow(left, i, ri.lo, ri.hi, rule, [(right.key, 3 - i)])
            self._narrow(right, 3 - i, li.lo, li.hi, rule, [(left.key, i)])

    def _rule_sum(self, group: tuple[Instance, list[Instance], str]) -> None:
        total, parts, rule = group
        for deg in range(4):
            lo_sum = sum(p.h[deg].lo for p in parts)
            his = [p.h[deg].hi for p in parts]
            srcs = [(p.key, deg) for p in parts]
            hi_sum = sum(his) if None not in his else None
            self._narrow(total, deg, lo_sum, hi_sum, rule, srcs)
            for j, part in enumerate(parts):
                others_lo = lo_sum - part.h[deg].lo
                srcs_j = [(total.key, deg)] + [(p.key, deg) for p in parts if p is not part]
                if total.h[deg].hi is not None:
                    self._narrow(part, deg, 0, total.h[deg].hi - others_lo, rule, srcs_j)
                others_hi = [p.h[deg].hi for i2, p in enumerate(parts) if i2 != j]
                if None not in others_hi:
                    self._narrow(part, deg, total.h[deg].lo - sum(others_hi), None,
                                 rule, srcs_j)

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
        if node.kind in TABLES:
            vec = TABLES[node.kind].vector(*key[1:])
            h = [Interval(v, v) for v in vec]
            inst = Instance(key, node.name, t, h, vec.chi(), "closed form")
        else:
            h = [Interval() for _ in range(4)]
            if node.support_dim <= 1:
                h[2] = Interval(0, 0)
                h[3] = Interval(0, 0)
            if node.support_dim == 0:
                h[1] = Interval(0, 0)
            chi = (twisted_chi(self._chi_polys[node.name], t, key_label(key))
                   if node.chern is not None else None)
            inst = Instance(key, node.name, t, h, chi, "character" if chi is not None else "")
        self.instances[key] = inst
        inst.stamp = self._bump()
        # creating a member instance of a sum keeps R6 complete
        if node.name in self.sums:
            for m in self.sums[node.name]:
                self._instance(self._node(m), t)
        return inst

    def _narrow(self, inst: Instance, degree: int, lo: int, hi: Optional[int], rule: str,
                sources: list[tuple]) -> None:
        """Intersect h^degree(inst) with [lo, hi] (hi None: no upper bound),
        lo first; record one event and bump the counter if it shrank."""
        iv = inst.h[degree]
        try:
            changed = iv.tighten_lo(lo)
            if hi is not None:
                changed = iv.tighten_hi(hi) or changed
        except EmptyInterval as exc:
            raise Contradiction(
                f"h{degree}({inst.label}) in [{lo}, {'inf' if hi is None else hi}] "
                f"from {rule} contradicts the established range ({exc})") from exc
        if changed:
            self.events[(inst.key, degree)] = (rule, sources)
            inst.stamp = self._bump()

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

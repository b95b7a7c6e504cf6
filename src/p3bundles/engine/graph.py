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
  R3  subadditivity h(B) <= h(A) + h(C), plus the one-sided monotonicities
      h0(A) <= h0(B) and h3(C) <= h3(B).
  R4  alternating sums over maximal exact runs: solve a single unknown, or
      verify when fully pinned; negative solutions are contradictions.
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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Optional

from p3bundles.chern import ChernCharacter
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
    geom: Optional[str] = None  # geometry binding label, resolved elsewhere


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


@dataclass
class Instance:
    key: tuple
    node_name: str
    twist: int
    h: list[Interval]
    chi: Optional[int] = None
    chi_origin: str = ""

    @property
    def label(self) -> str:
        return key_label(self.key)


@dataclass
class TripleInstance:
    decl: str
    t: int
    keys: tuple[tuple, tuple, tuple]
    conn: set[int] = field(default_factory=set)
    conn_origin: dict = field(default_factory=dict)

    @property
    def name(self) -> str:
        return f"{self.decl}@{self.t}"

    def les_slots(self) -> list[tuple[tuple, int]]:
        a, b, c = self.keys
        return [(a, 0), (b, 0), (c, 0), (a, 1), (b, 1), (c, 1),
                (a, 2), (b, 2), (c, 2), (a, 3), (b, 3), (c, 3)]


class DeductionGraph:
    def __init__(self) -> None:
        self.nodes: dict[str, Node] = {}
        self.sums: dict[str, list[str]] = {}
        self.triples: dict[str, list[tuple[str, int]]] = {}
        self.instances: dict[tuple, Instance] = {}
        self.tinsts: dict[tuple[str, int], TripleInstance] = {}
        # R8: (conclusion, premises, origin); the conclusion triple's H0 map
        # is surjective once every premise triple's is
        self.implications: list[tuple[TripleInstance, tuple[TripleInstance, ...], str]] = []
        self.events: dict[tuple, dict] = {}  # latest derivation of each slot
        self._order: list[tuple] = []  # instance keys in creation order

    # -- declarations --------------------------------------------------

    def add_node(self, node: Node) -> None:
        if node.name in self.nodes:
            raise GraphError(f"node {node.name} already declared")
        if node.kind in TABLES and node.chern is not None:
            raise GraphError("table nodes carry closed-form data, not characters")
        self.nodes[node.name] = node

    def set_chern(self, name: str, ch: ChernCharacter) -> None:
        node = self._node(name)
        if node.kind in TABLES:
            raise GraphError(f"{name}: table nodes do not take characters")
        node.chern = ch
        # retrofit chi on existing instances of this node
        for t_key, inst in list(self.instances.items()):
            if inst.node_name == name and inst.chi is None:
                inst.chi = ch.twist(inst.twist).chi()
                inst.chi_origin = "character"

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
        if (name, t) in self.tinsts:
            return self.tinsts[(name, t)]
        keys = []
        for node_name, off in self.triples[name]:
            inst = self._instance(self._node(node_name), off + t)
            keys.append(inst.key)
        ti = TripleInstance(name, t, tuple(keys))
        self.tinsts[(name, t)] = ti
        return ti

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
        self.implications.append((
            t_out, (t_first, t_second),
            f"R8: composite of H0-surjections {t_first.name} then {t_second.name}"))

    # -- facts -----------------------------------------------------------

    def add_value_fact(self, tag: str, node_name: str, t: int, degree: int, value: int) -> None:
        inst = self._instance(self._node(node_name), t)
        self._set(inst, degree, value, f"fact:{tag}", [])

    def add_conn_fact(self, tag: str, tname: str, t: int, i: int) -> None:
        """Kill the connecting map out of h^i; i = 0 is H0 surjectivity (epi)."""
        if i not in (0, 1, 2):
            raise GraphError("connecting maps are indexed 0..2")
        ti = self._tinst((tname, t))
        if i not in ti.conn:
            ti.conn.add(i)
            ti.conn_origin[i] = f"fact:{tag}"

    # -- queries -----------------------------------------------------------

    def interval(self, node_name: str, t: int, degree: int) -> Interval:
        return self.instance_for(node_name, t).h[degree]

    def instance_for(self, node_name: str, t: int) -> Instance:
        key = instance_key(self._node(node_name), t)
        if key not in self.instances:
            raise GraphError(f"no instance {key_label(key)}; twist a triple through it first")
        return self.instances[key]

    def ensure_instance(self, node_name: str, t: int) -> Instance:
        return self._instance(self._node(node_name), t)

    def explain(self, node_name: str, t: int, degree: int, max_lines: int = 40) -> list[str]:
        """Flattened derivation chain for one slot, most recent rule first."""
        node = self._node(node_name)
        start = (instance_key(node, t), degree)
        out: list[str] = []
        seen: set[tuple] = set()
        stack = [start]
        while stack and len(out) < max_lines:
            slot = stack.pop()
            if slot in seen:
                continue
            seen.add(slot)
            ev = self.events.get(slot)
            if ev is None:
                continue
            out.append(f"h{slot[1]}({key_label(slot[0])}) {ev['result']} via {ev['rule']}")
            stack.extend(ev["sources"])
        return out

    # -- propagation -------------------------------------------------------

    def propagate(self, order: str = "forward") -> None:
        rounds = 0
        while True:
            rounds += 1
            if rounds > MAX_ROUNDS:
                raise EngineError("propagation did not stabilize")
            changed = False
            tlist = list(self.tinsts.values())
            ilist = [self.instances[k] for k in self._order]
            if order == "reverse":
                tlist = tlist[::-1]
                ilist = ilist[::-1]
            for ti in tlist:
                changed |= self._rule_chi_additivity(ti)
                changed |= self._rule_connecting(ti)
            changed |= self._rule_implications()
            for ti in tlist:
                changed |= self._rule_segments(ti)
                changed |= self._rule_subadditivity(ti)
            for inst in ilist:
                changed |= self._rule_chi(inst)
            changed |= self._rule_duality()
            changed |= self._rule_sums()
            if not changed:
                return

    # -- rule bodies ---------------------------------------------------

    def _rule_chi_additivity(self, ti: TripleInstance) -> bool:
        a, b, c = (self.instances[k] for k in ti.keys)
        known = [x.chi for x in (a, b, c)]
        missing = [i for i, v in enumerate(known) if v is None]
        if not missing:
            if known[0] + known[2] != known[1]:
                raise Contradiction(
                    f"{ti.name}: chi additivity fails: "
                    f"chi({a.label})={known[0]}, chi({b.label})={known[1]}, chi({c.label})={known[2]}")
            return False
        if len(missing) > 1:
            return False
        i = missing[0]
        inst = (a, b, c)[i]
        if i == 0:
            inst.chi = known[1] - known[2]
        elif i == 1:
            inst.chi = known[0] + known[2]
        else:
            inst.chi = known[1] - known[0]
        inst.chi_origin = f"chi-additivity through {ti.name}"
        return True

    def _rule_connecting(self, ti: TripleInstance) -> bool:
        changed = False
        a_key = ti.keys[0]
        a = self.instances[a_key]
        for i in (0, 1, 2):
            if i in ti.conn:
                continue
            iv = a.h[i + 1]
            if iv.pinned and iv.value == 0:
                ti.conn.add(i)
                ti.conn_origin[i] = f"R7: h{i+1}({a.label}) = 0"
                changed = True
        return changed

    def _rule_implications(self) -> bool:
        changed = False
        for out, premises, origin in self.implications:
            if 0 not in out.conn and all(0 in p.conn for p in premises):
                out.conn.add(0)
                out.conn_origin[0] = origin
                changed = True
        return changed

    def _segments(self, ti: TripleInstance) -> list[list[int]]:
        """Maximal exact runs of slot indices (0..11), zero slots excluded."""
        slots = ti.les_slots()
        splits_after = {3 * i + 2 for i in ti.conn}  # conn_i kills delta_i
        segments: list[list[int]] = []
        current: list[int] = []
        for idx in range(12):
            key, deg = slots[idx]
            iv = self.instances[key].h[deg]
            if iv.pinned and iv.value == 0:
                if current:
                    segments.append(current)
                current = []
            else:
                current.append(idx)
            if idx in splits_after and current:
                segments.append(current)
                current = []
        if current:
            segments.append(current)
        return segments

    def _rule_segments(self, ti: TripleInstance) -> bool:
        changed = False
        slots = ti.les_slots()
        for seg in self._segments(ti):
            ivs = []
            for idx in seg:
                key, deg = slots[idx]
                ivs.append((idx, key, deg, self.instances[key].h[deg]))
            # R2: term <= left + right within the run, boundaries are zero
            for pos, (idx, key, deg, iv) in enumerate(ivs):
                left = ivs[pos - 1][3].hi if pos > 0 else 0
                right = ivs[pos + 1][3].hi if pos + 1 < len(ivs) else 0
                if left is None or right is None:
                    continue
                bound = left + right
                src = []
                if pos > 0:
                    src.append((ivs[pos - 1][1], ivs[pos - 1][2]))
                if pos + 1 < len(ivs):
                    src.append((ivs[pos + 1][1], ivs[pos + 1][2]))
                changed |= self._tighten_hi(key, deg, bound, f"R2 exactness bound in {ti.name}", src)
            # R4: alternating sum over the run is zero
            unknown = [(idx, key, deg, iv) for idx, key, deg, iv in ivs if not iv.pinned]
            if len(unknown) > 1:
                continue
            total = 0
            sign = 1
            target = None
            target_sign = 1
            for pos, (idx, key, deg, iv) in enumerate(ivs):
                s = 1 if pos % 2 == 0 else -1
                if iv.pinned:
                    total += s * iv.value
                else:
                    target = (key, deg)
                    target_sign = s
            if target is None:
                if total != 0:
                    raise Contradiction(
                        f"{ti.name}: exact run {self._run_repr(ti, seg)} has alternating sum {total}")
                continue
            value = -total * target_sign
            if value < 0:
                raise Contradiction(
                    f"{ti.name}: exact run solves h{target[1]}({key_label(target[0])}) = {value} < 0")
            srcs = [(k, d) for _, k, d, iv in ivs if (k, d) != target]
            changed |= self._set(self.instances[target[0]], target[1], value,
                                 f"R4 alternating sum in {ti.name}", srcs)
        return changed

    def _run_repr(self, ti: TripleInstance, seg: list[int]) -> str:
        slots = ti.les_slots()
        return " -> ".join(f"h{d}({key_label(k)})" for k, d in (slots[i] for i in seg))

    def _rule_subadditivity(self, ti: TripleInstance) -> bool:
        changed = False
        a, b, c = (self.instances[k] for k in ti.keys)
        for deg in range(4):
            if a.h[deg].hi is not None and c.h[deg].hi is not None:
                changed |= self._tighten_hi(b.key, deg, a.h[deg].hi + c.h[deg].hi,
                                            f"R3 subadditivity in {ti.name}",
                                            [(a.key, deg), (c.key, deg)])
        if b.h[0].hi is not None:
            changed |= self._tighten_hi(a.key, 0, b.h[0].hi, f"R3 h0 injects in {ti.name}",
                                        [(b.key, 0)])
        changed |= self._tighten_lo(b.key, 0, a.h[0].lo, f"R3 h0 injects in {ti.name}",
                                    [(a.key, 0)])
        if b.h[3].hi is not None:
            changed |= self._tighten_hi(c.key, 3, b.h[3].hi, f"R3 h3 surjects in {ti.name}",
                                        [(b.key, 3)])
        changed |= self._tighten_lo(b.key, 3, c.h[3].lo, f"R3 h3 surjects in {ti.name}",
                                    [(c.key, 3)])
        return changed

    def _rule_chi(self, inst: Instance) -> bool:
        if inst.chi is None:
            return False
        signs = (1, -1, 1, -1)
        unknown = [i for i in range(4) if not inst.h[i].pinned]
        if not unknown:
            total = sum(s * iv.value for s, iv in zip(signs, inst.h))
            if total != inst.chi:
                raise Contradiction(
                    f"{inst.label}: pinned vector {[iv.value for iv in inst.h]} "
                    f"has chi {total}, expected {inst.chi}")
            return False
        if len(unknown) > 1:
            return False
        i = unknown[0]
        rest = sum(signs[j] * inst.h[j].value for j in range(4) if j != i)
        value = (inst.chi - rest) * signs[i]
        if value < 0:
            raise Contradiction(f"{inst.label}: chi solve gives h{i} = {value} < 0")
        srcs = [(inst.key, j) for j in range(4) if j != i]
        return self._set(inst, i, value, f"R1 chi solve (chi = {inst.chi}, {inst.chi_origin})", srcs)

    def _rule_duality(self) -> bool:
        changed = False
        by_node: dict[str, dict[int, Instance]] = {}
        for key in self._order:
            inst = self.instances[key]
            node = self.nodes.get(inst.node_name)
            if node is None or not node.locally_free or node.chern is None:
                continue
            if node.chern.rank != 2:
                continue
            by_node.setdefault(node.name, {})[inst.twist] = inst
        for name in sorted(by_node):
            node = self.nodes[name]
            c1 = int(node.chern.ch1)
            twists = by_node[name]
            for t in sorted(twists):
                td = -t - 4 - c1
                if td not in twists or td < t:
                    continue
                left, right = twists[t], twists[td]
                for i in range(4):
                    rule = f"R5 Serre duality h{i}({left.label}) = h{3-i}({right.label})"
                    li, ri = left.h[i], right.h[3 - i]
                    if ri.hi is not None:
                        changed |= self._tighten_hi(left.key, i, ri.hi, rule, [(right.key, 3 - i)])
                    changed |= self._tighten_lo(left.key, i, ri.lo, rule, [(right.key, 3 - i)])
                    if li.hi is not None:
                        changed |= self._tighten_hi(right.key, 3 - i, li.hi, rule, [(left.key, i)])
                    changed |= self._tighten_lo(right.key, 3 - i, li.lo, rule, [(left.key, i)])
        return changed

    def _rule_sums(self) -> bool:
        changed = False
        for name in sorted(self.sums):
            members = self.sums[name]
            node = self.nodes[name]
            twists = [inst.twist for key in list(self._order)
                      if (inst := self.instances[key]).node_name == name]
            for t in twists:
                total = self.instances[instance_key(node, t)]
                parts = [self._instance(self._node(m), t) for m in members]
                for deg in range(4):
                    lo_sum = sum(p.h[deg].lo for p in parts)
                    his = [p.h[deg].hi for p in parts]
                    rule = f"R6 direct sum {name} = {' + '.join(members)}"
                    srcs = [(p.key, deg) for p in parts]
                    changed |= self._tighten_lo(total.key, deg, lo_sum, rule, srcs)
                    if all(h is not None for h in his):
                        changed |= self._tighten_hi(total.key, deg, sum(his), rule, srcs)
                    for j, part in enumerate(parts):
                        others_lo = lo_sum - part.h[deg].lo
                        srcs_j = [(total.key, deg)] + [(p.key, deg) for p in parts if p is not part]
                        if total.h[deg].hi is not None:
                            changed |= self._tighten_hi(part.key, deg, total.h[deg].hi - others_lo,
                                                        rule, srcs_j)
                        others_hi = [p.h[deg].hi for i2, p in enumerate(parts) if i2 != j]
                        if all(h is not None for h in others_hi):
                            changed |= self._tighten_lo(part.key, deg,
                                                        total.h[deg].lo - sum(others_hi),
                                                        rule, srcs_j)
        return changed

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
            chi = node.chern.twist(t).chi() if node.chern is not None else None
            inst = Instance(key, node.name, t, h, chi, "character" if chi is not None else "")
        self.instances[key] = inst
        self._order.append(key)
        # creating a member instance of a sum keeps R6 complete
        if node.name in self.sums:
            for m in self.sums[node.name]:
                self._instance(self._node(m), t)
        return inst

    def _record(self, key: tuple, degree: int, rule: str, sources: list[tuple]) -> None:
        iv = self.instances[key].h[degree]
        self.events[(key, degree)] = {"rule": rule, "sources": list(sources), "result": repr(iv)}

    def _tighten_hi(self, key: tuple, degree: int, bound: int, rule: str,
                    sources: list[tuple]) -> bool:
        inst = self.instances[key]
        try:
            changed = inst.h[degree].tighten_hi(bound)
        except EmptyInterval as exc:
            raise Contradiction(
                f"h{degree}({inst.label}): upper bound {bound} from {rule} "
                f"contradicts established range {inst.h[degree]} ({exc})") from exc
        if changed:
            self._record(key, degree, rule, sources)
        return changed

    def _tighten_lo(self, key: tuple, degree: int, bound: int, rule: str,
                    sources: list[tuple]) -> bool:
        inst = self.instances[key]
        try:
            changed = inst.h[degree].tighten_lo(bound)
        except EmptyInterval as exc:
            raise Contradiction(
                f"h{degree}({inst.label}): lower bound {bound} from {rule} "
                f"contradicts established range {inst.h[degree]} ({exc})") from exc
        if changed:
            self._record(key, degree, rule, sources)
        return changed

    def _set(self, inst: Instance, degree: int, value: int, rule: str,
             sources: list[tuple]) -> bool:
        try:
            changed = inst.h[degree].pin(value)
        except EmptyInterval as exc:
            raise Contradiction(
                f"h{degree}({inst.label}) = {value} from {rule} contradicts "
                f"established range {inst.h[degree]} ({exc})") from exc
        if changed:
            self._record(inst.key, degree, rule, sources)
        return changed

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

"""Line-oriented proof scripts replayed against the deduction engine.

A script declares sheaf nodes, short exact triples, twists, tagged facts and
assertions; running one materializes the long exact sequences, verifies every
ORACLE fact against freshly sampled geometry, propagates the rule set, and
checks each `assert` is entailed at its point in the file.  Reports are
canonical-JSON stable for fixed (script, params, seed).

A replay runs in two phases.  The deduction (`ScriptRunner.deduce`) walks
the lines and does all the graph work and textual checks.  The graph only
reads values the script itself states, so the deduction depends on (name,
text, params) alone, never on the seed.  It records every geometry action
as a step, at the point where its line performs it (a `config` line, a
`geom=` binding, an ORACLE value or epi check), together with the facts and
asserts, the intervals the agreement sweep compares, and the first failure,
which follows the last recorded step.  The geometry (`replay`) samples the
configurations from the seed and runs the steps in order, each error
prefixed with its line as the deduction prefixes its own; then it raises
the recorded failure, or compares the agreement rows with fresh oracle
vectors.  `run_script_text` memoises the deduction per (name, text,
params) in an LRU of DEDUCTIONS entries, so a replay at another seed reruns
only the geometry.  The deduction keeps the facts, the asserts and the
agreement rows as canonical JSON texts, each normalised once; a replay
reads fresh objects from them, and its `report_hash` splices them with the
canonical JSON of the per-seed keys, which gives the hash of the whole
report.  The oracle memoises each cohomology vector and configuration hash,
so a warm replay pays for sampling and for oracle answers not seen before.
`p3bundles.clear_caches` empties every memo.  A replay with no deduction
memo is `replay(ScriptRunner(name, text, params).deduce(), name, params,
seed)`.

Grammar (one command per line, `#` comments, `{...}` holds integer
arithmetic over the declared params, with binom/max/min):

    param NAME...
    config LABEL (ruling|conics) m=INT
    config LABEL modification d=INT [avoid=LABEL]
    config LABEL join FIRST SECOND
    node NAME (line D | quadric P Q | lines K D | conics K D | points K |
               sheaf | ideal) [lf] [dim1|dim0] [geom=KIND:LABEL]
    chern NAME RANK C1 C2 C3
    sum NAME = A + B [+ C ...]
    triple NAME SLOT SLOT SLOT          (SLOT = NAME or NAME@OFFSET)
    twist TRIPLE T
    fact (ORACLE|STABILITY|ASSUMED) h(0|1|2|3) NODE T = V
    fact (ORACLE|STABILITY|ASSUMED) epi TRIPLE T
    fact (ORACLE|STABILITY|ASSUMED) conn TRIPLE T I
    annotate diagram DOM T COD T COLA T COLB T COLC T
    annotate compose OUT T = FIRST T ; SECOND T
    assert h(0|1|2|3) NODE T (=|<=) V
    if {COND} :: COMMAND

geom bindings: ideal:CFG, ideal-ruling:CFG, ideal-partner:CFG, serre:CFG,
points:CFG.  Each is checked at its node line, so CFG is declared above it.
"""

from __future__ import annotations

import ast
import json
import operator
import re
from dataclasses import dataclass, field
from functools import lru_cache
from importlib import resources
from math import comb

from p3bundles.chern import ChernCharacter
from p3bundles.engine.graph import (
    TABLES,
    Contradiction,
    DeductionGraph,
    GraphError,
    Kind,
    Node,
)
from p3bundles.jsonio import canonical_json, spliced_hash
from p3bundles.oracle import (
    GeometryConfig,
    SamplingFailed,
    config_hash,
    ideal_cohomology,
    join_configs,
    partner_part,
    quadric_restriction_onto_points_surjective,
    restriction_onto_points_surjective,
    ruling_part,
    sample_conics,
    sample_modification,
    sample_ruling,
    serre_cohomology,
)
from p3bundles.rng import child_seed
from p3bundles.tables import h_points


class ScriptError(Exception):
    """Malformed script or parameters."""


class OracleFactMismatch(Exception):
    """A fact tagged ORACLE disagrees with the sampled geometry."""


class AssertionNotEntailed(Exception):
    """An `assert` the rules do not entail.  A replay raises it with the
    report of its seed, which ends with the assert's chain; the deduction
    raises it with no report and records only its message."""

    def __init__(self, message: str, report: "ScriptReport | None" = None):
        super().__init__(message)
        self.report = report


# Everything a replay raises that is not a bug: malformed input (ScriptError,
# GraphError) or a run that did not verify.
RUN_FAILURES = (ScriptError, GraphError, AssertionNotEntailed, OracleFactMismatch,
                Contradiction, SamplingFailed)


_BRACE = re.compile(r"\{([^{}]+)\}")

_UNARY = {ast.USub: operator.neg, ast.UAdd: operator.pos, ast.Not: operator.not_}
_BINARY = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
           ast.FloorDiv: operator.floordiv, ast.Mod: operator.mod, ast.Pow: operator.pow}
_COMPARE = {ast.Lt: operator.lt, ast.LtE: operator.le, ast.Gt: operator.gt,
            ast.GtE: operator.ge, ast.Eq: operator.eq, ast.NotEq: operator.ne}
# every operand is evaluated, so an error in any of them is raised
_BOOL = {ast.And: all, ast.Or: any}
_ALLOWED_CALLS = {"binom": lambda n, k: comb(n, k) if 0 <= k <= n else 0,
                  "max": max, "min": min, "abs": abs}


@lru_cache(maxsize=1024)
def _parse(expr: str) -> ast.expr:
    """The AST of a brace expression, parsed once per expression text.  A
    parse error is not cached: it is raised again wherever the text is met."""
    return ast.parse(expr, mode="eval").body


@lru_cache(maxsize=64)
def _lines(text: str) -> tuple[tuple[int, str], ...]:
    """(line number, command) for each line of a script text that holds one
    once its comment is stripped."""
    stripped = ((lineno, raw.split("#", 1)[0].strip())
                for lineno, raw in enumerate(text.splitlines(), 1))
    return tuple((lineno, line) for lineno, line in stripped if line)


def _safe_eval(expr: str, env: dict[str, int]) -> int:
    def ev(node):
        if isinstance(node, ast.Constant) and isinstance(node.value, int):
            return int(node.value)
        if isinstance(node, ast.Name):
            if node.id in env:
                return env[node.id]
            raise ScriptError(f"unknown name {node.id!r} in {expr!r}")
        if isinstance(node, ast.UnaryOp) and type(node.op) in _UNARY:
            return _UNARY[type(node.op)](ev(node.operand))
        if isinstance(node, ast.BinOp):
            a, b = ev(node.left), ev(node.right)
            if type(node.op) not in _BINARY:
                raise ScriptError(f"operator not allowed in {expr!r}")
            return _BINARY[type(node.op)](a, b)
        if isinstance(node, ast.Compare):
            left = ev(node.left)
            for op, right_node in zip(node.ops, node.comparators):
                right = ev(right_node)
                if type(op) not in _COMPARE:
                    raise ScriptError(f"comparison not allowed in {expr!r}")
                if not _COMPARE[type(op)](left, right):
                    return 0
                left = right
            return 1
        if isinstance(node, ast.BoolOp):
            return int(_BOOL[type(node.op)]([ev(v) for v in node.values]))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            name = node.func.id
            if name not in _ALLOWED_CALLS:
                raise ScriptError(f"call to {name!r} not allowed")
            if node.keywords:
                raise ScriptError(f"{name}() takes positional arguments only, in {expr!r}")
            args = [ev(a) for a in node.args]
            try:
                return int(_ALLOWED_CALLS[name](*args))
            except TypeError as exc:
                raise ScriptError(f"{name}() in {expr!r}: {exc}") from exc
        raise ScriptError(f"construct not allowed in expression {expr!r}")

    return int(ev(_parse(expr)))


def _as_int(token: str, env: dict[str, int]) -> int:
    if "{" not in token:  # a bare integer
        return int(token)
    return int(_BRACE.sub(lambda m: str(_safe_eval(m.group(1), env)), token))


@dataclass
class ScriptReport:
    script: str
    params: dict
    seed: int
    configs: dict = field(default_factory=dict)
    facts: list = field(default_factory=list)
    asserts: list = field(default_factory=list)
    agreement: dict = field(default_factory=dict)
    passed: bool = True
    report_hash: str = ""

    def to_dict(self) -> dict:
        out = {
            "script": self.script,
            "params": dict(sorted(self.params.items())),
            "seed": self.seed,
            "configs": self.configs,
            "facts": self.facts,
            "asserts": self.asserts,
            "agreement": self.agreement,
            "passed": self.passed,
        }
        if self.report_hash:
            out["report_hash"] = self.report_hash
        return out


# A geometry action of a replay: (line number, line, action, arguments), the
# action naming the `_Geometry` method that performs it.
Step = tuple[int, str, str, tuple]

# binding kind -> the oracle kind its node reads
_BINDING_KINDS = {"ideal": "ideal", "ideal-ruling": "ideal", "ideal-partner": "ideal",
                  "serre": "serre", "points": "points"}

# what a failing line raises with its line number: its own error, or one of
# the rest, which mark a malformed line
_LINE_ERRORS = (ScriptError, GraphError, OracleFactMismatch, Contradiction)
_WRAPPED = (*_LINE_ERRORS, IndexError, KeyError, ValueError, SyntaxError, ZeroDivisionError)


def _at_line(name: str, lineno: int, line: str, exc: Exception) -> Exception:
    """What a line that raised ``exc`` raises in its place: the same type with
    a ``NAME:LINE:`` prefix, or a ScriptError for a malformed line."""
    if isinstance(exc, _LINE_ERRORS):
        return type(exc)(f"{name}:{lineno}: {exc}")
    return ScriptError(f"{name}:{lineno}: malformed line {line!r}: "
                       f"{type(exc).__name__}: {exc}")


@dataclass(frozen=True)
class Deduction:
    """The seed-free half of a replay (see the module docstring).

    ``facts``, ``asserts`` and ``agreement`` are canonical JSON texts, the
    agreement rows each [instance label, node, twist, the [lo, hi] of h^0 to
    h^3]; as text they are compact, every replay reads fresh objects from
    them, and the report hash splices the first two in unparsed.
    ``failure`` is the type and message of the first failure, or None.
    """

    steps: tuple[Step, ...]
    facts: str
    asserts: str
    agreement: str
    failure: tuple[type, str] | None


class ScriptRunner:
    """The deduction of one replay; ``replay`` adds the geometry at a seed."""

    def __init__(self, name: str, text: str, params: dict[str, int]):
        self.name = name
        self.text = text
        self.env = {k: int(v) for k, v in params.items()}
        self.graph = DeductionGraph()
        self.labels: set[str] = set()  # the configs declared so far
        # node name -> the oracle kind it is bound to: ideal, serre or points
        self.bindings: dict[str, str] = {}
        self.steps: list[Step] = []
        self.facts: list[dict] = []
        self.asserts: list[dict] = []
        self._declared_params: set[str] = set()
        self._line = (0, "")

    def deduce(self) -> Deduction:
        agreement, failure = [], None
        try:
            for lineno, line in _lines(self.text):
                self._line = (lineno, line)
                try:
                    self._command(line)
                except _WRAPPED as exc:
                    raise _at_line(self.name, lineno, line, exc) from exc
            undeclared = sorted(set(self.env) - self._declared_params)
            if undeclared:
                raise ScriptError(f"{self.name}: undeclared parameter(s) {', '.join(undeclared)}")
            agreement = self._agreement_rows()
        except RUN_FAILURES as exc:
            failure = (type(exc), str(exc))
        return Deduction(tuple(self.steps), canonical_json(self.facts),
                         canonical_json(self.asserts), canonical_json(agreement), failure)

    def _step(self, action: str, *args) -> None:
        self.steps.append((*self._line, action, args))

    # -- command handlers ---------------------------------------------------

    def _command(self, line: str) -> None:
        tokens = line.split()
        head = tokens[0]
        if head == "if":
            self._cmd_if(line)
            return
        handler = getattr(self, f"_cmd_{head}", None)
        if handler is None:
            raise ScriptError(f"unknown command {head!r}")
        handler(tokens[1:])

    def _cmd_if(self, line: str) -> None:
        m = re.match(r"if\s+\{([^{}]+)\}\s*::\s*(.+)$", line)
        if not m:
            raise ScriptError("if syntax: if {COND} :: COMMAND")
        if _safe_eval(m.group(1), self.env):
            self._command(m.group(2).strip())

    def _cmd_param(self, args: list[str]) -> None:
        for name in args:
            if name not in self.env:
                raise ScriptError(f"missing required parameter {name!r}")
            self._declared_params.add(name)

    def _cmd_config(self, args: list[str]) -> None:
        if len(args) < 3:
            raise ScriptError("config LABEL KIND key=value...")
        label, kind = args[0], args[1]
        if label in self.labels:
            raise ScriptError(f"config {label!r} already declared")
        kv = {}
        for tok in args[2:]:
            k, _, v = tok.partition("=")
            kv[k] = v
        if kind in ("ruling", "conics"):
            values = (_as_int(kv["m"], self.env),)
        elif kind == "modification":
            avoid = kv.get("avoid")
            if avoid is not None and avoid not in self.labels:
                raise ScriptError(f"avoid={avoid}: unknown config")
            values = (_as_int(kv["d"], self.env), avoid)
        elif kind == "join":
            values = tuple(args[2:])
            if len(values) != 2:
                raise ScriptError("config LABEL join FIRST SECOND")
            for part in values:
                if part not in self.labels:
                    raise ScriptError(f"join of unknown config {part!r}")
        else:
            raise ScriptError(f"unknown config kind {kind!r}")
        self._step("config", label, kind, *values)
        self.labels.add(label)

    def _binding(self, name: str, geom: str) -> str:
        kind, _, label = geom.partition(":")
        if label not in self.labels:
            raise ScriptError(f"geometry binding {geom!r}: unknown config {label!r}")
        if kind not in _BINDING_KINDS:
            raise ScriptError(f"unknown geometry binding kind {kind!r}")
        self._step("bind", name, geom)
        return _BINDING_KINDS[kind]

    def _cmd_node(self, args: list[str]) -> None:
        name = args[0]
        kind_tok = args[1]
        rest = args[2:]
        numeric: list[int] = []
        while rest and not rest[0].startswith(("lf", "dim", "geom=")):
            numeric.append(_as_int(rest[0], self.env))
            rest = rest[1:]
        binding = None
        locally_free = False
        support_dim = 3
        for fl in rest:
            if fl == "lf":
                locally_free = True
            elif fl == "dim1":
                support_dim = 1
            elif fl == "dim0":
                support_dim = 0
            elif fl.startswith("geom="):
                binding = self._binding(name, fl[len("geom="):])
            else:
                raise ScriptError(f"unknown node flag {fl!r}")
        kind = Kind.SHEAF if kind_tok == "ideal" else Kind(kind_tok)
        arity = len(TABLES[kind].moves) if kind in TABLES else 0
        if len(numeric) != arity:
            raise ScriptError(f"node {name}: {kind_tok} takes {arity} integer(s)")
        self.graph.add_node(Node(name, kind, tuple(numeric), locally_free=locally_free,
                                 support_dim=support_dim))
        if binding is not None:
            self.bindings[name] = binding

    def _cmd_chern(self, args: list[str]) -> None:
        if len(args) != 5:
            raise ScriptError("chern NODE RANK C1 C2 C3")
        name = args[0]
        rank, c1, c2, c3 = (_as_int(a, self.env) for a in args[1:])
        self.graph.set_chern(name, ChernCharacter.from_classes(rank, c1, c2, c3))

    def _cmd_sum(self, args: list[str]) -> None:
        if len(args) < 4 or args[1] != "=":
            raise ScriptError("sum NAME = A + B [+ ...]")
        members = [a for a in args[2:] if a != "+"]
        self.graph.add_sum(args[0], members)

    def _slot(self, token: str) -> tuple[str, int]:
        name, _, off = token.partition("@")
        return name, (_as_int(off, self.env) if off else 0)

    def _cmd_triple(self, args: list[str]) -> None:
        if len(args) != 4:
            raise ScriptError("triple NAME A B C")
        self.graph.add_triple(args[0], [self._slot(a) for a in args[1:]])

    def _cmd_twist(self, args: list[str]) -> None:
        if len(args) != 2:
            raise ScriptError("twist TRIPLE T")
        self.graph.materialize(args[0], _as_int(args[1], self.env))

    def _h_slot(self, args: list[str], usage: str) -> tuple[int, str, int, str, int]:
        """`hI NODE T REL V` as (I, NODE, T, REL, V)."""
        if len(args) != 5 or args[0] not in ("h0", "h1", "h2", "h3"):
            raise ScriptError(usage)
        return (int(args[0][1]), args[1], _as_int(args[2], self.env), args[3],
                _as_int(args[4], self.env))

    def _cmd_fact(self, args: list[str]) -> None:
        tag = args[0]
        if tag not in ("ORACLE", "STABILITY", "ASSUMED"):
            raise ScriptError(f"fact tag must be ORACLE/STABILITY/ASSUMED, got {tag!r}")
        what = args[1]
        # an ORACLE fact is checked by a geometry step; past it, it holds
        verified = True if tag == "ORACLE" else None
        if what in ("epi", "conn"):
            # epi is the vanishing of the connecting map out of h0
            tname, t = args[2], _as_int(args[3], self.env)
            index = 0 if what == "epi" else _as_int(args[4], self.env)
            if tag == "ORACLE" and what == "conn":
                raise ScriptError("conn facts cannot be oracle-verified; tag STABILITY/ASSUMED")
            if tag == "ORACLE":
                self._verify_epi(tname, t)
            self.graph.add_conn_fact(tag, tname, t, index)
            entry = {"triple": tname, "twist": t}
            if what == "conn":
                entry["index"] = index
        else:
            degree, node_name, t, eq, value = self._h_slot(
                args[1:], "fact TAG (hI NODE T = V | epi TRIPLE T | conn TRIPLE T I)")
            if eq != "=":
                raise ScriptError("value facts use '='")
            if node_name not in self.graph.nodes:
                raise ScriptError(f"fact names unknown node {node_name!r}")
            if tag == "ORACLE":
                if node_name not in self.bindings:
                    raise ScriptError(f"ORACLE fact on {node_name} needs a geometry binding")
                self._step("oracle", node_name, t, degree, value)
            self.graph.add_value_fact(tag, node_name, t, degree, value)
            entry = {"node": node_name, "twist": t, "value": value}
        self.facts.append({"tag": tag, "what": what, **entry, "verified": verified})

    def _verify_epi(self, tname: str, t: int) -> None:
        """The step that checks H0(B) -> H0(C) surjective, for C bound marked points."""
        ti = self.graph.materialize(tname, t)
        b_node, c_node = (self.graph.nodes[name] for name, _ in self.graph.triples[tname][1:])
        if c_node.kind is not Kind.POINTS or c_node.name not in self.bindings:
            raise ScriptError(f"epi fact on {tname}: quotient must be bound marked points")
        # B's params, twisted
        self._step("epi", tname, t, c_node.name, c_node.params[0], b_node.kind,
                   ti.parts[1].key[1:])

    def _cmd_annotate(self, args: list[str]) -> None:
        if args[0] == "diagram":
            if len(args) != 11:
                raise ScriptError("annotate diagram DOM T COD T COLA T COLB T COLC T")
            refs = [(args[i], _as_int(args[i + 1], self.env)) for i in range(1, 11, 2)]
            self.graph.add_diagram(*refs)
        elif args[0] == "compose":
            rest = " ".join(args[1:])
            m = re.match(r"(\S+)\s+(\S+)\s*=\s*(\S+)\s+(\S+)\s*;\s*(\S+)\s+(\S+)$", rest)
            if not m:
                raise ScriptError("annotate compose OUT T = FIRST T ; SECOND T")
            g = m.groups()
            out = (g[0], _as_int(g[1], self.env))
            first = (g[2], _as_int(g[3], self.env))
            second = (g[4], _as_int(g[5], self.env))
            self.graph.add_composition(out, first, second)
        else:
            raise ScriptError(f"unknown annotate form {args[0]!r}")

    def _cmd_assert(self, args: list[str]) -> None:
        degree, node_name, t, relation, value = self._h_slot(
            args, "assert hI NODE T (=|<=) V")
        if relation not in ("=", "<="):
            raise ScriptError("assert relation must be = or <=")
        inst = self.graph.instance(node_name, t)
        iv, label = inst.h[degree], inst.label
        if relation == "=":
            entailed = iv.pinned and iv.value == value
        else:
            entailed = iv.hi is not None and iv.hi <= value
        self.asserts.append({
            "target": f"h{degree}({label})",
            "relation": relation,
            "expected": value,
            "interval": [iv.lo, iv.hi],
            "status": "entailed" if entailed else "not-entailed",
            # on failure the chain shows how the conflicting interval arose
            "chain": self.graph.explain(node_name, t, degree),
        })
        if not entailed:
            # the geometry raises it again with the report of its seed
            raise AssertionNotEntailed(
                f"assert h{degree}({label}) {relation} {value}: interval is {iv}")

    def _agreement_rows(self) -> list[list]:
        """The settled intervals of every instance of a sheaf bound to an
        ideal or serre configuration, in the order of their keys."""
        keys = sorted(self.graph.instances, key=lambda k: (str(k[0]), k[1:]))
        if keys:  # the first query settles the graph; the rest find it settled
            first = self.graph.instances[keys[0]]
            self.graph.instance(first.node_name, first.twist)
        rows = []
        for key in keys:
            inst = self.graph.instances[key]
            if (self.bindings.get(inst.node_name) in ("ideal", "serre")
                    and self.graph.nodes[inst.node_name].kind is Kind.SHEAF):
                rows.append([inst.label, inst.node_name, inst.twist,
                             [[iv.lo, iv.hi] for iv in inst.h]])
        return rows


class _Geometry:
    """The geometry of one replay at one seed: sampled configurations, the
    bindings of nodes to them, and the oracle checks of each step."""

    def __init__(self, report: ScriptReport):
        self.report = report
        self.configs: dict[str, GeometryConfig] = {}
        # node name -> (oracle kind: ideal, serre or points, config it reads)
        self.bindings: dict[str, tuple[str, GeometryConfig]] = {}

    def config(self, label: str, kind: str, *values) -> None:
        seed = child_seed(self.report.seed, f"config:{label}")
        if kind == "join":
            cfg = join_configs(*(self.configs[part] for part in values))
        elif kind == "modification":
            d, avoid = values
            cfg = sample_modification(d, seed, avoid=None if avoid is None else self.configs[avoid])
        else:
            cfg = (sample_ruling if kind == "ruling" else sample_conics)(values[0], seed)
        self.configs[label] = cfg
        self.report.configs[label] = {
            "kind": kind,
            "components": cfg.components,
            "hash": config_hash(cfg),
        }

    def bind(self, name: str, geom: str) -> None:
        kind, _, label = geom.partition(":")
        cfg = self.configs[label]
        if kind in ("ideal-ruling", "ideal-partner"):
            if cfg.curve != "conics":
                raise ScriptError(f"geometry binding {geom!r}: config {label!r} "
                                  f"is not a conic configuration")
            cfg = ruling_part(cfg) if kind == "ideal-ruling" else partner_part(cfg)
        elif kind == "serre" and cfg.serre_shift is None:
            raise ScriptError(f"geometry binding {geom!r}: config {label!r} has no extension data")
        self.bindings[name] = (_BINDING_KINDS[kind], cfg)

    def vector(self, name: str, t: int):
        kind, cfg = self.bindings[name]
        if kind == "ideal":
            return ideal_cohomology(cfg, t)
        if kind == "serre":
            return serre_cohomology(cfg, t)
        return h_points(len(cfg.marked))

    def oracle(self, name: str, t: int, degree: int, value: int) -> None:
        actual = self.vector(name, t)[degree]
        if actual != value:
            raise OracleFactMismatch(
                f"fact h{degree}({name}@{t}) = {value} but oracle computes {actual}")

    def epi(self, tname: str, t: int, points_node: str, count: int, source: Kind,
            params: tuple[int, ...]) -> None:
        points = self.bindings[points_node][1].marked
        if len(points) != count:
            raise ScriptError(f"epi fact on {tname}: {len(points)} marked points bound, "
                              f"node expects {count}")
        if source is Kind.QUADRIC:
            surjective = quadric_restriction_onto_points_surjective(points, *params)
        elif source is Kind.LINE:
            surjective = restriction_onto_points_surjective([mp.point for mp in points], *params)
        else:
            raise ScriptError(f"epi fact on {tname}: unsupported source kind {source}")
        if not surjective:
            raise OracleFactMismatch(f"fact epi {tname}@{t}: restriction not surjective")

    def agree(self, rows: list[list]) -> None:
        checked = 0
        mismatches = []
        for label, name, t, intervals in rows:
            vec = self.vector(name, t)
            for degree, (lo, hi) in enumerate(intervals):
                actual = vec[degree]
                checked += 1
                if actual < lo or (hi is not None and actual > hi):
                    mismatches.append({"instance": label, "degree": degree,
                                       "engine": [lo, hi], "oracle": actual})
        self.report.agreement = {"checked": checked, "mismatches": mismatches}
        if mismatches:
            self.report.passed = False
            raise Contradiction(
                f"oracle/engine disagreement on {len(mismatches)} slot(s): {mismatches[:3]}")


def replay(deduction: Deduction, name: str, params: dict[str, int],
           seed: int) -> ScriptReport:
    """The geometry of a replay at ``seed``: run the steps of ``deduction``
    in order, then raise its failure or run the agreement sweep."""
    report = ScriptReport(name, dict(params), seed)
    geometry = _Geometry(report)
    for lineno, line, action, args in deduction.steps:
        try:
            getattr(geometry, action)(*args)
        except _WRAPPED as exc:
            raise _at_line(name, lineno, line, exc) from exc
    report.facts, report.asserts = json.loads(deduction.facts), json.loads(deduction.asserts)
    if deduction.failure is not None:
        kind, message = deduction.failure
        if kind is AssertionNotEntailed:
            report.passed = False
            raise AssertionNotEntailed(message, report)
        raise kind(message)
    geometry.agree(json.loads(deduction.agreement))
    return report


# Deductions kept by run_script_text: one acceptance pass replays 131
# distinct (script, params) pairs.
DEDUCTIONS = 256


@lru_cache(maxsize=DEDUCTIONS)
def _deduction(name: str, text: str, params: tuple[tuple[str, int], ...]) -> Deduction:
    return ScriptRunner(name, text, dict(params)).deduce()


def run_script_text(name: str, text: str, params: dict[str, int],
                    seed: int = 0) -> ScriptReport:
    env = {k: int(v) for k, v in params.items()}
    deduction = _deduction(name, text, tuple(env.items()))
    report = replay(deduction, name, env, int(seed))
    # facts and asserts are the deduction's texts, so only the per-seed keys are walked
    report.report_hash = spliced_hash(report.to_dict(), {"facts": deduction.facts,
                                                         "asserts": deduction.asserts})
    return report


@lru_cache(maxsize=16)
def load_bundled_script(name: str) -> str:
    fname = name if name.endswith(".les") else f"{name}.les"
    return resources.files("p3bundles.scripts").joinpath(fname).read_text("utf-8")


def run_script(name: str, params: dict[str, int], seed: int = 0) -> ScriptReport:
    return run_script_text(name, load_bundled_script(name), params, seed)

"""Line-oriented proof scripts replayed against the deduction engine.

A script declares sheaf nodes, short exact triples, twists, tagged facts and
assertions; running one materializes the long exact sequences, verifies every
ORACLE fact against freshly sampled geometry, propagates the rule set, and
checks each `assert` is entailed at its point in the file.  Reports are
canonical-JSON stable for fixed (script, params, seed).

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
import re
from dataclasses import dataclass, field
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
from p3bundles.jsonio import content_hash
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
    """An `assert` the rules do not entail; `report` ends with its chain."""

    def __init__(self, message: str, report: "ScriptReport"):
        super().__init__(message)
        self.report = report


# Everything a replay raises that is not a bug: malformed input (ScriptError,
# GraphError) or a run that did not verify.
RUN_FAILURES = (ScriptError, GraphError, AssertionNotEntailed, OracleFactMismatch,
                Contradiction, SamplingFailed)


_BRACE = re.compile(r"\{([^{}]+)\}")

_ALLOWED_CALLS = {"binom": lambda n, k: comb(n, k) if 0 <= k <= n else 0,
                  "max": max, "min": min, "abs": abs}


def _safe_eval(expr: str, env: dict[str, int]) -> int:
    tree = ast.parse(expr, mode="eval")

    def ev(node):
        if isinstance(node, ast.Expression):
            return ev(node.body)
        if isinstance(node, ast.Constant) and isinstance(node.value, (int, bool)):
            return int(node.value)
        if isinstance(node, ast.Name):
            if node.id in env:
                return env[node.id]
            raise ScriptError(f"unknown name {node.id!r} in {expr!r}")
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd, ast.Not)):
            v = ev(node.operand)
            if isinstance(node.op, ast.USub):
                return -v
            if isinstance(node.op, ast.Not):
                return int(not v)
            return v
        if isinstance(node, ast.BinOp):
            a, b = ev(node.left), ev(node.right)
            if isinstance(node.op, ast.Add):
                return a + b
            if isinstance(node.op, ast.Sub):
                return a - b
            if isinstance(node.op, ast.Mult):
                return a * b
            if isinstance(node.op, ast.FloorDiv):
                return a // b
            if isinstance(node.op, ast.Mod):
                return a % b
            if isinstance(node.op, ast.Pow):
                return a ** b
            raise ScriptError(f"operator not allowed in {expr!r}")
        if isinstance(node, ast.Compare):
            left = ev(node.left)
            for op, right_node in zip(node.ops, node.comparators):
                right = ev(right_node)
                ok = {ast.Lt: left < right, ast.LtE: left <= right,
                      ast.Gt: left > right, ast.GtE: left >= right,
                      ast.Eq: left == right, ast.NotEq: left != right}.get(type(op))
                if ok is None:
                    raise ScriptError(f"comparison not allowed in {expr!r}")
                if not ok:
                    return 0
                left = right
            return 1
        if isinstance(node, ast.BoolOp):
            vals = [ev(v) for v in node.values]
            if isinstance(node.op, ast.And):
                return int(all(vals))
            return int(any(vals))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            fn = _ALLOWED_CALLS.get(node.func.id)
            if fn is None:
                raise ScriptError(f"call to {node.func.id!r} not allowed")
            return int(fn(*[ev(a) for a in node.args]))
        raise ScriptError(f"construct not allowed in expression {expr!r}")

    return int(ev(tree))


def _substitute(token: str, env: dict[str, int]) -> str:
    return _BRACE.sub(lambda m: str(_safe_eval(m.group(1), env)), token)


def _as_int(token: str, env: dict[str, int]) -> int:
    return int(_substitute(token, env))


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


class ScriptRunner:
    def __init__(self, name: str, text: str, params: dict[str, int], seed: int,
                 order: str = "forward"):
        self.name = name
        self.lines = text.splitlines()
        self.env = {k: int(v) for k, v in params.items()}
        self.seed = int(seed)
        self.graph = DeductionGraph(order)
        self.configs: dict[str, GeometryConfig] = {}
        # node name -> (oracle kind: ideal, serre or points, config it reads)
        self.bindings: dict[str, tuple[str, GeometryConfig]] = {}
        self.report = ScriptReport(name, dict(self.env), self.seed)
        self._declared_params: set[str] = set()

    # -- geometry ---------------------------------------------------------

    def _binding(self, geom: str) -> tuple[str, GeometryConfig]:
        kind, _, label = geom.partition(":")
        if label not in self.configs:
            raise ScriptError(f"geometry binding {geom!r}: unknown config {label!r}")
        cfg = self.configs[label]
        if kind in ("ideal-ruling", "ideal-partner"):
            if cfg.curve != "conics":
                raise ScriptError(f"geometry binding {geom!r}: config {label!r} "
                                  f"is not a conic configuration")
            return "ideal", ruling_part(cfg) if kind == "ideal-ruling" else partner_part(cfg)
        if kind == "serre" and cfg.serre_shift is None:
            raise ScriptError(f"geometry binding {geom!r}: config {label!r} has no extension data")
        if kind in ("ideal", "serre", "points"):
            return kind, cfg
        raise ScriptError(f"unknown geometry binding kind {kind!r}")

    def _oracle_vector(self, node_name: str, t: int):
        kind, cfg = self.bindings[node_name]
        if kind == "ideal":
            return ideal_cohomology(cfg, t)
        if kind == "serre":
            return serre_cohomology(cfg, t)
        return h_points(len(cfg.marked))

    # -- command handlers ---------------------------------------------------

    def run(self) -> ScriptReport:
        for lineno, raw in enumerate(self.lines, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            try:
                self._command(line)
            except (ScriptError, GraphError, OracleFactMismatch, Contradiction) as exc:
                raise type(exc)(f"{self.name}:{lineno}: {exc}") from exc
            except (IndexError, KeyError, ValueError, SyntaxError, ZeroDivisionError) as exc:
                raise ScriptError(f"{self.name}:{lineno}: malformed line {line!r}: "
                                  f"{type(exc).__name__}: {exc}") from exc
        undeclared = sorted(set(self.env) - self._declared_params)
        if undeclared:
            raise ScriptError(f"{self.name}: undeclared parameter(s) {', '.join(undeclared)}")
        self._agreement_sweep()
        return self.report

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
        if label in self.configs:
            raise ScriptError(f"config {label!r} already declared")
        kv = {}
        for tok in args[2:]:
            k, _, v = tok.partition("=")
            kv[k] = v
        seed = child_seed(self.seed, f"config:{label}")
        if kind == "ruling":
            cfg = sample_ruling(_as_int(kv["m"], self.env), seed)
        elif kind == "conics":
            cfg = sample_conics(_as_int(kv["m"], self.env), seed)
        elif kind == "modification":
            avoid = None
            if "avoid" in kv:
                if kv["avoid"] not in self.configs:
                    raise ScriptError(f"avoid={kv['avoid']}: unknown config")
                avoid = self.configs[kv["avoid"]]
            cfg = sample_modification(_as_int(kv["d"], self.env), seed, avoid=avoid)
        elif kind == "join":
            parts = args[2:]
            if len(parts) != 2:
                raise ScriptError("config LABEL join FIRST SECOND")
            for part in parts:
                if part not in self.configs:
                    raise ScriptError(f"join of unknown config {part!r}")
            cfg = join_configs(self.configs[parts[0]], self.configs[parts[1]])
        else:
            raise ScriptError(f"unknown config kind {kind!r}")
        self.configs[label] = cfg
        self.report.configs[label] = {
            "kind": kind,
            "components": cfg.components,
            "hash": config_hash(cfg),
        }

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
                binding = self._binding(fl[len("geom="):])
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

    def _cmd_fact(self, args: list[str]) -> None:
        tag = args[0]
        if tag not in ("ORACLE", "STABILITY", "ASSUMED"):
            raise ScriptError(f"fact tag must be ORACLE/STABILITY/ASSUMED, got {tag!r}")
        what = args[1]
        if what in ("h0", "h1", "h2", "h3"):
            degree = int(what[1])
            node_name, t_tok, eq, v_tok = args[2:6]
            t = _as_int(t_tok, self.env)
            value = _as_int(v_tok, self.env)
            if eq != "=":
                raise ScriptError("value facts use '='")
            verified = None
            if node_name not in self.graph.nodes:
                raise ScriptError(f"fact names unknown node {node_name!r}")
            if tag == "ORACLE":
                if node_name not in self.bindings:
                    raise ScriptError(f"ORACLE fact on {node_name} needs a geometry binding")
                actual = self._oracle_vector(node_name, t)[degree]
                if actual != value:
                    raise OracleFactMismatch(
                        f"fact h{degree}({node_name}@{t}) = {value} but oracle computes {actual}")
                verified = True
            self.graph.add_value_fact(tag, node_name, t, degree, value)
            self.report.facts.append({"tag": tag, "what": f"h{degree}",
                                      "node": node_name, "twist": t, "value": value,
                                      "verified": verified})
        elif what == "epi":
            tname, t_tok = args[2], args[3]
            t = _as_int(t_tok, self.env)
            verified = None
            if tag == "ORACLE":
                verified = self._verify_epi(tname, t)
                if not verified:
                    raise OracleFactMismatch(f"fact epi {tname}@{t}: restriction not surjective")
            self.graph.add_conn_fact(tag, tname, t, 0)
            self.report.facts.append({"tag": tag, "what": "epi", "triple": tname,
                                      "twist": t, "verified": verified})
        elif what == "conn":
            tname, t_tok, i_tok = args[2], args[3], args[4]
            if tag == "ORACLE":
                raise ScriptError("conn facts cannot be oracle-verified; tag STABILITY/ASSUMED")
            self.graph.add_conn_fact(tag, tname, _as_int(t_tok, self.env),
                                     _as_int(i_tok, self.env))
            self.report.facts.append({"tag": tag, "what": "conn", "triple": tname,
                                      "twist": _as_int(t_tok, self.env),
                                      "verified": None})
        else:
            raise ScriptError(f"unknown fact form {what!r}")

    def _verify_epi(self, tname: str, t: int) -> bool:
        """H0(B) -> H0(C) surjectivity for evaluation-onto-marked-points triples."""
        ti = self.graph.materialize(tname, t)
        b_node, c_node = (self.graph.nodes[name] for name, _ in self.graph.triples[tname][1:])
        if c_node.kind is not Kind.POINTS or c_node.name not in self.bindings:
            raise ScriptError(f"epi fact on {tname}: quotient must be bound marked points")
        points = self.bindings[c_node.name][1].marked
        if len(points) != c_node.params[0]:
            raise ScriptError(f"epi fact on {tname}: {len(points)} marked points bound, "
                              f"node expects {c_node.params[0]}")
        b_params = ti.parts[1].key[1:]  # B's params, twisted
        if b_node.kind is Kind.QUADRIC:
            return quadric_restriction_onto_points_surjective(points, *b_params)
        if b_node.kind is Kind.LINE:
            return restriction_onto_points_surjective([mp.point for mp in points], *b_params)
        raise ScriptError(f"epi fact on {tname}: unsupported source kind {b_node.kind}")

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
        if len(args) != 5 or args[0] not in ("h0", "h1", "h2", "h3"):
            raise ScriptError("assert hI NODE T (=|<=) V")
        degree = int(args[0][1])
        node_name = args[1]
        t = _as_int(args[2], self.env)
        relation = args[3]
        value = _as_int(args[4], self.env)
        if relation not in ("=", "<="):
            raise ScriptError("assert relation must be = or <=")
        inst = self.graph.instance(node_name, t)
        iv, label = inst.h[degree], inst.label
        if relation == "=":
            entailed = iv.pinned and iv.value == value
        else:
            entailed = iv.hi is not None and iv.hi <= value
        entry = {
            "target": f"h{degree}({label})",
            "relation": relation,
            "expected": value,
            "interval": [iv.lo, iv.hi],
            "status": "entailed" if entailed else "not-entailed",
            # on failure the chain shows how the conflicting interval arose
            "chain": self.graph.explain(node_name, t, degree),
        }
        self.report.asserts.append(entry)
        if not entailed:
            self.report.passed = False
            raise AssertionNotEntailed(
                f"assert h{degree}({label}) {relation} {value}: interval is {iv}",
                self.report)

    # -- agreement sweep ---------------------------------------------------

    def _agreement_sweep(self) -> None:
        checked = 0
        mismatches = []
        for key in sorted(self.graph.instances, key=lambda k: (str(k[0]), k[1:])):
            stored = self.graph.instances[key]
            # the first query settles the graph
            inst = self.graph.instance(stored.node_name, stored.twist)
            kind, _ = self.bindings.get(inst.node_name, ("", None))
            node = self.graph.nodes[inst.node_name]
            if kind not in ("ideal", "serre") or node.kind is not Kind.SHEAF:
                continue
            vec = self._oracle_vector(inst.node_name, inst.twist)
            for degree in range(4):
                iv = inst.h[degree]
                actual = vec[degree]
                checked += 1
                if actual < iv.lo or (iv.hi is not None and actual > iv.hi):
                    mismatches.append({
                        "instance": inst.label, "degree": degree,
                        "engine": [iv.lo, iv.hi], "oracle": actual,
                    })
        self.report.agreement = {"checked": checked, "mismatches": mismatches}
        if mismatches:
            self.report.passed = False
            raise Contradiction(
                f"oracle/engine disagreement on {len(mismatches)} slot(s): {mismatches[:3]}")


def run_script_text(name: str, text: str, params: dict[str, int], seed: int = 0,
                    order: str = "forward") -> ScriptReport:
    runner = ScriptRunner(name, text, params, seed, order)
    report = runner.run()
    report.report_hash = content_hash(report.to_dict())
    return report


def load_bundled_script(name: str) -> str:
    fname = name if name.endswith(".les") else f"{name}.les"
    return resources.files("p3bundles.scripts").joinpath(fname).read_text("utf-8")


def run_script(name: str, params: dict[str, int], seed: int = 0,
               order: str = "forward") -> ScriptReport:
    return run_script_text(name, load_bundled_script(name), params, seed, order)

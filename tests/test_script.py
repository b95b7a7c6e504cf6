"""Proof-script replay: bundled scripts, failure modes, determinism."""

import pytest
from test_golden import SCRIPT_HASHES

from p3bundles import clear_caches
from p3bundles.engine import (
    AssertionNotEntailed,
    Contradiction,
    DeductionGraph,
    GraphError,
    ScriptError,
    load_bundled_script,
    run_script,
    run_script_text,
)
from p3bundles.engine.script import OracleFactMismatch, ScriptRunner, _safe_eval, replay
from p3bundles.jsonio import canonical_json, content_hash
from p3bundles.monad import Series, in_strict_range
from p3bundles.oracle import SamplingFailed

GOOD_RUNS = [
    ("prop1", {"m": 1, "eps": 0, "a": 5}),
    ("prop1", {"m": 4, "eps": 1, "a": 9}),
    ("prop1-modified", {"m": 8, "a": 12, "d": 3}),
    ("prop2", {"m": 1, "eps": 0, "a": 6}),
    ("prop2", {"m": 2, "eps": 1, "a": 10}),
    ("thmA-chain", {"m": 1, "eps": 0, "a": 5}),
    ("thmB-chain", {"m": 1, "eps": 0, "a": 6}),
]


@pytest.mark.parametrize("name,params", GOOD_RUNS,
                         ids=[f"{n}-{'-'.join(map(str, p.values()))}" for n, p in GOOD_RUNS])
def test_bundled_scripts_entail(name, params):
    report = run_script(name, params, seed=0)
    assert report.passed
    assert report.asserts, "a run with no assertions proves nothing"
    assert all(entry["status"] == "entailed" for entry in report.asserts)
    assert report.agreement["mismatches"] == []
    assert report.agreement["checked"] > 0


@pytest.mark.parametrize("m,eps,seed", [(m, eps, seed) for m in (1, 2, 3)
                                         for eps in (0, 1) for seed in (0, 1)])
def test_prop2_entails_at_the_lowest_strict_twist(m, eps, seed):
    a = 2 * (m + eps) + 3  # where in_strict_range, and so `monad checks`, starts prop2
    assert in_strict_range(Series.SIGMA1, m, eps, a)
    assert not in_strict_range(Series.SIGMA1, m, eps, a - 1)
    report = run_script("prop2", {"m": m, "eps": eps, "a": a}, seed=seed)
    assert report.passed
    assert all(entry["status"] == "entailed" for entry in report.asserts)


def test_report_hash_is_seed_stable():
    one = run_script("prop1", {"m": 1, "eps": 0, "a": 5}, seed=3)
    two = run_script("prop1", {"m": 1, "eps": 0, "a": 5}, seed=3)
    other = run_script("prop1", {"m": 1, "eps": 0, "a": 5}, seed=4)
    assert one.report_hash == two.report_hash
    assert one.report_hash != other.report_hash
    assert one.configs != other.configs


def test_out_of_range_parameters_are_not_entailed():
    # m + eps beyond a - 4 breaks the vanishing the script must certify
    with pytest.raises(AssertionNotEntailed) as exc_info:
        run_script("prop1", {"m": 9, "eps": 0, "a": 5}, seed=0)
    report = exc_info.value.report
    bad = [e for e in report.asserts if e["status"] == "not-entailed"]
    assert bad and bad[0]["chain"]


def test_oracle_fact_mismatch_is_fatal():
    # a self-contained script asserting a wrong oracle value
    text = """param m
config Y ruling m={m}
node I ideal geom=ideal:Y
fact ORACLE h0 I 1 = {m+99}
"""
    with pytest.raises(OracleFactMismatch):
        run_script_text("inline", text, {"m": 1}, seed=0)


def test_unknown_script_rejected():
    with pytest.raises((FileNotFoundError, ScriptError)):
        run_script("no-such-script", {}, seed=0)


def test_missing_parameter_rejected():
    with pytest.raises((ScriptError, KeyError)):
        run_script("prop1", {"m": 1}, seed=0)


def test_undeclared_parameter_rejected():
    with pytest.raises(ScriptError, match="undeclared parameter.*zzz"):
        run_script("prop1", {"m": 1, "eps": 0, "a": 5, "zzz": 7}, seed=0)


@pytest.mark.parametrize("table_node,name,twist,label", [
    ("line 0", "O", 2, "h0(O(+2))"),
    ("points 3", "P", 3, "h0(P(+3))"),
])
def test_sheaf_names_do_not_alias_table_shapes(table_node, name, twist, label):
    # a sheaf named like a table shape must not inherit that table's values
    text = f"""node Z {table_node}
node {name} sheaf
node X sheaf
triple T Z X {name}
twist T {twist}
assert h0 {name} {twist} = 10
"""
    with pytest.raises(AssertionNotEntailed) as exc_info:
        run_script_text("alias", text, {}, seed=0)
    entry = exc_info.value.report.asserts[-1]
    assert entry["status"] == "not-entailed"
    assert entry["target"] == label
    assert entry["interval"] == [0, None]


# 0 -> I_Y -> O -> O_Y -> 0 factors as O -> O_S -> O_Y through the quadric
COMPOSE_BASE = """node O line 0
node S quadric 0 0
node Y lines 2 0
node Z lines 3 0
node IY sheaf
node IS sheaf
node K sheaf
node KZ sheaf
triple TY IY O Y
triple TS IS O S
triple TK K S Y
triple TZ KZ S Z
twist TY 1
twist TS 1
twist TK 1
twist TZ 1
fact ASSUMED epi TS 1
fact ASSUMED epi TK 1
"""


def unmemoised(name, text, params, seed=0):
    """A replay with no deduction memo: a fresh deduction, then its geometry."""
    return replay(ScriptRunner(name, text, params).deduce(), name, params, seed)


def test_compose_makes_the_composite_surjective():
    text = COMPOSE_BASE + "annotate compose TY 1 = TS 1 ; TK 1\nassert h1 IY 1 = 0\n"
    runner = ScriptRunner("compose", text, {})
    report = replay(runner.deduce(), "compose", {}, 0)
    assert report.asserts[0]["status"] == "entailed"
    assert runner.graph.tinsts[("TY", 1)].conn_origin[0] == (
        "R8: composite of H0-surjections TS@1 then TK@1")
    # without the annotation nothing forces the split
    with pytest.raises(AssertionNotEntailed):
        run_script_text("compose", COMPOSE_BASE + "assert h1 IY 1 = 0\n", {}, seed=0)


@pytest.mark.parametrize("line,message", [
    ("annotate compose TY 1 = TK 1 ; TK 1", "first factor must share the source term"),
    ("annotate compose TY 1 = TS 1 ; TS 1", "factors do not chain"),
    ("annotate compose TY 1 = TS 1 ; TZ 1", "second factor must share the target term"),
])
def test_compose_corner_mismatch(line, message):
    with pytest.raises(GraphError, match=message):
        run_script_text("compose", COMPOSE_BASE + line + "\n", {}, seed=0)


def test_bundled_sources_are_commented():
    for name in ("prop1", "prop1-modified", "prop2", "thmA-chain", "thmB-chain"):
        text = load_bundled_script(name)
        assert text.strip().startswith("#")
        assert "assert" in text


def test_report_dict_shape():
    report = run_script("prop2", {"m": 1, "eps": 0, "a": 6}, seed=1)
    payload = report.to_dict()
    assert payload["script"] == "prop2"
    assert payload["params"] == {"a": 6, "eps": 0, "m": 1}
    assert payload["seed"] == 1
    assert set(payload) >= {"configs", "facts", "asserts", "agreement", "passed"}


@pytest.mark.parametrize("expr,value", [
    ("m+2", 5), ("m-5", -2), ("m*4", 12), ("7//m", 2), ("7%m", 1), ("m**2", 9),
    ("-m", -3), ("+m", 3), ("not 0", 1), ("not 5", 0), ("True", 1),
    ("2<3", 1), ("3<=3", 1), ("2>3", 0), ("3>=4", 0), ("m==3", 1), ("m!=3", 0),
    ("1<2<3", 1), ("1<3<2", 0), ("2 and 3", 1), ("0 and 3", 0), ("0 or 7", 1),
    ("0 or 0", 0), ("binom(5,2)", 10), ("binom(3,5)", 0), ("binom(3,-1)", 0),
    ("max(m,4,2)", 4), ("min(m,4)", 3), ("abs(-5)", 5), ("-7//2", -4), ("2**-1", 0),
    ("2*(m+1)", 8),
])
def test_brace_expression_values(expr, value):
    assert _safe_eval(expr, {"m": 3}) == value


@pytest.mark.parametrize("expr", [
    "1 if m else 2", "m.real", "m[0]", "lambda: 1", "7/2", "1<<2", "'a'", "1.5",
    "zzz", "pow(2,3)",
])
def test_brace_expression_rejects(expr):
    with pytest.raises(ScriptError):
        _safe_eval(expr, {"m": 3})


IF_SCRIPT = """param eps
node O line 0
node S quadric 0 0
node I sheaf
triple T I O S
if {eps==1} :: twist T 2
"""


@pytest.mark.parametrize("eps", [0, 1])
def test_if_line_runs_its_command_only_when_the_condition_holds(eps):
    runner = ScriptRunner("if", IF_SCRIPT, {"eps": eps})
    replay(runner.deduce(), "if", {"eps": eps}, 0)
    assert (("T", 2) in runner.graph.tinsts) == (eps == 1)


@pytest.mark.parametrize("bad", ["{eps/2}", "{eps+}", "{zzz}"])
def test_a_bad_brace_expression_raises_at_its_line_each_time_it_is_reached(bad):
    """Expressions are parsed once per text, but an error is still raised
    at the line that evaluates it, and not when an `if` skips that line."""
    text = IF_SCRIPT + f"if {{eps==1}} :: twist T {bad}\n"
    for _ in range(2):
        unmemoised("bad", text, {"eps": 0})
        with pytest.raises(ScriptError, match=r"^bad:7: "):
            unmemoised("bad", text, {"eps": 1})


def test_conn_facts_record_their_index():
    base = "node O line 0\nnode S quadric 0 0\nnode I sheaf\ntriple T I O S\ntwist T 0\n"
    one, two = (run_script_text("conn", base + f"fact ASSUMED conn T 0 {index}\n", {}, seed=0)
                for index in (1, 2))
    assert [fact["index"] for fact in one.facts + two.facts] == [1, 2]
    assert one.report_hash != two.report_hash


# -- the deduction memo ----------------------------------------------------------

@pytest.fixture
def propagations(monkeypatch):
    """Every call of `DeductionGraph.propagate`."""
    calls = []
    propagate = DeductionGraph.propagate

    def counting(self):
        calls.append(1)
        return propagate(self)

    monkeypatch.setattr(DeductionGraph, "propagate", counting)
    return calls


def report_bytes(name, params, seed) -> str:
    """The canonical bytes of a replay's report, partial where an assert is
    not entailed."""
    try:
        report = run_script(name, dict(params), seed=seed)
    except AssertionNotEntailed as exc:
        report = exc.report
    return canonical_json(report.to_dict())


@pytest.mark.parametrize("case", sorted(SCRIPT_HASHES),
                         ids=lambda c: f"{c[0]}-{'-'.join(str(v) for _, v in c[1])}-s{c[2]}")
def test_a_warm_replay_has_the_cold_bytes_and_does_no_graph_work(propagations, case):
    name, params, seed = case
    clear_caches()
    cold = report_bytes(name, params, seed)
    assert propagations
    clear_caches()
    report_bytes(name, params, seed + 1)  # deduced at another seed
    propagations.clear()
    assert report_bytes(name, params, seed) == cold
    assert propagations == []


def whole_report_hash(report) -> str:
    payload = report.to_dict()
    del payload["report_hash"]
    return content_hash(payload)


@pytest.mark.parametrize("case", sorted(SCRIPT_HASHES),
                         ids=lambda c: f"{c[0]}-{'-'.join(str(v) for _, v in c[1])}-s{c[2]}")
def test_the_spliced_hash_is_the_whole_report_hash(case):
    """Cold, and warm after another seed; a partial report carries no hash."""
    name, params, seed = case
    clear_caches()
    for replay_seed in (seed, seed + 1, seed):
        try:
            report = run_script(name, dict(params), seed=replay_seed)
        except AssertionNotEntailed as exc:
            assert exc.report.report_hash == ""
            continue
        assert report.report_hash == whole_report_hash(report)


ESCAPED = 'Y"\\é'  # a quote, a backslash and a non-ASCII letter


def test_the_spliced_hash_escapes_names_as_the_whole_report_does():
    node = "I" + ESCAPED
    text = (f"param m\nconfig {ESCAPED} ruling m={{m}}\nnode {node} ideal geom=ideal:{ESCAPED}\n"
            f"node O line 0\nnode C lines {{m+1}} 0\ntriple T{ESCAPED} {node} O C\n"
            f"twist T{ESCAPED} 0\nfact ORACLE h0 {node} 0 = 0\nassert h1 {node} 0 = 1\n")
    clear_caches()
    for seed in (0, 1, 0):
        report = run_script_text("doctored", text, {"m": 1}, seed=seed)
        assert report.passed and list(report.configs) == [ESCAPED]
        assert report.facts[0]["node"] == node and node in report.asserts[0]["target"]
        assert "\\u00e9" in canonical_json(report.to_dict())
        assert report.report_hash == whole_report_hash(report)


ORACLE_MISS = "fact ORACLE h0 I 1 = {m+99}\n"  # two ruling lines: h0(I_Y(1)) = 0
PROLOGUE = "param m\nconfig Y ruling m={m}\nnode I ideal geom=ideal:Y\n"


@pytest.mark.parametrize("text,error,message", [
    pytest.param(PROLOGUE + ORACLE_MISS + "assert h0 NOPE 0 = 0\n", OracleFactMismatch,
                 "doctored:4: fact h0(I@1) = 100 but oracle computes 0", id="geometry-first"),
    pytest.param(PROLOGUE + "assert h0 NOPE 0 = 0\n" + ORACLE_MISS, GraphError,
                 "doctored:4: unknown node NOPE", id="deduction-first"),
    pytest.param("param m\nconfig Y ruling m={m}\nconfig Z join Y Y\nnode\n", SamplingFailed,
                 "joined configurations share a point", id="sampling-before-malformed"),
    pytest.param(PROLOGUE + "node O line 0\nnode C lines {m+1} 0\ntriple T I O C\n"
                 "twist T 0\nfact ORACLE h0 I 0 = 0\nassert h1 I 0 = 5\n",
                 AssertionNotEntailed, "assert h1(I) = 5: interval is 1",
                 id="not-entailed"),
    pytest.param(PROLOGUE + "fact ASSUMED h0 I 1 = 3\n", Contradiction,
                 "oracle/engine disagreement on 1 slot(s)", id="agreement-mismatch"),
])
def test_failures_come_in_the_same_order_cold_and_warm(text, error, message):
    """The deduction records its first failure; the geometry raises a step's
    error where that step comes first, and the recorded failure otherwise."""

    def failure(seed, memo=True):
        with pytest.raises(error) as info:
            if memo:
                run_script_text("doctored", text, {"m": 1}, seed=seed)
            else:
                unmemoised("doctored", text, {"m": 1}, seed)
        report = getattr(info.value, "report", None)
        return str(info.value), report and canonical_json(report.to_dict())

    clear_caches()
    cold = failure(0)
    failure(1)
    assert failure(0) == cold == failure(0, memo=False)
    assert message in cold[0]


def test_a_partial_report_holds_the_configs_the_facts_and_the_failing_assert():
    text = (PROLOGUE + "node O line 0\nnode C lines {m+1} 0\ntriple T I O C\n"
            "twist T 0\nfact ORACLE h0 I 0 = 0\nassert h1 I 0 = 5\n")
    clear_caches()
    for seed in (0, 1, 0):
        with pytest.raises(AssertionNotEntailed) as info:
            run_script_text("doctored", text, {"m": 1}, seed=seed)
        report = info.value.report
        assert not report.passed and report.seed == seed and list(report.configs) == ["Y"]
        assert [fact["verified"] for fact in report.facts] == [True]
        assert [entry["status"] for entry in report.asserts] == ["not-entailed"]
        assert report.agreement == {}


def test_mutating_a_report_leaves_the_next_replay_alone():
    params = {"m": 1, "eps": 0, "a": 5}
    first = run_script("prop1", params, seed=0)
    expected = canonical_json(first.to_dict())
    first.facts[0]["value"] = 99
    first.facts.append({})
    first.asserts[0]["chain"].clear()
    first.asserts[0]["interval"][0] = 7
    first.agreement["mismatches"].append("x")
    first.configs.clear()
    assert canonical_json(run_script("prop1", params, seed=0).to_dict()) == expected

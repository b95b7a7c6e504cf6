"""Command-line frontend.

Exit codes (`main` alone decides them): 0 success; 1 a run that did not verify
(an assertion not entailed, a refuted ORACLE fact, a Contradiction,
SamplingFailed, an unpinned or inconsistent profile, a failed acceptance
criterion); 2 a usage error (bad or out-of-range options, an invalid spec,
an unreadable --script-file, an unwritable --out, a malformed script:
ScriptError, GraphError).  Each ends in a one-line message on stderr, not a
traceback.  Every JSON report embeds the seed and a hash of the resolved
configuration; identical configuration and seed give byte-identical output.

The only environment variable honoured is P3BUNDLES_OUT_DIR, the default
directory for --out paths.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, field

from p3bundles import acceptance
from p3bundles.atlas import (
    Family,
    compare,
    coverage_sigma0,
    curated_components,
    density_sigma1,
    enumerate_series,
    records_to_tsv,
)
from p3bundles.engine import (
    RUN_FAILURES,
    AssertionNotEntailed,
    GraphError,
    ScriptError,
    load_bundled_script,
    run_script_text,
)
from p3bundles.jsonio import canonical_json_pretty, content_hash
from p3bundles.monad import (
    InconsistentProfile,
    InvalidSpec,
    MonadSpec,
    Series,
    Unpinned,
    cohomology_chern,
    component_dimension,
    expected_dimension,
    format_spectrum,
    h1_intervals,
    middle_term_checks,
    spectrum,
    summand_character,
)
from p3bundles.oracle import (
    config_hash,
    ideal_cohomology,
    marked_point_evaluation_surjective,
    restriction_onto_lines_surjective,
    sample_conics,
    sample_modification,
    sample_ruling,
    serre_cohomology,
)
from p3bundles.oracle import configs as oracle_configs

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class RunConfig:
    """Resolved invocation: one seed, one output format, explicit bounds."""

    command: str
    seed: int = 0
    format: str = "json"
    out: str | None = None
    retry_budget: int = 64
    script_path: str | None = None
    bounds: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"command": self.command, "seed": self.seed,
                "format": self.format, "retry_budget": self.retry_budget,
                "script_path": self.script_path,
                "bounds": {k: v for k, v in sorted(self.bounds.items())}}

    def hash(self) -> str:
        return content_hash(self.to_dict())


class UsageError(Exception):
    pass


class VerificationFailure(Exception):
    """The acceptance suite ran and some criterion failed."""


# Exit 2, then exit 1: tested in this order, so ScriptError and GraphError,
# which are also RUN_FAILURES, exit 2.
USAGE_FAILURES = (UsageError, InvalidSpec, ScriptError, GraphError)
VERIFY_FAILURES = (*RUN_FAILURES, Unpinned, InconsistentProfile, VerificationFailure)


def _series(value: str) -> Series:
    try:
        return Series(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"unknown series {value!r}; expected sigma0 or sigma1")


def _at_least(minimum: int):
    """argparse type: an integer no smaller than `minimum`."""
    def parse(value: str) -> int:
        try:
            number = int(value)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid integer {value!r}")
        if number < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {number}")
        return number
    return parse


_NONNEGATIVE, _POSITIVE = _at_least(0), _at_least(1)


def _spec_from(args: argparse.Namespace) -> MonadSpec:
    return MonadSpec.create(args.series, args.m, args.eps, args.a)


def _emit(payload: dict, cfg: RunConfig, text_lines: list[str]) -> None:
    payload = {"schema": SCHEMA_VERSION, "seed": cfg.seed,
               "config_hash": cfg.hash(), **payload}
    if cfg.format == "json":
        rendered = canonical_json_pretty(payload) + "\n"
    elif cfg.format == "tsv":
        rendered = payload["tsv"]
    else:
        rendered = "\n".join(text_lines) + "\n"
    if cfg.out:
        base = os.environ.get("P3BUNDLES_OUT_DIR", "")
        path = cfg.out if os.path.isabs(cfg.out) else os.path.join(base, cfg.out)
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(rendered)
        except OSError as exc:
            raise UsageError(f"cannot write --out: {exc}") from exc
    else:
        sys.stdout.write(rendered)


# -- verify ------------------------------------------------------------------

def _cmd_verify(args: argparse.Namespace, cfg: RunConfig) -> None:
    params = {k: v for k, v in
              (("m", args.m), ("eps", args.eps), ("a", args.a), ("d", args.d))
              if v is not None}
    text = (_read_script_file(cfg.script_path) if cfg.script_path
            else load_bundled_script(args.script))
    report = run_script_text(args.script, text, params, seed=cfg.seed, order=args.order)
    agreement = report.agreement
    lines = [f"PASS {args.script} {params} seed={cfg.seed}",
             f"asserts entailed: {len(report.asserts)}",
             f"oracle/engine agreement: {agreement.get('checked', 0)} slots, "
             f"{len(agreement.get('mismatches', []))} mismatches",
             f"report hash: {report.report_hash}"]
    _emit({"verify": report.to_dict()}, cfg, lines)


def _read_script_file(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read --script-file: {exc}") from exc


# -- oracle ------------------------------------------------------------------

def _sampled_config(args: argparse.Namespace, cfg: RunConfig):
    if args.kind == "ruling":
        return sample_ruling(args.m, cfg.seed)
    if args.kind == "conics":
        return sample_conics(args.m, cfg.seed)
    return sample_modification(args.d, cfg.seed)


def _cmd_oracle(args: argparse.Namespace, cfg: RunConfig) -> None:
    if args.kind == "modification" and args.d is None:
        raise UsageError("--d is required for --kind modification")
    if args.kind != "modification" and args.m is None:
        raise UsageError(f"--m is required for --kind {args.kind}")
    geometry = _sampled_config(args, cfg)
    payload: dict = {"kind": args.kind, "twist": args.twist,
                     "geometry_hash": config_hash(geometry)}
    if args.kind == "modification":
        payload["d"] = args.d
    else:
        payload["m"] = args.m
    if args.oracle_op == "ideal":
        vec = ideal_cohomology(geometry, args.twist)
        payload["cohomology"] = list(vec)
        payload["chi"] = vec.chi()
        lines = [f"ideal sheaf twisted by {args.twist}: "
                 f"h = {vec.as_tuple()}, chi = {vec.chi()}"]
    elif args.oracle_op == "restrict":
        onto_lines = restriction_onto_lines_surjective(geometry, args.twist)
        payload["onto_lines_surjective"] = onto_lines
        lines = [f"restriction onto component lines at twist {args.twist}: "
                 f"{'surjective' if onto_lines else 'NOT surjective'}"]
        if geometry.marked:
            onto_points = marked_point_evaluation_surjective(geometry, args.twist)
            payload["onto_marked_points_surjective"] = onto_points
            lines.append(f"evaluation at marked points: "
                         f"{'surjective' if onto_points else 'NOT surjective'}")
    else:
        if geometry.serre_shift is None:
            raise UsageError("serre queries need --kind ruling or conics")
        vec = serre_cohomology(geometry, args.twist)
        payload["cohomology"] = list(vec)
        payload["chi"] = vec.chi()
        lines = [f"extension bundle twisted by {args.twist}: "
                 f"h = {vec.as_tuple()}, chi = {vec.chi()}"]
    _emit({"oracle": payload}, cfg, lines)


# -- monad -------------------------------------------------------------------

def _character_dict(ch) -> dict:
    c1, c2, c3 = ch.chern_classes()
    return {"rank": ch.rank, "ch": [ch.ch1, ch.ch2, ch.ch3],
            "chern_classes": [c1, c2, c3]}


def _headline(spec: MonadSpec) -> str:
    return (f"series {spec.series.value}: m={spec.m} eps={spec.eps} a={spec.a} "
            f"({spec.regime.value} regime, n={spec.n}, e={spec.e})")


def _cmd_monad(args: argparse.Namespace, cfg: RunConfig) -> None:
    op = getattr(args, "monad_op", "spectrum")  # the `spectrum` shorthand has none
    spec = _spec_from(args)
    base = {"series": spec.series.value, "m": spec.m, "eps": spec.eps,
            "a": spec.a, "regime": spec.regime.value, "n": spec.n, "e": spec.e}
    if op == "chern":
        left, right = spec.outer_twists
        payload = {**base,
                   "cohomology_sheaf": _character_dict(cohomology_chern(spec)),
                   "middle_summands": [
                       _character_dict(summand_character(spec.series, mi))
                       for mi in spec.summand_params],
                   "outer_twists": [left, right]}
        cc = payload["cohomology_sheaf"]["chern_classes"]
        lines = [_headline(spec),
                 f"cohomology sheaf: rank 2, c = {tuple(cc)}",
                 f"outer line bundles: O({left}), O({right})"]
    elif op == "profile":
        lo = args.lo if args.lo is not None else -(spec.a + 3)
        hi = args.hi if args.hi is not None else -1
        if lo > hi:
            raise UsageError("--lo must not exceed --hi")
        intervals = h1_intervals(spec, lo, hi, seed=cfg.seed)
        profile = {str(t): iv.value if iv.pinned else None for t, iv in intervals.items()}
        unpinned = [t for t, iv in intervals.items() if not iv.pinned]
        payload = {**base, "lo": lo, "hi": hi, "profile": profile,
                   "unpinned_twists": unpinned}
        lines = [_headline(spec)] + [
            f"h1 at twist {t}: "
            f"{profile[str(t)] if profile[str(t)] is not None else 'unpinned'}"
            for t in range(lo, hi + 1)]
    elif op == "spectrum":
        entries = spectrum(spec, seed=cfg.seed)
        payload = {**base, "spectrum": list(entries),
                   "display": format_spectrum(entries)}
        lines = [format_spectrum(entries)]
    elif op == "dims":
        dim = component_dimension(spec)
        exp = expected_dimension(spec.e, spec.n)
        payload = {**base, "dimension": dim, "expected": exp,
                   "excess": dim - exp}
        lines = [_headline(spec),
                 f"dimension {dim}, expected {exp}, excess {dim - exp}"]
    else:
        checks = middle_term_checks(spec, seed=cfg.seed)
        payload = {**base, "checks": checks}
        lines = [_headline(spec),
                 f"established: {checks['established']}"]
        for cond in checks["conditions"]:
            mark = "ok" if cond["established_on_instance"] else "FAIL"
            lines.append(f"  [{mark}] {cond['target']} = {cond['oracle_value']}"
                         f" (expected {cond['expected']})")
        for ev in checks["engine_evidence"]:
            lines.append(f"  script {ev['script']} -> {ev['status']}")
    _emit(payload, cfg, lines)


# -- series ------------------------------------------------------------------

def _records_payload(records) -> dict:
    return {"records": [r.to_dict() for r in records],
            "tsv": records_to_tsv(records)}


def _cmd_series(args: argparse.Namespace, cfg: RunConfig) -> None:
    if args.series_op == "enumerate":
        records = enumerate_series(args.series, args.n_max)
        payload = {"series": args.series.value, "n_max": args.n_max,
                   "count": len(records), **_records_payload(records)}
        lines = records_to_tsv(records).splitlines()
    elif args.series_op == "coverage":
        missing = coverage_sigma0(args.n_lo, args.n_hi)
        payload = {"n_lo": args.n_lo, "n_hi": args.n_hi, "missing": missing,
                   "complete": not missing}
        lines = ([f"every n in [{args.n_lo}, {args.n_hi}] is realized"]
                 if not missing else
                 [f"missing ({len(missing)}): "
                  f"{', '.join(map(str, missing[:25]))}"
                  + (" ..." if len(missing) > 25 else "")])
    elif args.series_op == "density":
        value = density_sigma1(args.r)
        payload = {"r": args.r, "density": value,
                   "decimal": f"{float(value):.6f}"}
        lines = [f"density up to {args.r}: {value} ~ {float(value):.6f}"]
    elif args.series_op == "catalog":
        records = curated_components()
        payload = {"count": len(records), **_records_payload(records)}
        lines = records_to_tsv(records).splitlines()
    else:
        result = compare(args.e, args.n)
        payload = result
        lines = [f"components at e={args.e}, n={args.n}:"]
        for rec in result["records"]:
            lines.append(f"  {rec['family']}: dimension {rec['dimension']} "
                         f"(expected {rec['expected']})")
        for sep in result["separations"]:
            lines.append(f"  {sep['larger']['family']} "
                         f"({sep['larger']['dimension']}) > "
                         f"{sep['smaller']['family']} "
                         f"({sep['smaller']['dimension']})")
        if not result["records"]:
            lines.append("  none known to this catalogue")
    _emit(payload, cfg, lines)


# -- accept ------------------------------------------------------------------

def _cmd_accept(args: argparse.Namespace, cfg: RunConfig) -> None:
    report, timings = acceptance.run_all(seed=cfg.seed)
    for cid in sorted(timings):
        print(f"criterion {cid:>2}: {timings[cid]:7.2f}s "
              f"(budget {acceptance.BUDGETS[cid]}s)", file=sys.stderr)
    _emit({"accept": report}, cfg, acceptance.summary_lines(report))
    if not report["passed"]:
        failing = [c["id"] for c in report["criteria"] if not c["passed"]]
        raise VerificationFailure(f"acceptance criteria failed: {failing}")


def _add_common(parser: argparse.ArgumentParser, default_format: str) -> None:
    """--seed, --format, --out, --retry-budget; tsv is offered only by the
    record tables (series enumerate, series catalog), whose default it is."""
    parser.add_argument("--seed", type=int, default=0,
                        help="root seed for all derived randomness (default 0)")
    parser.add_argument("--format", default=default_format,
                        choices=("json", "tsv", "text") if default_format == "tsv"
                        else ("json", "text"),
                        help=f"output format (default {default_format})")
    parser.add_argument("--out", help="output file; relative paths resolve "
                        "against $P3BUNDLES_OUT_DIR")
    parser.add_argument("--retry-budget", type=_NONNEGATIVE, default=64,
                        help="sampling attempts per geometric object (default 64)")


def _monad_params(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--series", type=_series, required=True,
                        help="sigma0 or sigma1")
    parser.add_argument("--m", type=int, required=True)
    parser.add_argument("--eps", type=int, required=True, choices=(0, 1))
    parser.add_argument("--a", type=int, required=True)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="p3bundles",
        description="Rank-2 bundles on projective 3-space: deduction-engine "
                    "replays, geometric oracles, and moduli bookkeeping.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="replay a bundled proof script")
    p_verify.add_argument("script", choices=("prop1", "prop1-modified",
                                             "prop2", "thmA-chain",
                                             "thmB-chain"))
    p_verify.add_argument("--m", type=int)
    p_verify.add_argument("--eps", type=int, choices=(0, 1))
    p_verify.add_argument("--a", type=int)
    p_verify.add_argument("--d", type=int)
    p_verify.add_argument("--order", choices=("forward", "reverse"),
                          default="forward",
                          help="rule application order (result is identical)")
    p_verify.add_argument("--script-file",
                          help="run this script text instead of the bundled one")
    p_verify.set_defaults(run=_cmd_verify)
    _add_common(p_verify, "text")

    p_oracle = sub.add_parser("oracle", help="query the geometric oracle")
    p_oracle.set_defaults(run=_cmd_oracle)
    sub_oracle = p_oracle.add_subparsers(dest="oracle_op", required=True)
    for name, blurb in (("ideal", "cohomology of a twisted ideal sheaf"),
                        ("restrict", "surjectivity of restriction maps"),
                        ("serre", "cohomology of the extension bundle")):
        q = sub_oracle.add_parser(name, help=blurb)
        q.add_argument("--kind", choices=("ruling", "conics", "modification"),
                       required=True)
        q.add_argument("--m", type=_NONNEGATIVE, help="charge (ruling/conics kinds)")
        q.add_argument("--d", type=_POSITIVE, help="line count (modification kind)")
        q.add_argument("--twist", type=int, required=True)
        _add_common(q, "text")

    p_monad = sub.add_parser("monad", help="family invariants and profiles")
    p_monad.set_defaults(run=_cmd_monad)
    sub_monad = p_monad.add_subparsers(dest="monad_op", required=True)
    for name, blurb in (("chern", "characters of the display terms"),
                        ("profile", "pinned h1 values across twists"),
                        ("spectrum", "recover the spectrum"),
                        ("dims", "moduli dimension and expected dimension"),
                        ("checks", "middle-term conditions with evidence")):
        q = sub_monad.add_parser(name, help=blurb)
        _monad_params(q)
        if name == "profile":
            q.add_argument("--lo", type=int, help="lowest twist (default -(a+3))")
            q.add_argument("--hi", type=int, help="highest twist (default -1)")
        _add_common(q, "text")

    p_series = sub.add_parser("series", help="enumeration and the catalogue")
    p_series.set_defaults(run=_cmd_series)
    sub_series = p_series.add_subparsers(dest="series_op", required=True)
    q = sub_series.add_parser("enumerate", help="all strict-regime records")
    q.add_argument("--series", type=_series, required=True)
    q.add_argument("--n-max", type=_POSITIVE, required=True)
    _add_common(q, "tsv")
    q = sub_series.add_parser("coverage", help="charges missed by the c1=0 series")
    q.add_argument("--n-lo", type=int, required=True)
    q.add_argument("--n-hi", type=_POSITIVE, required=True)
    _add_common(q, "text")
    q = sub_series.add_parser("density", help="realized-charge density, exact")
    q.add_argument("--r", type=_POSITIVE, required=True)
    _add_common(q, "text")
    q = sub_series.add_parser("catalog", help="the twelve curated components")
    _add_common(q, "tsv")
    q = sub_series.add_parser("compare", help="known components at fixed (e, n)")
    q.add_argument("--e", type=int, choices=(0, -1), required=True)
    q.add_argument("--n", type=_POSITIVE, required=True)
    _add_common(q, "text")

    p_accept = sub.add_parser("accept", help="run the full acceptance suite")
    p_accept.set_defaults(run=_cmd_accept)
    _add_common(p_accept, "text")

    p_spec = sub.add_parser("spectrum", help="shorthand for `monad spectrum`")
    p_spec.set_defaults(run=_cmd_monad)
    _monad_params(p_spec)
    _add_common(p_spec, "text")
    return parser


def _run_config(args: argparse.Namespace) -> RunConfig:
    bounds = {k: getattr(args, k) for k in
              ("m", "eps", "a", "d", "n_max", "n_lo", "n_hi", "r", "lo", "hi",
               "e", "n", "twist")
              if getattr(args, k, None) is not None}
    if getattr(args, "series", None) is not None:
        bounds["series"] = args.series.value
    command = args.command
    for attr in ("script", "oracle_op", "monad_op", "series_op"):
        if getattr(args, attr, None):
            command = f"{command} {getattr(args, attr)}"
    return RunConfig(command=command, seed=args.seed, format=args.format,
                     out=args.out, retry_budget=args.retry_budget,
                     script_path=getattr(args, "script_file", None),
                     bounds=bounds)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    cfg = _run_config(args)
    # the sampler reads a module global; later callers get it back unchanged
    saved_budget = oracle_configs.RETRY_BUDGET
    oracle_configs.RETRY_BUDGET = cfg.retry_budget
    try:
        args.run(args, cfg)
    except USAGE_FAILURES as exc:
        parser.print_usage(sys.stderr)
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except VERIFY_FAILURES as exc:
        if isinstance(exc, AssertionNotEntailed):
            # the assert that failed is the last one in the report
            print(f"verification failed: assertion not entailed: {exc}", file=sys.stderr)
            for line in exc.report.asserts[-1]["chain"]:
                print(f"  {line}", file=sys.stderr)
        else:
            print(f"verification failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    finally:
        oracle_configs.RETRY_BUDGET = saved_budget
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``info``          — package, scale, and engine-dispatch summary.
``table1``        — regenerate the paper's Table I and print it.
``fig3`` / ``fig4`` — run the figure panels at the current REPRO_SCALE
                    and print each ASCII panel (optionally save JSON).
``sweep``         — run one ad-hoc (rate x depth) sweep, locally or
                    distributed over a fabric worker fleet
                    (``--fabric workers.txt``; docs/distributed.md).
``depth-profile`` — AQFT-vs-QFT fidelity per depth (paper §2).
``lint``          — static analysis: lint QASM files or the paper
                    corpus, optionally verifying transpiled circuits
                    symbolically against their logical sources
                    (exit 1 on findings at/above the threshold).
``cache-stats``   — compile / kernel / program-LRU cache counters for
                    this process, or — with ``--url`` — the ``/stats``
                    document of a running ``repro-serve`` instance.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path


def _cmd_info(args) -> int:
    import numpy

    import repro
    from repro.experiments import SCALES, current_scale
    from repro.runtime.blas import blas_info

    print(f"repro {repro.__version__} (numpy {numpy.__version__})")
    blas = blas_info()
    if blas is None:
        print("blas: no OpenBLAS found (thread count not managed)")
    else:
        print(f"blas: {blas['library']} ({blas['threads']} thread(s))")
    print(f"active scale: {current_scale()}")
    for s in SCALES.values():
        print(f"  available: {s}")
    return 0


def _cmd_table1(args) -> int:
    from repro.experiments import render_table1, table1_counts

    print(render_table1(table1_counts()))
    return 0


def _cmd_figure(args, which: str) -> int:
    from repro.experiments import (
        current_scale,
        render_panel,
        run_figure,
        save_sweep,
    )
    from repro.experiments.paper import fig3_configs, fig4_configs
    from repro.runtime import RetryPolicy

    scale = current_scale()
    configs = (fig3_configs if which == "fig3" else fig4_configs)(scale)
    if args.panel:
        configs = [c for c in configs if c.label in args.panel]
        if not configs:
            print(f"no panel matches {args.panel}", file=sys.stderr)
            return 2
    checkpoint_dir = args.checkpoint_dir
    if checkpoint_dir is None and args.resume:
        # --resume with no explicit dir uses the conventional location,
        # so `python -m repro fig3 --resume` continues an interrupted run.
        checkpoint_dir = "checkpoints"
    retry = RetryPolicy(
        max_attempts=args.max_attempts,
        timeout=args.timeout,
    )
    results = run_figure(
        configs,
        workers=args.workers,
        progress=print if args.verbose else None,
        checkpoint_dir=checkpoint_dir,
        resume=args.resume,
        retry=retry,
    )
    failed_cells = 0
    for label, res in results.items():
        print()
        print(render_panel(res))
        failed_cells += len(res.failures)
        if args.out:
            out = Path(args.out)
            out.mkdir(parents=True, exist_ok=True)
            save_sweep(res, out / f"{label}.json")
            print(f"[saved {out / (label + '.json')}]")
    if failed_cells:
        print(
            f"[warning] {failed_cells} cell(s) failed permanently; "
            f"partial results above (re-run with --resume to retry them)",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_sweep(args) -> int:
    from repro.experiments import render_panel, save_sweep
    from repro.experiments.config import SweepConfig
    from repro.experiments.sweep import run_sweep
    from repro.runtime import RetryPolicy

    try:
        depths = tuple(
            None if d in ("full", "none") else int(d) for d in args.depths
        )
    except ValueError:
        print(f"--depths takes integers or 'full', got {args.depths}",
              file=sys.stderr)
        return 2
    config = SweepConfig(
        operation=args.operation,
        n=args.n,
        m=args.m,
        orders=(1, 1),
        error_axis=args.error_axis,
        error_rates=tuple(args.rates),
        depths=depths,
        instances=args.instances,
        shots=args.shots,
        trajectories=args.trajectories,
        seed=args.seed,
        method=args.method,
        backend=args.backend,
        label=args.label,
        max_fragment_qubits=args.max_fragment_qubits,
    )
    retry = RetryPolicy(
        max_attempts=args.max_attempts,
        timeout=args.timeout,
        jitter=args.jitter,
    )
    result = run_sweep(
        config,
        workers=args.workers,
        progress=print if args.verbose else None,
        checkpoint=args.checkpoint,
        resume=args.resume,
        retry=retry,
        fabric=args.fabric,
        lease_timeout=args.lease_timeout,
    )
    print(render_panel(result))
    if args.out:
        save_sweep(result, Path(args.out))
        print(f"[saved {args.out}]")
    if result.failures:
        for f in result.failures:
            print(f"[FAILED] {f}", file=sys.stderr)
        return 1
    return 0


def _cmd_depth_profile(args) -> int:
    from repro.analysis import aqft_fidelity_profile, paper_depth_label

    prof = aqft_fidelity_profile(args.n, trials=args.trials)
    print(f"AQFT fidelity profile, n={args.n}:")
    for d, f in prof.items():
        bar = "#" * int(round(40 * f))
        print(f"  d={paper_depth_label(d, args.n):>4}  {f:.4f} {bar}")
    return 0


def _cmd_lint(args) -> int:
    from repro.circuits.qasm import from_qasm
    from repro.lint import LintContext, lint_circuit, merge_reports
    from repro.lint.corpus import corpus_cases, lint_corpus, verify_corpus
    from repro.lint.rules import rule_catalog
    from repro.transpile.basis import IBM_BASIS

    if args.list_rules:
        for r in rule_catalog():
            print(f"{r.rule_id}  {r.name:<24} {r.severity}  {r.description}")
        return 0
    if not args.files and not args.corpus:
        print("nothing to lint: pass QASM files or --corpus", file=sys.stderr)
        return 2

    reports = []
    verify_failures = 0
    context = LintContext(
        basis=IBM_BASIS if args.basis else None,
        aqft_depth=args.aqft_depth,
        expect_optimized=args.expect_optimized,
    )
    for path in args.files or ():
        try:
            circuit = from_qasm(Path(path).read_text())
        except (OSError, ValueError) as exc:
            print(f"{path}: cannot load: {exc}", file=sys.stderr)
            return 2
        circuit.name = path
        reports.append(lint_circuit(circuit, context))
    if args.corpus:
        cases = list(corpus_cases())
        reports.append(lint_corpus(cases))
        if args.verify:
            for case, result in verify_corpus(cases):
                if result.verdict != "equivalent":
                    verify_failures += 1
                    print(
                        f"equivalence FAILED [{result.verdict}/"
                        f"{result.method}] {case.name}: {result.detail}",
                        file=sys.stderr,
                    )
            if not verify_failures:
                print(
                    f"equivalence: {len(cases)} corpus circuits verified "
                    f"(symbolic)",
                    file=sys.stderr,
                )
    report = merge_reports(reports)
    if args.json:
        print(report.to_json())
    else:
        print(report.to_text())
    ok = report.ok(strict=args.strict) and verify_failures == 0
    return 0 if ok else 1


def _cmd_audit(args) -> int:
    from repro import __version__
    from repro.audit import (
        RULES,
        audit_paths,
        discover_modules,
        audit_modules,
        used_suppression_counts,
        SUPPRESSION_BUDGET,
        rule_descriptions,
    )

    if args.list_rules:
        for r in sorted(RULES.values(), key=lambda r: r.rule_id):
            print(
                f"{r.rule_id}  {r.name:<28} {r.severity}  {r.description}"
            )
        return 0

    src_root = Path(args.src_root).resolve() if args.src_root else None
    modules = discover_modules(src_root)
    report = audit_modules(modules)
    if args.json or args.sarif:
        print(
            report.to_json(
                tool_version=__version__,
                tool_name="repro-arith audit",
                rule_descriptions=rule_descriptions(),
            )
        )
    else:
        print(report.to_text())
        used = used_suppression_counts(modules)
        if used:
            budget = ", ".join(
                f"{rid}={used[rid]}/{SUPPRESSION_BUDGET.get(rid, 0)}"
                for rid in sorted(used)
            )
            print(f"suppressions used: {budget}")
        print(f"modules audited: {len(modules)}")
    return 0 if report.ok(strict=args.strict) else 1


def _cmd_cache_stats(args) -> int:
    import json as _json

    from repro.service.stats import cache_stats_snapshot, render_cache_stats

    if args.url:
        from urllib.parse import urlparse

        from repro.service.client import ServiceClient, ServiceError

        parsed = urlparse(args.url)
        if not parsed.hostname:
            print(f"cannot parse --url {args.url!r}", file=sys.stderr)
            return 2
        client = ServiceClient(parsed.hostname, parsed.port or 8777)
        try:
            snapshot = client.stats()
        except (ServiceError, OSError) as exc:
            print(f"cannot reach {args.url}: {exc}", file=sys.stderr)
            return 2
    else:
        snapshot = cache_stats_snapshot()
    if args.json:
        print(_json.dumps(snapshot, indent=2, sort_keys=True, default=str))
    else:
        print(render_cache_stats(snapshot))
    return 0


def main(argv=None) -> int:
    """Parse arguments and dispatch to a subcommand."""
    from repro.runtime.blas import cap_blas_threads

    cap_blas_threads()
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Noisy approximate quantum Fourier arithmetic "
        "(IPPS 2022 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="package and scale summary")
    sub.add_parser("table1", help="regenerate Table I")
    for which in ("fig3", "fig4"):
        p = sub.add_parser(which, help=f"run {which} panels at REPRO_SCALE")
        p.add_argument("--panel", nargs="*", help="labels, e.g. fig3a fig3b")
        p.add_argument("--out", help="directory for JSON results")
        p.add_argument("-v", "--verbose", action="store_true")
        p.add_argument(
            "--resume",
            action="store_true",
            help="resume from the checkpoint journal of an interrupted run",
        )
        p.add_argument(
            "--checkpoint-dir",
            help="cell-level journal directory (default: 'checkpoints' "
            "when --resume is given, else no checkpointing)",
        )
        p.add_argument(
            "--workers", type=int, help="worker processes (default: cores-1)"
        )
        p.add_argument(
            "--timeout",
            type=float,
            help="per-cell timeout in seconds (default: unlimited)",
        )
        p.add_argument(
            "--max-attempts",
            type=int,
            default=3,
            help="attempts per cell before recording it as failed",
        )
    p = sub.add_parser(
        "sweep",
        help="run one (rate x depth) sweep, locally or over a fabric",
        description="Run a single sweep panel with explicit knobs. "
        "With --fabric, cells are dispatched to a fleet of "
        "repro-fabric-worker / repro-serve processes (registry file or "
        "comma-separated host:port list); the sweep degrades to local "
        "execution when no worker is reachable, with bit-identical "
        "results either way.",
    )
    p.add_argument("--operation", choices=("add", "mul"), default="add")
    p.add_argument("-n", type=int, default=3, help="first register width")
    p.add_argument("-m", type=int, default=3, help="second register width")
    p.add_argument("--error-axis", choices=("1q", "2q"), default="2q")
    p.add_argument(
        "--rates", type=float, nargs="+", default=[0.0, 0.05],
        help="error rates to sweep",
    )
    p.add_argument(
        "--depths", nargs="+", default=["2", "full"],
        help="AQFT depths: integers or 'full'",
    )
    p.add_argument("--instances", type=int, default=2)
    p.add_argument("--shots", type=int, default=64)
    p.add_argument("--trajectories", type=int, default=4)
    p.add_argument("--seed", type=int, default=1234)
    from repro.sim.backend import BACKEND_NAMES
    from repro.sim.methods import METHODS, method_help

    p.add_argument(
        "--method",
        choices=METHODS,
        default="trajectory",
        help=f"simulation engine per cell: {method_help()}",
    )
    p.add_argument(
        "--max-fragment-qubits",
        type=int,
        default=0,
        help="method=cut: fragment-width budget for the cut searcher "
        "(0 = subsystem default; see docs/cutting.md)",
    )
    p.add_argument(
        "--backend",
        choices=BACKEND_NAMES,
        default="",
        help="array backend / precision tier (default: REPRO_BACKEND "
        "or numpy64)",
    )
    p.add_argument("--label", default="sweep")
    p.add_argument(
        "--workers", type=int, help="local worker processes (default: cores-1)"
    )
    p.add_argument(
        "--fabric",
        help="worker fleet: registry file or comma-separated host:port list",
    )
    p.add_argument(
        "--lease-timeout", type=float, default=60.0,
        help="seconds before a dispatched unit is reassigned",
    )
    p.add_argument("--checkpoint", help="JSONL journal file for resume")
    p.add_argument(
        "--no-resume", dest="resume", action="store_false",
        help="discard an existing checkpoint journal instead of resuming",
    )
    p.add_argument("--timeout", type=float, help="per-cell timeout (seconds)")
    p.add_argument("--max-attempts", type=int, default=3)
    p.add_argument(
        "--jitter", type=float, default=0.0,
        help="retry backoff jitter fraction in [0, 1)",
    )
    p.add_argument("--out", help="JSON result file")
    p.add_argument("-v", "--verbose", action="store_true")

    p = sub.add_parser("depth-profile", help="AQFT fidelity per depth")
    p.add_argument("-n", type=int, default=8)
    p.add_argument("--trials", type=int, default=8)

    p = sub.add_parser(
        "lint",
        help="static analysis over QASM files or the paper corpus",
        description="Run the circuit linter (rules REP001..) and, with "
        "--verify, the symbolic phase-polynomial equivalence checker. "
        "Exits 1 when errors (or, with --strict, warnings) are found.",
    )
    p.add_argument("files", nargs="*", help="OpenQASM 2.0 files to lint")
    p.add_argument(
        "--corpus",
        action="store_true",
        help="lint every transpiled paper circuit at the current REPRO_SCALE",
    )
    p.add_argument(
        "--verify",
        action="store_true",
        help="with --corpus: also verify transpiled == logical symbolically",
    )
    p.add_argument(
        "--basis",
        action="store_true",
        help="for file inputs: enforce the IBM basis {id,x,rz,sx,cx}",
    )
    p.add_argument(
        "--aqft-depth",
        type=int,
        help="for file inputs: flag rotations below pi/2^d",
    )
    p.add_argument(
        "--expect-optimized",
        action="store_true",
        help="for file inputs: enable the missed-optimization rules",
    )
    p.add_argument(
        "--json", action="store_true", help="SARIF-ish JSON instead of text"
    )
    p.add_argument(
        "--strict", action="store_true", help="warnings also fail the run"
    )
    p.add_argument(
        "--list-rules", action="store_true", help="print the rule catalog"
    )

    p = sub.add_parser(
        "audit",
        help="determinism & concurrency audit of the repro source itself",
        description="Run the codebase audit (DET/ASYNC/RACE/SUP rule "
        "families) over src/repro: seed discipline, event-loop hygiene, "
        "and shared-state locking, with the # repro: allow[...] "
        "suppression budget enforced. Exits 1 when errors (or, with "
        "--strict, warnings) survive suppression.",
    )
    p.add_argument(
        "--src-root",
        help="audit an alternate source tree (default: the installed "
        "repro package's src/ directory)",
    )
    p.add_argument(
        "--json", action="store_true", help="SARIF 2.1.0 JSON instead of text"
    )
    p.add_argument(
        "--sarif",
        action="store_true",
        help="alias for --json (the JSON output is SARIF 2.1.0)",
    )
    p.add_argument(
        "--strict", action="store_true", help="warnings also fail the run"
    )
    p.add_argument(
        "--list-rules", action="store_true", help="print the rule catalog"
    )

    p = sub.add_parser(
        "cache-stats",
        help="compile/kernel/program cache counters (local or remote)",
        description="Print the cache counters shared with the service's "
        "/stats endpoint: the two-level compile cache, the kernel LRU, "
        "and the runner's program/circuit memos.",
    )
    p.add_argument(
        "--url",
        help="fetch /stats from a running repro-serve instance "
        "(e.g. http://127.0.0.1:8777) instead of this process",
    )
    p.add_argument(
        "--json", action="store_true", help="JSON instead of aligned text"
    )

    args = parser.parse_args(argv)
    if args.command == "info":
        return _cmd_info(args)
    if args.command == "table1":
        return _cmd_table1(args)
    if args.command in ("fig3", "fig4"):
        return _cmd_figure(args, args.command)
    if args.command == "sweep":
        return _cmd_sweep(args)
    if args.command == "depth-profile":
        return _cmd_depth_profile(args)
    if args.command == "lint":
        return _cmd_lint(args)
    if args.command == "audit":
        return _cmd_audit(args)
    if args.command == "cache-stats":
        return _cmd_cache_stats(args)
    parser.error(f"unknown command {args.command!r}")
    return 2


def _entry() -> int:
    """Console-script entry point with SIGPIPE-friendly exit."""
    try:
        return main()
    except BrokenPipeError:
        # Downstream pager/head closed the pipe — normal CLI etiquette.
        return 0


if __name__ == "__main__":
    sys.exit(_entry())

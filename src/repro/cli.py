"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``bench <name>`` — run one benchmark end to end (both binders) and
  print the Table 3-style row.
* ``synth <name>`` — integrated HLS on a benchmark; prints allocation
  and mux statistics, optionally writes VHDL.
* ``suite`` — the full LOPASS-vs-HLPower comparison over all seven
  benchmarks (what `benchmarks/test_table3_power_area.py` runs).
* ``sweep`` — run a declarative ``benchmark x binder x alpha x width x
  effort x idle x jitter x seed`` grid across worker processes and
  dump a JSON result store (see docs/sweeps.md).
* ``estimate`` — the partial flow: Equation-(3) switching-activity and
  area estimates after tech-map, with no vectors and no simulation
  (see docs/architecture.md).
* ``corpus`` — enumerate/run the synthetic benchmark corpus
  (parameterized CDFG families; see docs/binding.md) through the sweep
  engine, with exact-binder quality gaps on the feasible subset.
* ``serve`` — run the long-lived power-estimation daemon: an asyncio
  HTTP/JSON server over a resident warm executor (see docs/serving.md).
* ``profiles`` — print Table 1.

``bench``, ``suite``, ``sweep``, ``estimate`` and ``serve`` are all
thin wrappers over the same sweep engine (:mod:`repro.flow.batch` /
:mod:`repro.flow.executor`), so they share one execution path, one
elaboration memo, one pipeline artifact cache per worker, and one
SA-table lifecycle.
"""

from __future__ import annotations

import argparse
import statistics
import sys
from typing import Dict, List, Optional, Sequence

from repro import (
    BENCHMARK_NAMES,
    HLSConfig,
    benchmark_spec,
    load_benchmark,
    run_sweep,
    synthesize,
)
from repro.binding import BINDER_NAMES, SATable
from repro.binding.sa_table import SHIPPED_TABLE_PATH
from repro.cdfg.corpus import (
    CORPUS_FAMILIES,
    corpus_instances,
    oracle_feasible,
)
from repro.errors import ConfigError, ReproError
from repro.flow import (
    SweepResult,
    SweepSpec,
    format_sweep_summary,
    format_table,
    percent_change,
)
from repro.flow.knobs import KNOBS, Knob, check_knob


# Knob flags come from the knob table (repro.flow.knobs), so help text,
# defaults and checks cannot drift between subcommands.

class _KnobAction(argparse.Action):
    """Store a scalar knob flag once the knob table accepts it."""

    def __call__(self, parser, namespace, values, option_string=None):
        try:
            check_knob(self.dest, values)
        except ConfigError as exc:
            raise argparse.ArgumentError(self, str(exc))
        setattr(namespace, self.dest, values)


def _axis_type(knob: Knob):
    """argparse ``type`` for a comma-separated axis of knob values
    (string defaults pass through it too)."""

    def parse(raw: str) -> List:
        tokens = [token.strip() for token in raw.split(",") if token.strip()]
        if not tokens:
            raise argparse.ArgumentTypeError(
                f"{knob.axis_flag} needs at least one value"
            )
        values = []
        for token in tokens:
            try:
                value = knob.type(token)
            except ValueError:
                value = token  # check_knob names the unparsable token
            try:
                values.append(check_knob(knob.name, value))
            except ConfigError as exc:
                raise argparse.ArgumentTypeError(str(exc))
        return values

    return parse


def _add_knob_args(parser: argparse.ArgumentParser, command: str) -> None:
    """Every knob flag of ``command``, as the knob table declares it.

    The flag stores under the knob's name: one value, or a list for a
    comma-separated axis flag.
    """
    for knob in KNOBS.values():
        help_text = f"{knob.help} (default {knob.default})"
        if knob.choices:
            metavar = "{" + ",".join(knob.choices) + "}"
        else:
            metavar = "N" if knob.type is int else "X"
        if command in knob.axis_commands:
            parser.add_argument(
                knob.axis_flag, dest=knob.name, default=str(knob.default),
                type=_axis_type(knob), metavar=metavar + "[,...]",
                help="comma-separated axis: " + help_text)
        elif command in knob.commands:
            parser.add_argument(
                knob.flag, dest=knob.name, default=knob.default,
                type=knob.type, choices=knob.choices or None,
                metavar=None if knob.choices else metavar,
                action=_KnobAction, help=help_text)


def _knob_spec_fields(args) -> Dict[str, object]:
    """The SweepSpec fields set by the parsed knob flags of a command.

    An axis flag fills the knob's axis; a knob that also has a scalar
    SweepSpec field keeps its first value there and sets the axis only
    when it holds several values.
    """
    fields: Dict[str, object] = {}
    for knob in KNOBS.values():
        if args.command not in knob.commands + knob.axis_commands:
            continue
        value = getattr(args, knob.name)
        values = value if isinstance(value, list) else [value]
        if knob.scalar:
            fields[knob.name] = values[0]
            if len(values) > 1:
                fields[knob.axis] = values
        else:
            fields[knob.axis] = values
    return fields


def _add_binders_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--binders", default="lopass,hlpower",
        help=f"comma-separated binder names from {BINDER_NAMES} "
             f"(default lopass,hlpower)")


def _add_sa_table_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--sa-table", default=None, metavar="FILE",
        help="SA table file, read at start and written back with new "
             f"entries (default: read the shipped {SHIPPED_TABLE_PATH} "
             "and write nothing)")


def _open_sa_table(path: Optional[str]) -> SATable:
    """The run's SA table: the user's file, or the shipped one read-only."""
    if path is not None:
        return SATable(path=path)
    return SATable().load(SHIPPED_TABLE_PATH)


def _add_jobs_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes (default 1 = in-process)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="HLPower (DAC'09) reproduction command line",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    bench = sub.add_parser("bench", help="run one benchmark comparison")
    bench.add_argument("name", choices=BENCHMARK_NAMES)
    _add_knob_args(bench, "bench")
    _add_sa_table_arg(bench)
    _add_jobs_arg(bench)

    suite = sub.add_parser("suite", help="run the full Table 3 comparison")
    _add_knob_args(suite, "suite")
    _add_sa_table_arg(suite)
    _add_jobs_arg(suite)

    sweep = sub.add_parser(
        "sweep",
        help="run a benchmark x binder x alpha x width x seed grid",
        description=(
            "Expand a declarative grid into jobs, run them across "
            "--jobs worker processes (1 = in-process), and print/save "
            "per-cell metrics with seed-averaged aggregates. Schedules "
            "and register/port bindings are elaborated once per "
            "benchmark and shared; the SA table is precalculated and "
            "shipped to every worker, then saved once."
        ),
    )
    sweep.add_argument(
        "--benchmarks", default=None,
        help="comma-separated names, a count N (= first N benchmarks), "
             "or 'all' (the default, unless --design is given)")
    sweep.add_argument(
        "--design", metavar="FILE", action="append", default=[],
        help="external design to estimate alongside the grid: a "
             "repro-module-v1 JSON module or flat BLIF file (repeatable; "
             "requires --flow estimate; with no explicit --benchmarks, "
             "only the designs run)")
    _add_binders_arg(sweep)
    sweep.add_argument(
        "--seeds", default="1", type=_parse_seeds,
        help="a count N (= vector seeds 7..7+N-1) or a comma-separated "
             "list of explicit seeds (default 1)")
    _add_knob_args(sweep, "sweep")
    _add_jobs_arg(sweep)
    sweep.add_argument("--out", metavar="FILE",
                       help="write the JSON result store here")
    _add_sa_table_arg(sweep)
    sweep.add_argument(
        "--precalc-mux", type=int, default=0, metavar="N",
        help="bulk-precalculate SA entries up to NxN muxes before "
             "dispatch (default 0 = lazy)")
    sweep.add_argument("--baseline", default="lopass",
                       help="binder label (or name) percent changes compare "
                            "against; 'none' disables the column "
                            "(default lopass)")
    sweep.add_argument("--no-cache", action="store_true",
                       help="disable the per-worker pipeline artifact "
                            "cache (metrics are identical either way; "
                            "useful for benchmarking the speedup)")
    sweep.add_argument("--cache-dir", metavar="DIR",
                       help="persistent on-disk artifact-cache layer "
                            "shared across workers and sweeps")

    estimate = sub.add_parser(
        "estimate",
        help="estimate-only partial flow (no simulation)",
        description=(
            "Run the pipeline prefix bind -> datapath -> elaborate -> "
            "tech-map -> timing for every benchmark and binder and print "
            "the Equation-(3) switching-activity estimate, glitch "
            "fraction, and area — no vectors are drawn and the simulator "
            "never runs."
        ),
    )
    estimate.add_argument(
        "--benchmarks", default=None,
        help="comma-separated names, a count N (= first N benchmarks), "
             "or 'all' (the default, unless --design is given)")
    estimate.add_argument(
        "--design", metavar="FILE", action="append", default=[],
        help="external design to estimate: a repro-module-v1 JSON "
             "module or flat BLIF file (repeatable; with no explicit "
             "--benchmarks, only the designs run)")
    _add_binders_arg(estimate)
    _add_knob_args(estimate, "estimate")
    _add_jobs_arg(estimate)
    estimate.add_argument("--baseline", default="lopass",
                          help="binder label (or name) the dSA column "
                               "compares against; 'none' disables the "
                               "column (default lopass)")
    _add_sa_table_arg(estimate)
    estimate.add_argument("--out", metavar="FILE",
                          help="write the JSON result store here")

    corpus = sub.add_parser(
        "corpus",
        help="enumerate/run the synthetic benchmark corpus",
        description=(
            "Run corpus instances — parameterized CDFG families "
            "sweeping operation count, add/mult mix and schedule "
            "density — through the sweep engine, and report heuristic "
            "quality gaps against the exact (branch-and-bound) binder "
            "on every instance small enough for it."
        ),
    )
    corpus.add_argument("--list", action="store_true", dest="list_only",
                        help="print the instance table and exit")
    corpus.add_argument("--families", default="all",
                        help="comma-separated corpus families "
                             f"(default all = {','.join(CORPUS_FAMILIES)})")
    corpus.add_argument("--limit", type=int, default=0, metavar="N",
                        help="run at most N instances, drawn round-robin "
                             "across the selected families (default 0 = "
                             "all)")
    _add_binders_arg(corpus)
    _add_knob_args(corpus, "corpus")
    _add_jobs_arg(corpus)
    # The corpus's own mode flag: unlike the flow knob (default full) it
    # defaults to the cheap estimate flow.
    corpus.add_argument("--flow", choices=("estimate", "full"),
                        default="estimate",
                        help="'estimate' (default) stops every cell after "
                             "tech-map; 'full' simulates every instance")
    corpus.add_argument("--profile", action="store_true",
                        help="print per-stage wall clock and peak memory "
                             "for every instance instead of the sweep "
                             "summary (runs in-process)")
    corpus.add_argument("--no-oracle", action="store_true",
                        help="skip the exact-binder quality-gap report")
    _add_sa_table_arg(corpus)
    corpus.add_argument("--out", metavar="FILE",
                        help="write the JSON result store here")

    serve = sub.add_parser(
        "serve",
        help="run the long-lived power-estimation daemon",
        description=(
            "Start an asyncio HTTP/JSON server over a resident warm "
            "executor: POST /estimate, /flow and /sweep requests are "
            "queued by priority, deduplicated while in flight, and "
            "executed against memos that survive across requests; "
            "GET /metrics reports queue, executor and artifact-cache "
            "counters. SIGTERM shuts down cleanly (see docs/serving.md)."
        ),
    )
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8791,
                       help="bind port (default 8791; 0 = ephemeral, "
                            "printed at startup)")
    _add_jobs_arg(serve)
    _add_sa_table_arg(serve)
    serve.add_argument("--cache-entries", type=int, default=64, metavar="N",
                       help="in-memory artifact-cache capacity per worker "
                            "(default 64)")
    serve.add_argument("--cache-dir", metavar="DIR",
                       help="persistent on-disk artifact-cache layer "
                            "shared across workers and sweeps")

    synth = sub.add_parser("synth", help="integrated HLS on a benchmark")
    synth.add_argument("name", choices=BENCHMARK_NAMES)
    synth.add_argument("--binder", choices=BINDER_NAMES,
                       default="hlpower")
    _add_knob_args(synth, "synth")
    synth.add_argument("--vhdl", metavar="FILE",
                       help="write the generated VHDL here")

    sub.add_parser("profiles", help="print Table 1 profiles")
    return parser


def _select_benchmarks(raw: Optional[str],
                       designs: Optional[Dict[str, str]]) -> List[str]:
    """Resolve ``--benchmarks``: default 'all', or none with --design."""
    if raw is None:
        return [] if designs else list(BENCHMARK_NAMES)
    return _parse_benchmarks(raw)


def _load_designs(paths: Sequence[str]) -> Optional[Dict[str, str]]:
    """Read ``--design`` files; the cell name is the file stem."""
    import os

    if not paths:
        return None
    designs: Dict[str, str] = {}
    for path in paths:
        name = os.path.splitext(os.path.basename(path))[0]
        if name in designs:
            raise SystemExit(
                f"error: duplicate design name {name!r} (from {path})"
            )
        try:
            with open(path, "r", encoding="utf-8") as stream:
                designs[name] = stream.read()
        except OSError as exc:
            raise SystemExit(f"error: cannot read --design {path}: {exc}")
    return designs


def _parse_benchmarks(raw: str) -> List[str]:
    raw = raw.strip()
    if raw == "all":
        return list(BENCHMARK_NAMES)
    try:
        count = int(raw)
    except ValueError:
        names = [name.strip() for name in raw.split(",") if name.strip()]
        for name in names:
            try:
                benchmark_spec(name)
            except ReproError as exc:
                raise SystemExit(f"error: {exc}")
        return names
    if not 1 <= count <= len(BENCHMARK_NAMES):
        raise SystemExit(
            f"--benchmarks count must be in 1..{len(BENCHMARK_NAMES)}"
        )
    return list(BENCHMARK_NAMES[:count])


def _parse_seeds(raw: str) -> List[int]:
    """argparse ``type`` of ``--seeds``: a count or explicit seeds."""
    raw = raw.strip()
    try:
        if "," in raw:
            return [check_knob("vector_seed", int(token))
                    for token in raw.split(",") if token.strip()]
        count = int(raw)
    except (ValueError, ConfigError):
        raise argparse.ArgumentTypeError(
            f"--seeds expects integers, got {raw!r}"
        )
    if count < 1:
        raise argparse.ArgumentTypeError("--seeds count must be >= 1")
    first = KNOBS["vector_seed"].default
    return list(range(first, first + count))


def _comma_list(raw: str, cast, flag: str) -> List:
    try:
        return [cast(token) for token in raw.split(",") if token.strip()]
    except ValueError:
        raise SystemExit(
            f"error: {flag} expects comma-separated "
            f"{cast.__name__} values, got {raw!r}"
        )


def _bench_rows(names: Sequence[str], args, table: SATable) -> List[List[str]]:
    spec = SweepSpec(
        benchmarks=list(names), binders=("lopass", "hlpower"),
        **_knob_spec_fields(args),
    )
    sweep = run_sweep(spec, jobs=args.jobs, sa_table=table)
    rows = []
    deltas = []
    for name in names:
        lo = sweep.cell(name, "lopass").metrics
        hl = sweep.cell(name, "hlpower").metrics
        delta = percent_change(
            lo["dynamic_power_mw"], hl["dynamic_power_mw"]
        )
        deltas.append(delta)
        rows.append(
            [
                name,
                f"{lo['dynamic_power_mw']:.2f}",
                f"{hl['dynamic_power_mw']:.2f}",
                f"{delta:+.1f}%",
                f"{lo['area_luts']}/{hl['area_luts']}",
                f"{lo['largest_mux']}/{hl['largest_mux']}",
            ]
        )
    if len(names) > 1:
        rows.append(
            ["average", "", "", f"{statistics.mean(deltas):+.1f}%", "", ""]
        )
    return rows


def cmd_bench(args) -> int:
    table = _open_sa_table(args.sa_table)
    try:
        rows = _bench_rows([args.name], args, table)
    except ReproError as exc:
        raise SystemExit(f"error: {exc}")
    table.save_if_dirty()
    print(format_table(
        ["bench", "LOPASS mW", "HLPower mW", "dPower", "LUTs", "lrg mux"],
        rows,
    ))
    return 0


def cmd_suite(args) -> int:
    table = _open_sa_table(args.sa_table)
    try:
        rows = _bench_rows(list(BENCHMARK_NAMES), args, table)
    except ReproError as exc:
        raise SystemExit(f"error: {exc}")
    table.save_if_dirty()
    print(format_table(
        ["bench", "LOPASS mW", "HLPower mW", "dPower", "LUTs", "lrg mux"],
        rows,
        title="LOPASS vs HLPower (paper average: -19.3% power)",
    ))
    return 0


def _run_grid(args, spec_fields: Dict[str, object],
              **options) -> SweepResult:
    """Run a command's grid (its knob flags included) over its SA table,
    print the sweep summary and return the result store."""
    try:
        # SweepSpec validates binder names eagerly at construction.
        spec = SweepSpec(**spec_fields, **_knob_spec_fields(args))
    except ReproError as exc:
        raise SystemExit(f"error: {exc}")
    table = _open_sa_table(args.sa_table)
    try:
        sweep = run_sweep(spec, jobs=args.jobs, sa_table=table, **options)
    except ReproError as exc:
        raise SystemExit(f"error: {exc}")
    table.save_if_dirty()
    print(format_sweep_summary(sweep))
    return sweep


def _save_store(sweep: SweepResult, path: Optional[str]) -> int:
    if path:
        sweep.save(path)
        print(f"result store written to {path}")
    return 0


def cmd_sweep(args) -> int:
    designs = _load_designs(args.design)
    if designs and args.flow != "estimate":
        raise SystemExit(
            "error: --design cells run the estimate flow only; "
            "pass --flow estimate"
        )
    sweep = _run_grid(
        args,
        dict(benchmarks=_select_benchmarks(args.benchmarks, designs),
             binders=_comma_list(args.binders, str, "--binders"),
             vector_seeds=args.seeds, baseline=args.baseline,
             designs=designs),
        precalc_max_mux=args.precalc_mux, use_cache=not args.no_cache,
        cache_dir=args.cache_dir,
    )
    return _save_store(sweep, args.out)


def cmd_estimate(args) -> int:
    designs = _load_designs(args.design)
    sweep = _run_grid(args, dict(
        benchmarks=_select_benchmarks(args.benchmarks, designs),
        binders=_comma_list(args.binders, str, "--binders"),
        baseline=args.baseline, flow="estimate", designs=designs,
    ))
    return _save_store(sweep, args.out)


def _corpus_selection(args):
    if args.families.strip() == "all":
        families = None
    else:
        families = _comma_list(args.families, str, "--families")
    limit = args.limit if args.limit > 0 else None
    try:
        return corpus_instances(families, limit)
    except ReproError as exc:
        raise SystemExit(f"error: {exc}")


def _oracle_rows(sweep, instances, configs) -> List[List[str]]:
    """Quality-gap table: heuristic vs exact FU mux length per instance.

    The comparison metric is the exact binder's own objective — total
    FU multiplexer inputs (``fu_mux_length``); register-side muxes are
    a function of the whole binding and are not what the oracle
    optimizes. Only instances the exact binder can solve appear; the
    closing row carries the per-config mean gap over that feasible
    subset.
    """
    from repro.binding import bind_optimal
    from repro.cdfg import load_benchmark
    from repro.flow.run import prepare_flow_inputs
    from repro.rtl.metrics import mux_report
    from repro.scheduling import list_schedule

    rows: List[List[str]] = []
    gaps: Dict[str, List[float]] = {config: [] for config in configs}
    for instance in instances:
        if not oracle_feasible(instance):
            continue
        schedule = list_schedule(
            load_benchmark(instance.name), instance.constraints
        )
        registers, ports = prepare_flow_inputs(schedule)
        optimal = bind_optimal(
            schedule, instance.constraints, registers, ports
        )
        best = mux_report(optimal).fu_mux_length
        row = [instance.name, str(best)]
        for config in configs:
            length = sweep.cell(
                instance.name, config
            ).metrics["fu_mux_length"]
            gap = percent_change(best, length) if best else 0.0
            gaps[config].append(gap)
            row.append(f"{length:g} ({gap:+.1f}%)")
        rows.append(row)
    if rows:
        mean_row = ["mean gap", ""]
        for config in configs:
            mean_row.append(f"{statistics.mean(gaps[config]):+.1f}%")
        rows.append(mean_row)
    return rows


def _corpus_profile(args, instances) -> int:
    """``corpus --profile``: per-instance stage wall clock + peak memory.

    Runs each (instance, binder, alpha) flow in-process so the
    per-stage timings the pipeline already records
    (:attr:`FlowResult.stage_timings`) can be paired with a
    ``tracemalloc`` peak bracketed around that one flow — no extra
    instrumentation inside the pipeline.
    """
    import tracemalloc

    from repro.flow.report import in_stage_order
    from repro.flow.run import FlowConfig, execute_flow, prepare_flow_inputs
    from repro.scheduling import list_schedule

    binders = _comma_list(args.binders, str, "--binders")
    # The corpus's scalar knob flags (width, map effort, mcts).
    knobs = {
        knob.name: getattr(args, knob.name)
        for knob in KNOBS.values() if "corpus" in knob.commands
    }
    table = _open_sa_table(args.sa_table)
    records = []
    tracemalloc.start()
    try:
        for instance in instances:
            schedule = list_schedule(
                load_benchmark(instance.name), instance.constraints
            )
            registers, ports = prepare_flow_inputs(schedule)
            for binder in binders:
                for alpha in args.alpha:
                    config = FlowConfig(
                        alpha=alpha, sa_table=table, flow=args.flow,
                        **knobs,
                    )
                    tracemalloc.reset_peak()
                    result = execute_flow(
                        schedule, instance.constraints, binder, config,
                        registers, ports,
                    )
                    _, peak = tracemalloc.get_traced_memory()
                    label = (
                        binder if len(args.alpha) == 1
                        else f"{binder}_a{alpha:g}"
                    )
                    records.append(
                        (instance.name, label,
                         dict(result.stage_timings), peak)
                    )
    except ReproError as exc:
        raise SystemExit(f"error: {exc}")
    finally:
        tracemalloc.stop()
    table.save_if_dirty()
    stages = in_stage_order(
        {stage for _, _, timings, _ in records for stage in timings}
    )
    rows = []
    for name, label, timings, peak in records:
        rows.append(
            [name, label]
            + [f"{timings.get(stage, 0.0):.3f}" for stage in stages]
            + [f"{sum(timings.values()):.3f}", f"{peak / 2**20:.1f}"]
        )
    print(format_table(
        ["instance", "config"] + [f"{stage} s" for stage in stages]
        + ["total s", "peak MiB"],
        rows,
        title=(
            f"corpus profile: {len(records)} flows "
            f"({args.flow}, {args.map_effort} map)"
        ),
    ))
    return 0


def cmd_corpus(args) -> int:
    instances = _corpus_selection(args)
    if not instances:
        raise SystemExit("error: no corpus instances selected")
    if args.list_only:
        rows = []
        for inst in instances:
            profile = inst.profile
            rows.append([
                inst.name, inst.family, profile.n_operations,
                f"{profile.n_adds}/{profile.n_mults}", profile.n_layers,
                f"{profile.add_width}/{profile.mult_width}",
                "yes" if oracle_feasible(inst) else "no",
            ])
        print(format_table(
            ["instance", "family", "ops", "add/mult", "layers",
             "FUs", "oracle"],
            rows,
            title=f"corpus: {len(instances)} instances",
        ))
        return 0

    if args.profile:
        return _corpus_profile(args, instances)

    binders = _comma_list(args.binders, str, "--binders")
    sweep = _run_grid(args, dict(
        benchmarks=[inst.name for inst in instances], binders=binders,
        baseline="lopass" if "lopass" in binders else "none",
        flow=args.flow,
    ))
    if not args.no_oracle:
        configs = [config.label for config in sweep.spec.binder_configs()]
        try:
            rows = _oracle_rows(sweep, instances, configs)
        except ReproError as exc:
            raise SystemExit(f"error: {exc}")
        if rows:
            print()
            print(format_table(
                ["instance", "optimal mux"]
                + [f"{config} mux (gap)" for config in configs],
                rows,
                title=(
                    "oracle quality gaps (exact branch-and-bound "
                    "binder, feasible subset)"
                ),
            ))
        else:
            print("\nno oracle-feasible instances in the selection")
    return _save_store(sweep, args.out)


def cmd_synth(args) -> int:
    spec = benchmark_spec(args.name)
    config = HLSConfig(
        scheduler=args.scheduler, binder=args.binder, width=args.width,
        mcts_budget=args.mcts_budget, mcts_seed=args.mcts_seed,
    )
    constraints = spec.constraints if args.scheduler == "list" else None
    result = synthesize(load_benchmark(args.name), constraints, config,
                        entity=args.name)
    print(f"schedule: {result.schedule.length} steps")
    print(f"allocation: {result.allocation}")
    print(f"registers: {result.solution.registers.n_registers}")
    print(
        f"muxes: largest {result.muxes.largest_mux}, length "
        f"{result.muxes.mux_length}, muxDiff mean "
        f"{result.muxes.mux_diff_mean:.2f}"
    )
    print(f"port-assignment flips: {result.port_flips}")
    if args.vhdl:
        with open(args.vhdl, "w") as handle:
            handle.write(result.vhdl)
        print(f"VHDL written to {args.vhdl}")
    return 0


def cmd_profiles(args) -> int:
    rows = []
    for name in BENCHMARK_NAMES:
        spec = benchmark_spec(name)
        rows.append(
            [
                name, spec.profile.n_inputs, spec.profile.n_outputs,
                spec.profile.n_adds, spec.profile.n_mults,
                spec.add_units, spec.mult_units, spec.paper_cycles,
            ]
        )
    print(format_table(
        ["bench", "PIs", "POs", "adds", "mults", "add FUs", "mult FUs",
         "cycles"],
        rows,
        title="Table 1/2 benchmark data",
    ))
    return 0


def cmd_serve(args) -> int:
    from repro.serve.server import main as serve_main
    return serve_main(args)


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "bench": cmd_bench,
        "suite": cmd_suite,
        "sweep": cmd_sweep,
        "estimate": cmd_estimate,
        "corpus": cmd_corpus,
        "synth": cmd_synth,
        "serve": cmd_serve,
        "profiles": cmd_profiles,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())

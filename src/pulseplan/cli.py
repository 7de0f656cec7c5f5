"""Command line entry point.

Exit codes: 0 success, 1 usage error, 2 infeasible or unschedulable input
(or an exact-solver, LP-export or disk-catalog size limit), 3 internal
invariant violation.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import sys
import time
from . import io as pio
from .errors import (
    InfeasibleError,
    InternalInvariantError,
    ResourceLimitError,
    ScenarioError,
)
from .geometry import GridSpec, enumerate_disks
from .ip import (
    build_instance,
    check_exact_task_limit,
    check_feasible,
    exact_objective,
    export_lp,
    solve_exact,
)
from .radar import build_availability_table
from .scenario import ScenarioSpec, run_scaling
from .sdbf import MODES, exact_source, look_source, mode_source
from .structures import BACKEND_KINDS, OpCounters


class UsageError(Exception):
    def __init__(self, message, usage=""):
        super().__init__(message)
        self.usage = usage


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message, self.format_usage())


def _rule_flags() -> dict:
    """Each rule of the mode table once, in the order the modes declare
    them: its choices and its config's default."""
    flags = {}
    for cfg in MODES.values():
        defaults = {f.name: f.default for f in dataclasses.fields(cfg)}
        for name, choices in cfg.RULES.items():
            flags.setdefault(name, (choices, defaults[name]))
    return flags


def _build_parser() -> _Parser:
    parser = _Parser(prog="pulseplan", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_grid(p):
        p.add_argument("--grid-eps", type=float, default=0.02,
                       help="scan-plane grid spacing (direction cosines)")
        p.add_argument("--disk-radius", type=float, default=0.05,
                       help="re-steering disk radius (direction cosines)")

    p = sub.add_parser("schedule", help="run a heuristic scheduler on a scenario")
    p.add_argument("scenario")
    p.add_argument("--mode", choices=tuple(MODES), default="edbf")
    for name, (choices, default) in _rule_flags().items():
        p.add_argument("--" + name.replace("_", "-"), choices=choices, default=default)
    p.add_argument("--backend", choices=BACKEND_KINDS, default="rangetree")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="schedule file path (default: stdout)")
    p.add_argument("--allow-unschedulable", action="store_true",
                   help="schedule the trackable tasks even if some are not")
    p.add_argument("--dump-structures", action="store_true",
                   help="print the initial selection structures to stderr")
    add_grid(p)

    p = sub.add_parser("availability", help="dump the task-PRF availability table")
    p.add_argument("scenario")
    p.add_argument("--out")

    p = sub.add_parser("disks", help="dump the re-steering disk catalog")
    p.add_argument("scenario")
    p.add_argument("--out")
    add_grid(p)

    p = sub.add_parser("export-lp", help="export the integer program in LP format")
    p.add_argument("scenario")
    p.add_argument("--mode", choices=tuple(MODES), default="edbf")
    p.add_argument("--sscfl", action="store_true",
                   help="export the facility-location relaxation instead")
    p.add_argument("--copies", type=int,
                   help="candidate looks per PRF or disk (defaults: task count / 1)")
    p.add_argument("--out")
    add_grid(p)

    p = sub.add_parser("oracle-compare",
                       help="compare heuristic objectives against the exact optimum")
    p.add_argument("scenario")
    p.add_argument("--mode", choices=(*MODES, "both"), default="edbf")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--heuristic-only", action="store_true",
                   help="skip the exact solve (for instances beyond desk scale)")
    p.add_argument("--out")
    add_grid(p)

    p = sub.add_parser("bench", help="measure runtime scaling across task counts")
    p.add_argument("--mode", choices=tuple(MODES), default="edbf")
    p.add_argument("--backend", choices=BACKEND_KINDS, default="rangetree")
    p.add_argument("--sizes", default="1000,2000,4000,8000",
                   help="comma-separated strictly increasing task counts")
    p.add_argument("--reps", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    add_grid(p)
    # a usage error a command raises itself prints that command's usage
    for p in sub.choices.values():
        p.set_defaults(usage=p.format_usage)
    return parser


def _read_table(path: str):
    """The availability table of the scenario file at ``path``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read scenario file: {exc}")
    except UnicodeDecodeError as exc:
        raise ScenarioError(f"scenario file is not valid UTF-8: {exc}") from None
    cfg, prfs, tasks = pio.parse_scenario(text)
    return build_availability_table(tasks, prfs, cfg)


def _write_out(text: str, out: str | None):
    if not out:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write output file: {exc}")


def _grid(args) -> GridSpec:
    """The grid the flags name, checked in every mode (``ScenarioError``)."""
    return GridSpec(spacing=args.grid_eps, disk_radius=args.disk_radius)


def _run_scheduler(args, table):
    """Run the scheduler the arguments select on ``table``: the schedule and
    the seconds it took.  Its look source's structures are freed when this
    returns, before the schedule is written."""
    t0 = time.perf_counter()
    source = mode_source(args.mode, table, _grid(args))
    rules = {name: getattr(args, name) for name in MODES[args.mode].RULES}
    run = look_source(args.mode, source, OpCounters(), backend=args.backend,
                      seed=args.seed, **rules)
    if args.dump_structures:
        print(run.dump_structures(), file=sys.stderr)
    schedule = run.run()
    return schedule, time.perf_counter() - t0


def _cmd_schedule(args) -> int:
    table = _read_table(args.scenario)
    if table.unschedulable and not args.allow_unschedulable:
        print("unschedulable tasks (no available PRF):", file=sys.stderr)
        for tid in table.unschedulable:
            print(f"  task {tid}", file=sys.stderr)
        raise InfeasibleError(
            f"{len(table.unschedulable)} unschedulable task(s); "
            "rerun with --allow-unschedulable to schedule the rest",
            task_ids=table.unschedulable,
        )
    schedule, elapsed = _run_scheduler(args, table)
    text = pio.schedule_to_text(schedule)
    summary = (
        f"looks={schedule.n_looks_used()} objective={schedule.objective():.6f}s "
        f"runtime={elapsed * 1e3:.2f}ms tasks={len(schedule.assignments)}"
    )
    if args.out:
        _write_out(text, args.out)
        print(summary)
    else:
        sys.stdout.write(text)
        print(summary, file=sys.stderr)
    return 0


def _cmd_availability(args) -> int:
    table = _read_table(args.scenario)
    _write_out(pio.availability_text(table), args.out)
    return 0


def _cmd_disks(args) -> int:
    table = _read_table(args.scenario)
    _write_out(pio.disks_text(enumerate_disks(table, _grid(args))), args.out)
    return 0


def _cmd_export_lp(args) -> int:
    if args.copies is not None and args.copies < 1:
        raise UsageError(f"--copies must be at least 1, got {args.copies}")
    table = _read_table(args.scenario)
    source = exact_source(mode_source(args.mode, table, _grid(args)))
    inst = build_instance(source, copies=args.copies)
    _write_out(export_lp(inst, sscfl=args.sscfl), args.out)
    return 0


def _heuristic_grid(mode):
    """Every rule set of ``mode``: the product of its rule table, in order."""
    rules = MODES[mode].RULES
    return [dict(zip(rules, choice)) for choice in itertools.product(*rules.values())]


def _cmd_oracle_compare(args) -> int:
    table = _read_table(args.scenario)
    if table.unschedulable:
        raise InfeasibleError(
            f"{len(table.unschedulable)} unschedulable task(s)",
            task_ids=table.unschedulable,
        )
    if not args.heuristic_only:
        # refuse before running any heuristic, as solve_exact would after
        check_exact_task_limit(table.n_tasks)
    modes = tuple(MODES) if args.mode == "both" else (args.mode,)
    lines = ["pulseplan-oracle-compare v1",
             f"seed={args.seed} tasks={table.n_tasks}"]
    grid = _grid(args)
    copies = max(1, table.n_tasks)
    for mode in modes:
        source = mode_source(mode, table, grid)
        # C1-C8 and the objective read no candidate look, so one copy each
        check_inst = build_instance(source, copies=1)
        optimal = None
        if not args.heuristic_only:
            inst = build_instance(exact_source(source), copies=copies)
            exact = solve_exact(inst)
            if exact is None:
                raise InfeasibleError("instance admits no feasible schedule")
            optimal = exact_objective(exact, inst)
            lines.append(
                f"{mode} exact objective={float(optimal):.9f} "
                f"looks={exact.n_looks_used()}"
            )

        for rules in _heuristic_grid(mode):
            schedule = look_source(mode, source, backend="rangetree", seed=args.seed,
                                   **rules).run()
            combo = "+".join(rules[k] for k in sorted(rules))
            violations = check_feasible(schedule, check_inst)
            obj = exact_objective(schedule, check_inst)
            # with no tasks both objectives are 0 and every rule is optimal
            ratio = ("" if optimal is None
                     else f" ratio={float(obj / optimal) if optimal else 1.0:.4f}")
            verdict = "feasible" if not violations else f"INFEASIBLE({len(violations)})"
            lines.append(
                f"{mode} {combo} objective={float(obj):.9f} "
                f"looks={schedule.n_looks_used()}{ratio} {verdict}"
            )
    _write_out("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_bench(args) -> int:
    try:
        sizes = [int(s) for s in args.sizes.split(",") if s]
    except ValueError:
        raise UsageError(f"--sizes must list integers, got {args.sizes!r}")
    if len(sizes) < 4:
        raise UsageError("--sizes needs at least four task counts")
    if sizes[0] < 1 or sorted(set(sizes)) != sizes:
        raise UsageError("--sizes must be positive and strictly increasing")
    if args.reps < 1:
        raise UsageError("--reps must be at least 1")
    if args.seed < 0:
        raise UsageError("--seed must be nonnegative")
    report = run_scaling(
        mode=args.mode,
        backend=args.backend,
        sizes=sizes,
        reps=args.reps,
        template=ScenarioSpec(n_tasks=0, seed=args.seed),
        grid=_grid(args),
    )
    _write_out(report.to_text(), args.out)
    return 0


# what to change when a command hits a ResourceLimitError, by its limit
_LIMIT_HINTS = {"exact": "rerun oracle-compare with --heuristic-only",
                "lp": "lower --copies",
                "catalog": "raise --grid-eps or lower --disk-radius"}

_COMMANDS = {
    "schedule": _cmd_schedule,
    "availability": _cmd_availability,
    "disks": _cmd_disks,
    "export-lp": _cmd_export_lp,
    "oracle-compare": _cmd_oracle_compare,
    "bench": _cmd_bench,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(exc.usage or args.usage(), file=sys.stderr, end="")
        return 1
    except (ScenarioError, InfeasibleError, ResourceLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, ResourceLimitError) and exc.limit in _LIMIT_HINTS:
            print(f"hint: {_LIMIT_HINTS[exc.limit]}", file=sys.stderr)
        return 2
    except InternalInvariantError as exc:
        print(f"internal invariant violated: {exc}", file=sys.stderr)
        return 3


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())

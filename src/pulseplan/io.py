"""Line-oriented text formats: scenarios, schedules, and dumps.

Every format starts with a one-line version tag and is deterministic for a
given input, so files diff cleanly and round-trip byte-identically.  Floats
are written with ``repr`` to survive the round trip exactly.
"""

from __future__ import annotations

from .errors import ScenarioError
from .geometry import DiskCatalog
from .ip import Schedule, ScheduledLook
from .radar import AvailabilityTable, PrfConfig, RadarConfig, TrackTask

SCENARIO_TAG = "pulseplan-scenario v1"
SCHEDULE_TAG = "pulseplan-schedule v1"
AVAILABILITY_TAG = "pulseplan-availability v1"
DISKS_TAG = "pulseplan-disks v1"


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _fields(pairs) -> str:
    return " ".join(f"{k}={_fmt(v)}" for k, v in pairs)


def _parse_fields(tokens) -> dict[str, str]:
    out = {}
    for tok in tokens:
        if "=" not in tok:
            raise ScenarioError(f"malformed field {tok!r}")
        k, v = tok.split("=", 1)
        out[k] = v
    return out


# --- scenario files --------------------------------------------------------

def scenario_to_text(cfg: RadarConfig, prfs, tasks) -> str:
    lines = [SCENARIO_TAG]
    lines.append(
        "radar "
        + _fields(
            [
                ("c", cfg.c),
                ("wavelength", cfg.wavelength),
                ("pulse_width", cfg.pulse_width),
                ("n_r", cfg.n_r),
                ("n_f", cfg.n_f),
                ("n_intlv", cfg.n_intlv),
                ("pulses_per_look", cfg.pulses_per_look),
            ]
        )
    )
    for prf in prfs:
        lines.append(
            "prf "
            + _fields(
                [
                    ("f_r", prf.f_r),
                    ("c_r_plus", prf.c_r_plus),
                    ("c_r_minus", prf.c_r_minus),
                    ("c_f_plus", prf.c_f_plus),
                    ("c_f_minus", prf.c_f_minus),
                ]
            )
        )
    for t in tasks:
        lines.append(
            "task "
            + _fields(
                [
                    ("id", t.id),
                    ("range", t.range_m),
                    ("sigma_r", t.sigma_r),
                    ("velocity", t.velocity),
                    ("sigma_f", t.sigma_f),
                    ("u", t.u),
                    ("v", t.v),
                ]
            )
        )
    return "\n".join(lines) + "\n"


_SCENARIO_RECORDS = {
    # record kind -> (constructor, {field key: converter} in the
    # constructor's positional order)
    "radar": (RadarConfig, dict(c=float, wavelength=float, pulse_width=float,
                                n_r=float, n_f=float, n_intlv=int,
                                pulses_per_look=int)),
    "prf": (PrfConfig, dict(f_r=float, c_r_plus=float, c_r_minus=float,
                            c_f_plus=float, c_f_minus=float)),
    "task": (TrackTask, dict(id=int, range=float, sigma_r=float, velocity=float,
                             sigma_f=float, u=float, v=float)),
}


def _record_args(kind: str, tokens, fields) -> list:
    """Constructor arguments, in ``fields`` order, from ``k=v`` tokens in
    any order; each field must appear exactly once."""
    f = _parse_fields(tokens)
    if len(f) != len(tokens) or f.keys() != fields.keys():
        missing = " ".join(k for k in fields if k not in f) or "none"
        unknown = " ".join(k for k in f if k not in fields) or "none"
        raise ScenarioError(
            f"{kind} record needs each of {' '.join(fields)} exactly once "
            f"(missing: {missing}; unknown: {unknown})"
        )
    return [conv(f[k]) for k, conv in fields.items()]


def parse_scenario(text: str):
    """Scenario file text to (RadarConfig, prfs, tasks).

    A malformed line (unknown record or field, a missing or repeated field,
    a non-numeric value, a value the dataclass checks reject, NaN and inf
    included, or a second radar record) raises ``ScenarioError`` naming its
    line number.
    """
    lines = [(n, ln) for n, ln in enumerate(text.splitlines(), 1)
             if ln.strip() and not ln.startswith("#")]
    if not lines or lines[0][1] != SCENARIO_TAG:
        raise ScenarioError(f"not a scenario file (expected {SCENARIO_TAG!r})")
    cfg = None
    prfs = []
    tasks = []
    for n, line in lines[1:]:
        kind, *tokens = line.split()
        try:
            if kind not in _SCENARIO_RECORDS:
                raise ScenarioError(f"unknown scenario record {kind!r}")
            make, fields = _SCENARIO_RECORDS[kind]
            record = make(*_record_args(kind, tokens, fields))
        except ValueError as exc:
            raise ScenarioError(f"line {n}: {kind} record: {exc}") from None
        except ScenarioError as exc:
            raise ScenarioError(f"line {n}: {exc}") from None
        if kind == "task":
            tasks.append(record)
        elif kind == "prf":
            prfs.append(record)
        elif cfg is None:
            cfg = record
        else:
            raise ScenarioError(f"line {n}: second radar record")
    if cfg is None:
        raise ScenarioError("scenario file has no radar record")
    if not prfs:
        raise ScenarioError("scenario file has no prf records")
    return cfg, tuple(prfs), tuple(tasks)


# --- schedule files --------------------------------------------------------

def schedule_to_text(schedule: Schedule) -> str:
    lines = [SCHEDULE_TAG]
    meta = dict(schedule.meta)
    meta["objective"] = repr(schedule.objective())
    meta["looks_used"] = str(schedule.n_looks_used())
    lines.append("meta " + " ".join(f"{k}={meta[k]}" for k in sorted(meta)))
    for lk in schedule.looks:
        pairs = [
            ("index", lk.index),
            ("prf", lk.prf_index),
            ("f_r", lk.f_r),
            ("dwell", lk.dwell),
        ]
        if lk.disk_id is not None:
            pairs.append(("disk", lk.disk_id))
            pairs.append(("disk_u", lk.disk_center[0]))
            pairs.append(("disk_v", lk.disk_center[1]))
        lines.append("look " + _fields(pairs))
    for tid, j, k in sorted(schedule.assignments, key=lambda a: (a[1], a[2])):
        lines.append(f"assign task={tid} look={j} slot={k}")
    if schedule.unschedulable:
        lines.append("unschedulable " + " ".join(str(t) for t in schedule.unschedulable))
    return "\n".join(lines) + "\n"


def parse_schedule(text: str) -> Schedule:
    lines = [ln for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
    if not lines or lines[0] != SCHEDULE_TAG:
        raise ScenarioError(f"not a schedule file (expected {SCHEDULE_TAG!r})")
    meta: dict[str, str] = {}
    looks: list[ScheduledLook] = []
    assignments: list[tuple[int, int, int]] = []
    unschedulable: tuple[int, ...] = ()
    for line in lines[1:]:
        kind, *rest = line.split()
        if kind == "meta":
            meta.update(_parse_fields(rest))
        elif kind == "look":
            f = _parse_fields(rest)
            center = None
            disk = None
            if "disk" in f:
                disk = int(f["disk"])
                center = (float(f["disk_u"]), float(f["disk_v"]))
            looks.append(
                ScheduledLook(
                    index=int(f["index"]),
                    prf_index=int(f["prf"]),
                    f_r=float(f["f_r"]),
                    dwell=float(f["dwell"]),
                    disk_id=disk,
                    disk_center=center,
                )
            )
        elif kind == "assign":
            f = _parse_fields(rest)
            assignments.append((int(f["task"]), int(f["look"]), int(f["slot"])))
        elif kind == "unschedulable":
            unschedulable = tuple(int(t) for t in rest)
        else:
            raise ScenarioError(f"unknown schedule record {kind!r}")
    meta.pop("objective", None)
    meta.pop("looks_used", None)
    return Schedule(
        looks=looks, assignments=assignments, meta=meta, unschedulable=unschedulable
    )


# --- dumps -----------------------------------------------------------------

def availability_text(table: AvailabilityTable) -> str:
    """One row per task-PRF pair: ids, flags, slot counts, folded range."""
    lines = [AVAILABILITY_TAG]
    lines.append("# task prf f_r a_v a_l a_r r_a")
    for i, task in enumerate(table.tasks):
        for p in range(table.n_prfs):
            lines.append(
                f"{task.id} {p} {_fmt(table.prfs[p].f_r)} "
                f"{int(table.av[i, p])} {int(table.al[i, p])} {int(table.ar[i, p])} "
                f"{_fmt(float(table.ra[i, p]))}"
            )
    if table.unschedulable:
        lines.append("unschedulable " + " ".join(str(t) for t in table.unschedulable))
    return "\n".join(lines) + "\n"


def disks_text(catalog: DiskCatalog) -> str:
    """Per PRF, disks in lexicographic center order with their task lists."""
    lines = [DISKS_TAG]
    lines.append(
        f"grid spacing={_fmt(catalog.grid.spacing)} "
        f"disk_radius={_fmt(catalog.grid.disk_radius)} n_disks={catalog.n_disks}"
    )
    lines.append("# prf disk u v cardinality tasks")
    for p, disk_ids in enumerate(catalog.by_prf):
        for d in sorted(disk_ids, key=lambda i: (catalog.disks[i].gu, catalog.disks[i].gv)):
            disk = catalog.disks[d]
            u, v = disk.center(catalog.grid)
            tasks = ",".join(str(t) for t in sorted(disk.tasks))
            lines.append(f"{p} {d} {_fmt(u)} {_fmt(v)} {disk.cardinality} {tasks}")
    return "\n".join(lines) + "\n"

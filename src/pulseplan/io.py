"""Line-oriented text formats: scenarios, schedules, and dumps.

Every format starts with a one-line version tag and is deterministic for a
given input, so files diff cleanly and round-trip byte-identically.  Floats
are written with ``repr`` to survive the round trip exactly.

A scenario file is read by one of two readers, chosen once per file: if
its task lines come last and all are as ``scenario_to_text`` writes them,
they are read straight into columns; any other file goes through the
line-by-line reader, which gives the values and errors of both.
"""

from __future__ import annotations

from itertools import repeat
from operator import attrgetter, gt, itemgetter

import numpy as np

from .errors import ScenarioError
from .geometry import DiskCatalog
from .ip import Assignments, Schedule, ScheduledLook
from .radar import (
    _TASK_FLOATS,
    AvailabilityTable,
    PrfConfig,
    RadarConfig,
    TaskColumns,
    TrackTask,
)

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

# One task line.  ``str`` of a Python float is its ``repr``, so ``%s``
# writes Python floats and ints as ``_fmt`` does, and numpy ints too
# (``%r`` would write ``np.int64(5)``).
_TASK_LINE = "task id=%s range=%s sigma_r=%s velocity=%s sigma_f=%s u=%s v=%s"


def scenario_to_text(cfg: RadarConfig, prfs, tasks) -> str:
    """The scenario file of (cfg, prfs, tasks): the version tag, one radar
    line, one line per PRF, then one ``_TASK_LINE`` per task.

    ``tasks`` is a ``TaskColumns``, whose rows are its ids zipped with its
    columns as Python floats, or any iterable of ``TrackTask``, whose rows
    are each task's id and six fields as they are (so a field built from
    the int 50000 writes ``range=50000``).
    """
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
    if isinstance(tasks, TaskColumns):
        rows = zip(tasks.ids, *(getattr(tasks, name).tolist() for name in _TASK_FLOATS))
    else:
        rows = map(attrgetter("id", *_TASK_FLOATS), tasks)
    lines.extend(map(_TASK_LINE.__mod__, rows))
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


# Task lines in the written field order are read in chunks of this many
# lines: one chunk's tokens take a few MB, where a 64k-task file's would
# take over 100 MB.
_TASK_CHUNK = 4096
_TASK_KEYS = tuple(_SCENARIO_RECORDS["task"][1])


def _tag_end(lines, tag=SCENARIO_TAG, name="scenario") -> int:
    """Index of the line after the version tag, the first line that is
    neither blank nor a comment."""
    for i, line in enumerate(lines):
        if line.strip() and not line.startswith("#"):
            if line == tag:
                return i + 1
            break
    raise ScenarioError(f"not a {name} file (expected {tag!r})")


def _scenario_record(kind: str, tokens):
    if kind not in _SCENARIO_RECORDS:
        raise ScenarioError(f"unknown scenario record {kind!r}")
    make, fields = _SCENARIO_RECORDS[kind]
    return make(*_record_args(kind, tokens, fields))


def _records(lines, start, stop, read=_scenario_record):
    """(line number, kind, record) for each record line in lines[start:stop],
    read one line at a time by ``read(kind, tokens)``; a ``ValueError`` or
    ``ScenarioError`` it raises becomes a ``ScenarioError`` naming the line."""
    for n in range(start + 1, stop + 1):
        line = lines[n - 1]
        if not line.strip() or line.startswith("#"):
            continue
        kind, *tokens = line.split()
        try:
            record = read(kind, tokens)
        except ValueError as exc:
            raise ScenarioError(f"line {n}: {kind} record: {exc}") from None
        except ScenarioError as exc:
            raise ScenarioError(f"line {n}: {exc}") from None
        yield n, kind, record


def _task_block(lines):
    """(ids, six float64 columns) of task lines that each hold ``task`` and
    the seven fields in the written order; ``ValueError`` if any line does
    not or a value does not convert."""
    n = len(lines)
    text = "\n".join(lines)
    tokens = text.split()
    if (len(tokens) != 8 * n or text.count("=") != 7 * n or tokens[::8].count("task") != n
            or not all(map(str.startswith, map(str.lstrip, lines), repeat("task")))):
        raise ValueError("not task lines in the written form")
    # Each line starts with "task" after its leading whitespace, and no
    # column converts a token that starts with "task", so if every value
    # below converts, each line is 8 tokens: "task" and one per column.
    # From each column's tokens the "key=" prefix is stripped; int and float
    # reject "=", so each token held at most one "=", and one only right
    # after its own key.  7n "=" in all then means every token did.
    values = [map(str.removeprefix, tokens[j::8], repeat(key + "="))
              for j, key in enumerate(_TASK_KEYS, 1)]
    return ([*map(int, values[0])],
            *(np.fromiter(map(float, v), np.float64, n) for v in values[1:]))


def _assemble(records):
    """(cfg, prfs, task records) from (line number, kind, record) triples."""
    cfg = None
    prfs = []
    tasks = []
    for n, kind, record in records:
        if kind == "prf":
            prfs.append(record)
        elif kind == "radar":
            if cfg is not None:
                raise ScenarioError(f"line {n}: second radar record")
            cfg = record
        else:
            tasks.append(record)
    if cfg is None:
        raise ScenarioError("scenario file has no radar record")
    if not prfs:
        raise ScenarioError("scenario file has no prf records")
    return cfg, tuple(prfs), tasks


def parse_scenario(text: str):
    """Scenario file text to (RadarConfig, prfs, TaskColumns).

    A malformed line (unknown record or field, a missing or repeated field,
    a non-numeric value, a value the dataclass checks reject, NaN and inf
    included, or a second radar record) raises ``ScenarioError`` naming its
    line number.

    One decision per file picks the reader.  If every line from the first
    one that starts with ``task`` (after leading whitespace) to the end is a
    task line as ``scenario_to_text`` writes it (``task`` and the seven
    fields in written order), those lines are read in chunks straight into
    columns, and the lines before them go through the line-by-line reader.
    Any other file (a comment, blank line, record or reordered task among
    the tasks, or a value the checks reject) is read whole by
    ``_parse_records``, so errors always come from that reader, and the
    result equals its result.
    """
    lines = text.splitlines()
    start = _tag_end(lines)
    first = next((i for i in range(start, len(lines))
                  if lines[i].lstrip().startswith("task")), len(lines))
    ids, cols = [], np.empty((len(_TASK_FLOATS), len(lines) - first))
    try:
        for i in range(first, len(lines), _TASK_CHUNK):
            block_ids, *block = _task_block(lines[i:i + _TASK_CHUNK])
            cols[:, i - first:i - first + len(block_ids)] = block
            ids += block_ids
        tasks = TaskColumns(ids, *cols)
    except (ValueError, ScenarioError):
        cfg, prfs, records = _parse_records(text)
        return cfg, prfs, TaskColumns.from_tasks(records)
    cfg, prfs, _ = _assemble(_records(lines, start, first))
    return cfg, prfs, tasks


def _parse_records(text: str):
    """The line-by-line scenario reader: (RadarConfig, prfs, tuple of
    ``TrackTask``).  ``parse_scenario`` gives the same values and errors."""
    lines = text.splitlines()
    cfg, prfs, tasks = _assemble(_records(lines, _tag_end(lines), len(lines)))
    return cfg, prfs, tuple(tasks)


# --- schedule files --------------------------------------------------------

# One look line of each kind and one assign line; ``%s`` writes Python
# ints and floats as ``_fmt`` does.
_LOOK_LINE = "look index=%s prf=%s f_r=%s dwell=%s"
_DISK_LOOK_LINE = _LOOK_LINE + " disk=%s disk_u=%s disk_v=%s"
_ASSIGN_LINE = "assign task=%s look=%s slot=%s"


def _look_line(lk: ScheduledLook) -> str:
    if lk.disk_id is None:
        return _LOOK_LINE % (lk.index, lk.prf_index, lk.f_r, lk.dwell)
    return _DISK_LOOK_LINE % (lk.index, lk.prf_index, lk.f_r, lk.dwell,
                              lk.disk_id, *lk.disk_center)


def schedule_to_text(schedule: Schedule) -> str:
    """The schedule file: the version tag, one meta line (the schedule's
    meta plus its objective and looks used, keys sorted), one line per look,
    one ``_ASSIGN_LINE`` per assignment in (look, slot) order, and the
    unschedulable ids, if any.  Assignments out of that order, as a
    hand-built schedule may hold them, are stable-sorted into it.
    """
    lines = [SCHEDULE_TAG]
    meta = dict(schedule.meta)
    meta["objective"] = repr(schedule.objective())
    meta["looks_used"] = str(schedule.n_looks_used())
    lines.append("meta " + " ".join(f"{k}={meta[k]}" for k in sorted(meta)))
    lines.extend(map(_look_line, schedule.looks))
    a = schedule.assignments
    rows = iter(a)
    if any(map(gt, zip(a.look, a.slot), zip(a.look[1:], a.slot[1:]))):
        rows = sorted(rows, key=itemgetter(1, 2))
    lines.extend(map(_ASSIGN_LINE.__mod__, rows))
    if schedule.unschedulable:
        lines.append("unschedulable " + " ".join(str(t) for t in schedule.unschedulable))
    lines.append("")    # the final newline, without a second copy of the text
    return "\n".join(lines)


_LOOK_FIELDS = dict(index=int, prf=int, f_r=float, dwell=float)
_DISK_LOOK_FIELDS = dict(_LOOK_FIELDS, disk=int, disk_u=float, disk_v=float)
_ASSIGN_FIELDS = dict(task=int, look=int, slot=int)


def _schedule_record(kind: str, tokens):
    if kind == "assign":
        return tuple(_record_args(kind, tokens, _ASSIGN_FIELDS))
    if kind == "meta":
        return _parse_fields(tokens)
    if kind == "look":
        if any(tok.startswith("disk") for tok in tokens):
            *args, u, v = _record_args(kind, tokens, _DISK_LOOK_FIELDS)
            return ScheduledLook(*args, disk_center=(u, v))
        return ScheduledLook(*_record_args(kind, tokens, _LOOK_FIELDS))
    if kind == "unschedulable":
        return tuple(map(int, tokens))
    raise ScenarioError(f"unknown schedule record {kind!r}")


_ASSIGN_KEYS = tuple(_ASSIGN_FIELDS)
# An assign line is half a task line's tokens.
_ASSIGN_CHUNK = 2 * _TASK_CHUNK


def _assign_block(lines) -> list[list[int]]:
    """The (task, look, slot) columns of assign lines that each hold
    ``assign`` and the three fields in the written order; ``ValueError`` if
    any line does not or a value does not convert.  The argument of
    ``_task_block`` applies: no column converts a token that starts with
    ``assign``, so if every value converts, each line is 4 tokens, and 3n
    "=" mean each value token held its own key's."""
    n = len(lines)
    text = "\n".join(lines)
    tokens = text.split()
    if (len(tokens) != 4 * n or text.count("=") != 3 * n or tokens[::4].count("assign") != n
            or not all(map(str.startswith, map(str.lstrip, lines), repeat("assign")))):
        raise ValueError("not assign lines in the written form")
    return [[*map(int, map(str.removeprefix, tokens[j::4], repeat(key + "=")))]
            for j, key in enumerate(_ASSIGN_KEYS, 1)]


def _schedule_from(records, columns=None) -> Schedule:
    """A ``Schedule`` from (line number, kind, record) triples of the line
    reader; its assignments are ``columns``, the (task, look, slot) columns
    of assign lines read in bulk, or else the assign records."""
    meta: dict[str, str] = {}
    looks: list[ScheduledLook] = []
    triples: list[tuple[int, int, int]] = []
    unschedulable: tuple[int, ...] = ()
    for _, kind, record in records:
        if kind == "meta":
            meta.update(record)
        elif kind == "look":
            looks.append(record)
        elif kind == "assign":
            triples.append(record)
        else:
            unschedulable = record
    meta.pop("objective", None)
    meta.pop("looks_used", None)
    return Schedule(looks=looks, assignments=triples if columns is None else Assignments(*columns),
                    meta=meta, unschedulable=unschedulable)


def parse_schedule(text: str) -> Schedule:
    """Schedule file text to a ``Schedule``.

    A malformed line (unknown record, a missing, unknown or repeated field
    of a ``look`` or ``assign`` record, a ``look`` with only some of
    ``disk``/``disk_u``/``disk_v``, or a value that does not convert)
    raises ``ScenarioError`` naming its line number.

    One decision per file picks the reader, as ``parse_scenario`` makes it.
    If every line from the first one that starts with ``assign`` (after
    leading whitespace) to the end, or to a last ``unschedulable`` line, is
    an assign line as ``schedule_to_text`` writes it, those lines are read
    straight into columns, and the other lines go through the line-by-line
    reader.  Any other file is read whole by ``_parse_schedule_records``, so
    errors always come from that reader, and the result equals its result.
    """
    lines = text.splitlines()
    start = _tag_end(lines, SCHEDULE_TAG, "schedule")
    first = next((i for i in range(start, len(lines))
                  if lines[i].lstrip().startswith("assign")), len(lines))
    stop = len(lines)
    if stop > first and lines[-1].lstrip().startswith("unschedulable"):
        stop -= 1
    # columns sized once and filled in chunks, as task lines are read: a
    # whole file's tokens at once would set the reader's peak memory
    columns = [0] * (stop - first), [0] * (stop - first), [0] * (stop - first)
    try:
        for i in range(first, stop, _ASSIGN_CHUNK):
            block = _assign_block(lines[i:min(i + _ASSIGN_CHUNK, stop)])
            for col, values in zip(columns, block):
                col[i - first:i - first + len(values)] = values
    except ValueError:
        return _parse_schedule_records(text)
    records = _records(lines, start, first, _schedule_record)
    tail = _records(lines, stop, len(lines), _schedule_record)
    return _schedule_from([*records, *tail], columns)


def _parse_schedule_records(text: str) -> Schedule:
    """The line-by-line schedule reader; ``parse_schedule`` gives the same
    values and errors."""
    lines = text.splitlines()
    start = _tag_end(lines, SCHEDULE_TAG, "schedule")
    return _schedule_from(_records(lines, start, len(lines), _schedule_record))


# --- dumps -----------------------------------------------------------------

def availability_text(table: AvailabilityTable) -> str:
    """One row per task-PRF pair: ids, flags, slot counts, folded range."""
    lines = [AVAILABILITY_TAG]
    lines.append("# task prf f_r a_v a_l a_r r_a")
    for i, tid in enumerate(table.tasks.ids):
        for p in range(table.n_prfs):
            lines.append(
                f"{tid} {p} {_fmt(table.prfs[p].f_r)} "
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
    gu, gv, ids = catalog.gu, catalog.gv, catalog.table.tasks.ids
    for p, disk_ids in enumerate(catalog.by_prf):
        for d in sorted(disk_ids, key=lambda i: (gu[i], gv[i])):
            u, v = catalog.center(d)
            members = catalog.disk_tasks(d)
            tasks = ",".join(str(t) for t in sorted(map(ids.__getitem__, members)))
            lines.append(f"{p} {d} {_fmt(u)} {_fmt(v)} {len(members)} {tasks}")
    return "\n".join(lines) + "\n"

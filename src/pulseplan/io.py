"""Line-oriented text formats: scenarios, schedules, and dumps.

Every format starts with a one-line version tag and is deterministic for a
given input, so files diff cleanly and round-trip byte-identically.  Floats
are written with ``repr`` to survive the round trip exactly.

Each line kind of the scenario and schedule files (radar, prf, task, the
two look forms, assign) has one field table: its keys in written order,
each with the converter of its value.  The table sets the kind's written
form for all three of its users: the writer's line template
(``_template``), the line-by-line reader, which takes the fields in any
order, and the bulk reader (``_columns``), which reads lines in the
written form a field column at a time.  A file's reader is chosen once:
if its task lines (in a schedule, its look and assign lines) come last
and all are in the written form, they are read in bulk and the lines
before them line by line; any other file goes through the line-by-line
reader, which gives the values and errors of both.

A schedule's looks are columns (``ip.Looks``): an index per look and a key
into a table of look fields.  The writer formats each key's look-line tail
once and the bulk reader converts each distinct tail text once, so neither
builds an object per look, and values that compare equal but are written
apart (0.0 and -0.0) keep apart keys.
"""

from __future__ import annotations

from itertools import groupby, repeat
from operator import attrgetter, gt, itemgetter

import numpy as np

from .errors import ScenarioError
from .geometry import DiskCatalog
from .ip import Assignments, Looks, Schedule, ScheduledLook
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


def _parse_fields(tokens) -> dict[str, str]:
    out = {}
    for tok in tokens:
        if "=" not in tok:
            raise ScenarioError(f"malformed field {tok!r}")
        k, v = tok.split("=", 1)
        out[k] = v
    return out


def _template(kind: str, fields) -> str:
    """The written form of a ``kind`` line: ``kind``, then ``key=%s`` for
    each key of its field table, in table order.  ``str`` of a Python float
    is its ``repr``, so ``%s`` writes Python floats and ints as ``_fmt``
    does, and numpy ints too (``%r`` would write ``np.int64(5)``)."""
    return " ".join([kind, *(f"{key}=%s" for key in fields)])


# Lines in the written form are read in bulk in chunks of this many lines:
# one chunk's tokens take a few MB, where a 64k-task file's would take over
# 100 MB.
_CHUNK = 4096


def _columns(lines, kind: str, fields) -> list:
    """One iterator per field of ``fields`` over the values of ``lines``,
    each converted by the field's converter, if each line holds ``kind``
    and the fields in the written form; else ``ValueError``, here or from
    an iterator whose value does not convert.

    Each line starts with ``kind`` after its leading whitespace, and no
    converter takes a token that starts with ``kind``, so if every value
    converts, each line is ``kind`` and one token per field.  From each
    field's tokens its ``key=`` prefix is stripped; int and float reject
    "=", so each token held at most one "=", and one only right after its
    own key.  One "=" per field and line in all then means every token did.
    """
    n, width = len(lines), len(fields) + 1
    text = "\n".join(lines)
    tokens = text.split()
    if (len(tokens) != width * n or text.count("=") != (width - 1) * n
            or tokens[::width].count(kind) != n
            or not all(map(str.startswith, map(str.lstrip, lines), repeat(kind)))):
        raise ValueError(f"not {kind} lines in the written form")
    return [map(conv, map(str.removeprefix, tokens[j::width], repeat(key + "=")))
            for j, (key, conv) in enumerate(fields.items(), 1)]


# --- scenario files --------------------------------------------------------

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
_RADAR_LINE, _PRF_LINE, _TASK_LINE = (
    _template(kind, fields) for kind, (_, fields) in _SCENARIO_RECORDS.items())


def scenario_to_text(cfg: RadarConfig, prfs, tasks) -> str:
    """The scenario file of (cfg, prfs, tasks): the version tag, one radar
    line, one line per PRF, then one ``_TASK_LINE`` per task.

    The radar and prf lines hold the attributes their field tables name.
    ``tasks`` is a ``TaskColumns``, whose rows are its ids zipped with its
    columns as Python floats, or any iterable of ``TrackTask``, whose rows
    are each task's id and six fields as they are (so a field built from
    the int 50000 writes ``range=50000``).
    """
    radar, prf = (attrgetter(*_SCENARIO_RECORDS[kind][1]) for kind in ("radar", "prf"))
    lines = [SCENARIO_TAG, _RADAR_LINE % radar(cfg), *map(_PRF_LINE.__mod__, map(prf, prfs))]
    if isinstance(tasks, TaskColumns):
        rows = zip(tasks.ids, *(getattr(tasks, name).tolist() for name in _TASK_FLOATS))
    else:
        rows = map(attrgetter("id", *_TASK_FLOATS), tasks)
    lines.extend(map(_TASK_LINE.__mod__, rows))
    return "\n".join(lines) + "\n"


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
    task line in the written form, those lines are read by ``_columns`` in
    chunks straight into columns, and the lines before them go through the
    line-by-line reader.  Any other file (a comment, blank line, record or
    reordered task among the tasks, or a value the checks reject) is read
    whole by ``_parse_records``, so errors always come from that reader,
    and the result equals its result.
    """
    lines = text.splitlines()
    start = _tag_end(lines)
    first = next((i for i in range(start, len(lines))
                  if lines[i].lstrip().startswith("task")), len(lines))
    ids, cols = [], np.empty((len(_TASK_FLOATS), len(lines) - first))
    try:
        for i in range(first, len(lines), _CHUNK):
            block = lines[i:i + _CHUNK]
            block_ids, *floats = _columns(block, "task", _SCENARIO_RECORDS["task"][1])
            ids += block_ids
            # read to its end (no count), each iterator frees its tokens
            # before the next chunk's are made
            for col, values in zip(cols, floats):
                col[i - first:i - first + len(block)] = np.fromiter(values, np.float64)
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

_LOOK_FIELDS = dict(index=int, prf=int, f_r=float, dwell=float)
_DISK_LOOK_FIELDS = dict(_LOOK_FIELDS, disk=int, disk_u=float, disk_v=float)
_ASSIGN_FIELDS = dict(task=int, look=int, slot=int)
_ASSIGN_LINE = _template("assign", _ASSIGN_FIELDS)
# the fields of each written look line form, by its count of "="
_LOOK_FORMS = {len(_LOOK_FIELDS): _LOOK_FIELDS, len(_DISK_LOOK_FIELDS): _DISK_LOOK_FIELDS}
# a look line is ``look index=j`` and the tail of its fields after the
# index, one template per form, written once per look key
_LOOK_TAIL, _DISK_LOOK_TAIL = (_template("look", fields).removeprefix("look index=%s ")
                               for fields in (_LOOK_FIELDS, _DISK_LOOK_FIELDS))


def _look_tail(fields) -> str:
    """The look line tail of a key's fields (``ip.Looks.fields``)."""
    prf, f_r, dwell, disk_id, center = fields
    if disk_id is None:
        return _LOOK_TAIL % (prf, f_r, dwell)
    return _DISK_LOOK_TAIL % (prf, f_r, dwell, disk_id, *center)


def _read_looks(lines) -> Looks:
    """The ``Looks`` of look lines in either written form, read in runs of
    one "=" count, in chunks: each line's index, and as its key the key of
    the text of its other fields.  A text met for the first time gets the
    next key, and its values, converted once, enter ``fields``; values that
    compare equal but are written apart (0.0 and -0.0) keep their keys
    apart.  ``ValueError`` if a line is in neither form.  ``_columns``
    hands over the texts unconverted (``str``); each distinct text is
    converted here, so every value is checked as it requires.  The texts
    are let go on return, before the assign lines are read."""
    looks, keys = Looks(), {}
    end = 0
    for eqs, run in groupby(map(str.count, lines, repeat("="))):
        if eqs not in _LOOK_FORMS:
            raise ValueError("not look lines in the written form")
        form = _LOOK_FORMS[eqs]
        convs = list(form.values())[1:]
        run0, end = end, end + len(list(run))
        for i in range(run0, end, _CHUNK):
            index, *rest = _columns(lines[i:min(i + _CHUNK, end)], "look",
                                    dict.fromkeys(form, str))
            looks.index += map(int, index)
            texts = list(zip(*rest))
            for text in texts:
                if text not in keys:
                    keys[text] = key = len(keys)
                    values = [conv(value) for conv, value in zip(convs, text)]
                    disk = (values[3], tuple(values[4:])) if len(values) > 3 else (None, None)
                    looks.fields[key] = (*values[:3], *disk)
            looks.key += map(keys.__getitem__, texts)
    return looks


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
    looks = schedule.looks
    tails = {k: _look_tail(fields) for k, fields in looks.fields.items()}
    lines.extend(map("look index=%s %s".__mod__,
                     zip(looks.index, map(tails.__getitem__, looks.key))))
    a = schedule.assignments
    rows = iter(a)
    if any(map(gt, zip(a.look, a.slot), zip(a.look[1:], a.slot[1:]))):
        rows = sorted(rows, key=itemgetter(1, 2))
    lines.extend(map(_ASSIGN_LINE.__mod__, rows))
    if schedule.unschedulable:
        lines.append("unschedulable " + " ".join(str(t) for t in schedule.unschedulable))
    lines.append("")    # the final newline, without a second copy of the text
    return "\n".join(lines)


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


def _schedule_from(records, looks=None, columns=None) -> Schedule:
    """A ``Schedule`` from (line number, kind, record) triples of the line
    reader; its looks are ``looks``, the ``Looks`` of look lines read in
    bulk, or else the look records, and its assignments are ``columns``,
    the (task, look, slot) columns of assign lines read in bulk, or else
    the assign records."""
    meta: dict[str, str] = {}
    look_records: list[ScheduledLook] = []
    triples: list[tuple[int, int, int]] = []
    unschedulable: tuple[int, ...] = ()
    for _, kind, record in records:
        if kind == "meta":
            meta.update(record)
        elif kind == "look":
            look_records.append(record)
        elif kind == "assign":
            triples.append(record)
        else:
            unschedulable = record
    meta.pop("objective", None)
    meta.pop("looks_used", None)
    return Schedule(looks=look_records if looks is None else looks,
                    assignments=triples if columns is None else Assignments(*columns),
                    meta=meta, unschedulable=unschedulable)


def parse_schedule(text: str) -> Schedule:
    """Schedule file text to a ``Schedule``.

    A malformed line (unknown record, a missing, unknown or repeated field
    of a ``look`` or ``assign`` record, a ``look`` with only some of
    ``disk``/``disk_u``/``disk_v``, or a value that does not convert)
    raises ``ScenarioError`` naming its line number.

    One decision per file picks the reader, as ``parse_scenario`` makes it.
    A last ``unschedulable`` line is set apart.  If every line from the
    first one that starts with ``assign`` (after leading whitespace) to the
    end is an assign line in the written form, and every line from the
    first one that starts with ``look`` to the first assign line is a look
    line in either written form, those lines are read by ``_columns`` in
    chunks straight into columns: the look lines as their indices and keys
    (``_read_looks``), then the assign lines.  The other lines go through
    the line-by-line reader.  Any other file is read whole by
    ``_parse_schedule_records``, so errors always come from that reader,
    and the result equals its result.
    """
    lines = text.splitlines()
    start = _tag_end(lines, SCHEDULE_TAG, "schedule")
    stop = len(lines)
    if stop > start and lines[-1].lstrip().startswith("unschedulable"):
        stop -= 1
    first = next((i for i in range(start, stop)
                  if lines[i].lstrip().startswith("assign")), stop)
    look0 = next((i for i in range(start, first)
                  if lines[i].lstrip().startswith("look")), first)
    # columns sized once and filled in chunks, as task lines are read: a
    # whole file's tokens at once would set the reader's peak memory
    columns = [0] * (stop - first), [0] * (stop - first), [0] * (stop - first)
    try:
        looks = _read_looks(lines[look0:first])
        for i in range(first, stop, _CHUNK):
            block = lines[i:min(i + _CHUNK, stop)]
            for col, values in zip(columns, _columns(block, "assign", _ASSIGN_FIELDS)):
                col[i - first:i - first + len(block)] = values
    except ValueError:
        return _parse_schedule_records(text)
    records = _records(lines, start, look0, _schedule_record)
    tail = _records(lines, stop, len(lines), _schedule_record)
    return _schedule_from([*records, *tail], looks, columns)


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

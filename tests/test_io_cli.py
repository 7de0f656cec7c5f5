import argparse
import dataclasses
import functools
import hashlib
import re
import tracemalloc
import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pulseplan import (
    DiskHeuristicConfig,
    GridSpec,
    HeuristicConfig,
    PrfConfig,
    RadarConfig,
    ScenarioError,
    ScenarioSpec,
    Schedule,
    ScheduledLook,
    build_availability_table,
    build_instance,
    check_feasible,
    default_prf_set,
    enumerate_disks,
    gen_scenario,
    hied,
    hisd,
)
from pulseplan import io as pio
from pulseplan.cli import _build_parser, main
from pulseplan.edbf import EdbfRun
from pulseplan.geometry import MAX_CATALOG_CELLS
from pulseplan.ip import LP_MAX_TERMS
from pulseplan.sdbf import SdbfRun
from pulseplan.structures import BACKEND_KINDS
from pulseplan.radar import _TASK_FLOATS, TaskColumns, slot_cap
from oracles import tuple_schedule_text
from pulseplan.io import (
    availability_text,
    disks_text,
    parse_scenario,
    parse_schedule,
    scenario_to_text,
    schedule_to_text,
)


@pytest.fixture
def scenario_file(tmp_path):
    cfg, prfs, tasks = gen_scenario(ScenarioSpec(n_tasks=12, seed=21, cluster_count=2))
    path = tmp_path / "scenario.txt"
    path.write_text(scenario_to_text(cfg, prfs, tasks))
    return path


@pytest.fixture
def small_scenario_file(tmp_path):
    cfg = RadarConfig(n_intlv=4, pulses_per_look=64)
    prfs = default_prf_set(count=3)
    cfg, prfs, tasks = gen_scenario(ScenarioSpec(n_tasks=5, seed=2), cfg, prfs)
    path = tmp_path / "small.txt"
    path.write_text(scenario_to_text(cfg, prfs, tasks))
    return path


# (record kind, pattern, replacement) applied to the first record of that
# kind in a valid scenario file; each result must be rejected with exit 2,
# naming the last line of the edited text
MALFORMED = {
    "missing field": ("task", r" sigma_f=\S+", ""),
    "non-numeric field": ("task", r"range=\S+", "range=far"),
    "unknown field": ("task", r"$", " color=red"),
    "repeated field": ("task", r"( v=\S+)", r"\1\1"),
    "field without value": ("task", r"velocity=\S+", "velocity"),
    "nan range": ("task", r"range=\S+", "range=nan"),
    "inf velocity": ("task", r"velocity=\S+", "velocity=inf"),
    "nan direction cosine": ("task", r" u=\S+", " u=nan"),
    "fractional capacity": ("radar", r"n_intlv=\S+", "n_intlv=8.5"),
    "nan sigma multiple": ("radar", r"n_r=\S+", "n_r=nan"),
    "inf prf": ("prf", r"f_r=\S+", "f_r=inf"),
    "nan clutter": ("prf", r"c_r_minus=\S+", "c_r_minus=nan"),
    "unknown record": ("task", r"^task", "track"),
    "second radar record": ("radar", r"^.*$", "\\g<0>\n\\g<0>"),
}


class TestScenarioFormat:
    def test_fields_in_any_order(self):
        cfg, prfs, tasks = gen_scenario(ScenarioSpec(n_tasks=3, seed=1))
        text = scenario_to_text(cfg, prfs, tasks)
        shuffled = "\n".join(
            " ".join([ln.split()[0], *reversed(ln.split()[1:])]) if "=" in ln else ln
            for ln in text.splitlines()
        )
        assert parse_scenario(shuffled) == parse_scenario(text)

    def test_round_trip(self):
        cfg, prfs, tasks = gen_scenario(ScenarioSpec(n_tasks=9, seed=1))
        text = scenario_to_text(cfg, prfs, tasks)
        cfg2, prfs2, tasks2 = parse_scenario(text)
        assert scenario_to_text(cfg2, prfs2, tasks2) == text
        assert cfg2 == cfg and prfs2 == prfs and tasks2 == tasks

    def test_numpy_float_config_round_trips(self):
        # "%s" writes a numpy float as its value; its repr would be
        # "np.float64(0.03)", which no reader takes
        cfg = RadarConfig(wavelength=np.float64(0.03))
        prfs = (PrfConfig(f_r=np.float64(10000.5), c_r_plus=np.float64(1.0)),)
        text = scenario_to_text(cfg, prfs, [])
        assert "wavelength=0.03 " in text and "f_r=10000.5 " in text
        assert parse_scenario(text)[:2] == (cfg, prfs)

    def test_rejects_garbage(self):
        with pytest.raises(ScenarioError):
            parse_scenario("nonsense\n")


def _typed(record):
    """A record's field values as (type, repr) pairs: -0.0 differs from 0.0."""
    return [(type(v), repr(v)) for v in dataclasses.astuple(record)]


def _typed_tasks(tasks):
    """``_typed`` of each task, read from columns (the id and the row's
    floats) or from ``TrackTask`` records."""
    if isinstance(tasks, TaskColumns):
        rows = zip(tasks.ids, *(getattr(tasks, name).tolist() for name in _TASK_FLOATS))
    else:
        rows = map(dataclasses.astuple, tasks)
    return [[(type(v), repr(v)) for v in row] for row in rows]


def _outcome(parse, text):
    """What a scenario reader makes of ``text``: typed values or the error."""
    try:
        cfg, prfs, tasks = parse(text)
    except ScenarioError as exc:
        return "error", str(exc)
    return "ok", _typed(cfg), [_typed(p) for p in prfs], _typed_tasks(tasks)


_VALID = {
    "id": st.integers(-10**25, 10**25).map(str),
    "range": st.floats(1.0, 2e5),
    "sigma_r": st.floats(0.0, 300.0),
    "velocity": st.floats(-600.0, 600.0),
    "sigma_f": st.floats(0.0, 200.0),
    "u": st.floats(-1.0, 1.0),
    "v": st.floats(-1.0, 1.0),
}
_FLOAT_FORMS = (repr, "{:e}".format, "{:.3E}".format, "{:+.17g}".format)
_BAD_VALUES = ("nan", "inf", "-inf", "NaN", "abc", "1_000", "", "0x10", "1e999",
               "-0.0", "0", "+5", "-1.5", "1e-5", "=3")
_MUTATIONS = ("shuffle", "leading whitespace", "tab", "bad value", "double equals",
              "missing field", "repeated field", "no value", "no key", "spaced",
              "split", "doubled")
_EXTRA_LINES = ("", "   ", "# a comment", " # not a comment", "task",
                "prf f_r=12000.0 c_r_plus=0.0 c_r_minus=0.0 c_f_plus=0.0 c_f_minus=0.0",
                "radar c=299792458.0 wavelength=0.03 pulse_width=1e-05 n_r=3.0 "
                "n_f=3.0 n_intlv=8 pulses_per_look=64")


@st.composite
def _task_line(draw):
    fields = []
    for key, values in _VALID.items():
        value = draw(values)
        if not isinstance(value, str):
            value = draw(st.sampled_from(_FLOAT_FORMS))(value)
        fields.append(f"{key}={value}")
    mutation = draw(st.sampled_from(("none",) * len(_MUTATIONS) + _MUTATIONS))
    k = draw(st.integers(0, 6))
    key = fields[k].split("=", 1)[0]
    sep, lead = " ", ""
    if mutation == "shuffle":
        fields = draw(st.permutations(fields))
    elif mutation == "leading whitespace":
        lead = draw(st.sampled_from((" ", "\t", "  ")))
    elif mutation == "tab":
        sep = "\t"
    elif mutation == "bad value":
        fields[k] = f"{key}={draw(st.sampled_from(_BAD_VALUES))}"
    elif mutation == "double equals":
        fields[k] = fields[k].replace("=", "==", 1)
    elif mutation == "missing field":
        del fields[k]
    elif mutation == "repeated field":
        fields.insert(k, fields[k])
    elif mutation == "no value":
        fields[k] = key
    elif mutation == "no key":
        fields[k] = fields[k].split("=", 1)[1]
    elif mutation == "spaced":
        fields[k] = fields[k].replace("=", draw(st.sampled_from((" =", "= ", " "))), 1)
    elif mutation == "split":
        fields[k] = "\n" + fields[k]
    line = lead + sep.join(["task", *fields])
    return line + sep + line if mutation == "doubled" else line


@st.composite
def scenario_texts(draw):
    """A scenario text with 0 to 3 chunks of task lines (plus a partial
    chunk), most of them valid, some mutated, and the chunk size to read it
    with."""
    chunk = draw(st.integers(1, 4))
    cfg, prfs, _ = gen_scenario(ScenarioSpec(n_tasks=0, seed=0))
    head = scenario_to_text(cfg, prfs[:2], []).splitlines()
    lines = draw(st.sampled_from(([], [""], ["# header comment"]))) + head
    for _ in range(draw(st.integers(0, 3 * chunk + 1))):
        if draw(st.integers(0, 9)) == 0:
            lines.append(draw(st.sampled_from(_EXTRA_LINES)))
        lines.append(draw(_task_line()))
    return "\n".join(lines) + draw(st.sampled_from(("\n", "", "\n\n"))), chunk


class TestColumnarParser:
    @settings(max_examples=400, deadline=None)
    @given(scenario_texts())
    def test_matches_the_record_reader(self, case):
        text, chunk = case
        with mock.patch.object(pio, "_CHUNK", chunk):
            fast = _outcome(parse_scenario, text)
        assert fast == _outcome(pio._parse_records, text)

    @pytest.mark.parametrize("line", [
        "task 5 range=1e4 sigma_r=1.0 velocity=0.0 sigma_f=1.0 u=0.0 v=0.0 id=5",
        "task id=5 range=1e4 sigma_r=1.0 velocity=0.0 sigma_f=1.0 u=0.0 0.0 v=",
        "task id=5 range=1e4 sigma_r=1.0 velocity=0.0 sigma_f=1.0 u=0.0 v=0.0 task",
        "tasks id=5 range=1e4 sigma_r=1.0 velocity=0.0 sigma_f=1.0 u=0.0 v=0.0",
        # lines short of fields next to a line with two tasks' fields: as
        # many tokens as that many task lines
        pytest.param(
            "\ntask id=5 range=1e4 sigma_r=1.0 velocity=0.0 sigma_f=1.0 u=0.0 v=0.0 "
            "task id=6 range=1e4 sigma_r=1.0 velocity=0.0 sigma_f=1.0 u=0.0 v=0.0",
            id="blank line, two tasks on one line"),
        pytest.param(
            "task id=5 range=1e4 sigma_r=1.0\nvelocity=0.0 sigma_f=1.0 u=0.0 v=0.0\n"
            "task id=6 range=1e4 sigma_r=1.0 velocity=0.0 sigma_f=1.0 u=0.0 v=0.0 "
            "task id=7 range=1e4 sigma_r=1.0 velocity=0.0 sigma_f=1.0 u=0.0 v=0.0",
            id="task split over two lines, two tasks on one line"),
    ])
    @pytest.mark.parametrize("where", [0, 1, 2])
    def test_misplaced_tokens_fall_back(self, line, where):
        good = "task id=9 range=2e4 sigma_r=1.0 velocity=0.0 sigma_f=1.0 u=0.0 v=0.0"
        task_lines = [good, good.replace("id=9", "id=8")]
        task_lines.insert(where, line)
        cfg, prfs, _ = gen_scenario(ScenarioSpec(n_tasks=0, seed=0))
        text = scenario_to_text(cfg, prfs, []) + "\n".join(task_lines)
        fast = _outcome(parse_scenario, text)
        assert fast[0] == "error" and fast == _outcome(pio._parse_records, text)

    def test_columns_and_python_values(self):
        cfg, prfs, tasks = gen_scenario(ScenarioSpec(n_tasks=5, seed=3))
        parsed = parse_scenario(scenario_to_text(cfg, prfs, tasks))[2]
        assert isinstance(parsed, TaskColumns) and parsed == tasks
        assert all(type(i) is int for i in parsed.ids)
        assert all(getattr(parsed, name).dtype == np.float64 for name in _TASK_FLOATS)

    @pytest.fixture(scope="class")
    def multi_chunk(self):
        """A scenario text with two full chunks of tasks and a partial one."""
        n = 2 * pio._CHUNK + 5
        cfg, prfs, tasks = gen_scenario(ScenarioSpec(n_tasks=n, seed=12))
        return scenario_to_text(cfg, prfs, tasks), tasks

    def test_round_trip_over_chunks(self, multi_chunk):
        text, tasks = multi_chunk
        parsed = parse_scenario(text)
        assert scenario_to_text(*parsed) == text
        assert parsed[2] == tasks

    def test_written_files_skip_the_line_reader(self, multi_chunk):
        texts = [multi_chunk]
        for n in (0, 1):
            cfg, prfs, tasks = gen_scenario(ScenarioSpec(n_tasks=n, seed=12))
            texts.append((scenario_to_text(cfg, prfs, tasks), tasks))
        for text, tasks in texts:
            with mock.patch.object(pio, "_parse_records", wraps=pio._parse_records) as slow:
                assert parse_scenario(text)[2] == tasks
            slow.assert_not_called()

    def test_a_comment_among_the_tasks_reads_the_file_by_lines(self, multi_chunk):
        lines = multi_chunk[0].splitlines()
        lines.insert(len(lines) - pio._CHUNK, "# a comment")
        with mock.patch.object(pio, "_parse_records", wraps=pio._parse_records) as slow:
            parsed = parse_scenario("\n".join(lines))
        slow.assert_called_once()
        assert parsed == parse_scenario(multi_chunk[0])

    def test_error_in_the_last_chunk_names_its_line(self, multi_chunk):
        lines = multi_chunk[0].splitlines()
        lines[-1] = re.sub(r"range=\S+", "range=-5.0", lines[-1])
        with pytest.raises(ScenarioError, match=f"^line {len(lines)}: task "):
            parse_scenario("\n".join(lines))

    def test_duplicate_id_across_chunks(self, multi_chunk, tmp_path, capsys):
        lines = multi_chunk[0].splitlines()
        lines[-1] = re.sub(r"id=\d+", "id=1", lines[-1])
        cfg, prfs, tasks = parse_scenario("\n".join(lines))
        with pytest.raises(ScenarioError, match="duplicate task ids"):
            build_availability_table(tasks, prfs, cfg)
        path = tmp_path / "dup.txt"
        path.write_text("\n".join(lines) + "\n")
        assert main(["schedule", str(path)]) == 2
        assert "error: duplicate task ids" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["edbf", "sdbf"])
    def test_huge_task_id_schedules(self, mode, small_scenario_file, tmp_path):
        big = 10**23
        text = small_scenario_file.read_text()
        small_scenario_file.write_text(text.replace("task id=1 ", f"task id={big} ", 1))
        assert parse_scenario(small_scenario_file.read_text())[2].ids[0] == big
        out = tmp_path / "sched.txt"
        assert main(["schedule", str(small_scenario_file), "--mode", mode,
                     "--out", str(out)]) == 0
        assert f"assign task={big} " in out.read_text()
        assert big in [tid for tid, _, _ in parse_schedule(out.read_text()).assignments]


# malformed schedule lines; each must raise ScenarioError naming its line
MALFORMED_SCHEDULE = {
    "non-numeric value": "assign task=x look=1 slot=1",
    "look missing fields": "look index=1",
    "assign missing slot": "assign task=1 look=1",
    "unknown field": "assign task=1 look=1 slot=1 beam=2",
    "repeated field": "assign task=1 look=1 slot=1 slot=1",
    "field without value": "assign task=1 look=1 slot",
    "unknown record": "track index=1",
    "disk without center": "look index=1 prf=0 f_r=10500.0 dwell=0.006 disk=3",
    "center without disk": "look index=1 prf=0 f_r=10500.0 dwell=0.006 disk_u=0.1 disk_v=0.2",
    "non-numeric disk_u": ("look index=1 prf=0 f_r=10500.0 dwell=0.006 disk=3 "
                           "disk_u=left disk_v=0.2"),
    "non-integer unschedulable id": "unschedulable 3 x",
    "meta field without value": "meta mode",
}


class TestScheduleFormat:
    @pytest.mark.parametrize("case", sorted(MALFORMED_SCHEDULE))
    def test_malformed_line_names_its_number(self, case):
        # blank and comment lines count towards the line number
        text = (f"{pio.SCHEDULE_TAG}\n# a comment\n\nmeta mode=edbf\n"
                f"{MALFORMED_SCHEDULE[case]}\nassign task=1 look=1 slot=1\n")
        with pytest.raises(ScenarioError, match=r"^line 5: "):
            parse_schedule(text)

    def test_round_trip_revalidates(self):
        cfg, prfs, tasks = gen_scenario(ScenarioSpec(n_tasks=20, seed=2))
        table = build_availability_table(tasks, prfs, cfg)
        sched = hied(table, HeuristicConfig(seed=3))
        text = schedule_to_text(sched)
        back = parse_schedule(text)
        assert schedule_to_text(back) == text
        inst = build_instance(table)
        assert check_feasible(back, inst) == []

    def test_header_carries_seed_not_backend(self):
        cfg, prfs, tasks = gen_scenario(ScenarioSpec(n_tasks=6, seed=4))
        table = build_availability_table(tasks, prfs, cfg)
        sched = hied(table, HeuristicConfig(backend="pairwise", seed=11))
        text = schedule_to_text(sched)
        head = text.splitlines()[1]
        assert "seed=11" in head
        assert "pairwise" not in text


_FLOATS = st.floats(allow_nan=False, allow_infinity=False)
_IDS = st.one_of(st.integers(-5, 40), st.integers(-10**25, 10**25))


@st.composite
def hand_built_schedules(draw, floats=_FLOATS):
    """A ``Schedule`` as a caller may build one: PRF and disk looks (indices
    not necessarily distinct or in order), assignments in any order with
    repeated (look, slot) pairs and looks that are not declared, meta
    fields and unschedulable ids."""
    looks = []
    for _ in range(draw(st.integers(0, 5))):
        index, prf, f_r, dwell = (draw(st.integers(0, 6)), draw(st.integers(0, 7)),
                                  draw(floats), draw(floats))
        if draw(st.booleans()):
            looks.append(ScheduledLook(index, prf, f_r, dwell, draw(st.integers(0, 10**6)),
                                       (draw(floats), draw(floats))))
        else:
            looks.append(ScheduledLook(index, prf, f_r, dwell))
    assignments = draw(st.lists(st.tuples(_IDS, st.integers(0, 7), st.integers(0, 9)),
                                max_size=30))
    if draw(st.booleans()):
        assignments.sort(key=lambda a: (a[1], a[2]))
    meta = draw(st.dictionaries(st.sampled_from(("mode", "seed", "prf_rule", "n_intlv")),
                                st.sampled_from(("edbf", "3", "G", "8")), max_size=3))
    unschedulable = tuple(draw(st.lists(_IDS, max_size=3)))
    return Schedule(looks=looks, assignments=assignments, meta=meta,
                    unschedulable=unschedulable)


class TestScheduleWriter:
    @settings(max_examples=300, deadline=None)
    @given(hand_built_schedules(floats=st.floats()))
    def test_matches_the_tuple_writer(self, schedule):
        assert schedule_to_text(schedule) == tuple_schedule_text(schedule)

    @pytest.mark.parametrize("mode", ["edbf", "sdbf"])
    def test_scheduler_output_matches_the_tuple_writer(self, mode):
        cfg, prfs, tasks = gen_scenario(ScenarioSpec(n_tasks=300, seed=6, keep_unschedulable=True))
        table = build_availability_table(tasks, prfs, cfg)
        if mode == "edbf":
            sched = hied(table, HeuristicConfig(prf_rule="R", seed=2))
        else:
            sched = hisd(enumerate_disks(table, GridSpec()), DiskHeuristicConfig(seed=2))
        assert sched.unschedulable
        assert schedule_to_text(sched) == tuple_schedule_text(sched)

    def test_empty_schedule(self):
        empty = Schedule(looks=[], assignments=[])
        assert schedule_to_text(empty) == tuple_schedule_text(empty) == \
            f"{pio.SCHEDULE_TAG}\nmeta looks_used=0 objective=0\n"


_ASSIGN_MUTATIONS = ("shuffle", "leading whitespace", "tab", "bad value", "double equals",
                     "missing field", "repeated field", "no value", "no key", "split",
                     "doubled")
_SCHEDULE_EXTRA_LINES = ("", "  ", "# a comment", " # not a comment", "assign",
                         "meta mode=sdbf", "unschedulable 7 8", "unschedulable x",
                         "look index=9 prf=0 f_r=10500.0 dwell=0.006")


@st.composite
def _assign_line(draw):
    fields = [f"task={draw(_IDS)}", f"look={draw(st.integers(-2, 9))}",
              f"slot={draw(st.integers(-2, 9))}"]
    mutation = draw(st.sampled_from(("none",) * len(_ASSIGN_MUTATIONS) + _ASSIGN_MUTATIONS))
    k = draw(st.integers(0, 2))
    key = fields[k].split("=", 1)[0]
    sep, lead = " ", ""
    if mutation == "shuffle":
        fields = draw(st.permutations(fields))
    elif mutation == "leading whitespace":
        lead = draw(st.sampled_from((" ", "\t")))
    elif mutation == "tab":
        sep = "\t"
    elif mutation == "bad value":
        fields[k] = f"{key}={draw(st.sampled_from(('x', '1.5', '', '1_0', '+3', '=3', '0x1')))}"
    elif mutation == "double equals":
        fields[k] = fields[k].replace("=", "==", 1)
    elif mutation == "missing field":
        del fields[k]
    elif mutation == "repeated field":
        fields.insert(k, fields[k])
    elif mutation == "no value":
        fields[k] = key
    elif mutation == "no key":
        fields[k] = fields[k].split("=", 1)[1]
    elif mutation == "split":
        fields[k] = "\n" + fields[k]
    line = lead + sep.join(["assign", *fields])
    return line + sep + line if mutation == "doubled" else line


@st.composite
def schedule_texts(draw):
    """A schedule text as written, with its assign lines redrawn (most of
    them valid, some mutated) and a few other lines among or after them."""
    lines = schedule_to_text(draw(hand_built_schedules())).splitlines()
    head = [ln for ln in lines if not ln.startswith(("assign", "unschedulable"))]
    tail = [ln for ln in lines if ln.startswith("unschedulable")]
    body = []
    for _ in range(draw(st.integers(0, 12))):
        if draw(st.integers(0, 9)) == 0:
            body.append(draw(st.sampled_from(_SCHEDULE_EXTRA_LINES)))
        body.append(draw(_assign_line()))
    if draw(st.integers(0, 4)) == 0:
        tail.append(draw(st.sampled_from(_SCHEDULE_EXTRA_LINES)))
    return "\n".join(head + body + tail) + draw(st.sampled_from(("\n", "", "\n\n")))


@functools.lru_cache(maxsize=None)
def _scheduler_output(mode, seed):
    """A scheduler's schedule of a 60-task scenario."""
    cfg, prfs, tasks = gen_scenario(ScenarioSpec(n_tasks=60, seed=seed, keep_unschedulable=True))
    table = build_availability_table(tasks, prfs, cfg)
    if mode == "edbf":
        return hied(table, HeuristicConfig(seed=seed))
    return hisd(enumerate_disks(table, GridSpec()), DiskHeuristicConfig(seed=seed))


_LOOK_EDITS = ("reorder", "comment", "drop a disk field")


@st.composite
def look_edited_texts(draw):
    """(text, edit) for a written schedule, of either scheduler or hand
    built, with its look lines as written (edit None) or edited: one look
    line's fields reordered, a comment among the look lines, or one field
    of a disk look line dropped."""
    if draw(st.booleans()):
        schedule = draw(hand_built_schedules())
    else:
        schedule = _scheduler_output(draw(st.sampled_from(("edbf", "sdbf"))),
                                     draw(st.integers(0, 3)))
    lines = schedule_to_text(schedule).splitlines()
    looks = [i for i, ln in enumerate(lines) if ln.startswith("look")]
    edit = draw(st.sampled_from((None,) * len(_LOOK_EDITS) + _LOOK_EDITS))
    if not looks or edit is None:
        return "\n".join(lines) + "\n", None
    i = draw(st.sampled_from(looks))
    kind, *fields = lines[i].split()
    if edit == "comment":
        lines.insert(draw(st.integers(looks[0], looks[-1] + 1)), "# a comment")
    elif edit == "reorder":
        lines[i] = " ".join([kind, *draw(st.permutations(fields))])
    else:
        disk = [k for k, field in enumerate(fields) if field.startswith("disk")]
        if disk:
            del fields[draw(st.sampled_from(disk))]
            lines[i] = " ".join([kind, *fields])
    return "\n".join(lines) + "\n", edit


def _schedule_outcome(parse, text):
    """What a schedule reader makes of ``text``: the schedule's repr (typed
    values) or the error."""
    try:
        schedule = parse(text)
    except ScenarioError as exc:
        return "error", str(exc)
    a = schedule.assignments
    assert all(type(v) is int for col in (a.task, a.look, a.slot) for v in col)
    return "ok", repr(schedule)


class TestColumnarScheduleReader:
    @settings(max_examples=400, deadline=None)
    @given(schedule_texts(), st.integers(1, 4))
    def test_matches_the_line_reader(self, text, chunk):
        with mock.patch.object(pio, "_CHUNK", chunk):
            fast = _schedule_outcome(parse_schedule, text)
        assert fast == _schedule_outcome(pio._parse_schedule_records, text)

    @settings(max_examples=100, deadline=None)
    @given(hand_built_schedules())
    def test_written_files_skip_the_line_reader(self, schedule):
        text = schedule_to_text(schedule)
        with mock.patch.object(pio, "_parse_schedule_records",
                               wraps=pio._parse_schedule_records) as slow:
            back = parse_schedule(text)
        slow.assert_not_called()
        assert schedule_to_text(back) == text
        assert back == pio._parse_schedule_records(text)

    @settings(max_examples=300, deadline=None)
    @given(look_edited_texts(), st.integers(1, 4))
    def test_look_lines_match_the_line_reader(self, case, chunk):
        text, edit = case
        with mock.patch.object(pio, "_CHUNK", chunk), \
                mock.patch.object(pio, "_parse_schedule_records",
                                  wraps=pio._parse_schedule_records) as slow:
            fast = _schedule_outcome(parse_schedule, text)
        if edit is None:
            slow.assert_not_called()
        assert fast == _schedule_outcome(pio._parse_schedule_records, text)

    @pytest.mark.parametrize("chunk", [7, None])
    @pytest.mark.parametrize("mode", ["edbf", "sdbf"])
    def test_scheduler_output_round_trips(self, mode, chunk):
        cfg, prfs, tasks = gen_scenario(ScenarioSpec(n_tasks=300, seed=6, keep_unschedulable=True))
        table = build_availability_table(tasks, prfs, cfg)
        if mode == "edbf":
            sched = hied(table, HeuristicConfig(seed=2))
        else:
            sched = hisd(enumerate_disks(table, GridSpec()), DiskHeuristicConfig(seed=2))
        text = schedule_to_text(sched)
        with mock.patch.object(pio, "_parse_schedule_records",
                               wraps=pio._parse_schedule_records) as slow, \
                mock.patch.object(pio, "_CHUNK", chunk or pio._CHUNK):
            back = parse_schedule(text)
        slow.assert_not_called()
        assert back.assignments == sched.assignments and back.looks == sched.looks
        assert back.unschedulable == sched.unschedulable
        assert schedule_to_text(back) == text

    def test_a_comment_among_the_assigns_reads_the_file_by_lines(self):
        cfg, prfs, tasks = gen_scenario(ScenarioSpec(n_tasks=40, seed=6))
        text = schedule_to_text(hied(build_availability_table(tasks, prfs, cfg),
                                     HeuristicConfig()))
        lines = text.splitlines()
        lines.insert(len(lines) - 5, "# a comment")
        with mock.patch.object(pio, "_parse_schedule_records",
                               wraps=pio._parse_schedule_records) as slow:
            back = parse_schedule("\n".join(lines))
        slow.assert_called_once()
        assert schedule_to_text(back) == text

    def test_a_comment_among_the_looks_reads_the_file_by_lines(self):
        text = schedule_to_text(_scheduler_output("sdbf", 0))
        lines = text.splitlines()
        lines.insert(3, "# a comment")
        assert lines[2].startswith("look") and lines[4].startswith("look")
        with mock.patch.object(pio, "_parse_schedule_records",
                               wraps=pio._parse_schedule_records) as slow:
            back = parse_schedule("\n".join(lines))
        slow.assert_called_once()
        assert schedule_to_text(back) == text


class TestDumps:
    def test_availability_rows(self):
        cfg, prfs, tasks = gen_scenario(ScenarioSpec(n_tasks=4, seed=5))
        table = build_availability_table(tasks, prfs, cfg)
        text = availability_text(table)
        rows = [ln for ln in text.splitlines() if ln and ln[0].isdigit()]
        assert len(rows) == 4 * len(prfs)

    def test_disks_dump_sorted(self):
        cfg, prfs, tasks = gen_scenario(ScenarioSpec(n_tasks=6, seed=6))
        table = build_availability_table(tasks, prfs, cfg)
        catalog = enumerate_disks(table, GridSpec())
        text = disks_text(catalog)
        assert text.startswith("pulseplan-disks v1")
        assert f"n_disks={catalog.n_disks}" in text


# --dump-structures stderr per case: (n_tasks, seed, clusters) of a
# 3-PRF, n_intlv=4 scenario, the schedule options, and the exact text or
# its sha256 digest
DUMPS = {
    "edbf prf without tasks": ((3, 9, 0), [], (
        "bucket list\n  value 0: keys [0]\n  value 1: keys [2]\n  value 3: keys [1]\n"
        "prf 0 (9500 Hz)\n  rangetree backend: 0 live tasks\n"
        "prf 1 (13000 Hz)\n  rangetree backend: 3 live tasks\n"
        "    task 2: a_l=0 a_r=4 priority=-2559.804293370922\n"
        "    task 1: a_l=0 a_r=4 priority=-3250.608012393077\n"
        "    task 3: a_l=2 a_r=2 priority=-5509.5750612486445\n"
        "prf 2 (16500 Hz)\n  rangetree backend: 1 live tasks\n"
        "    task 2: a_l=0 a_r=2 priority=-3258.621211785845\n")),
    "sdbf GD SD": ((6, 4, 1), ["--mode", "sdbf", "--sub-rule", "SD"],
                   "f34a16bda5959f037e2295aada31bf95cd84563c2b634f6ab3824b74fa3c1fdb"),
    "sdbf RGD SD": ((6, 4, 1), ["--mode", "sdbf", "--disk-rule", "RGD", "--sub-rule", "SD"],
                    "f34a16bda5959f037e2295aada31bf95cd84563c2b634f6ab3824b74fa3c1fdb"),
    "sdbf WGD SD": ((6, 4, 1), ["--mode", "sdbf", "--disk-rule", "WGD", "--sub-rule", "SD"],
                    "cee89c3b21735586b9d2c287c843d1533b6bce65ae6066e9a983896726948213"),
    "sdbf empty catalog": ((0, 1, 0), ["--mode", "sdbf", "--sub-rule", "SD"],
                           "bucket list\n  value 0: keys []\ncatalog: 0 disks, first 20:\n"),
}

class TestCli:
    def test_schedule_writes_file(self, scenario_file, tmp_path, capsys):
        out = tmp_path / "sched.txt"
        code = main(["schedule", str(scenario_file), "--out", str(out),
                     "--backend", "rangetree", "--seed", "5"])
        assert code == 0
        assert out.read_text().startswith("pulseplan-schedule v1")
        assert "looks=" in capsys.readouterr().out

    def test_schedule_deterministic_bytes(self, scenario_file, tmp_path):
        outs = []
        for name in ("a.txt", "b.txt"):
            out = tmp_path / name
            main(["schedule", str(scenario_file), "--out", str(out), "--seed", "7"])
            outs.append(out.read_text())
        assert outs[0] == outs[1]

    def test_schedule_backends_byte_identical(self, scenario_file, tmp_path):
        texts = set()
        for backend in ("brute", "pairwise", "rangetree"):
            out = tmp_path / f"{backend}.txt"
            main(["schedule", str(scenario_file), "--mode", "sdbf",
                  "--backend", backend, "--out", str(out)])
            texts.add(out.read_text())
        assert len(texts) == 1

    def test_missing_file_is_usage_error(self, capsys):
        code = main(["schedule", "no-such-file.txt"])
        assert code == 1
        err = capsys.readouterr().err
        assert "usage" in err.lower()
        # the command's usage, as argparse's own errors print it
        assert "\nusage: pulseplan schedule [-h]" in err

    @pytest.mark.parametrize("argv", [
        ["schedule", "--mode", "edbf"],
        ["schedule", "--mode", "sdbf"],
        ["availability"],
        ["disks"],
    ], ids=lambda a: "-".join(a).replace("--mode-", ""))
    def test_non_utf8_file_exits_two(self, argv, tmp_path, capsys):
        path = tmp_path / "binary.txt"
        path.write_bytes(b"\xff\xfe\x00")
        assert main([argv[0], str(path), *argv[1:]]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: scenario file is not valid UTF-8")
        assert "Traceback" not in err

    def test_bad_flag_is_usage_error(self, scenario_file):
        assert main(["schedule", str(scenario_file), "--mode", "bogus"]) == 1

    def test_rule_flags_are_the_configs_rules(self):
        # each rule flag's choices and default are its config's, in the
        # flag order of the mode table; --backend offers every backend kind
        sub = next(a for a in _build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction)).choices
        flags = {a.dest: a for a in sub["schedule"]._actions}
        assert [d for d in flags if d.endswith("_rule")] == [
            "prf_rule", "task_rule", "disk_rule", "sub_rule"]
        for cfg in (HeuristicConfig, DiskHeuristicConfig):
            defaults = {f.name: f.default for f in dataclasses.fields(cfg)}
            for name, choices in cfg.RULES.items():
                assert tuple(flags[name].choices) == choices
                assert flags[name].default == defaults[name]
            for command in ("schedule", "bench"):
                backend = next(a for a in sub[command]._actions if a.dest == "backend")
                assert tuple(backend.choices) == BACKEND_KINDS
                assert backend.default == defaults["backend"]

    def test_unschedulable_input_exits_two(self, tmp_path, capsys):
        from pulseplan import PrfConfig, RadarConfig, TrackTask

        cfg = RadarConfig(c=3e8)
        prf = PrfConfig(f_r=12500.0, c_r_plus=2000.0, c_r_minus=500.0,
                        c_f_plus=2000.0, c_f_minus=2000.0)
        tasks = [
            TrackTask(id=1, range_m=30000.0, sigma_r=100.0, velocity=-90.0, sigma_f=10.0),
            TrackTask(id=2, range_m=30000.0, sigma_r=9000.0, velocity=-90.0, sigma_f=10.0),
        ]
        path = tmp_path / "bad.txt"
        path.write_text(scenario_to_text(cfg, [prf], tasks))
        code = main(["schedule", str(path)])
        assert code == 2
        assert "task 2" in capsys.readouterr().err
        assert main(["schedule", str(path), "--allow-unschedulable",
                     "--out", str(tmp_path / "ok.txt")]) == 0

    @pytest.mark.parametrize("sigma_rs", [(), (9000.0, 9000.0)],
                             ids=["no-tasks", "all-unschedulable"])
    def test_sdbf_without_schedulable_tasks(self, tmp_path, sigma_rs):
        from pulseplan import PrfConfig, RadarConfig, TrackTask

        cfg = RadarConfig(c=3e8)
        prf = PrfConfig(f_r=12500.0, c_r_plus=2000.0, c_r_minus=500.0,
                        c_f_plus=2000.0, c_f_minus=2000.0)
        tasks = [TrackTask(id=i + 1, range_m=30000.0, sigma_r=sr, velocity=-90.0,
                           sigma_f=10.0, u=0.3 * i)
                 for i, sr in enumerate(sigma_rs)]
        path = tmp_path / "scenario.txt"
        path.write_text(scenario_to_text(cfg, [prf], tasks))
        out = tmp_path / "schedule.txt"
        assert main(["schedule", str(path), "--mode", "sdbf",
                     "--allow-unschedulable", "--out", str(out)]) == 0
        sched = parse_schedule(out.read_text())
        assert sched.looks == [] and sched.assignments == []
        assert sched.unschedulable == tuple(t.id for t in tasks)

    def test_availability_and_disks_dumps(self, scenario_file, tmp_path):
        out = tmp_path / "avail.txt"
        assert main(["availability", str(scenario_file), "--out", str(out)]) == 0
        assert out.read_text().startswith("pulseplan-availability v1")
        out2 = tmp_path / "disks.txt"
        assert main(["disks", str(scenario_file), "--out", str(out2)]) == 0
        assert out2.read_text().startswith("pulseplan-disks v1")

    def test_export_lp_modes(self, small_scenario_file, tmp_path):
        for flags, marker in ((["--sscfl"], "sscfl"), ([], "ip")):
            out = tmp_path / f"{marker}.lp"
            code = main(["export-lp", str(small_scenario_file), *flags,
                         "--out", str(out)])
            assert code == 0
            assert f"pulseplan {marker} export v1" in out.read_text()

    def test_oracle_compare(self, small_scenario_file, tmp_path, capsys):
        out = tmp_path / "cmp.txt"
        code = main(["oracle-compare", str(small_scenario_file), "--out", str(out)])
        assert code == 0
        text = out.read_text()
        assert "exact objective=" in text
        ratios = [float(part.split("=")[1])
                  for line in text.splitlines()
                  for part in line.split()
                  if part.startswith("ratio=")]
        assert ratios and all(r >= 1.0 - 1e-12 for r in ratios)
        assert "INFEASIBLE" not in text

    def test_oracle_compare_without_tasks(self, tmp_path):
        cfg, prfs, tasks = gen_scenario(ScenarioSpec(n_tasks=0, seed=1))
        path = tmp_path / "empty.txt"
        path.write_text(scenario_to_text(cfg, prfs, tasks))
        out = tmp_path / "cmp.txt"
        assert main(["oracle-compare", str(path), "--mode", "both", "--heuristic-only",
                     "--out", str(out)]) == 0
        assert "tasks=0" in out.read_text()

    @pytest.mark.parametrize("mode", ["edbf", "sdbf"])
    @pytest.mark.parametrize("flags", [[], ["--heuristic-only"]])
    def test_oracle_compare_without_tasks_in_oracle_shape(self, mode, flags, tmp_path):
        # n_intlv 4 and 3 PRFs are within the exact solver's limits: the
        # optimum of no tasks is the empty schedule, objective 0, and every
        # rule's empty schedule matches it
        path = tmp_path / "empty.txt"
        path.write_text(scenario_to_text(*gen_scenario(
            ScenarioSpec(n_tasks=0, seed=1), RadarConfig(n_intlv=4),
            default_prf_set(count=3))))
        out = tmp_path / "cmp.txt"
        assert main(["oracle-compare", str(path), "--mode", mode, *flags,
                     "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[1] == "seed=0 tasks=0"
        rules = [line for line in lines[2:] if " exact " not in line]
        assert rules and all(line.startswith(f"{mode} ") for line in lines[2:])
        if flags:
            assert len(rules) == len(lines) - 2
            assert all(line.endswith(" objective=0.000000000 looks=0 feasible")
                       for line in rules)
        else:
            assert lines[2] == f"{mode} exact objective=0.000000000 looks=0"
            assert all(line.endswith(" objective=0.000000000 looks=0 ratio=1.0000 feasible")
                       for line in rules)

    def test_oracle_compare_limit_exit(self, scenario_file, capsys):
        code = main(["oracle-compare", str(scenario_file)])
        assert code == 2
        assert "heuristic-only" in capsys.readouterr().err

    def test_oracle_compare_limit_exits_before_the_heuristics(self, scenario_file,
                                                              monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("a heuristic ran before the task-count check")

        for run_cls in (EdbfRun, SdbfRun):
            monkeypatch.setattr(run_cls, "__init__", refuse)
        for name in ("pulseplan.sdbf.dedup_disks", "pulseplan.cli.build_instance"):
            monkeypatch.setattr(name, refuse)
        for mode in ("edbf", "sdbf", "both"):
            assert main(["oracle-compare", str(scenario_file), "--mode", mode]) == 2
            err = capsys.readouterr().err
            assert err == ("error: 12 tasks exceed the exact-solver limit of 10\n"
                           "hint: rerun oracle-compare with --heuristic-only\n")

    def test_oracle_compare_heuristic_only(self, scenario_file, tmp_path):
        out = tmp_path / "ho.txt"
        assert main(["oracle-compare", str(scenario_file), "--heuristic-only",
                     "--out", str(out)]) == 0
        assert "exact" not in out.read_text()

    @pytest.mark.parametrize("flags, digest", [
        ([], "b056d7b84422c5d9d2bed06fa0e3e4cb3042733ffe235b8c90fb1042d201fc25"),
        (["--heuristic-only"],
         "703a71bd207c8a50d3417319765a82c01be9feed4af4a129ad0a7069c65cb175"),
    ])
    def test_oracle_compare_bytes_pinned(self, flags, digest, small_scenario_file,
                                         tmp_path):
        # recorded while the check instance still held one look copy per task
        out = tmp_path / "cmp.txt"
        assert main(["oracle-compare", str(small_scenario_file), "--mode", "both",
                     *flags, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_oracle_compare_heuristic_only_builds_one_copy(self, scenario_file,
                                                          tmp_path):
        # C1-C8 and the objective read no candidate look: one copy is enough
        with mock.patch("pulseplan.cli.build_instance",
                        side_effect=build_instance) as spy:
            assert main(["oracle-compare", str(scenario_file), "--mode", "both",
                         "--heuristic-only", "--out", str(tmp_path / "ho.txt")]) == 0
        assert [c.kwargs["copies"] for c in spy.call_args_list] == [1, 1]

    def test_bench_subcommand(self, tmp_path):
        out = tmp_path / "bench.txt"
        code = main(["bench", "--sizes", "50,100,200,400", "--reps", "1",
                     "--out", str(out)])
        assert code == 0
        assert out.read_text().startswith("pulseplan-scaling v1")

    @pytest.mark.parametrize("argv", [
        ["--sizes", "10,x"],
        ["--sizes", "10,20,30"],
        ["--sizes", "10,30,20,40"],
        ["--sizes", "10,20,30,40", "--reps", "0"],
        ["--sizes", "5,6,7,8", "--reps", "1", "--seed", "-1"],
    ], ids=["non-integer", "three-sizes", "not-increasing", "zero-reps", "negative-seed"])
    def test_bench_bad_input_is_usage_error(self, argv, capsys):
        assert main(["bench", *argv]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "usage" in err and "Traceback" not in err
        assert "\nusage: pulseplan bench [-h]" in err

    @pytest.mark.parametrize("argv", [
        ["schedule", "SCENARIO"],
        ["availability", "SCENARIO"],
        ["disks", "SCENARIO"],
        ["export-lp", "SCENARIO"],
        ["oracle-compare", "SCENARIO", "--heuristic-only"],
        ["bench", "--sizes", "20,40,60,80", "--reps", "1"],
    ], ids=lambda argv: argv[0])
    def test_unwritable_out_is_usage_error(self, argv, small_scenario_file, tmp_path,
                                           capsys):
        argv = [str(small_scenario_file) if a == "SCENARIO" else a for a in argv]
        out = tmp_path / "no-such-dir" / "out.txt"
        assert main([*argv, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write output file: ")
        assert "usage" in err and "Traceback" not in err
        assert f"\nusage: pulseplan {argv[0]} [-h]" in err

    @pytest.mark.parametrize("mode", ["edbf", "sdbf"])
    @pytest.mark.parametrize("sscfl", [[], ["--sscfl"]], ids=["ip", "sscfl"])
    def test_export_lp_over_the_size_limit_exits_two(self, mode, sscfl, scenario_file,
                                                     tmp_path, capsys):
        # the term count is predicted before any candidate look is built
        out = tmp_path / "model.lp"
        tracemalloc.start()
        try:
            code = main(["export-lp", str(scenario_file), "--mode", mode, *sscfl,
                         "--copies", "1000000000", "--out", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        err = capsys.readouterr().err
        assert re.fullmatch(r"error: the LP export would write up to \d+ terms, over the "
                            rf"limit of {LP_MAX_TERMS}\nhint: lower --copies\n", err), err
        assert not out.exists()
        assert peak < 8 << 20

    @pytest.mark.parametrize("command", [
        ["disks"], ["schedule", "--mode", "sdbf"], ["export-lp", "--mode", "sdbf"],
        ["oracle-compare", "--mode", "sdbf"], ["bench", "--mode", "sdbf"],
    ], ids=lambda c: c[0])
    def test_catalog_over_the_size_limit_exits_two(self, command, small_scenario_file,
                                                   tmp_path, capsys):
        # a grid 5,000 times finer than the disks: about 1e8 box cells per
        # task and PRF, refused before the catalog builds its stencil
        args = (["--sizes", "50,100,200,400", "--reps", "1"] if command[0] == "bench"
                else [str(small_scenario_file)])
        out = tmp_path / "out.txt"
        assert main([command[0], *args, *command[1:], "--grid-eps", "1e-5",
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert re.fullmatch(r"error: the disk catalog could hold up to \d+ memberships, "
                            rf"over the limit of {MAX_CATALOG_CELLS}\n"
                            r"hint: raise --grid-eps or lower --disk-radius\n", err), err
        assert not out.exists()

    @pytest.mark.parametrize("mode", ["edbf", "sdbf"])
    @pytest.mark.parametrize("command", ["schedule", "export-lp", "oracle-compare", "bench"])
    @pytest.mark.parametrize("flags, message", [
        (["--grid-eps", "0"], "grid spacing must satisfy 0 < spacing <= disk_radius"),
        (["--disk-radius", "1"], "disk radius must be below 1"),
    ], ids=["grid-eps", "disk-radius"])
    def test_bad_grid_exits_two_in_every_mode(self, flags, message, command, mode,
                                              small_scenario_file, tmp_path, capsys):
        # element mode reads no grid, but every command that takes the
        # flags checks them in both modes
        args = (["--sizes", "50,100,200,400", "--reps", "1"] if command == "bench"
                else [str(small_scenario_file)])
        out = tmp_path / "out.txt"
        assert main([command, *args, "--mode", mode, *flags, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("copies", ["0", "-3"])
    def test_export_lp_copies_below_one_is_usage_error(self, copies, small_scenario_file,
                                                       tmp_path, capsys):
        out = tmp_path / "model.lp"
        assert main(["export-lp", str(small_scenario_file), "--copies", copies,
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --copies must be at least 1")
        assert "\nusage: pulseplan export-lp [-h]" in err
        assert not out.exists()

    def test_dump_structures_flag(self, scenario_file, tmp_path, capsys):
        out = tmp_path / "s.txt"
        code = main(["schedule", str(scenario_file), "--out", str(out),
                     "--dump-structures"])
        assert code == 0
        err = capsys.readouterr().err
        assert "bucket list" in err and "backend:" in err
        code = main(["schedule", str(scenario_file), "--mode", "sdbf",
                     "--disk-rule", "WGD", "--out", str(out),
                     "--dump-structures"])
        assert code == 0
        assert "weighted disk order" in capsys.readouterr().err

    @pytest.mark.parametrize("case", sorted(DUMPS))
    def test_dump_structures_bytes(self, case, tmp_path, capsys):
        # GD/RGD with SD print their disk counts as a bucket list, grouped
        # by live count, and WGD its 20 heaviest live disks; a PRF without a
        # schedulable task and an empty catalog print a zero bucket
        (n, seed, clusters), options, expected = DUMPS[case]
        cfg = RadarConfig(n_intlv=4, pulses_per_look=64)
        cfg, prfs, tasks = gen_scenario(
            ScenarioSpec(n_tasks=n, seed=seed, cluster_count=clusters),
            cfg, default_prf_set(count=3))
        path = tmp_path / "scenario.txt"
        path.write_text(scenario_to_text(cfg, prfs, tasks))
        assert main(["schedule", str(path), *options, "--dump-structures",
                     "--out", str(tmp_path / "s.txt")]) == 0
        err = capsys.readouterr().err
        if len(expected) == 64:
            if "WGD" in options:
                assert err.startswith("weighted disk order (top of list selected)\n"
                                      "  disk ")
            else:
                assert err.startswith("bucket list\n  value 1: keys [0, 1, 2, 3, 4, 6, ")
                assert "\n  value 2: keys [5, 9, 10, 14, 15, 18]\n" in err
            assert "\ncatalog: 173 disks" in err
            assert hashlib.sha256(err.encode()).hexdigest() == expected
        else:
            assert err == expected

    @pytest.mark.parametrize("mode", ["edbf", "sdbf"])
    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_malformed_scenario_exits_two(self, case, mode, scenario_file, capsys):
        kind, pattern, repl = MALFORMED[case]
        lines = scenario_file.read_text().splitlines()
        n = next(i for i, ln in enumerate(lines) if ln.startswith(kind + " "))
        lines[n] = re.sub(pattern, repl, lines[n], count=1)
        bad_line = n + 1 + lines[n].count("\n")
        scenario_file.write_text("\n".join(lines) + "\n")
        assert main(["schedule", str(scenario_file), "--mode", mode]) == 2
        err = capsys.readouterr().err
        assert f"error: line {bad_line}: " in err and "Traceback" not in err

    @pytest.mark.parametrize("mode", ["edbf", "sdbf"])
    def test_capacity_beyond_every_prf_exits_two(self, mode, tmp_path, capsys):
        cfg, prfs, tasks = gen_scenario(ScenarioSpec(n_tasks=6, seed=8))
        path = tmp_path / "wide.txt"
        path.write_text(re.sub(r"n_intlv=\S+", "n_intlv=100000",
                               scenario_to_text(cfg, prfs, tasks)))
        tracemalloc.start()
        try:
            code = main(["schedule", str(path), "--mode", mode])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert "n_intlv=100000 exceeds" in capsys.readouterr().err
        # rejected before any structure sized by n_intlv exists
        assert peak < 1 << 20

    @pytest.mark.parametrize("mode", ["edbf", "sdbf"])
    def test_capacity_at_the_slot_cap_is_accepted(self, mode, tmp_path):
        cfg, prfs, tasks = gen_scenario(ScenarioSpec(n_tasks=6, seed=8))
        cap = slot_cap(prfs, cfg)
        path = tmp_path / "full.txt"
        for n_intlv, want in ((cap, 0), (cap + 1, 2)):
            path.write_text(scenario_to_text(replace(cfg, n_intlv=n_intlv), prfs, tasks))
            assert main(["schedule", str(path), "--mode", mode]) == want, n_intlv

    def test_deep_capacity_schedules_in_bounded_memory(self, tmp_path, capsys):
        # a 0.3 us pulse leaves room for 350 slots; the range trees' shared
        # shape must stay O(n_intlv log n_intlv), not O(n_intlv^2)
        cfg, prfs, tasks = gen_scenario(ScenarioSpec(n_tasks=200, seed=8))
        cfg = replace(cfg, pulse_width=3e-7, n_intlv=300)
        assert slot_cap(prfs, cfg) >= cfg.n_intlv
        path = tmp_path / "deep.txt"
        path.write_text(scenario_to_text(cfg, prfs, tasks))
        tracemalloc.start()
        try:
            code = main(["schedule", str(path), "--backend", "rangetree"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert "n_intlv=300" in capsys.readouterr().out
        assert peak < 32 << 20

    @pytest.mark.parametrize("command", ["availability", "schedule", "disks", "export-lp"])
    @pytest.mark.parametrize("pulse_width", ["1e-24", "1e-310", "5e-324"])
    def test_slot_count_beyond_int64_exits_two(self, pulse_width, command,
                                                small_scenario_file, capsys):
        # a PRI of 2**63 slots or more (an infinite count at 5e-324) is
        # rejected before any slot count is cast to int64
        text = small_scenario_file.read_text()
        small_scenario_file.write_text(
            re.sub(r"pulse_width=\S+", f"pulse_width={pulse_width}", text))
        assert main([command, str(small_scenario_file)]) == 2
        err = capsys.readouterr().err
        assert f"error: pulse_width={float(pulse_width)!r} is too short" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["schedule"], ["export-lp"], ["oracle-compare", "--heuristic-only"], ["availability"],
    ], ids=lambda argv: argv[0])
    def test_pulses_per_look_beyond_a_float_exits_two(self, argv, small_scenario_file,
                                                      capsys):
        # a dwell is pulses_per_look / f_r in floats: an int above the
        # largest float is rejected before any dwell is computed
        text = small_scenario_file.read_text()
        small_scenario_file.write_text(
            re.sub(r"pulses_per_look=\S+", "pulses_per_look=" + "9" * 400, text))
        assert main([argv[0], str(small_scenario_file), *argv[1:]]) == 2
        err = capsys.readouterr().err
        assert "error: line 2: pulses_per_look must be at most" in err
        assert "Traceback" not in err

    def test_zero_width_slot_exits_two(self, tmp_path, capsys):
        # c * pulse_width underflows to 0 while every PRF keeps a clear
        # region: an infinite slot count, not a division by zero
        path = tmp_path / "zero-slot.txt"
        path.write_text(
            "pulseplan-scenario v1\n"
            "radar c=1e-10 wavelength=0.03 pulse_width=1e-320 n_r=3.0 n_f=3.0 "
            "n_intlv=4 pulses_per_look=64\n"
            "prf f_r=1.0 c_r_plus=0.0 c_r_minus=0.0 c_f_plus=0.0 c_f_minus=0.0\n"
            "task id=1 range=1e-12 sigma_r=0.0 velocity=0.0 sigma_f=0.0 u=0.0 v=0.0\n")
        assert main(["availability", str(path)]) == 2
        assert "pulse_width=1e-320 is too short" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["edbf", "sdbf"])
    def test_internal_invariant_maps_to_exit_three(self, mode, scenario_file, monkeypatch):
        from pulseplan import InternalInvariantError

        def boom(self, *a, **k):
            raise InternalInvariantError("synthetic failure")

        monkeypatch.setattr({"edbf": EdbfRun, "sdbf": SdbfRun}[mode], "__init__", boom)
        assert main(["schedule", str(scenario_file), "--mode", mode]) == 3


# Values that probe the arithmetic's edges: subnormals, +-1e+-300, zeros,
# NaN, infinities and ints beyond int64.
_EXTREMES = ("5e-324", "1e-310", "-1e-310", "1e-300", "-1e-300", "1e+300", "-1e+300",
             "0", "-0.0", "nan", "inf", "-inf", str(2 ** 63), str(10 ** 30), str(-2 ** 64))
# every subcommand but bench
_SUBCOMMANDS = (("availability",), ("disks",), ("export-lp", "--mode", "edbf"),
                ("export-lp", "--mode", "sdbf"), ("schedule", "--mode", "edbf"),
                ("schedule", "--mode", "sdbf"), ("oracle-compare", "--mode", "both"))


class TestFuzzedScenarios:
    @pytest.fixture(scope="class")
    def written(self, tmp_path_factory):
        """A written 5-task scenario (n_intlv 4, 3 PRFs) as token lists, the
        (line, token) position of each field value, and a work directory."""
        cfg, prfs, tasks = gen_scenario(ScenarioSpec(n_tasks=5, seed=2),
                                        RadarConfig(n_intlv=4), default_prf_set(count=3))
        lines = [line.split(" ") for line in scenario_to_text(cfg, prfs, tasks).splitlines()]
        fields = [(i, j) for i, tokens in enumerate(lines)
                  for j, tok in enumerate(tokens) if "=" in tok]
        return lines, fields, tmp_path_factory.mktemp("fuzz")

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_every_subcommand_exits_cleanly(self, written, data):
        # 1-3 field values replaced by extremes: each subcommand exits 0 or
        # 2 with no exception and no warning, and every schedule it writes
        # passes C1-C8
        lines, fields, work = written
        edits = data.draw(st.lists(st.tuples(st.sampled_from(fields), st.sampled_from(_EXTREMES)),
                                   min_size=1, max_size=3, unique_by=lambda e: e[0]))
        lines = [list(tokens) for tokens in lines]
        for (i, j), value in edits:
            lines[i][j] = lines[i][j].split("=")[0] + "=" + value
        text = "\n".join(map(" ".join, lines)) + "\n"
        path, out = work / "scenario.txt", work / "out.txt"
        path.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for command in _SUBCOMMANDS:
                code = main([command[0], str(path), *command[1:], "--out", str(out)])
                assert code in (0, 2), (command, edits)
                if code or command[0] != "schedule":
                    continue
                cfg, prfs, tasks = parse_scenario(text)
                table = build_availability_table(tasks, prfs, cfg)
                source = enumerate_disks(table, GridSpec()) if "sdbf" in command else table
                schedule = parse_schedule(out.read_text())
                assert check_feasible(schedule, build_instance(source, copies=1)) == [], edits

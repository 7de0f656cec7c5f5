import re
import tracemalloc
from dataclasses import replace

import pytest

from pulseplan import (
    GridSpec,
    HeuristicConfig,
    ScenarioSpec,
    build_availability_table,
    build_instance,
    check_feasible,
    enumerate_disks,
    gen_scenario,
    hied,
)
from pulseplan.cli import main
from pulseplan.radar import slot_cap
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
    from pulseplan import RadarConfig, default_prf_set

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

    def test_rejects_garbage(self):
        from pulseplan import ScenarioError

        with pytest.raises(ScenarioError):
            parse_scenario("nonsense\n")


class TestScheduleFormat:
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

    def test_bad_flag_is_usage_error(self, scenario_file):
        assert main(["schedule", str(scenario_file), "--mode", "bogus"]) == 1

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

    def test_oracle_compare_limit_exit(self, scenario_file, capsys):
        code = main(["oracle-compare", str(scenario_file)])
        assert code == 2
        assert "heuristic-only" in capsys.readouterr().err

    def test_oracle_compare_heuristic_only(self, scenario_file, tmp_path):
        out = tmp_path / "ho.txt"
        assert main(["oracle-compare", str(scenario_file), "--heuristic-only",
                     "--out", str(out)]) == 0
        assert "exact" not in out.read_text()

    def test_bench_subcommand(self, tmp_path):
        out = tmp_path / "bench.txt"
        code = main(["bench", "--sizes", "50,100,200,400", "--reps", "1",
                     "--out", str(out)])
        assert code == 0
        assert out.read_text().startswith("pulseplan-scaling v1")

    def test_bench_worker_env(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("PULSEPLAN_BENCH_WORKERS", "2")
        out = tmp_path / "bench2.txt"
        code = main(["bench", "--sizes", "50,100,200,400", "--reps", "2",
                     "--out", str(out)])
        assert code == 0
        assert "not exclusive" in capsys.readouterr().err
        assert "fit exponent=" in out.read_text()

    @pytest.mark.parametrize("argv, workers", [
        (["--sizes", "10,x"], None),
        (["--sizes", "10,20,30"], None),
        (["--sizes", "10,30,20,40"], None),
        (["--sizes", "10,20,30,40", "--reps", "0"], None),
        (["--sizes", "10,20,30,40"], "two"),
    ], ids=["non-integer", "three-sizes", "not-increasing", "zero-reps",
            "non-integer-workers"])
    def test_bench_bad_input_is_usage_error(self, argv, workers, monkeypatch, capsys):
        if workers is not None:
            monkeypatch.setenv("PULSEPLAN_BENCH_WORKERS", workers)
        assert main(["bench", *argv]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "usage" in err and "Traceback" not in err

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

    def test_internal_invariant_maps_to_exit_three(self, scenario_file, monkeypatch):
        from pulseplan import InternalInvariantError
        from pulseplan import cli as cli_mod

        class Boom:
            def __init__(self, *a, **k):
                raise InternalInvariantError("synthetic failure")

        monkeypatch.setattr(cli_mod, "EdbfRun", Boom)
        assert main(["schedule", str(scenario_file)]) == 3

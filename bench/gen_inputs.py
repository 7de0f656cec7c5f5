"""Set-up step of one benchmark run, executed in a fresh interpreter.

Usage: python3 gen_inputs.py SRC_DIR WORK_DIR SPEC_JSON

Imports pulseplan from SRC_DIR, generates the workload's scenarios with
``gen_scenario`` and writes them as scenario files into WORK_DIR.  SPEC_JSON
lists the scenarios as [file name, n_tasks, seed, n_intlv, n_prfs] rows.
Prints the CPU time of the set-up (import through last write) scaled to
the speed probe's reference speed, then the raw CPU time, in seconds, as
its only output line.
"""

import json
import sys
import time

from probe import SpeedProbe


def main(src_dir, work_dir, spec_json):
    with SpeedProbe() as probe:
        t0 = time.process_time()
        generate(src_dir, work_dir, spec_json)
        cpu_s = time.process_time() - t0
    print(repr(probe.scaled(cpu_s)), repr(cpu_s))


def generate(src_dir, work_dir, spec_json):
    sys.path.insert(0, src_dir)
    from pulseplan import RadarConfig, ScenarioSpec, default_prf_set, gen_scenario
    from pulseplan.io import scenario_to_text

    for name, n_tasks, seed, n_intlv, n_prfs in json.loads(spec_json):
        cfg, prfs, tasks = gen_scenario(
            ScenarioSpec(n_tasks=n_tasks, seed=seed),
            RadarConfig(n_intlv=n_intlv),
            default_prf_set(count=n_prfs),
        )
        with open(f"{work_dir}/{name}", "w", encoding="utf-8") as fh:
            fh.write(scenario_to_text(cfg, prfs, tasks))


if __name__ == "__main__":
    main(*sys.argv[1:4])

"""Where a track can live: folded coordinates, blind zones, availabilities.

A pulse Doppler radar only sees a target cleanly when its folded range and
Doppler land inside the PRF's clear region.  This walk-through folds one
target against the default PRF ladder and prints what the scheduler will
later consume: the availability flag and the left/right slot counts.
"""

from pulseplan import (
    RadarConfig,
    TrackTask,
    ambiguous_frequency,
    ambiguous_range,
    blind_widths,
    default_prf_set,
    is_trackable,
    leftward_availability,
    rightward_availability,
    unambiguous_range,
)

cfg = RadarConfig()
prfs = default_prf_set()

target = TrackTask(id=1, range_m=58_000.0, sigma_r=30.0, velocity=-210.0,
                   sigma_f=25.0)

print(f"target: range {target.range_m/1e3:.1f} km, "
      f"radial velocity {target.velocity:.0f} m/s")
print(f"{'f_r [kHz]':>10} {'R_u [km]':>9} {'R_a [km]':>9} {'f_a [kHz]':>10} "
      f"{'trackable':>10} {'A_l':>4} {'A_r':>4}")
for prf in prfs:
    ru = unambiguous_range(prf, cfg)
    ra = ambiguous_range(target.range_m, prf, cfg)
    fa = ambiguous_frequency(target, prf, cfg)
    ok = is_trackable(target, prf, cfg)
    al = leftward_availability(target, prf, cfg)
    ar = rightward_availability(target, prf, cfg)
    print(f"{prf.f_r/1e3:>10.1f} {ru/1e3:>9.2f} {ra/1e3:>9.2f} {fa/1e3:>10.2f} "
          f"{str(ok):>10} {al:>4} {ar:>4}")

prf = prfs[3]
erp, erm, efp, efm = blind_widths(prf, cfg)
print(f"\nblind margins at {prf.f_r/1e3:.1f} kHz: "
      f"near {erp:.0f} m, far {erm:.0f} m, Doppler {efp:.0f}/{efm:.0f} Hz")
print("a task is interleavable exactly when its whole confidence box clears")
print("those margins; A_l counts foreign pulses that fit before its echo,")
print("A_r the highest slot its own pulse may take.")

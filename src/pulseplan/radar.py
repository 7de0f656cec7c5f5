"""Pulse Doppler timing model.

Computes, for every (tracking task, PRF) pair, whether the target's folded
range/Doppler confidence intervals fall inside the PRF's clear region, and
how many interleaving slots the pair supports:

* ``A_v``  -- 1 if the task is trackable with the PRF, else 0.
* ``A_l``  -- leftward availability: how many foreign transmit pulses fit
  between the task's own transmit pulse and the start of its echo window.
* ``A_r``  -- rightward availability: the highest slot index the task's
  transmit pulse may occupy while its echo window stays clear.

Slot k occupies time [(k-1)*t_p, k*t_p) from the start of each PRI; transmit
pulses of interleaved tasks sit back to back from the PRI start.  ``A_l`` and
``A_r`` are clamped to the interleaving capacity so they double as slot
indices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ScenarioError

WAVE_SPEED = 299_792_458.0
INF = math.inf      # dataclass checks read "lo < x < INF", which NaN fails too


@dataclass(frozen=True)
class RadarConfig:
    """Radar-wide constants and interleaving capacity."""

    c: float = WAVE_SPEED              # wave propagation speed, m/s
    wavelength: float = 0.03           # m
    pulse_width: float = 10e-6         # track-beam pulse width t_p, s
    n_r: float = 3.0                   # sigma multiple for range confidence
    n_f: float = 3.0                   # sigma multiple for Doppler confidence
    n_intlv: int = 8                   # max tasks interleaved in one look
    pulses_per_look: int = 64          # pulses per look, sets dwell time

    def __post_init__(self):
        if not (0 < self.c < INF and 0 < self.wavelength < INF
                and 0 < self.pulse_width < INF):
            raise ScenarioError("c, wavelength and pulse_width must be positive and finite")
        if not (0 <= self.n_r < INF and 0 <= self.n_f < INF):
            raise ScenarioError("sigma multiples must be nonnegative and finite")
        if not (self.n_intlv >= 1 and self.pulses_per_look >= 1):
            raise ScenarioError("n_intlv and pulses_per_look must be >= 1")


@dataclass(frozen=True)
class PrfConfig:
    """One selectable PRF with its edge clutter widths."""

    f_r: float                         # Hz
    c_r_plus: float = 0.0              # near-edge range clutter, m
    c_r_minus: float = 0.0             # far-edge range clutter, m
    c_f_plus: float = 0.0              # low-edge Doppler clutter, Hz
    c_f_minus: float = 0.0             # high-edge Doppler clutter, Hz

    def __post_init__(self):
        if not 0 < self.f_r < INF:
            raise ScenarioError("f_r must be positive and finite")
        if not (0 <= self.c_r_plus < INF and 0 <= self.c_r_minus < INF
                and 0 <= self.c_f_plus < INF and 0 <= self.c_f_minus < INF):
            raise ScenarioError("clutter widths must be nonnegative and finite")


@dataclass(frozen=True)
class TrackTask:
    """One target's tracking task: filter estimate plus beam direction."""

    id: int
    range_m: float                     # estimated range R, m
    sigma_r: float                     # range standard deviation, m
    velocity: float                    # radial velocity V_t, m/s
    sigma_f: float                     # Doppler standard deviation, Hz
    u: float = 0.0                     # direction cosine, horizontal
    v: float = 0.0                     # direction cosine, vertical

    def __post_init__(self):
        if not 0 < self.range_m < INF:
            raise ScenarioError(f"task {self.id}: range must be positive and finite")
        if not (0 <= self.sigma_r < INF and 0 <= self.sigma_f < INF):
            raise ScenarioError(f"task {self.id}: sigmas must be nonnegative and finite")
        if not -INF < self.velocity < INF:
            raise ScenarioError(f"task {self.id}: velocity must be finite")
        if not self.u * self.u + self.v * self.v <= 1.0 + 1e-12:
            raise ScenarioError(f"task {self.id}: (u, v) must lie in the unit disk")


def unambiguous_range(prf: PrfConfig, cfg: RadarConfig) -> float:
    """Unambiguous range c/(2*f_r); the unambiguous frequency equals f_r."""
    return cfg.c / (2.0 * prf.f_r)


def blind_widths(prf: PrfConfig, cfg: RadarConfig) -> tuple[float, float, float, float]:
    """Edge blind widths (eps_r_plus, eps_r_minus, eps_f_plus, eps_f_minus).

    The near range edge is blind over max(clutter, one slot of eclipsing);
    the far edge adds half a round-trip pulse to the clutter.  Frequency
    blind widths equal the clutter widths.
    """
    half_pulse = cfg.c * cfg.pulse_width / 2.0
    return (
        max(prf.c_r_plus, half_pulse),
        prf.c_r_minus + half_pulse,
        prf.c_f_plus,
        prf.c_f_minus,
    )


def validate_prf(prf: PrfConfig, cfg: RadarConfig) -> None:
    """Reject a PRF whose clear region is empty; every task would be blind."""
    ru = unambiguous_range(prf, cfg)
    erp, erm, efp, efm = blind_widths(prf, cfg)
    if ru <= erp + erm:
        raise ScenarioError(
            f"PRF {prf.f_r:g} Hz has no clear range region "
            f"({ru:.0f} m unambiguous vs {erp + erm:.0f} m blind)"
        )
    if prf.f_r <= efp + efm:
        raise ScenarioError(f"PRF {prf.f_r:g} Hz has no clear Doppler region")


def ambiguous_range(range_m: float, prf: PrfConfig, cfg: RadarConfig) -> float:
    """Fold a true range into [0, R_u)."""
    ru = unambiguous_range(prf, cfg)
    folded = range_m % ru
    return 0.0 if folded >= ru else folded


def ambiguous_frequency(task: TrackTask, prf: PrfConfig, cfg: RadarConfig) -> float:
    """Fold the Doppler shift -2*V_t/wavelength into [0, f_r).

    The nonnegative-remainder modulo maps closing and receding targets alike
    onto the clear-region axis.
    """
    shift = -2.0 * task.velocity / cfg.wavelength
    folded = shift % prf.f_r
    return 0.0 if folded >= prf.f_r else folded


def is_trackable(task: TrackTask, prf: PrfConfig, cfg: RadarConfig) -> bool:
    """True when both folded confidence intervals fit inside the clear region."""
    ru = unambiguous_range(prf, cfg)
    erp, erm, efp, efm = blind_widths(prf, cfg)
    ra = ambiguous_range(task.range_m, prf, cfg)
    fa = ambiguous_frequency(task, prf, cfg)
    dr = cfg.n_r * task.sigma_r
    df = cfg.n_f * task.sigma_f
    return (
        ra - dr >= erp
        and ra + dr <= ru - erm
        and fa - df >= efp
        and fa + df <= prf.f_r - efm
    )


def leftward_availability(task: TrackTask, prf: PrfConfig, cfg: RadarConfig) -> int:
    """Slots available between the task's transmit pulse and its echo window.

    Zero when the task is untrackable with the PRF; clamped to n_intlv.
    """
    if not is_trackable(task, prf, cfg):
        return 0
    erp = blind_widths(prf, cfg)[0]
    ra = ambiguous_range(task.range_m, prf, cfg)
    raw = math.floor(2.0 / (cfg.c * cfg.pulse_width) * (ra - cfg.n_r * task.sigma_r - erp))
    return min(max(0, raw), cfg.n_intlv)


def rightward_availability(task: TrackTask, prf: PrfConfig, cfg: RadarConfig) -> int:
    """Highest slot index the task's transmit pulse may occupy.

    At least 1 for every trackable task; clamped to n_intlv.
    """
    if not is_trackable(task, prf, cfg):
        return 0
    ru = unambiguous_range(prf, cfg)
    erm = blind_widths(prf, cfg)[1]
    ra = ambiguous_range(task.range_m, prf, cfg)
    raw = math.floor(2.0 / (cfg.c * cfg.pulse_width) * (ru - (ra + cfg.n_r * task.sigma_r + erm)) + 1.0)
    return min(max(0, raw), cfg.n_intlv)


@dataclass
class AvailabilityTable:
    """Availabilities for all (task, PRF) pairs plus the derived index sets.

    Arrays are indexed [task_row, prf_index].  ``prf_sets[row]`` lists the PRF
    indices the task is trackable with (P_i); ``task_sets[p]`` lists the task
    rows trackable with PRF p (K_p); ``q_p`` is the total membership count.
    Rows with an empty PRF set are reported in ``unschedulable`` (task ids)
    and excluded from the task sets.  Treat instances as immutable.
    """

    cfg: RadarConfig
    prfs: tuple[PrfConfig, ...]
    tasks: tuple[TrackTask, ...]
    av: np.ndarray
    al: np.ndarray
    ar: np.ndarray
    ra: np.ndarray
    task_rows: dict[int, int] = field(repr=False)
    prf_sets: list[tuple[int, ...]] = field(repr=False)
    task_sets: list[tuple[int, ...]] = field(repr=False)
    q_p: int = 0
    unschedulable: tuple[int, ...] = ()

    @property
    def n_tasks(self) -> int:
        return len(self.tasks)

    @property
    def n_prfs(self) -> int:
        return len(self.prfs)

    def row_of(self, task_id: int) -> int:
        return self.task_rows[task_id]

    def dwell(self, prf_index: int) -> float:
        """Dwell time of one look at this PRF: pulses_per_look / f_r."""
        return self.cfg.pulses_per_look / self.prfs[prf_index].f_r

    def schedulable_rows(self) -> list[int]:
        return [r for r in range(self.n_tasks) if self.prf_sets[r]]


def availability_arrays(r, sr, vt, sf, prfs, cfg: RadarConfig):
    """Vectorized availabilities for task parameter arrays; returns
    (av, al, ar, ra) shaped [n_tasks, n_prfs] with clamped slot counts."""
    n_t, n_p = len(r), len(prfs)
    av = np.zeros((n_t, n_p), dtype=bool)
    al = np.zeros((n_t, n_p), dtype=np.int64)
    ar = np.zeros((n_t, n_p), dtype=np.int64)
    ra_table = np.zeros((n_t, n_p), dtype=np.float64)

    inv_slot = 2.0 / (cfg.c * cfg.pulse_width)
    for p, prf in enumerate(prfs):
        ru = unambiguous_range(prf, cfg)
        erp, erm, efp, efm = blind_widths(prf, cfg)
        ra = r % ru
        ra[ra >= ru] = 0.0
        shift = -2.0 * vt / cfg.wavelength
        fa = shift % prf.f_r
        fa[fa >= prf.f_r] = 0.0
        dr = cfg.n_r * sr
        df = cfg.n_f * sf
        ok = (
            (ra - dr >= erp)
            & (ra + dr <= ru - erm)
            & (fa - df >= efp)
            & (fa + df <= prf.f_r - efm)
        )
        raw_l = np.floor(inv_slot * (ra - dr - erp)).astype(np.int64)
        raw_r = np.floor(inv_slot * (ru - (ra + dr + erm)) + 1.0).astype(np.int64)
        av[:, p] = ok
        al[:, p] = np.where(ok, np.clip(raw_l, 0, cfg.n_intlv), 0)
        ar[:, p] = np.where(ok, np.clip(raw_r, 0, cfg.n_intlv), 0)
        ra_table[:, p] = ra
    return av, al, ar, ra_table


def build_availability_table(
    tasks, prfs, cfg: RadarConfig
) -> AvailabilityTable:
    """Evaluate availabilities for all task-PRF pairs in one vectorized pass.

    PRFs with an empty clear region are rejected here.  Tasks trackable with
    no PRF are reported, not failed.
    """
    prfs = tuple(prfs)
    tasks = tuple(tasks)
    if not prfs:
        raise ScenarioError("at least one PRF is required")
    for prf in prfs:
        validate_prf(prf, cfg)
    ids = [t.id for t in tasks]
    if len(set(ids)) != len(ids):
        raise ScenarioError("duplicate task ids")

    r = np.array([t.range_m for t in tasks], dtype=np.float64)
    sr = np.array([t.sigma_r for t in tasks], dtype=np.float64)
    vt = np.array([t.velocity for t in tasks], dtype=np.float64)
    sf = np.array([t.sigma_f for t in tasks], dtype=np.float64)
    av, al, ar, ra_table = availability_arrays(r, sr, vt, sf, prfs, cfg)
    n_t, n_p = len(tasks), len(prfs)

    prf_sets = [tuple(np.nonzero(av[i])[0].tolist()) for i in range(n_t)]
    unschedulable = tuple(tasks[i].id for i in range(n_t) if not prf_sets[i])
    task_sets = [
        tuple(i for i in np.nonzero(av[:, p])[0].tolist() if prf_sets[i])
        for p in range(n_p)
    ]
    q_p = sum(len(s) for s in task_sets)

    return AvailabilityTable(
        cfg=cfg,
        prfs=prfs,
        tasks=tasks,
        av=av,
        al=al,
        ar=ar,
        ra=ra_table,
        task_rows={t.id: i for i, t in enumerate(tasks)},
        prf_sets=prf_sets,
        task_sets=task_sets,
        q_p=q_p,
        unschedulable=unschedulable,
    )


def default_radar_config(**overrides) -> RadarConfig:
    """Medium-PRF airborne style defaults used throughout tests and demos."""
    return RadarConfig(**overrides)


def default_prf_set(
    low_hz: float = 9500.0,
    high_hz: float = 16500.0,
    count: int = 8,
    range_clutter: float = 2000.0,
    doppler_clutter: float = 1500.0,
) -> tuple[PrfConfig, ...]:
    """Evenly spaced PRF ladder with uniform edge clutter widths.

    Clutter defaults are chosen so the whole ladder keeps a nonempty clear
    region with the default pulse width (4 km range clutter would blind the
    top of the ladder outright) and so better than nine in ten uniformly
    drawn 20..120 km tracks are trackable with at least one PRF.
    """
    values = np.linspace(low_hz, high_hz, count)
    return tuple(
        PrfConfig(
            f_r=float(f),
            c_r_plus=range_clutter,
            c_r_minus=range_clutter,
            c_f_plus=doppler_clutter,
            c_f_minus=doppler_clutter,
        )
        for f in values
    )

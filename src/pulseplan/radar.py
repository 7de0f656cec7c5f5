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
from operator import attrgetter

import numpy as np

from .errors import ScenarioError

WAVE_SPEED = 299_792_458.0
INF = math.inf      # dataclass checks read "lo < x < INF", which NaN fails too


@dataclass(frozen=True)
class RadarConfig:
    """Radar-wide constants and interleaving capacity; the defaults are
    medium-PRF airborne style values."""

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


_TASK_FLOATS = ("range_m", "sigma_r", "velocity", "sigma_f", "u", "v")


class TaskColumns:
    """Tasks stored as columns, one entry per task.

    ``ids`` is a list of the task ids as given (Python ints of any size);
    ``range_m``, ``sigma_r``, ``velocity``, ``sigma_f``, ``u`` and ``v`` are
    read-only float64 arrays of the same length.  The columns are the whole
    interface: there is no per-task indexing or iteration, so code reads a
    row's values from the columns.  ``==`` holds between two
    ``TaskColumns`` with equal ids and equal columns.  The constructor runs
    ``TrackTask``'s checks on every row in one vectorized pass and raises
    the first failing row's ``ScenarioError``.
    """

    __slots__ = ("ids", *_TASK_FLOATS)

    def __init__(self, ids, range_m, sigma_r, velocity, sigma_f, u, v):
        object.__setattr__(self, "ids", list(ids))
        cols = []
        for name, values in zip(_TASK_FLOATS, (range_m, sigma_r, velocity, sigma_f, u, v)):
            col = np.array(values, dtype=np.float64)
            if col.shape != (len(self.ids),):
                raise ValueError(f"{name} must be one value per task id")
            col.flags.writeable = False
            object.__setattr__(self, name, col)
            cols.append(col)
        r, sr, vt, sf, u, v = cols
        with np.errstate(over="ignore"):
            # u * u is inf beyond 1e154, which fails the test as in TrackTask
            ok = ((0 < r) & (r < INF) & (0 <= sr) & (sr < INF) & (0 <= sf) & (sf < INF)
                  & (-INF < vt) & (vt < INF) & (u * u + v * v <= 1.0 + 1e-12))
        if not ok.all():
            # the first bad row's TrackTask repeats these comparisons on
            # Python floats and raises its own error
            i = int(np.argmin(ok))
            TrackTask(self.ids[i], *(float(col[i]) for col in cols))

    @classmethod
    def from_tasks(cls, tasks) -> "TaskColumns":
        """Columns of an iterable of ``TrackTask``."""
        tasks = list(tasks)
        return cls([t.id for t in tasks],
                   *(np.fromiter(map(attrgetter(name), tasks), np.float64, len(tasks))
                     for name in _TASK_FLOATS))

    def __setattr__(self, name, value):
        raise AttributeError("TaskColumns is immutable")

    def __len__(self) -> int:
        return len(self.ids)

    def __eq__(self, other):
        if not isinstance(other, TaskColumns):
            return NotImplemented
        return self.ids == other.ids and all(
            np.array_equal(getattr(self, name), getattr(other, name))
            for name in _TASK_FLOATS)

    def __repr__(self) -> str:
        return f"<TaskColumns of {len(self)} tasks>"


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


def slot_cap(prfs, cfg: RadarConfig) -> int:
    """Largest interleaving capacity any of the PRFs can use.

    A PRI holds floor(R_u / slot) slots of width slot = c * t_p / 2, and
    every availability counts slots inside one PRI, so no task reaches a
    slot beyond the largest of these over the PRFs.  The relative slack
    absorbs rounding: R_u / slot reads 7.999999999999999 at 12.5 kHz and
    10 us, where the exact quotient is 8.  A count of 2**63 or more, which
    no int64 slot column holds, raises ``ScenarioError``.
    """
    slot = cfg.c * cfg.pulse_width / 2.0
    most = max(unambiguous_range(prf, cfg) for prf in prfs)
    count = most / slot * (1.0 + 1e-9) if slot else INF
    if not count < 2.0 ** 63:
        raise ScenarioError(
            f"pulse_width={cfg.pulse_width!r} is too short: a PRI would hold "
            f"{count:.3g} slots, more than an int64 slot count holds")
    return math.floor(count)


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


def _slot_count(gap: float, cfg: RadarConfig) -> float:
    """Pulse-width slots in a range gap of a trackable task, as a float of
    at least 0: an infinite slot rate times a zero gap (NaN) counts 0."""
    count = 2.0 / (cfg.c * cfg.pulse_width) * gap
    return count if count >= 0.0 else 0.0


def leftward_availability(task: TrackTask, prf: PrfConfig, cfg: RadarConfig) -> int:
    """Slots available between the task's transmit pulse and its echo window.

    Zero when the task is untrackable with the PRF; clamped to n_intlv.
    """
    if not is_trackable(task, prf, cfg):
        return 0
    erp = blind_widths(prf, cfg)[0]
    ra = ambiguous_range(task.range_m, prf, cfg)
    count = _slot_count(ra - cfg.n_r * task.sigma_r - erp, cfg)
    return math.floor(min(count, cfg.n_intlv))


def rightward_availability(task: TrackTask, prf: PrfConfig, cfg: RadarConfig) -> int:
    """Highest slot index the task's transmit pulse may occupy.

    At least 1 for every trackable task; clamped to n_intlv.
    """
    if not is_trackable(task, prf, cfg):
        return 0
    ru = unambiguous_range(prf, cfg)
    erm = blind_widths(prf, cfg)[1]
    ra = ambiguous_range(task.range_m, prf, cfg)
    count = _slot_count(ru - (ra + cfg.n_r * task.sigma_r + erm), cfg)
    return math.floor(min(count + 1.0, cfg.n_intlv))


@dataclass
class AvailabilityTable:
    """Availabilities for all (task, PRF) pairs plus the derived index sets.

    ``tasks`` is the ``TaskColumns`` the table was built from: row i is
    task i, ``tasks.ids[row]`` its id and ``tasks.u``/``tasks.v`` its
    direction cosines as arrays.  Every run structure indexes tasks by row;
    ``task_rows`` maps a task id back to its row for input written in ids.
    Arrays are indexed [task_row, prf_index].  ``prf_sets[row]`` lists the PRF
    indices the task is trackable with (P_i); the task rows trackable with
    PRF p (K_p) are the rows of ``av[:, p]``, which the run's task store
    orders by priority; ``q_p`` is the total membership count.  Rows with an
    empty PRF set are reported in ``unschedulable`` (task ids) and lie in
    no task set.  Treat instances as immutable.
    """

    cfg: RadarConfig
    prfs: tuple[PrfConfig, ...]
    tasks: TaskColumns
    av: np.ndarray
    al: np.ndarray
    ar: np.ndarray
    ra: np.ndarray
    task_rows: dict[int, int] = field(repr=False)
    prf_sets: list[tuple[int, ...]] = field(repr=False)
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
        return np.flatnonzero(self.av.any(axis=1)).tolist()


@np.errstate(over="ignore", invalid="ignore")
def availability_arrays(r, sr, vt, sf, prfs, cfg: RadarConfig):
    """Vectorized availabilities for task parameter arrays; returns
    (av, al, ar, ra) shaped [n_tasks, n_prfs] with clamped slot counts.
    A shift or interval that overflows to inf (and folds to NaN) fails every
    comparison: the pair is untrackable, as in the scalar functions."""
    n_t, n_p = len(r), len(prfs)
    av = np.zeros((n_t, n_p), dtype=bool)
    al = np.zeros((n_t, n_p), dtype=np.int64)
    ar = np.zeros((n_t, n_p), dtype=np.int64)
    ra_table = np.zeros((n_t, n_p), dtype=np.float64)

    inv_slot = 2.0 / (cfg.c * cfg.pulse_width)
    shift = -2.0 * vt / cfg.wavelength
    dr = cfg.n_r * sr
    df = cfg.n_f * sf
    for p, prf in enumerate(prfs):
        ru = unambiguous_range(prf, cfg)
        erp, erm, efp, efm = blind_widths(prf, cfg)
        ra = r % ru
        ra[ra >= ru] = 0.0
        fa = shift % prf.f_r
        fa[fa >= prf.f_r] = 0.0
        ok = (
            (ra - dr >= erp)
            & (ra + dr <= ru - erm)
            & (fa - df >= efp)
            & (fa + df <= prf.f_r - efm)
        )
        # clipped while still float, so the int64 columns take only
        # 0..n_intlv; an infinite slot rate times a zero gap (NaN) counts 0
        raw_l = np.floor(np.fmax(inv_slot * (ra - dr - erp), 0.0))
        raw_r = np.floor(np.fmax(inv_slot * (ru - (ra + dr + erm)), 0.0) + 1.0)
        av[:, p] = ok
        al[:, p] = np.where(ok, np.minimum(raw_l, cfg.n_intlv), 0)
        ar[:, p] = np.where(ok, np.minimum(raw_r, cfg.n_intlv), 0)
        ra_table[:, p] = ra
    return av, al, ar, ra_table


def _shared_prf_sets(av: np.ndarray) -> list[tuple[int, ...]]:
    """Each row's PRF indices (ascending) as a tuple that every row with the
    same set shares, for an [row, PRF] availability mask of at least one
    PRF.

    A row's set is coded as its packed bytes; ``np.unique`` maps the rows
    to the distinct codes, and one tuple is built per code.
    """
    packed = np.packbits(av, axis=1)
    codes = packed.view(np.dtype((np.void, packed.shape[1]))).ravel()
    _, first, inverse = np.unique(codes, return_index=True, return_inverse=True)
    sets = [tuple(np.flatnonzero(av[r]).tolist()) for r in first.tolist()]
    return list(map(sets.__getitem__, inverse.tolist()))


def build_availability_table(tasks, prfs, cfg: RadarConfig) -> AvailabilityTable:
    """Evaluate availabilities for all task-PRF pairs in one vectorized pass.

    ``tasks`` is a ``TaskColumns`` or any iterable of ``TrackTask``, which
    is converted once with ``TaskColumns.from_tasks``; the table keeps the
    columns as ``tasks``.  PRFs with an empty clear region are rejected
    here, and so is an ``n_intlv`` above ``slot_cap``, before anything is
    sized by it.  Tasks trackable with no PRF are reported, not failed.
    """
    prfs = tuple(prfs)
    if not isinstance(tasks, TaskColumns):
        tasks = TaskColumns.from_tasks(tasks)
    if not prfs:
        raise ScenarioError("at least one PRF is required")
    for prf in prfs:
        validate_prf(prf, cfg)
    cap = slot_cap(prfs, cfg)
    if cfg.n_intlv > cap:
        raise ScenarioError(
            f"n_intlv={cfg.n_intlv} exceeds {cap}, the most slots any PRF's "
            f"unambiguous range holds"
        )
    ids = tasks.ids
    task_rows = dict(zip(ids, range(len(ids))))
    if len(task_rows) != len(ids):
        raise ScenarioError("duplicate task ids")

    av, al, ar, ra_table = availability_arrays(
        tasks.range_m, tasks.sigma_r, tasks.velocity, tasks.sigma_f, prfs, cfg)
    per_row = av.sum(axis=1)
    unschedulable = tuple(ids[i] for i in np.flatnonzero(per_row == 0).tolist())

    return AvailabilityTable(
        cfg=cfg,
        prfs=prfs,
        tasks=tasks,
        av=av,
        al=al,
        ar=ar,
        ra=ra_table,
        task_rows=task_rows,
        prf_sets=_shared_prf_sets(av),
        q_p=int(per_row.sum()),
        unschedulable=unschedulable,
    )


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

"""Scanning-plane geometry for subarray-level beamforming.

Targets are projected onto the normalized scanning plane (the unit disk of
direction cosines).  For each PRF, every grid point within the re-steering
radius of some trackable target becomes the center of a candidate disk; the
tasks enclosed by a disk may share an interleaved look.  The catalog is
columnar: per-disk PRF and grid-center columns, every disk's members in one
flat list cut by offsets, and each task's disk ids; no ``Disk`` object is
made.  Tasks are table rows, as in every other run structure.  The catalog
holds membership only; the disk rules' scores are computed by the
scheduler that reads them (``sdbf.DiskSelector``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .errors import InternalInvariantError, ScenarioError
from .radar import AvailabilityTable

# Worst-case grid points per task within radius r on an eps-grid is below
# pi*(r/eps + sqrt(2)/2)^2 <= 4*pi*(r/eps)^2 whenever eps <= r.
DISK_DENSITY_BOUND = 4.0 * math.pi


def project_to_scan_plane(azimuth: float, elevation: float) -> tuple[float, float]:
    """Project a front-hemisphere direction to direction cosines (u, v)."""
    if math.cos(elevation) * math.cos(azimuth) < 0.0:
        raise ScenarioError("direction lies in the rear hemisphere")
    u = math.cos(elevation) * math.sin(azimuth)
    v = math.sin(elevation)
    return (u, v)


@dataclass(frozen=True)
class GridSpec:
    """Grid spacing and re-steering disk radius, in direction-cosine units."""

    spacing: float = 0.02
    disk_radius: float = 0.05

    def __post_init__(self):
        if not 0.0 < self.spacing <= self.disk_radius:
            raise ScenarioError("grid spacing must satisfy 0 < spacing <= disk_radius")
        if self.disk_radius >= 1.0:
            raise ScenarioError("disk radius must be below 1")
        if self.spacing < 2.0 ** -60:
            # the catalog build keeps grid indices of the unit disk in int64
            raise ScenarioError("grid spacing must be at least 2**-60")


@dataclass
class DiskCatalog:
    """All candidate disks for all PRFs, as columns indexed by disk id, plus
    the per-task disk index.

    Disk ``d`` belongs to PRF ``prf_index[d]`` and is centered on grid point
    ``(gu[d], gv[d])`` (Python ints; center u = gu * spacing).  The tasks it
    encloses are ``members[offsets[d]:offsets[d + 1]]`` (``disk_tasks``),
    one flat list of ``table`` rows.  ``by_prf[p]`` lists PRF p's disk ids
    and ``task_disks[row]`` the disk ids enclosing the row's task (its
    available-disk set); ``q_d`` is the total membership count.  No object
    is kept per disk.  The catalog is immutable once built; schedulers
    score disks and track consumption in their own structures.
    """

    grid: GridSpec
    table: AvailabilityTable
    prf_index: list[int]
    gu: list[int]
    gv: list[int]
    members: list[int]
    offsets: list[int]
    by_prf: list[list[int]]
    task_disks: list[list[int]]

    @property
    def n_disks(self) -> int:
        return len(self.prf_index)

    @property
    def q_d(self) -> int:
        return len(self.members)

    def center(self, disk_id: int) -> tuple[float, float]:
        spacing = self.grid.spacing
        return (self.gu[disk_id] * spacing, self.gv[disk_id] * spacing)

    def disk_tasks(self, disk_id: int) -> list[int]:
        """The table rows the disk encloses, in build order (a new list)."""
        return self.members[self.offsets[disk_id]:self.offsets[disk_id + 1]]


# Box cells tested per numpy step of the stencil: 2**17 float64 cells keep
# each temporary near 1 MB whatever the radius/spacing ratio.
_STENCIL_CELLS = 1 << 17


def _stencil(us: np.ndarray, vs: np.ndarray, grid: GridSpec):
    """Integer grid points within disk_radius of each point (us[i], vs[i]).

    Returns ``(point, gu, gv)`` arrays, point-major and in (gu, gv) order
    within a point.  Each point's integer box is padded by one cell and
    filtered with the exact Euclidean predicate (``du * du + dv * dv <=
    r * r`` on ``gu * spacing - u``), the float expressions of a scalar
    scan, so float edge cases resolve identically everywhere.  The boxes
    are tested one (point, gu) row at a time, in chunks of rows.
    """
    eps, r = grid.spacing, grid.disk_radius
    r2 = r * r
    lo_u = np.floor((us - r) / eps).astype(np.int64) - 1
    n_u = np.ceil((us + r) / eps).astype(np.int64) + 2 - lo_u
    lo_v = np.floor((vs - r) / eps).astype(np.int64) - 1
    n_v = np.ceil((vs + r) / eps).astype(np.int64) + 2 - lo_v
    row_pt = np.repeat(np.arange(len(us)), n_u)
    row_gu = (np.arange(len(row_pt)) - np.repeat(np.cumsum(n_u) - n_u, n_u)
              + lo_u[row_pt])
    width = int(n_v.max(initial=0))
    cols = np.arange(width)
    step = max(1, _STENCIL_CELLS // max(1, width))
    parts = []
    for a in range(0, len(row_pt), step):
        pt, gu = row_pt[a:a + step], row_gu[a:a + step]
        du = gu * eps - us[pt]
        gv = lo_v[pt, None] + cols
        dv = gv * eps - vs[pt, None]
        inside = (du * du)[:, None] + dv * dv <= r2
        inside &= cols < n_v[pt, None]
        i, j = np.nonzero(inside)
        parts.append((pt[i], gu[i], gv[i, j]))
    if not parts:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty, empty
    return tuple(np.concatenate(c) for c in zip(*parts))


def _first_touch(keys: np.ndarray):
    """Number the distinct keys in order of first occurrence.

    Returns each entry's group number and, per group, the index of its
    first occurrence.
    """
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty(len(first), dtype=np.intp)
    rank[order] = np.arange(len(first))
    return rank[inverse], first[order]


def enumerate_disks(table: AvailabilityTable, grid: GridSpec) -> DiskCatalog:
    """Build the disk catalog: per PRF, every grid point within the disk
    radius of a task trackable at that PRF becomes a disk of that PRF.

    Every disk is nonempty by construction and no two disks share
    (PRF, center).  The build is bulk: one vectorized stencil per task,
    then one numpy grouping per PRF, which extends the columns; no per-disk
    object is made.  Its result equals that of a scalar scan over the PRFs,
    each PRF's task set (the rows of ``av[:, p]``) and each row's cells in
    (gu, gv) order, which gives a new cell the next disk id and appends the
    task to the cell's disk.  So disk ids are in (PRF, first-touch) order,
    and each disk's members and each ``task_disks`` list are in scan order.
    Each row is one int object shared by its memberships in ``members``,
    and each disk id one shared by ``by_prf`` and ``task_disks``.
    """
    tasks = table.tasks
    rows = table.schedulable_rows()
    slot = np.full(len(tasks), -1, dtype=np.intp)
    slot[rows] = np.arange(len(rows))
    point, cell_gu, cell_gv = _stencil(tasks.u[rows], tasks.v[rows], grid)
    n_cells = np.bincount(point, minlength=len(rows))
    first_cell = np.cumsum(n_cells) - n_cells
    # one key per cell from the ranks of its indices, which cannot overflow
    gu_values, gu_rank = np.unique(cell_gu, return_inverse=True)
    gv_values, gv_rank = np.unique(cell_gv, return_inverse=True)
    span = len(gv_values)
    key = gu_rank * span + gv_rank
    del point, cell_gu, cell_gv, gu_rank, gv_rank
    row_objects = np.array(range(len(tasks)), dtype=object)

    prf_index: list[int] = []
    gu: list[int] = []
    gv: list[int] = []
    members: list[int] = []
    sizes: list[int] = []
    by_prf: list[list[int]] = []
    task_disks: list[list[int]] = [[] for _ in range(len(tasks))]
    for p in range(table.n_prfs):
        prf_rows = np.flatnonzero(table.av[:, p])
        if not len(prf_rows):
            by_prf.append([])
            continue
        count = n_cells[slot[prf_rows]]
        ends = np.cumsum(count)
        cell = np.arange(ends[-1]) + np.repeat(
            first_cell[slot[prf_rows]] - (ends - count), count)
        local, first = _first_touch(key[cell])
        members += row_objects[np.repeat(prf_rows, count)[
            np.argsort(local, kind="stable")]].tolist()
        sizes += np.bincount(local).tolist()
        centers = key[cell[first]]
        del cell
        gu += gu_values[centers // span].tolist()
        gv += gv_values[centers % span].tolist()
        dids = list(range(len(prf_index), len(prf_index) + len(first)))
        prf_index += [p] * len(first)
        by_prf.append(dids)
        cell_disks = np.array(dids, dtype=object)[local].tolist()
        lo = 0
        for row, hi in zip(prf_rows.tolist(), ends.tolist()):
            task_disks[row].extend(cell_disks[lo:hi])
            lo = hi

    catalog = DiskCatalog(
        grid=grid, table=table, prf_index=prf_index, gu=gu, gv=gv,
        members=members, offsets=[0, *accumulate(sizes)],
        by_prf=by_prf, task_disks=task_disks,
    )
    _check_density_bound(catalog)
    return catalog


def _check_density_bound(catalog: DiskCatalog) -> None:
    ratio = catalog.grid.disk_radius / catalog.grid.spacing
    cap_per_task = DISK_DENSITY_BOUND * ratio * ratio
    av = catalog.table.av
    for p, disk_ids in enumerate(catalog.by_prf):
        n_tasks = np.count_nonzero(av[:, p])
        if len(disk_ids) > cap_per_task * max(1, n_tasks):
            raise InternalInvariantError(
                f"disk count for PRF {p} exceeds the density bound"
            )


def dedup_disks(catalog: DiskCatalog) -> DiskCatalog:
    """Drop disks whose task list duplicates or is contained in another
    disk's list for the same PRF.  Exact-solver and export path only; the
    heuristics work on the full catalog.

    Among equal task lists the lowest disk id survives.  Survivors are
    renumbered contiguously in original-id order and membership indexes are
    rebuilt.

    Per PRF the disks are visited largest first, and a disk is dropped when
    a kept one holds its task set.  Such a disk encloses the visited disk's
    first member (every disk is nonempty), so only the kept disks among that
    member's ``task_disks`` are tested, not every kept disk of the PRF.
    """
    members, offsets, task_disks = catalog.members, catalog.offsets, catalog.task_disks
    keep: list[int] = []
    for disk_ids in catalog.by_prf:
        sets = {d: frozenset(catalog.disk_tasks(d)) for d in disk_ids}
        kept: set[int] = set()
        for d in sorted(disk_ids, key=lambda d: (-len(sets[d]), d)):
            s = sets[d]
            if any(k in kept and s <= sets[k] for k in task_disks[members[offsets[d]]]):
                continue
            kept.add(d)
            keep.append(d)
    keep.sort()

    prf_index = [catalog.prf_index[d] for d in keep]
    by_prf: list[list[int]] = [[] for _ in range(catalog.table.n_prfs)]
    task_disks: list[list[int]] = [[] for _ in range(catalog.table.n_tasks)]
    members: list[int] = []
    offsets = [0]
    for new, d in enumerate(keep):
        rows = catalog.disk_tasks(d)
        members += rows
        offsets.append(len(members))
        by_prf[prf_index[new]].append(new)
        for row in rows:
            task_disks[row].append(new)
    return DiskCatalog(
        grid=catalog.grid,
        table=catalog.table,
        prf_index=prf_index,
        gu=[catalog.gu[d] for d in keep],
        gv=[catalog.gv[d] for d in keep],
        members=members,
        offsets=offsets,
        by_prf=by_prf,
        task_disks=task_disks,
    )

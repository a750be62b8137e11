"""Independent schedule certificate.

Checks a covering schedule against the paper's definitions, starting from
the raw deployment arrays.  It uses numpy only and imports nothing from the
program under test, so a bug shared by the solvers and the model cannot also
hide here.

Conventions (the paper's, Definitions 1-3):

* tag ``t`` is inside reader ``i``'s interrogation region iff
  ``|t - v_i| <= gamma_i``;
* an active reader ``i`` is silenced (reader-tag collision) iff it lies
  inside another active reader's interference disk, ``|v_i - v_j| <= R_j``;
* a tag is well covered by an active set iff exactly one active reader
  covers it and that reader is not silenced;
* a set is RTc-free iff ``|v_i - v_j| > max(R_i, R_j)`` for every pair.

A failed check raises :class:`CertificateError` naming the slot and the
rule broken.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

#: Solvers whose every active set must be RTc-free (the paper's algorithms;
#: GHC and Colorwave may activate conflicting readers).
FEASIBLE_SOLVERS = frozenset({"ptas", "centralized", "distributed"})


class CertificateError(AssertionError):
    """A schedule broke one of the certificate's rules."""


@dataclass(frozen=True)
class Deployment:
    """Raw deployment arrays plus the reader -> covered-tags lists derived
    from them (CSR: tags of reader ``i`` are
    ``cover_idx[cover_ptr[i]:cover_ptr[i + 1]]``, ascending)."""

    reader_pos: np.ndarray
    interference: np.ndarray
    interrogation: np.ndarray
    tag_pos: np.ndarray
    cover_ptr: np.ndarray = field(repr=False)
    cover_idx: np.ndarray = field(repr=False)

    @property
    def num_readers(self) -> int:
        return len(self.reader_pos)

    @property
    def num_tags(self) -> int:
        return len(self.tag_pos)

    def tags_of(self, reader: int) -> np.ndarray:
        return self.cover_idx[self.cover_ptr[reader]:self.cover_ptr[reader + 1]]

    def cover_counts(self, readers: np.ndarray) -> np.ndarray:
        """Per tag, how many of *readers* cover it."""
        readers = np.asarray(readers, dtype=np.int64)
        if readers.size == 0:
            return np.zeros(self.num_tags, dtype=np.int64)
        parts = [self.tags_of(int(r)) for r in readers]
        return np.bincount(np.concatenate(parts), minlength=self.num_tags)

    def coverable(self, excluded: Optional[np.ndarray] = None) -> np.ndarray:
        """Mask of tags covered by at least one reader not in *excluded*."""
        keep = np.ones(self.num_readers, dtype=bool)
        if excluded is not None and len(excluded):
            keep[np.asarray(excluded, dtype=np.int64)] = False
        return self.cover_counts(np.flatnonzero(keep)) > 0


def _gather(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """Concatenation of ``arange(s, s + l)`` for every (s, l) pair."""
    total = int(lens.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    offsets = np.repeat(np.cumsum(lens) - lens, lens)
    return np.repeat(starts, lens) + (np.arange(total) - offsets)


def deployment(
    reader_pos: np.ndarray,
    interference: np.ndarray,
    interrogation: np.ndarray,
    tag_pos: np.ndarray,
) -> Deployment:
    """Build a :class:`Deployment`, bucketing tags on a square grid of side
    ``max(gamma)`` so each reader scans at most nine buckets."""
    rp = np.asarray(reader_pos, dtype=np.float64)
    tp = np.asarray(tag_pos, dtype=np.float64)
    gamma = np.asarray(interrogation, dtype=np.float64)
    n, m = len(rp), len(tp)
    if n == 0 or m == 0:
        ptr = np.zeros(n + 1, dtype=np.int64)
        return Deployment(rp, np.asarray(interference, dtype=np.float64),
                          gamma, tp, ptr, np.empty(0, dtype=np.int64))
    side = max(float(gamma.max()), 1.0)
    origin = np.minimum(rp.min(axis=0), tp.min(axis=0)) - side
    tkey = np.floor((tp - origin) / side).astype(np.int64)
    width = int(max(tkey[:, 1].max(), np.floor((rp[:, 1] - origin[1]) / side).max())) + 3
    tflat = tkey[:, 0] * width + tkey[:, 1]
    order = np.argsort(tflat, kind="stable")
    sorted_keys = tflat[order]

    rkey = np.floor((rp - origin) / side).astype(np.int64)
    dx, dy = np.meshgrid(np.arange(-1, 2), np.arange(-1, 2), indexing="ij")
    qkeys = ((rkey[:, 0, None] + dx.ravel()) * width
             + rkey[:, 1, None] + dy.ravel())          # (n, 9)
    lo = np.searchsorted(sorted_keys, qkeys.ravel(), side="left")
    hi = np.searchsorted(sorted_keys, qkeys.ravel(), side="right")
    cand = order[_gather(lo, hi - lo)]
    owner = np.repeat(np.repeat(np.arange(n), 9), hi - lo)
    diff = tp[cand] - rp[owner]
    inside = (diff * diff).sum(axis=1) <= gamma[owner] ** 2
    cand, owner = cand[inside], owner[inside]
    by_reader = np.lexsort((cand, owner))
    cand, owner = cand[by_reader], owner[by_reader]
    ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(owner, minlength=n), out=ptr[1:])
    return Deployment(rp, np.asarray(interference, dtype=np.float64),
                      gamma, tp, ptr, cand.astype(np.int64))


def silenced(dep: Deployment, active: np.ndarray) -> np.ndarray:
    """Per active reader: inside another active reader's interference disk."""
    pos = dep.reader_pos[active]
    d2 = ((pos[:, None, :] - pos[None, :, :]) ** 2).sum(axis=-1)
    inside = d2 <= dep.interference[active][None, :] ** 2
    np.fill_diagonal(inside, False)
    return inside.any(axis=1)


def rtc_free(dep: Deployment, active: np.ndarray) -> bool:
    """Whether every pair of *active* is independent."""
    pos = dep.reader_pos[active]
    d2 = ((pos[:, None, :] - pos[None, :, :]) ** 2).sum(axis=-1)
    radius = dep.interference[active]
    limit = np.maximum(radius[:, None], radius[None, :]) ** 2
    clash = d2 <= limit
    np.fill_diagonal(clash, False)
    return not bool(clash.any())


def well_covered(dep: Deployment, active: np.ndarray) -> np.ndarray:
    """Mask of tags well covered by *active* (read or not)."""
    counts = dep.cover_counts(active)
    ok = np.zeros(dep.num_tags, dtype=bool)
    sil = silenced(dep, active) if len(active) else np.empty(0, dtype=bool)
    for reader, muted in zip(active, sil):
        if not muted:
            tags = dep.tags_of(int(reader))
            ok[tags[counts[tags] == 1]] = True
    return ok


def crashed_by(crashes: Dict[int, int], slot: int) -> np.ndarray:
    """Readers whose permanent crash slot is ``<= slot``."""
    return np.asarray(
        sorted(r for r, at in crashes.items() if at <= slot), dtype=np.int64
    )


def certify_schedule(
    dep: Deployment,
    result,
    solver: str,
    crashes: Optional[Dict[int, int]] = None,
) -> None:
    """Check one dense schedule (a ``ScheduleResult``).

    *crashes* maps permanently crashed readers to their crash slot; it is
    given exactly when the schedule ran under a fault plan.  Without faults
    every slot must read exactly its well-covered unread tags; with faults
    it may read fewer (lost reads are retried), never a tag outside that
    set, and an active reader must not be one already crashed.
    """
    m = dep.num_tags
    faulty = crashes is not None
    read = np.zeros(m, dtype=bool)
    coverable = dep.coverable()
    total = 0
    for rec in result.slots:
        where = f"slot {rec.slot}"
        active = np.asarray(rec.active, dtype=np.int64)
        tags = np.asarray(rec.tags_read, dtype=np.int64)
        if len(np.unique(active)) != len(active):
            raise CertificateError(f"{where}: a reader is activated twice")
        if len(active) and (active.min() < 0 or active.max() >= dep.num_readers):
            raise CertificateError(f"{where}: reader id out of range")
        if len(tags) and (tags.min() < 0 or tags.max() >= m):
            raise CertificateError(f"{where}: tag id out of range")
        if len(np.unique(tags)) != len(tags) or read[tags].any():
            raise CertificateError(f"{where}: a tag is retired twice")
        if solver in FEASIBLE_SOLVERS and len(active) > 1 and not rtc_free(dep, active):
            raise CertificateError(f"{where}: {solver} active set is not RTc-free")
        if faulty and np.isin(active, crashed_by(crashes, rec.slot)).any():
            raise CertificateError(f"{where}: a permanently crashed reader is active")
        well = well_covered(dep, active) & ~read
        if not well[tags].all():
            raise CertificateError(
                f"{where}: a retired tag is not well covered "
                "(no reader, two readers, or a silenced reader)"
            )
        if int(rec.weight) != int(well.sum()):
            raise CertificateError(
                f"{where}: weight {rec.weight} != {int(well.sum())} well-covered tags"
            )
        if not faulty and len(tags) != int(well.sum()):
            raise CertificateError(f"{where}: well-covered tags left unread")
        read[tags] = True
        total += len(tags)

    if total != int(result.tags_read_total):
        raise CertificateError("tags_read_total does not match the slots")
    uncovered = np.flatnonzero(~coverable)
    if not np.array_equal(np.sort(np.asarray(result.uncovered_tags)), uncovered):
        raise CertificateError("uncovered_tags does not match the geometry")
    left = coverable & ~read
    if bool(result.complete) != (not left.any()):
        raise CertificateError("complete flag does not match the tags left")
    outcome = getattr(result.outcome, "value", result.outcome)
    if result.complete and outcome != "complete":
        raise CertificateError(f"outcome {outcome} on a complete schedule")
    if not result.complete:
        if not faulty:
            raise CertificateError(f"fault-free schedule ended {outcome}")
        _certify_leftovers(dep, left, crashes)


def _certify_leftovers(
    dep: Deployment, left: np.ndarray, crashes: Dict[int, int]
) -> None:
    """Every coverable tag left unread must be covered only by permanently
    crashed readers, or stopping was not justified."""
    dead = np.asarray(sorted(crashes), dtype=np.int64)
    reachable = dep.coverable(excluded=dead)
    if (left & reachable).any():
        raise CertificateError(
            "schedule stopped with a tag still covered by a live reader"
        )


def certify_scale(coverable_count: int, result) -> None:
    """Check a scale-tier result, which carries per-slot counts but no ids:
    the total equals the coverable count computed from the raw arrays, the
    per-slot counts sum to it, and the run is complete.  An id-level check
    needs ids the scale driver does not keep."""
    per_slot = sum(int(s.tags_read) for s in result.slots)
    if per_slot != int(result.tags_read_total):
        raise CertificateError("per-slot counts do not sum to tags_read_total")
    if int(result.tags_read_total) != int(coverable_count):
        raise CertificateError(
            f"read {result.tags_read_total} tags, {coverable_count} are coverable"
        )
    if not result.complete or result.outcome != "complete":
        raise CertificateError(f"scale schedule ended {result.outcome}")


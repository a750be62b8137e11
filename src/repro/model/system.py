"""The frozen RFID deployment and its derived matrices.

:class:`RFIDSystem` precomputes three structures all schedulers share:

* ``coverage`` — boolean ``(m, n)`` incidence: tag *t* lies in reader *i*'s
  interrogation region;
* ``in_interference_range`` — directed boolean ``(n, n)``: reader *i* lies in
  reader *j*'s interference disk (the RTc predicate, Figure 1(b));
* ``conflict`` — its symmetrisation: *i* and *j* are **not** independent in
  the sense of Definition 2, i.e. they are adjacent in the interference
  graph (Definition 7).

The weight oracle (Definition 3) and the generalised well-covered computation
(Definition 1, needed for infeasible active sets produced by the
hill-climbing baseline) are evaluated directly on these matrices with NumPy.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

import numpy as np

from repro.geometry.disks import mutual_interference_matrix
from repro.geometry.points import as_points, pairwise_sq_distances
from repro.model.reader import Reader, check_reader_radii
from repro.model.tag import Tag


class RFIDSystem:
    """Immutable multi-reader RFID deployment, stored as arrays.

    :func:`build_system` constructs one straight from coordinate and radius
    arrays; this entity constructor converts its arguments to the same
    arrays.  Either way entities are not kept: :meth:`reader`, :meth:`tag`,
    :attr:`readers` and :attr:`tags` rebuild them on demand.

    Parameters
    ----------
    readers:
        Sequence of :class:`~repro.model.reader.Reader`; ids must equal their
        index (enforced) so array positions and entity ids never diverge.
    tags:
        Sequence of :class:`~repro.model.tag.Tag`, same id convention.
    """

    def __init__(self, readers: Sequence[Reader], tags: Sequence[Tag]):
        readers = list(readers)
        tags = list(tags)
        for idx, rd in enumerate(readers):
            if rd.id != idx:
                raise ValueError(f"reader at index {idx} has id {rd.id}")
        for idx, tg in enumerate(tags):
            if tg.id != idx:
                raise ValueError(f"tag at index {idx} has id {tg.id}")
        self._init_arrays(
            [[rd.x, rd.y] for rd in readers],
            [rd.interference_radius for rd in readers],
            [rd.interrogation_radius for rd in readers],
            [[tg.x, tg.y] for tg in tags],
        )

    def _init_arrays(
        self, reader_positions, interference_radii, interrogation_radii,
        tag_positions,
    ) -> None:
        """The single construction path: validate the four arrays with
        :class:`Reader`'s rules and derive the shared matrices from them."""
        self._reader_pos = _positions(reader_positions, "reader_positions")
        self._tag_pos = _positions(tag_positions, "tag_positions")
        R = np.array(interference_radii, dtype=np.float64)
        gamma = np.array(interrogation_radii, dtype=np.float64)
        self._interference_radii, self._interrogation_radii = R, gamma
        n = len(self._reader_pos)
        m = len(self._tag_pos)
        if R.shape != (n,) or gamma.shape != (n,):
            raise ValueError("radii arrays must match number of reader positions")
        valid = np.isfinite(R) & (R > 0) & np.isfinite(gamma) & (gamma > 0)
        valid &= gamma <= R + 1e-12
        if not valid.all():
            # the first offending reader raises exactly what Reader would
            i = int(np.argmin(valid))
            check_reader_radii(float(R[i]), float(gamma[i]))

        # Chunk tag rows so the float64 squared-distance transient stays
        # bounded (~32 MB) however large the deployment; up to 4·10⁶
        # tag-reader pairs it is a single chunk.
        self._coverage = np.empty((m, n), dtype=bool)
        r2 = gamma[None, :] ** 2
        step = max(1, 4_000_000 // max(n, 1))
        for lo in range(0, m, step):
            sq = pairwise_sq_distances(self._tag_pos[lo:lo + step], self._reader_pos)
            self._coverage[lo:lo + step] = sq <= r2

        self._in_range = mutual_interference_matrix(self._reader_pos, R)
        # symmetrised RTc predicate = not independent (Definition 2)
        self._conflict = self._in_range | self._in_range.T
        self._independent = ~self._conflict
        np.fill_diagonal(self._independent, False)
        # lazily built packed kernels (see repro.perf); the system is
        # immutable, so these never need invalidation
        self._packed_coverage = None
        self._covered_by_any = None

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    @property
    def num_readers(self) -> int:
        """Number of readers."""
        return len(self._reader_pos)

    @property
    def num_tags(self) -> int:
        """Number of tags."""
        return len(self._tag_pos)

    @property
    def readers(self) -> List[Reader]:
        """Reader entities, built on demand from the stored arrays."""
        return [self.reader(i) for i in range(self.num_readers)]

    @property
    def tags(self) -> List[Tag]:
        """Tag entities, built on demand from the stored arrays."""
        return [self.tag(t) for t in range(self.num_tags)]

    def reader(self, i: int) -> Reader:
        """Reader *i* (list indexing: negative counts from the end)."""
        i = range(self.num_readers)[i]
        x, y = self._reader_pos[i].tolist()
        return Reader(
            i, x, y, float(self._interference_radii[i]),
            float(self._interrogation_radii[i]),
        )

    def tag(self, t: int) -> Tag:
        """Tag *t* (list indexing: negative counts from the end)."""
        t = range(self.num_tags)[t]
        x, y = self._tag_pos[t].tolist()
        return Tag(t, x, y)

    @property
    def reader_positions(self) -> np.ndarray:
        """(n, 2) reader coordinates (copy)."""
        return self._reader_pos.copy()

    @property
    def tag_positions(self) -> np.ndarray:
        """(m, 2) tag coordinates (copy)."""
        return self._tag_pos.copy()

    @property
    def interference_radii(self) -> np.ndarray:
        """(n,) interference radii R_i (copy)."""
        return self._interference_radii.copy()

    @property
    def interrogation_radii(self) -> np.ndarray:
        """(n,) interrogation radii gamma_i (copy)."""
        return self._interrogation_radii.copy()

    # ------------------------------------------------------------------
    # derived matrices (views; treat as read-only)
    # ------------------------------------------------------------------
    @property
    def coverage(self) -> np.ndarray:
        """Boolean ``(m, n)``: tag t inside reader i's interrogation region."""
        return self._coverage

    @property
    def in_interference_range(self) -> np.ndarray:
        """Directed boolean ``(n, n)``: ``[i, j]`` — i inside j's interference
        disk (j's carrier drowns i's uplink when both are active)."""
        return self._in_range

    @property
    def conflict(self) -> np.ndarray:
        """Symmetric interference-graph adjacency (Definition 7)."""
        return self._conflict

    @property
    def packed_coverage(self):
        """Word-packed coverage kernels
        (:class:`~repro.perf.packed.PackedCoverage`), built on first access
        and cached for the system's lifetime.  This is the single
        O(n·m) packing pass every weight oracle used to repeat per
        construction."""
        if self._packed_coverage is None:
            from repro.perf.packed import PackedCoverage

            self._packed_coverage = PackedCoverage(self._coverage)
        return self._packed_coverage

    # ------------------------------------------------------------------
    # feasibility (Definition 2)
    # ------------------------------------------------------------------
    def independent(self, i: int, j: int) -> bool:
        """Whether readers *i* and *j* are independent."""
        if i == j:
            raise ValueError("independence is defined for distinct readers")
        return bool(self._independent[i, j])

    def is_feasible(self, active: Iterable[int]) -> bool:
        """Whether *active* is a feasible scheduling set (pairwise
        independent; the empty set is feasible)."""
        idx = np.asarray(sorted(set(int(a) for a in active)), dtype=np.int64)
        if idx.size <= 1:
            return True
        sub = self._conflict[np.ix_(idx, idx)]
        return not bool(sub.any())

    # ------------------------------------------------------------------
    # well-covered tags and weight (Definitions 1 and 3)
    # ------------------------------------------------------------------
    def _normalize_active(self, active: Iterable[int]) -> np.ndarray:
        idx = np.asarray(sorted(set(int(a) for a in active)), dtype=np.int64)
        if idx.size and (idx.min() < 0 or idx.max() >= self.num_readers):
            raise IndexError("reader index out of range")
        return idx

    def operational_readers(self, active: Iterable[int]) -> np.ndarray:
        """Subset of *active* readers not suffering RTc — i.e. not inside any
        other active reader's interference disk.  For a feasible set this is
        the whole set."""
        idx = self._normalize_active(active)
        if idx.size == 0:
            return idx
        sub = self._in_range[np.ix_(idx, idx)]
        suffering = sub.any(axis=1)
        return idx[~suffering]

    def well_covered_tags(
        self, active: Iterable[int], unread: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Tags well-covered by the active set (Definition 1): unread tags in
        the interrogation region of exactly one active reader, that reader
        being operational (RTc-free).  *active* need not be feasible."""
        idx = self._normalize_active(active)
        m = self.num_tags
        if idx.size == 0 or m == 0:
            return np.empty(0, dtype=np.int64)
        cov = self._coverage[:, idx]
        counts = cov.sum(axis=1)
        once = counts == 1
        if unread is not None:
            unread = np.asarray(unread, dtype=bool)
            if unread.shape != (m,):
                raise ValueError(f"unread mask must have shape ({m},)")
            once = once & unread
        if not once.any():
            return np.empty(0, dtype=np.int64)
        # unique covering reader per exactly-once tag
        owner_local = np.argmax(cov[once], axis=1)
        operational = self.operational_readers(idx)
        op_mask_local = np.isin(idx, operational)
        good = op_mask_local[owner_local]
        return np.flatnonzero(once)[good]

    def weight(
        self, active: Iterable[int], unread: Optional[np.ndarray] = None
    ) -> int:
        """Weight ``w(X)`` of the active set (Definition 3, generalised to
        infeasible sets via the operational-reader rule)."""
        return int(len(self.well_covered_tags(active, unread)))

    def covered_by_any(self) -> np.ndarray:
        """Boolean mask over tags: inside at least one interrogation region
        (i.e. inside the monitored region M of Definition 4).  Tags outside M
        can never be read by any schedule.  Cached; the returned array is
        read-only — copy before mutating."""
        if self._covered_by_any is None:
            mask = self._coverage.any(axis=1)
            mask.setflags(write=False)
            self._covered_by_any = mask
        return self._covered_by_any

    def exclusive_coverage_counts(self, active: Iterable[int]) -> np.ndarray:
        """Per-active-reader count of tags it covers exclusively within the
        active set (diagnostics for examples/benchmarks)."""
        idx = self._normalize_active(active)
        if idx.size == 0:
            return np.empty(0, dtype=np.int64)
        cov = self._coverage[:, idx]
        counts = cov.sum(axis=1)
        excl = cov & (counts == 1)[:, None]
        return excl.sum(axis=0).astype(np.int64)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"RFIDSystem(n_readers={self.num_readers}, n_tags={self.num_tags})"


def _positions(points, name: str) -> np.ndarray:
    """A private float64 ``(k, 2)`` copy of *points*; empty input gives
    ``(0, 2)``."""
    arr = np.array(points, dtype=np.float64)
    return as_points(arr, name) if arr.size else np.empty((0, 2))


def build_system(
    reader_positions: np.ndarray,
    interference_radii: np.ndarray,
    interrogation_radii: np.ndarray,
    tag_positions: np.ndarray,
) -> RFIDSystem:
    """Array-first constructor for :class:`RFIDSystem`.

    Validates the arrays with :class:`~repro.model.reader.Reader`'s rules
    and builds the system straight from them, with no per-entity objects,
    so deployment generators and the per-cell subsystems of the scale tier
    pay only for the derived matrices.
    """
    system = RFIDSystem.__new__(RFIDSystem)
    system._init_arrays(
        reader_positions, interference_radii, interrogation_radii,
        tag_positions,
    )
    return system

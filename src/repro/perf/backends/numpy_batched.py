"""The ``numpy`` backend: candidate frontiers as 2-D ``uint64`` matrices.

The scalar path answers a frontier of *k* candidates with *k* separate
big-int walks; this backend answers it with one popcount over a
``(k, ceil(m/64))`` ``uint64`` matrix — the candidate rows of the system's
packed coverage, combined word-wise with the solver's ``once``/``multi``/
``unread`` state (unpacked once per call via
:func:`~repro.perf.packed.bigint_to_words`).

Bit-identity with the ``pure`` backend is structural: both compute the same
word-wise boolean algebra over the same packed words, so the per-candidate
integers agree exactly (property-tested in ``tests/test_backends.py``).
Three rewrites keep the batched path competitive:

* the feasible-rule weight uses the identity
  ``(once | c) & ~(multi | (once & c)) == (once ^ c) & ~multi`` — pure
  boolean algebra, so the integers are unchanged while the op count per
  frontier drops from five word-matrix passes to two;
* the generalised-rule (climb) weight uses the owned-tag identity of
  :meth:`PureKernel.climb_weights_with`: two popcount passes over the
  candidate rows plus a sparse per-(silenced reader, candidate)
  correction, so a frontier costs O(n·W) rather than O(|active|·n·W);
* solo weights are answered from a per-unread-mask table of **all**
  readers' counts, memoised on the kernel — the branch-and-bound ordering
  pass hits the same unread mask dozens of times per MCS slot, so the
  table amortises to a fancy-index lookup.

Tiny frontiers — below :data:`BATCH_MIN` candidates — are delegated to the
inherited scalar path, where big-int arithmetic beats array dispatch
overhead; the returned integers are identical either way, so the cutoff is
a pure wall-clock knob.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.perf.backends.pure import PureKernel
from repro.perf.packed import bigint_to_words, popcount_words

try:  # pragma: no cover - numpy is a hard dependency of the library today,
    # but the selection layer (repro.perf.backends) is specified to degrade
    # gracefully, so availability is probed through this module flag.
    import numpy  # noqa: F401

    _NUMPY_OK = True
except ImportError:  # pragma: no cover
    _NUMPY_OK = False

#: Frontier size below which the scalar path is used (see module docstring).
#: Measured crossover on 19-word (1200-tag) instances: the batched
#: feasible-rule weight overtakes the scalar walk at ~32 candidates.
BATCH_MIN = 32


def numpy_batching_available() -> bool:
    """Whether the ``numpy`` backend can run in this process."""
    return _NUMPY_OK


class NumpyKernel(PureKernel):
    """Vectorised kernel over the packed coverage word matrix."""

    name = "numpy"

    def __init__(self, system) -> None:
        super().__init__(system)
        packed = system.packed_coverage
        self._words = packed.words  # (n, W) uint64, read-only
        self._num_words = packed.num_words
        self._conflict_bool = np.asarray(system.conflict, dtype=bool)
        self._silencer_bool = np.asarray(system.in_interference_range, dtype=bool)
        self._words_memo = {}
        self._solo_memo = {}

    def _to_words(self, value: int) -> np.ndarray:
        # The same big-int masks recur across calls — the unread mask is
        # constant for a whole MCS slot, once/multi for a whole frontier —
        # so the unpacked rows are memoised (small bound: the working set
        # per slot is a handful of masks).
        value = int(value)
        memo = self._words_memo
        words = memo.get(value)
        if words is None:
            if len(memo) >= 64:
                memo.clear()
            words = bigint_to_words(value, self._num_words)
            words.flags.writeable = False
            memo[value] = words
        return words

    def _solo_table(self, unread_bits: int) -> np.ndarray:
        """``popcount(mask & unread)`` for every reader, memoised per
        unread mask — the mask is constant across a slot's many ordering
        passes, so the full-table pass amortises to a lookup."""
        key = int(unread_bits)
        memo = self._solo_memo
        table = memo.get(key)
        if table is None:
            if len(memo) >= 16:
                memo.clear()
            u = self._to_words(key)
            table = popcount_words(self._words & u).sum(axis=1, dtype=np.int64)
            table.flags.writeable = False
            memo[key] = table
        return table

    # -- weight batches ----------------------------------------------------
    def solo_weights(self, unread_bits, candidates):
        """Batched ``popcount(mask & unread)``, served from the memoised
        per-unread-mask table."""
        cands = [int(c) for c in candidates]
        if not cands:
            return np.zeros(0, dtype=np.int64)
        return self._solo_table(unread_bits)[cands]

    def oracle_weights_with(self, once, multi, unread_bits, candidates):
        """Feasible-rule ``w(X ∪ {r})`` for the whole frontier in one
        word-matrix pass."""
        cands = [int(c) for c in candidates]
        if len(cands) < BATCH_MIN:
            return super().oracle_weights_with(once, multi, unread_bits, cands)
        c = self._words[cands]
        once_w = self._to_words(once)
        # (once | c) & ~(multi | (once & c))  ==  (once ^ c) & ~multi:
        # adding c flips exactly-once coverage where c overlaps once, and
        # creates it where c is fresh — XOR — while the already-multi zone
        # never counts again.  Two passes instead of five, same bits.
        zone = self._to_words(~int(multi) & int(unread_bits))
        return popcount_words((c ^ once_w) & zone).sum(axis=1, dtype=np.int64)

    def climb_weights_with(
        self, once, multi, active, active_bits, unread_bits, candidates
    ):
        """Generalised-rule ``w(active ∪ {r})`` for the whole frontier via
        the owned-tag identity of :meth:`PureKernel.climb_weights_with`:
        two popcount passes over the candidate rows plus one correction
        per (silenced operational reader, candidate) pair — O(n·W) per
        frontier, independent of ``|active|``."""
        cands = [int(c) for c in candidates]
        if len(cands) < BATCH_MIN:
            return super().climb_weights_with(
                once, multi, active, active_bits, unread_bits, cands
            )
        once, multi, u = int(once), int(multi), int(unread_bits)
        operational = self._operational(active, int(active_bits))
        cand_idx = np.asarray(cands, dtype=np.int64)
        c = self._words[cand_idx]
        sil = self._silencer_bool
        # [r operational] · |c_r ∩ F|, F = unread tags no active reader covers
        weights = popcount_words(c & self._to_words(~(once | multi) & u)).sum(
            axis=1, dtype=np.int64
        )
        if len(active):
            act_idx = np.asarray(active, dtype=np.int64)
            weights[sil[np.ix_(cand_idx, act_idx)].any(axis=1)] = 0
        if not operational:
            return weights
        # + |W| − |c_r ∩ W|, W = disjoint union of the owned sets O_i
        op_idx = np.asarray(operational, dtype=np.int64)
        owned = self._words[op_idx] & self._to_words(once & u)
        well = np.bitwise_or.reduce(owned, axis=0)
        weights += int(popcount_words(well).sum())
        weights -= popcount_words(c & well).sum(axis=1, dtype=np.int64)
        # − |O_i \ c_r| for each operational reader i that r silences
        op_pos, cand_pos = np.nonzero(sil[np.ix_(op_idx, cand_idx)])
        if op_pos.size:
            lost = popcount_words(owned[op_pos] & ~c[cand_pos]).sum(
                axis=1, dtype=np.int64
            )
            np.subtract.at(weights, cand_pos, lost)
        return weights

    def new_coverage_counts(self, once, multi, unread_bits, candidates):
        """Batched collision-naive fresh-coverage counts."""
        cands = [int(c) for c in candidates]
        if len(cands) < BATCH_MIN:
            return super().new_coverage_counts(once, multi, unread_bits, cands)
        fresh_zone = self._to_words(~(once | multi) & int(unread_bits))
        rows = self._words[cands] & fresh_zone
        return popcount_words(rows).sum(axis=1, dtype=np.int64)

    # -- structure batches -------------------------------------------------
    # covered_counts is inherited: the historical scan is already the
    # vectorised popcount over the packed words.

    def filter_compatible(self, candidates, blocked) -> List[int]:
        """Order-preserving compatibility filter via one boolean
        conflict-submatrix ``any`` reduction."""
        cands = [int(c) for c in candidates]
        blocked = [int(b) for b in blocked]
        if not blocked or len(cands) < BATCH_MIN:
            return super().filter_compatible(cands, blocked)
        bad = self._conflict_bool[np.ix_(cands, blocked)].any(axis=1)
        return [c for c, hit in zip(cands, bad) if not hit]

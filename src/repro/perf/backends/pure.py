"""The ``pure`` backend: today's scalar big-int path behind the interface.

Each batch method is a per-candidate loop over big-int words.  All but
:meth:`PureKernel.climb_weights_with` are the historical loops, verbatim —
the same word operations :class:`~repro.model.weights.BitsetWeightOracle`
and :class:`~repro.perf.incremental.GeneralizedWeightClimber` run, just
collected into an array; the climb loop evaluates the same integers
through an exact identity that drops the per-active-reader union.  This
backend is the reference implementation of the bit-identity contract
(``docs/backends.md``): every other backend is property-tested
element-wise against it, and it against the scalar climber.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.perf.backends.base import WeightKernel
from repro.perf.cache import conflict_bits, silencer_bits
from repro.util.compat import bit_count


class PureKernel(WeightKernel):
    """Scalar big-int kernel — one candidate at a time, no vectorisation."""

    name = "pure"

    def __init__(self, system) -> None:
        packed = system.packed_coverage
        self._packed = packed
        self._masks = packed.masks
        self._conflicts = conflict_bits(system)
        self._silencers = silencer_bits(system)

    # -- weight batches ----------------------------------------------------
    def solo_weights(self, unread_bits, candidates):
        """Per-candidate ``popcount(mask & unread)`` via scalar big-int ops."""
        u = int(unread_bits)
        masks = self._masks
        return np.array(
            [bit_count(masks[int(c)] & u) for c in candidates], dtype=np.int64
        )

    def oracle_weights_with(self, once, multi, unread_bits, candidates):
        """Feasible-rule ``w(X ∪ {r})`` per candidate — the
        :meth:`~repro.model.weights.BitsetWeightOracle.weight_with` loop."""
        u = int(unread_bits)
        masks = self._masks
        out = []
        for r in candidates:
            c = masks[int(r)]
            multi_r = multi | (once & c)
            out.append(bit_count((once | c) & ~multi_r & u))
        return np.array(out, dtype=np.int64)

    def _operational(self, active, active_bits) -> List[int]:
        """The active readers no other active reader silences."""
        silencers = self._silencers
        return [int(i) for i in active if not silencers[int(i)] & active_bits]

    def climb_weights_with(
        self, once, multi, active, active_bits, unread_bits, candidates
    ):
        """Generalised-rule ``w(active ∪ {r})`` per candidate, equal to
        :meth:`~repro.perf.incremental.GeneralizedWeightClimber.weight_with`
        by an exact identity that costs O(W) per candidate, not O(|A|·W).

        Every tag in *once* has exactly one covering active reader, so the
        owned sets ``O_i = cover_i ∩ once ∩ U`` of the operational readers
        are disjoint; let ``Wl`` be their union and ``F = U \\ (once ∪
        multi)`` the unread tags no active reader covers.  Adding ``r``
        turns ``cover_r ∩ once`` into multi-coverage, makes ``cover_r ∩ F``
        exactly-once, and silences the operational readers ``K(r)`` whose
        silencer row holds bit ``r``, so::

            w(A ∪ {r}) = [r operational]·|c_r ∩ F| + |Wl| − |c_r ∩ Wl|
                         − Σ_{i ∈ K(r)} |O_i \\ c_r|

        For ``r`` already active, ``c_r ∩ F`` and ``K(r)`` are empty and the
        same sum holds.  *once*/*multi* must be the exactly-once and
        multiply-covered tags of *active*, as the climber maintains them."""
        u = int(unread_bits)
        active_bits = int(active_bits)
        masks = self._masks
        silencers = self._silencers
        free = ~(int(once) | int(multi)) & u
        once_u = int(once) & u
        well = 0
        silenced_owned = {}  # r -> O_i of each operational i that r silences
        for i in self._operational(active, active_bits):
            owned = masks[i] & once_u
            well |= owned
            row = silencers[i]
            while row:
                low = row & -row
                silenced_owned.setdefault(low.bit_length() - 1, []).append(owned)
                row ^= low
        base = bit_count(well)
        out = []
        for r in candidates:
            r = int(r)
            c = masks[r]
            w = base - bit_count(c & well)
            if not silencers[r] & active_bits:
                w += bit_count(c & free)
            for owned in silenced_owned.get(r, ()):
                w -= bit_count(owned & ~c)
            out.append(w)
        return np.array(out, dtype=np.int64)

    def new_coverage_counts(self, once, multi, unread_bits, candidates):
        """Collision-naive fresh-coverage count per candidate."""
        fresh_zone = ~(once | multi) & int(unread_bits)
        masks = self._masks
        return np.array(
            [bit_count(masks[int(r)] & fresh_zone) for r in candidates],
            dtype=np.int64,
        )

    # -- structure batches -------------------------------------------------
    def covered_counts(self, unread=None):
        """Unread-coverage popcount for every reader.

        The historical best-singleton scan already popcounts the packed
        words (:mod:`repro.perf.packed`); both backends share it
        unchanged."""
        # The historical best-singleton scan already popcounts the packed
        # words (repro.perf.packed); both backends share it unchanged.
        return self._packed.covered_counts(unread)

    def filter_compatible(self, candidates, blocked) -> List[int]:
        """Candidates whose conflict row misses every *blocked* reader,
        order preserved, via big-int conflict rows."""
        blocked_bits = 0
        for b in blocked:
            blocked_bits |= 1 << int(b)
        cands = [int(c) for c in candidates]
        if not blocked_bits:
            return cands
        conflicts = self._conflicts
        return [c for c in cands if not conflicts[c] & blocked_bits]

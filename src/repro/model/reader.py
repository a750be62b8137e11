"""Reader entity.

Each reader carries two radii (Section II): the interrogation radius ``γ``
within which it can energise and read passive tags, and the interference
radius ``R ≥ γ`` within which its carrier drowns other readers' uplinks.  The
paper parameterises ``γ = β·R`` with ``0 < β < 1``; we only require
``γ ≤ R`` so deployments with independently sampled radii (Section VI) are
representable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.util.validation import check_positive


def check_reader_radii(interference_radius: float, interrogation_radius: float) -> None:
    """Raise unless both radii are finite and positive with ``γ ≤ R``
    (up to 1e-12)."""
    check_positive("interference_radius", interference_radius)
    check_positive("interrogation_radius", interrogation_radius)
    if interrogation_radius > interference_radius + 1e-12:
        raise ValueError(
            "interrogation radius must not exceed interference radius: "
            f"γ={interrogation_radius} > R={interference_radius}"
        )


@dataclass(frozen=True)
class Reader:
    """An RFID reader with fixed position and radii."""

    id: int
    x: float
    y: float
    interference_radius: float
    interrogation_radius: float

    def __post_init__(self) -> None:
        if self.id < 0:
            raise ValueError(f"reader id must be >= 0, got {self.id}")
        check_reader_radii(self.interference_radius, self.interrogation_radius)

    @property
    def position(self) -> np.ndarray:
        """Position as a (2,) array."""
        return np.array([self.x, self.y], dtype=np.float64)

    @property
    def beta(self) -> float:
        """The ratio ``γ / R`` (paper's β)."""
        return self.interrogation_radius / self.interference_radius

    def covers(self, point) -> bool:
        """Whether *point* lies in this reader's interrogation region."""
        dx = float(point[0]) - self.x
        dy = float(point[1]) - self.y
        return dx * dx + dy * dy <= self.interrogation_radius**2

    def interferes_at(self, point) -> bool:
        """Whether *point* lies in this reader's interference region."""
        dx = float(point[0]) - self.x
        dy = float(point[1]) - self.y
        return dx * dx + dy * dy <= self.interference_radius**2

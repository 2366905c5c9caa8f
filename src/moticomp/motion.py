"""Skeleton topology, motion sequences, and the body-part column layout.

Coordinates are stored frame-major with x,y,z contiguous per joint, so a
pose row has width 3*J and column 3*j+c is coordinate c of joint j.
Units are millimeters throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import freeze
from .errors import ShapeError

UPPER = "upper"
LOWER = "lower"


@dataclass(frozen=True)
class Skeleton:
    """Kinematic tree plus a two-way body-part partition of the joints.

    parent[j] is the index of joint j's parent; the root is its own parent.
    part_of[j] is "upper" or "lower"; together the two sets cover all joints.
    """

    parent: tuple[int, ...]
    part_of: tuple[str, ...]

    def __post_init__(self):
        j = len(self.parent)
        if j < 1 or len(self.part_of) != j:
            raise ValueError("parent and part_of must be non-empty and equal length")
        roots = [i for i, p in enumerate(self.parent) if p == i]
        if roots != [0]:
            raise ValueError("skeleton must have exactly one root, at joint 0")
        for i, p in enumerate(self.parent):
            if not 0 <= p < j:
                raise ValueError(f"parent index {p} of joint {i} out of range")
            # walk to the root; a cycle would loop longer than J steps
            seen, cur = 0, i
            while cur != 0:
                cur = self.parent[cur]
                seen += 1
                if seen > j:
                    raise ValueError(f"parent links of joint {i} do not reach the root")
        for i, part in enumerate(self.part_of):
            if part not in (UPPER, LOWER):
                raise ValueError(f"joint {i} has unknown part label {part!r}")

    @property
    def joint_count(self) -> int:
        return len(self.parent)



@dataclass(frozen=True)
class MotionSequence:
    """A pose trajectory: (frames, 3*J) millimeter coordinates at a frame rate."""

    data: np.ndarray
    fps: float
    label: str = ""

    def __post_init__(self):
        data = np.asarray(self.data, dtype=np.float64)
        if data.ndim != 2 or data.shape[0] < 2:
            raise ShapeError(f"motion data must be 2-D with >= 2 frames, got {data.shape}")
        if data.shape[1] % 3 != 0 or data.shape[1] == 0:
            raise ShapeError(f"pose width {data.shape[1]} is not a positive multiple of 3")
        data = freeze(data, "motion data")
        if not 0 < self.fps < np.inf:
            raise ValueError(f"fps must be positive and finite, got {self.fps}")
        object.__setattr__(self, "data", data)

    @property
    def frames(self) -> int:
        return self.data.shape[0]

    @property
    def joint_count(self) -> int:
        return self.data.shape[1] // 3

    def with_data(self, data: np.ndarray) -> "MotionSequence":
        return MotionSequence(data=data, fps=self.fps, label=self.label)


@dataclass(frozen=True)
class PartLayout:
    """Column indices of the upper and lower body parts.

    The two index sets are disjoint, sorted, and together cover 0..3J-1.
    """

    upper_dims: tuple[int, ...]
    lower_dims: tuple[int, ...]

    def __post_init__(self):
        total = len(self.upper_dims) + len(self.lower_dims)
        merged = sorted(self.upper_dims + self.lower_dims)
        if merged != list(range(total)):
            raise ValueError("upper_dims and lower_dims must partition 0..3J-1")
        if list(self.upper_dims) != sorted(self.upper_dims):
            raise ValueError("upper_dims must be sorted")
        if list(self.lower_dims) != sorted(self.lower_dims):
            raise ValueError("lower_dims must be sorted")

    @classmethod
    def from_skeleton(cls, skeleton: Skeleton) -> "PartLayout":
        upper, lower = [], []
        for j, part in enumerate(skeleton.part_of):
            dims = (3 * j, 3 * j + 1, 3 * j + 2)
            (upper if part == UPPER else lower).extend(dims)
        return cls(upper_dims=tuple(upper), lower_dims=tuple(lower))

    @property
    def upper_size(self) -> int:
        return len(self.upper_dims)

    @property
    def lower_size(self) -> int:
        return len(self.lower_dims)

    @property
    def size(self) -> int:
        return self.upper_size + self.lower_size


import numpy as np
import pytest

from moticomp.errors import ShapeError
from moticomp.motion import LOWER, UPPER, MotionSequence, PartLayout, Skeleton


def chain_skeleton(joints: int, upper_from: int) -> Skeleton:
    """Simple chain 0-1-2-...; joints >= upper_from are labelled upper."""
    parents = tuple(max(i - 1, 0) for i in range(joints))
    parts = tuple(UPPER if i >= upper_from else LOWER for i in range(joints))
    return Skeleton(parent=parents, part_of=parts)


class TestSkeleton:
    def test_root_must_be_joint_zero(self):
        with pytest.raises(ValueError):
            Skeleton(parent=(1, 1), part_of=(LOWER, UPPER))

    def test_two_roots_rejected(self):
        with pytest.raises(ValueError):
            Skeleton(parent=(0, 1, 2), part_of=(LOWER, UPPER, UPPER))

    def test_unknown_part_label_rejected(self):
        with pytest.raises(ValueError):
            Skeleton(parent=(0, 0), part_of=(LOWER, "arms"))


class TestPartLayout:
    def test_from_skeleton(self):
        sk = chain_skeleton(2, upper_from=1)
        layout = PartLayout.from_skeleton(sk)
        assert layout.lower_dims == (0, 1, 2)
        assert layout.upper_dims == (3, 4, 5)
        assert (layout.upper_size, layout.lower_size, layout.size) == (3, 3, 6)

    def test_partition_must_be_complete(self):
        with pytest.raises(ValueError):
            PartLayout(upper_dims=(0, 1), lower_dims=(3,))

    def test_partition_completeness_exhaustive(self):
        # each coordinate index lands in exactly one part, for varied skeletons
        for joints in (2, 3, 8, 13):
            for upper_from in range(1, joints):
                layout = PartLayout.from_skeleton(chain_skeleton(joints, upper_from))
                seen = sorted(layout.upper_dims + layout.lower_dims)
                assert seen == list(range(3 * joints))
                assert not set(layout.upper_dims) & set(layout.lower_dims)


class TestMotionSequence:
    def test_rejects_single_frame(self):
        with pytest.raises(ShapeError):
            MotionSequence(data=np.zeros((1, 6)), fps=10, label="")

    def test_rejects_non_finite(self):
        data = np.zeros((3, 6))
        data[1, 2] = np.nan
        with pytest.raises(ValueError):
            MotionSequence(data=data, fps=10, label="")

    def test_data_is_read_only(self):
        seq = MotionSequence(data=np.zeros((2, 6)), fps=10, label="")
        with pytest.raises(ValueError):
            seq.data[0, 0] = 1.0

    def test_callers_array_stays_writeable(self):
        data = np.zeros((3, 6))
        seq = MotionSequence(data=data, fps=10, label="")
        assert data.flags.writeable
        data[0, 0] = 1.0
        assert seq.data[0, 0] == 0.0

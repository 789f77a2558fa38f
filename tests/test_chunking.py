"""Chunk segmentation and count-normalized overlap-add."""

import weakref

import numpy as np
import pytest
from conftest import fd_check

import casep.tensor as T
from casep.chunking import overlap_add, overlap_add_slabs, padded_length, \
    segment
from casep.tensor import ConfigError, ContractError, ShapeError, Tensor


class TestPaddedLength:
    def test_short_input_pads_to_one_chunk(self):
        assert padded_length(1, 8) == 8
        assert padded_length(8, 8) == 8

    def test_alignment_to_hop(self):
        assert padded_length(9, 8) == 12       # hop 4: next length past 9
        assert padded_length(12, 8) == 12
        assert padded_length(13, 8) == 16

    def test_small_chunk(self):
        assert padded_length(5, 2) == 5        # hop 1 never needs padding


class TestSegment:
    def test_shapes(self):
        assert segment(Tensor(np.zeros((10, 3))), 4).shape == (4, 4, 3)
        assert segment(Tensor(np.zeros((2, 10, 3))), 4).shape == (2, 4, 4, 3)

    def test_half_overlap_copies(self):
        x = np.arange(12, dtype=np.float64).reshape(6, 2)
        chunks = segment(Tensor(x), 4).data
        assert np.array_equal(chunks[0], x[0:4])
        assert np.array_equal(chunks[1], x[2:6])

    def test_padding_is_zeros(self):
        chunks = segment(Tensor(np.ones((3, 2))), 4).data
        assert chunks.shape[0] == 1
        assert np.array_equal(chunks[0, 3], [0.0, 0.0])

    def test_odd_size_rejected(self):
        with pytest.raises(ConfigError, match="^chunk size must be even and >= 2, got 5$"):
            segment(Tensor(np.zeros((6, 2))), 5)
        with pytest.raises(ConfigError, match="^chunk size must be even and >= 2, got 0$"):
            segment(Tensor(np.zeros((6, 2))), 0)

    def test_rank_checked(self):
        with pytest.raises(ShapeError):
            segment(Tensor(np.zeros(6)), 4)

    def test_linearity(self, rng):
        a = rng.standard_normal((9, 3))
        b = rng.standard_normal((9, 3))
        both = segment(Tensor(a + b), 4).data
        separate = segment(Tensor(a), 4).data + segment(Tensor(b), 4).data
        assert np.allclose(both, separate, atol=1e-12)


class TestOverlapAdd:
    def test_round_trip_exact(self, rng):
        for t_lat in (1, 3, 4, 5, 6, 7, 16, 17, 31, 100):
            for size in (2, 4, 8, 16):
                for lead in ((), (2,)):
                    x = rng.standard_normal(lead + (t_lat, 3))
                    back = overlap_add(segment(Tensor(x), size), t_lat)
                    assert np.array_equal(back.data, x), (t_lat, size, lead)

    def test_round_trip_exact_single_precision(self, rng):
        # frames seen twice hold identical copies, so (v + v) / 2 == v
        x = rng.standard_normal((25, 4)).astype(np.float32)
        back = overlap_add(segment(Tensor(x), 8), 25)
        assert np.array_equal(back.data, x)

    def test_count_normalization_hand_oracle(self):
        # hop 1, chunks cover frames {0,1} and {1,2}: counts [1,2,1]
        chunks = Tensor(np.array([[[0.0], [2.0]], [[4.0], [6.0]]]))
        out = overlap_add(chunks, 3)
        assert np.array_equal(out.data, [[0.0], [3.0], [6.0]])

    def test_constant_chunks_stay_constant(self):
        # averaging, not summing: all-ones chunks give all-ones frames
        out = overlap_add(Tensor(np.ones((2, 4, 2))), 6)
        assert np.array_equal(out.data, np.ones((6, 2)))

    def test_single_chunk_identity(self, rng):
        x = rng.standard_normal((4, 2))
        chunks = segment(Tensor(x), 4)
        assert chunks.shape[0] == 1
        assert np.array_equal(overlap_add(chunks, 4).data, x)

    def test_length_beyond_span_rejected(self):
        with pytest.raises(ContractError):
            overlap_add(Tensor(np.zeros((2, 4, 1))), 10)


class TestOverlapAddSlabs:
    """``overlap_add_slabs`` equals ``overlap_add(fn(x))`` bit for bit."""

    @staticmethod
    def widen(w):
        # a per-chunk map that changes the channel count, like the mask head
        return lambda c: T.relu(T.matmul(c, Tensor(w)))

    def test_equals_one_pass_for_every_step(self, rng):
        w = rng.standard_normal((3, 5)).astype(np.float32)
        for t_lat in (1, 5, 16, 17, 31):
            for lead in ((), (2,)):
                x = segment(Tensor(rng.standard_normal(lead + (t_lat, 3))
                                   .astype(np.float32)), 8)
                want = overlap_add(self.widen(w)(x), t_lat).data
                with T.no_grad():
                    for step in range(1, x.shape[-3] + 1):
                        got = overlap_add_slabs(x, t_lat, self.widen(w), step)
                        assert np.array_equal(got.data, want), (t_lat, lead, step)

    def test_one_slab_alive_at_a_time(self, rng):
        x = segment(Tensor(rng.standard_normal((40, 3))), 4)   # 19 chunks
        sizes, outputs = [], []

        def fn(c):
            # no earlier slab's output is alive when the next one is made
            assert all(ref() is None for ref in outputs)
            sizes.append(c.shape[0])
            out = T.mul(c, 2.0)
            outputs.append(weakref.ref(out.data))
            return out

        with T.no_grad():
            overlap_add_slabs(x, 40, fn, 5)
        assert sizes == [5, 5, 5, 4]

    def test_recording_a_graph_takes_one_pass(self, rng):
        x = Tensor(rng.standard_normal((5, 4, 2)), requires_grad=True)
        calls = []
        out = overlap_add_slabs(x, 10, lambda c: calls.append(c.shape) or c, 1)
        assert calls == [(5, 4, 2)] and out.requires_grad

    def test_length_beyond_span_rejected(self):
        with T.no_grad(), pytest.raises(ContractError):
            overlap_add_slabs(Tensor(np.zeros((2, 4, 1))), 10, lambda c: c, 1)


class TestGradients:
    def test_segment_gradients(self, rng):
        fd_check(lambda x: segment(x, 4), [rng.standard_normal((7, 2))])

    def test_overlap_add_gradients(self, rng):
        fd_check(lambda x: overlap_add(x, 5), [rng.standard_normal((3, 4, 2))])

    def test_composite_gradients(self, rng):
        # weight the chunked view so both backward passes do real work
        w = rng.standard_normal((4, 4, 3))

        def op(x):
            return overlap_add(T.mul(segment(x, 4), Tensor(w)), 10)

        fd_check(op, [rng.standard_normal((10, 3))])

    def test_padded_frames_get_no_gradient(self):
        x = Tensor(np.ones((3, 2)), requires_grad=True)
        T.tsum(segment(x, 4)).backward()
        assert np.array_equal(x.grad, np.ones((3, 2)))

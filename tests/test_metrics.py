"""Separation objectives: scale-invariant SNR, assignment search, improvements."""

from itertools import permutations

import numpy as np
import pytest

from casep.metrics import improvements, sdr, si_snr, upit_loss
from casep.tensor import ContractError, Tensor, no_grad


def reference_si_snr(est, target, eps=1e-8):
    """Independent plain-numpy evaluation of the training objective."""
    est = np.asarray(est, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    est = est - est.mean()
    target = target - target.mean()
    scale = np.dot(est, target) / (np.dot(target, target) + eps)
    projected = scale * target
    residual = est - projected
    num = np.dot(projected, projected) + eps
    den = np.dot(residual, residual) + eps
    return 10.0 * np.log10(num / den)


def reference_best_assignment(ests, targets, eps=1e-8):
    """Brute force over every permutation, computed outside the package."""
    k = len(ests)
    best = None
    for perm in permutations(range(k)):
        mean = sum(reference_si_snr(ests[i], targets[perm[i]], eps)
                   for i in range(k)) / k
        if best is None or mean > best[1]:
            best = (perm, mean)
    return best


class TestSiSnr:
    def test_zero_db_hand_case(self):
        # zero-mean signals: the projection of [1,-1,1,-1] onto [1,-1,0,0] is
        # [1,-1,0,0]; residual [0,0,1,-1]: equal powers
        value = si_snr([1.0, -1.0, 1.0, -1.0], [1.0, -1.0, 0.0, 0.0])
        assert value.item() == pytest.approx(0.0, abs=1e-7)

    def test_scale_invariance(self, rng):
        # a correlated estimate keeps projected power well above eps, where
        # the metric is genuinely gain-blind
        target = rng.standard_normal(500)
        est = target + 0.3 * rng.standard_normal(500)
        base = si_snr(est, target).item()
        for alpha in (2.0, 0.5, 137.0):
            assert si_snr(alpha * est, target).item() == pytest.approx(
                base, abs=1e-6)
        # heavy downscaling pushes the residual power toward eps; deviation
        # grows but stays far below anything a report would show
        assert si_snr(0.01 * est, target).item() == pytest.approx(base,
                                                                  abs=1e-4)

    def test_near_orthogonal_pairs_feel_the_eps_floor(self, rng):
        # uncorrelated signals leave almost no projected power, so the
        # stabilizing eps shows up once the estimate is scaled far down
        est = rng.standard_normal(500)
        target = rng.standard_normal(500)
        base = si_snr(est, target).item()
        shrunk = si_snr(0.01 * est, target).item()
        assert shrunk == pytest.approx(base, abs=0.1)
        assert shrunk != pytest.approx(base, abs=1e-8)

    def test_perfect_estimate_ceiling(self, rng):
        x = rng.standard_normal(1000)
        x /= np.linalg.norm(x)
        assert si_snr(x, x).item() >= 60.0

    def test_matches_independent_evaluation(self, rng):
        for _ in range(20):
            est = rng.standard_normal(256)
            target = rng.standard_normal(256)
            ours = si_snr(est, target).item()
            theirs = reference_si_snr(est, target)
            assert ours == pytest.approx(theirs, abs=1e-9)

    def test_self_estimate_is_optimal(self, rng):
        target = rng.standard_normal(300)
        ceiling = si_snr(target, target).item()
        for _ in range(10):
            est = rng.standard_normal(300)
            assert si_snr(est, target).item() <= ceiling + 1e-3

    def test_length_mismatch(self):
        with pytest.raises(ContractError):
            si_snr(np.zeros(5), np.zeros(6))

    def test_rows_equal_1d_calls(self, rng):
        # the last axis is time; leading axes broadcast, here (3, 1) x (2,)
        est = rng.standard_normal((3, 1, 64))
        target = rng.standard_normal((2, 64))
        for metric in (si_snr, sdr):
            rows = metric(est, target).data
            assert rows.shape == (3, 2)
            for i in range(3):
                for j in range(2):
                    assert rows[i, j] == pytest.approx(
                        metric(est[i, 0], target[j]).item(), abs=1e-12)

    def test_differentiable(self, rng):
        est = Tensor(rng.standard_normal(64), requires_grad=True)
        target = Tensor(rng.standard_normal(64))
        si_snr(est, target).backward()
        assert est.grad is not None and np.all(np.isfinite(est.grad))


class TestUpit:
    def test_identity_assignment(self, rng):
        targets = [rng.standard_normal(200) for _ in range(2)]
        result = upit_loss(list(targets), targets)
        assert result.permutation.dtype.kind == "i"
        assert result.permutation.tolist() == [0, 1]

    def test_swapped_assignment_same_loss(self, rng):
        targets = [rng.standard_normal(200) for _ in range(2)]
        straight = upit_loss(list(targets), targets)
        crossed = upit_loss([targets[1], targets[0]], targets)
        assert crossed.permutation.tolist() == [1, 0]
        assert crossed.loss.item() == pytest.approx(straight.loss.item(),
                                                    abs=1e-9)

    @pytest.mark.parametrize("k", [2, 3])
    def test_matches_brute_force(self, rng, k):
        for trial in range(50):
            ests = [rng.standard_normal(128) for _ in range(k)]
            targets = [0.5 * e + 0.5 * rng.standard_normal(128)
                       for e in rng.permutation(np.array(ests))]
            result = upit_loss(ests, targets)
            perm, mean = reference_best_assignment(ests, targets)
            assert tuple(result.permutation) == perm, trial
            assert -result.loss.item() == pytest.approx(mean, abs=1e-9)

    def test_loss_equals_negated_assigned_mean(self, rng):
        ests = [rng.standard_normal(100) for _ in range(3)]
        targets = [rng.standard_normal(100) for _ in range(3)]
        result = upit_loss(ests, targets)
        assigned = [result.per_pair[i][j]
                    for i, j in enumerate(result.permutation)]
        assert result.loss.item() == pytest.approx(-np.mean(assigned), abs=1e-6)

    def test_optimal_over_fixed_assignments(self, rng):
        ests = [rng.standard_normal(100) for _ in range(3)]
        targets = [rng.standard_normal(100) for _ in range(3)]
        result = upit_loss(ests, targets)
        for perm in permutations(range(3)):
            fixed = -np.mean([result.per_pair[i][perm[i]] for i in range(3)])
            assert result.loss.item() <= fixed + 1e-9

    def test_target_permutation_symmetry(self, rng):
        ests = [rng.standard_normal(100) for _ in range(3)]
        targets = [rng.standard_normal(100) for _ in range(3)]
        base = upit_loss(ests, targets)
        shuffled = upit_loss(ests, [targets[2], targets[0], targets[1]])
        assert shuffled.loss.item() == pytest.approx(base.loss.item(), abs=1e-9)

    def test_batch_is_mean_of_examples(self, rng):
        ests = [rng.standard_normal((4, 100)) for _ in range(3)]
        targets = [rng.standard_normal((4, 100)) for _ in range(3)]
        # example 1 prefers a different assignment from its neighbours
        targets[0][1] = ests[2][1] + 0.1 * rng.standard_normal(100)
        batched = upit_loss(ests, targets)
        singles = [upit_loss([e[b] for e in ests], [t[b] for t in targets])
                   for b in range(4)]
        assert batched.permutation.shape == (4, 3)
        assert np.array_equal(batched.permutation,
                              [s.permutation for s in singles])
        assert batched.loss.item() == pytest.approx(
            np.mean([s.loss.item() for s in singles]), abs=1e-12)
        assert np.array_equal(batched.per_pair[2], singles[2].per_pair)

    def test_count_mismatch(self, rng):
        with pytest.raises(ContractError):
            upit_loss([rng.standard_normal(10)],
                      [rng.standard_normal(10), rng.standard_normal(10)])

    def test_speaker_cap(self, rng):
        five = [rng.standard_normal(10) for _ in range(5)]
        with pytest.raises(ContractError):
            upit_loss(five, five)

    def test_loss_backpropagates_through_chosen_pairs(self, rng):
        ests = [Tensor(rng.standard_normal(64), requires_grad=True)
                for _ in range(2)]
        targets = [rng.standard_normal(64) for _ in range(2)]
        upit_loss(ests, targets).loss.backward()
        for e in ests:
            assert e.grad is not None and np.any(e.grad != 0.0)


class TestImprovements:
    def test_mixture_as_estimate_gives_zero(self, rng):
        targets = [rng.standard_normal(400) for _ in range(2)]
        mixture = targets[0] + targets[1]
        snri, sdri = improvements([mixture, mixture], targets, mixture)
        assert snri == pytest.approx(0.0, abs=1e-6)
        assert sdri == pytest.approx(0.0, abs=1e-6)

    def test_perfect_estimates_improve(self, rng):
        targets = [rng.standard_normal(400) for _ in range(2)]
        mixture = targets[0] + targets[1]
        snri, sdri = improvements(list(targets), targets, mixture)
        assert snri > 0.0 and sdri > 0.0

    def test_perfect_estimates_match_direct_evaluation(self, rng):
        # improvement must equal ceiling minus the mixture baseline, per pair
        targets = [rng.standard_normal(400) for _ in range(2)]
        mixture = targets[0] + targets[1]
        expected = np.mean([
            si_snr(t, t).item() - si_snr(mixture, t).item() for t in targets
        ])
        assert improvements(list(targets), targets, mixture)[0] == pytest.approx(
            expected, abs=1e-9)


class TestSdr:
    def test_estimate_gain_matters(self, rng):
        # unlike si_snr: the numerator is raw target power
        target = rng.standard_normal(200)
        est = target + 0.01 * rng.standard_normal(200)
        assert abs(sdr(2 * est, target).item()
                   - sdr(est, target).item()) > 1e-6

    def test_identity_is_large(self, rng):
        x = rng.standard_normal(200)
        assert sdr(x, x).item() > 60.0

    def test_formula(self, rng):
        est = rng.standard_normal(128)
        target = rng.standard_normal(128)
        est0 = est - est.mean()
        t0 = target - target.mean()
        scale = np.dot(est0, t0) / (np.dot(t0, t0) + 1e-8)
        residual = est0 - scale * t0
        expected = 10 * np.log10((np.dot(t0, t0) + 1e-8)
                                 / (np.dot(residual, residual) + 1e-8))
        assert sdr(est, target).item() == pytest.approx(expected, abs=1e-9)

"""Acceptance gate: the eleven published-behavior criteria, one line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the status lines.
Each test prints its verdict before asserting, so a red run still shows
the full scoreboard.
"""

from dataclasses import replace
from itertools import permutations

import numpy as np
import pytest
from conftest import smoke_entries, tiny_model_config, two_sine_spec

from casep.analyzer import (
    REFERENCE_BUDGETS,
    count_table,
    layer_param_counts,
    model_param_report,
    parallel_block_params,
    serial_block_params,
    split_weight_params,
)
from casep.chunking import overlap_add, segment
from casep.checkpoint import load_checkpoint, model_state, save_checkpoint
from casep.codec import EncoderConfig, Waveform
from casep.config import ModelConfig, PathConfig, model_config_to_flat
from casep.metrics import si_snr, upit_loss
from casep.model import Separator
from casep.synth import gen_mixture
from casep.tensor import Tensor, no_grad
from casep.training import dump_attention_run, grad_check_run, train_run
from casep.wavio import write_wav


def verdict(number: int, ok: bool, detail: str) -> None:
    mark = "PASS" if ok else "FAIL"
    print(f"criterion {number:2d} [{mark}] {detail}")


class TestCriterion1:
    def test_block_formula_table(self):
        table = count_table(256, 51)
        expected = {"mha": 262_144, "sepconv": 78_592,
                    "serial": 340_736, "parallel": 88_448}
        exact = table == expected
        monotone = all(
            parallel_block_params(d, k) < serial_block_params(d, k)
            for d in (2, 4, 8, 16, 32, 64, 128, 256, 512)
            for k in (1, 3, 11, 51)
        )
        ok = exact and monotone
        verdict(1, ok, f"block formulas exact at 256/51 ({table}), "
                       f"parallel < serial on the full grid")
        assert exact, table
        assert monotone


class TestCriterion2:
    def test_published_model_budgets(self):
        worst = 0.0
        mismatch = None
        for budget in REFERENCE_BUDGETS:
            model = Separator.build(budget.config, seed=0)
            report = model_param_report(budget.config, model)
            rel = abs(report.total_analytic - budget.expected_total) \
                / budget.expected_total
            worst = max(worst, rel)
            if report.total_empirical != report.total_analytic:
                mismatch = budget.label
            del model
        ok = worst <= 0.05 and mismatch is None
        verdict(2, ok, f"nine full-scale budgets within 5% "
                       f"(worst {worst * 100:.2f}%), analytic == enumerated")
        assert worst <= 0.05
        assert mismatch is None, mismatch


class TestCriterion3:
    def test_sharing_ratio_exact(self):
        ok = True
        for reps in (2, 4, 8):
            full_cfg = replace(tiny_model_config(shared=False), n_intra=reps,
                               n_inter=reps)
            tied_cfg = replace(tiny_model_config(shared=True), n_intra=reps,
                               n_inter=reps)
            analytic_ok = (model_param_report(full_cfg).mask_net
                           == reps * model_param_report(tied_cfg).mask_net)
            full = Separator.build(full_cfg, 0).blocks[0]
            tied = Separator.build(tied_cfg, 0).blocks[0]
            empirical_ok = (sum(p.size for p in full.parameters())
                            == reps * sum(p.size for p in tied.parameters()))
            ok = ok and analytic_ok and empirical_ok
        verdict(3, ok, "tied layer sets hold exactly 1/reps of the untied "
                       "parameters (reps 2, 4, 8; analytic and enumerated)")
        assert ok


class TestCriterion4:
    def test_gradient_fidelity_tiny_config(self):
        results = {}
        for shared in (False, True):
            cfg = tiny_model_config(shared=shared, precision="double")
            res = grad_check_run(cfg, two_sine_spec(length=256), seed=0,
                                 min_coords=200)
            results[shared] = res
        ok = all(r.passed() and r.coords_checked >= 200
                 for r in results.values())
        detail = ", ".join(
            f"{'tied' if s else 'untied'} {r.max_rel_err:.2e} "
            f"({r.coords_checked} coords / {r.groups_covered} tensors)"
            for s, r in results.items()
        )
        verdict(4, ok, f"finite-difference audit < 1e-5: {detail}")
        for r in results.values():
            assert r.passed(), r.max_rel_err
            assert r.coords_checked >= 200


class TestCriterion5:
    def test_chunk_round_trip_matrix(self):
        rng = np.random.default_rng(0)
        failures = []
        for t_lat in (1, 4, 5, 6, 17, 250):
            for size in (2, 4, 8, 250):
                x = rng.standard_normal((t_lat, 3))
                back = overlap_add(segment(Tensor(x), size), t_lat).data
                if not np.array_equal(back, x):
                    failures.append((t_lat, size))
        ok = not failures
        verdict(5, ok, "overlap-add inverts segmentation exactly on the "
                       "6 x 4 length/chunk grid")
        assert ok, failures


class TestCriterion6:
    @staticmethod
    def _reference_si_snr(est, target, eps=1e-8):
        est = est - est.mean()
        target = target - target.mean()
        scale = np.dot(est, target) / (np.dot(target, target) + eps)
        proj = scale * target
        res = est - proj
        return 10.0 * np.log10((np.dot(proj, proj) + eps)
                               / (np.dot(res, res) + eps))

    def test_assignment_search_matches_brute_force(self):
        rng = np.random.default_rng(1)
        worst_gap = 0.0
        wrong = 0
        for k in (2, 3):
            for _ in range(50):
                ests = [rng.standard_normal(128) for _ in range(k)]
                targets = [0.6 * ests[j] + 0.4 * rng.standard_normal(128)
                           for j in rng.permutation(k)]
                pit = upit_loss(ests, targets)
                best = max(
                    permutations(range(k)),
                    key=lambda perm: np.mean([
                        self._reference_si_snr(ests[i], targets[perm[i]])
                        for i in range(k)
                    ]),
                )
                mean = np.mean([self._reference_si_snr(ests[i], targets[best[i]])
                                for i in range(k)])
                if tuple(pit.permutation) != best:
                    wrong += 1
                worst_gap = max(worst_gap, abs(-pit.loss.item() - mean))
        ok = wrong == 0 and worst_gap < 1e-9
        verdict(6, ok, f"assignment search == brute force on 100 instances "
                       f"(K=2,3); worst loss gap {worst_gap:.1e}")
        assert wrong == 0
        assert worst_gap < 1e-9


class TestCriterion7:
    def test_objective_properties(self):
        rng = np.random.default_rng(2)
        target = rng.standard_normal(500)
        est = target + 0.3 * rng.standard_normal(500)
        base = si_snr(est, target).item()
        scale_dev = max(abs(si_snr(a * est, target).item() - base)
                        for a in (2.0, 0.5, 137.0))
        hand = si_snr([1.0, -1.0, 1.0, -1.0], [1.0, -1.0, 0.0, 0.0]).item()
        unit = rng.standard_normal(800)
        unit /= np.linalg.norm(unit)
        ceiling = si_snr(unit, unit).item()
        ok = scale_dev < 1e-6 and abs(hand) < 1e-7 and ceiling >= 60.0
        verdict(7, ok, f"scale drift {scale_dev:.1e} dB, orthogonal-residual "
                       f"case {hand:+.1e} dB, self-estimate {ceiling:.0f} dB")
        assert scale_dev < 1e-6
        assert hand == pytest.approx(0.0, abs=1e-7)
        assert ceiling >= 60.0


class TestCriterion8:
    def test_desk_scale_learning(self, tmp_path):
        result = train_run(smoke_entries(tmp_path, steps=500))
        window = 100
        means = [float(np.mean(result.losses[i:i + window]))
                 for i in range(0, 500, window)]
        decreasing = all(b < a for a, b in zip(means, means[1:]))
        ok = result.train_si_snri > 10.0 and decreasing
        verdict(8, ok, f"500-step run reaches {result.train_si_snri:+.2f} dB "
                       f"SI-SNRi (bar +10); 100-step loss means decrease "
                       f"({', '.join(f'{m:+.2f}' for m in means)})")
        assert result.train_si_snri > 10.0
        assert decreasing, means


class TestCriterion9:
    @staticmethod
    def _config(attn: int, conv: int) -> ModelConfig:
        return ModelConfig(
            encoder=EncoderConfig(filters=256, kernel=16, stride=8),
            chunk_size=8,
            speakers=2,
            n_blocks=1,
            n_intra=1,
            n_inter=1,
            shared=False,
            intra=PathConfig(256, attn, conv, heads=8, kernel=51, ffn_dim=256),
            inter=PathConfig(256, attn, conv, heads=8, kernel=11, ffn_dim=256),
            precision="double",
        )

    def test_channel_division_mechanics(self):
        splits = ((192, 64), (128, 128), (64, 192))
        grad_errs = {}
        counts_ok = True
        for conv, attn in splits:
            cfg = self._config(attn, conv)
            model = Separator.build(cfg, 0)
            x = Tensor(np.random.default_rng(3).standard_normal(256))
            with no_grad():
                ests = model.forward(x)
            assert np.all(np.isfinite(ests.data))
            counts = layer_param_counts(cfg.intra)
            expected_weights = split_weight_params(attn, conv, 51)
            counts_ok = counts_ok and (
                counts["attention_weights"] + counts["conv_weights"]
                == expected_weights
            )
            res = grad_check_run(cfg, two_sine_spec(length=256), seed=0,
                                 min_coords=40)
            grad_errs[(conv, attn)] = res.max_rel_err
        ok = counts_ok and all(e < 1e-5 for e in grad_errs.values())
        detail = ", ".join(f"{c}/{a}: {e:.1e}"
                           for (c, a), e in grad_errs.items())
        verdict(9, ok, f"splits at width 256 build, run, and audit clean "
                       f"(conv/attn grad err {detail}); counts follow the "
                       f"general-split formula")
        assert counts_ok
        for err in grad_errs.values():
            assert err < 1e-5


class TestCriterion10:
    def test_determinism_and_persistence(self, tmp_path):
        double = {"model.precision": "double"}
        a = train_run(smoke_entries(tmp_path / "a", steps=10, extra=double))
        b = train_run(smoke_entries(tmp_path / "b", steps=10, extra=double))
        curves_equal = a.losses == b.losses

        cfg = tiny_model_config()
        model = Separator.build(cfg, 7)
        ck = tmp_path / "rt.tsep"
        save_checkpoint(ck, cfg, model_state(model))
        _, _, loaded = load_checkpoint(ck)
        round_trip = all(np.array_equal(loaded[k], v)
                         for k, v in model_state(model).items())

        half = train_run(smoke_entries(tmp_path / "c", steps=5, extra=double))
        resumed = train_run(smoke_entries(tmp_path / "c", steps=10,
                                          extra=double),
                            resume=str(half.checkpoint_path))
        _, _, full_t = load_checkpoint(a.checkpoint_path)
        _, _, cont_t = load_checkpoint(resumed.checkpoint_path)
        resume_dev = max(
            float(np.max(np.abs(full_t[k] - cont_t[k])))
            for k in full_t
        )
        ok = curves_equal and round_trip and resume_dev <= 1e-6
        verdict(10, ok, f"seeded curves identical, checkpoint bit-exact, "
                        f"resume deviates {resume_dev:.1e} (bar 1e-6)")
        assert curves_equal
        assert round_trip
        assert resume_dev <= 1e-6


class TestCriterion11:
    def test_attention_dump_shapes_and_rows(self, tmp_path):
        entries = smoke_entries(tmp_path, steps=0)
        ckpt = train_run(entries).checkpoint_path
        cfg, _, _ = load_checkpoint(ckpt)
        mix, _ = gen_mixture(two_sine_spec(length=512), 0)
        wav_path = tmp_path / "mix.wav"
        write_wav(wav_path, Waveform(0.2 * mix.samples, 8000))

        t_lat = cfg.encoder.latent_frames(512)
        from casep.chunking import padded_length

        hop = cfg.chunk_size // 2
        n_chunks = (padded_length(t_lat, cfg.chunk_size)
                    - cfg.chunk_size) // hop + 1
        shapes = {}
        row_dev = 0.0
        for net, expect in (("intra", cfg.chunk_size), ("inter", n_chunks)):
            for head in range(cfg.intra.heads):
                path = dump_attention_run(str(ckpt), str(wav_path),
                                          f"0:{net}:0:{head}",
                                          str(tmp_path / "maps"))
                grid = np.loadtxt(path)
                shapes[(net, head)] = grid.shape
                row_dev = max(row_dev,
                              float(np.max(np.abs(grid.sum(axis=1) - 1.0))))
        intra_ok = all(shapes[("intra", h)] == (cfg.chunk_size, cfg.chunk_size)
                       for h in range(cfg.intra.heads))
        inter_ok = all(shapes[("inter", h)] == (n_chunks, n_chunks)
                       for h in range(cfg.inter.heads))
        ok = intra_ok and inter_ok and row_dev < 1e-5
        verdict(11, ok, f"maps are {cfg.chunk_size}x{cfg.chunk_size} within "
                        f"chunks and {n_chunks}x{n_chunks} across; worst row "
                        f"sum off by {row_dev:.1e}")
        assert intra_ok and inter_ok
        assert row_dev < 1e-5

"""Closed-form parameter accounting against enumeration and published budgets."""

from dataclasses import replace

import numpy as np
import pytest
from conftest import tiny_model_config

from casep.analyzer import (
    REFERENCE_BUDGETS,
    attention_weight_params,
    count_table,
    format_param_report,
    layer_param_counts,
    model_param_report,
    parallel_block_params,
    param_report_kv,
    sepconv_weight_params,
    serial_block_params,
    split_weight_params,
)
from casep.config import PathConfig
from casep.model import Separator
from casep.tensor import ConfigError


class TestClosedForms:
    def test_mid_width_reference_point(self):
        table = count_table(256, 51)
        assert table == {
            "mha": 262_144,
            "sepconv": 78_592,
            "serial": 340_736,
            "parallel": 88_448,
        }

    def test_tiny_width_hand_case(self):
        assert attention_weight_params(2) == 16
        assert sepconv_weight_params(1, 2) == 6
        assert parallel_block_params(2, 1) < serial_block_params(2, 1)

    def test_parallel_below_serial_everywhere(self):
        for width in (2, 4, 8, 16, 32, 64, 128, 256, 512):
            for kernel in (1, 3, 11, 51):
                assert (parallel_block_params(width, kernel)
                        < serial_block_params(width, kernel)), (width, kernel)

    def test_half_split_matches_parallel_closed_form(self):
        for width in (4, 8, 64, 256):
            for kernel in (2, 4, 12, 52):
                half = width // 2
                assert split_weight_params(half, half, kernel) == \
                    parallel_block_params(width, kernel)

    def test_parallel_divisibility_guard(self):
        with pytest.raises(ConfigError):
            parallel_block_params(3, 3)

    def test_general_split_endpoints(self):
        # all-attention and all-conv splits collapse to the single-path forms
        assert split_weight_params(8, 0, 5) == attention_weight_params(8)
        assert split_weight_params(0, 8, 5) == sepconv_weight_params(5, 8)


class TestLayerCounts:
    def test_reference_layer_components(self):
        cfg = PathConfig(256, 128, 128, heads=8, kernel=51, ffn_dim=1024)
        counts = layer_param_counts(cfg)
        assert counts["attention_weights"] == 65_536
        assert counts["conv_weights"] == 22_912

    def test_total_is_component_sum(self):
        cfg = PathConfig(16, 8, 8, heads=2, kernel=5, ffn_dim=64)
        counts = layer_param_counts(cfg)
        parts = sum(v for k, v in counts.items() if k != "total")
        assert counts["total"] == parts

    def test_degenerate_paths_drop_their_groups(self):
        pure_attn = layer_param_counts(
            PathConfig(16, 16, 0, heads=2, kernel=5, ffn_dim=64))
        assert pure_attn["conv_weights"] == 0
        assert pure_attn["conv_bias"] == 0
        pure_conv = layer_param_counts(
            PathConfig(16, 0, 16, heads=1, kernel=5, ffn_dim=64))
        assert pure_conv["attention_weights"] == 0

    def test_matches_instantiated_layer(self):
        from casep.blocks import HybridLayer

        cfg = PathConfig(16, 8, 8, heads=2, kernel=5, ffn_dim=64)
        layer = HybridLayer(cfg, np.random.default_rng(0))
        assert layer.param_count() == layer_param_counts(cfg)["total"]


class TestModelReport:
    def test_analytic_equals_enumerated_tiny(self):
        cfg = tiny_model_config()
        model = Separator.build(cfg, seed=0)
        report = model_param_report(cfg, model)
        assert report.total_empirical == report.total_analytic

    def test_analytic_equals_enumerated_shared(self):
        cfg = replace(tiny_model_config(shared=True), n_intra=3, n_inter=3)
        model = Separator.build(cfg, seed=0)
        report = model_param_report(cfg, model)
        assert report.total_empirical == report.total_analytic

    def test_sharing_ratio_exact(self):
        # the repeated layer sets shrink by exactly the repetition factor
        for reps in (2, 4, 8):
            cfg_full = replace(tiny_model_config(shared=False), n_intra=reps,
                               n_inter=reps)
            cfg_tied = replace(tiny_model_config(shared=True), n_intra=reps,
                               n_inter=reps)
            full = model_param_report(cfg_full)
            tied = model_param_report(cfg_tied)
            assert full.mask_net_layers == reps * tied.mask_net_layers

    def test_report_text_carries_verdict(self):
        cfg = tiny_model_config()
        model = Separator.build(cfg, seed=0)
        text = format_param_report(model_param_report(cfg, model))
        assert "== analytic" in text
        assert f"{model.param_count():,}" in text

    def test_report_kv_round_trip_keys(self):
        cfg = tiny_model_config()
        kv = param_report_kv(model_param_report(cfg))
        assert kv["params.total_analytic"] == str(
            model_param_report(cfg).total_analytic)
        assert "params.total_empirical" not in kv


class TestReferenceBudgets:
    def test_nine_published_rows_within_tolerance(self):
        assert len(REFERENCE_BUDGETS) == 9
        for budget in REFERENCE_BUDGETS:
            total = model_param_report(budget.config).total_analytic
            rel = abs(total - budget.expected_total) / budget.expected_total
            assert rel <= 0.05, (budget.label, total)

    def test_split_halves_roughly_match_attention_only_ratio(self):
        # the split-path stack must come in well under the attention-only one
        attn = model_param_report(REFERENCE_BUDGETS[1].config).total_analytic
        split = model_param_report(REFERENCE_BUDGETS[4].config).total_analytic
        assert split < attn

    def test_shared_budget_much_smaller(self):
        unshared = model_param_report(REFERENCE_BUDGETS[3].config).total_analytic
        shared = model_param_report(REFERENCE_BUDGETS[6].config).total_analytic
        assert shared < unshared / 3

    def test_largest_budget_matches_instantiation(self):
        # one full-scale build: enumeration must equal the closed form
        budget = REFERENCE_BUDGETS[6]     # smallest full-scale model (2.9M)
        model = Separator.build(budget.config, seed=0)
        report = model_param_report(budget.config, model)
        assert report.total_empirical == report.total_analytic

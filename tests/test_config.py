"""Flat key/value config format and the dataclass validators behind it."""

import numpy as np
import pytest
from conftest import SMOKE_CONFIG_TEXT, tiny_model_config

from casep.config import (
    EvalSettings,
    PathConfig,
    SyntheticSpec,
    TrainSettings,
    config_hash,
    default_model_config,
    eval_settings_from_flat,
    model_config_from_flat,
    model_config_to_flat,
    parse_flat,
    serialize_flat,
    synthetic_spec_from_flat,
    train_settings_from_flat,
)
from casep.tensor import ConfigError


class TestParseFlat:
    def test_basic_entries(self):
        entries = parse_flat("a.b = 1\nc.d = hello\n")
        assert entries == {"a.b": "1", "c.d": "hello"}

    def test_comments_and_blanks(self):
        entries = parse_flat("# header\n\na.b = 1  # trailing\n   \n")
        assert entries == {"a.b": "1"}

    def test_missing_equals_names_line(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_flat("a.b = 1\nbogus line\n")

    def test_undotted_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_flat("plainkey = 1\n")

    def test_values_may_contain_equals(self):
        entries = parse_flat("a.b = x = y\n")
        assert entries["a.b"] == "x = y"


class TestSerializeAndHash:
    def test_round_trip(self):
        entries = {"b.x": "2", "a.y": "1"}
        assert parse_flat(serialize_flat(entries)) == entries

    def test_serialization_is_sorted(self):
        text = serialize_flat({"b.x": "2", "a.y": "1"})
        assert text.index("a.y") < text.index("b.x")

    def test_hash_ignores_insertion_order(self):
        assert config_hash({"a.x": "1", "b.y": "2"}) == config_hash(
            {"b.y": "2", "a.x": "1"})

    def test_hash_sees_value_changes(self):
        assert config_hash({"a.x": "1"}) != config_hash({"a.x": "2"})


class TestModelConfigFlat:
    def test_round_trip(self):
        cfg = tiny_model_config(shared=True, precision="double")
        rebuilt = model_config_from_flat(model_config_to_flat(cfg))
        assert model_config_to_flat(rebuilt) == model_config_to_flat(cfg)

    def test_smoke_text_parses(self):
        cfg = model_config_from_flat(parse_flat(SMOKE_CONFIG_TEXT))
        assert cfg.width == 16
        assert cfg.encoder.stride == 2
        assert cfg.intra.kernel == 5 and cfg.inter.kernel == 3

    def test_missing_required_key(self):
        entries = parse_flat(SMOKE_CONFIG_TEXT)
        del entries["encoder.filters"]
        with pytest.raises(ConfigError, match="encoder.filters"):
            model_config_from_flat(entries)

    def test_bad_int_names_key(self):
        entries = parse_flat(SMOKE_CONFIG_TEXT)
        entries["model.blocks"] = "two"
        with pytest.raises(ConfigError, match="model.blocks"):
            model_config_from_flat(entries)

    def test_default_config_text(self):
        assert serialize_flat(model_config_to_flat(default_model_config())) == (
            "encoder.filters = 256\n"
            "encoder.kernel = 16\n"
            "encoder.stride = 8\n"
            "inter.attn_channels = 128\n"
            "inter.conv_channels = 128\n"
            "inter.ffn_dim = 1024\n"
            "inter.heads = 8\n"
            "inter.kernel = 11\n"
            "intra.attn_channels = 128\n"
            "intra.conv_channels = 128\n"
            "intra.ffn_dim = 1024\n"
            "intra.heads = 8\n"
            "intra.kernel = 51\n"
            "model.blocks = 2\n"
            "model.chunk_size = 250\n"
            "model.inter_reps = 4\n"
            "model.intra_reps = 4\n"
            "model.precision = single\n"
            "model.sample_rate = 8000\n"
            "model.shared = false\n"
            "model.speakers = 2\n"
        )

    def test_optional_keys_take_dataclass_defaults(self):
        entries = parse_flat(SMOKE_CONFIG_TEXT)
        for key in ("model.shared", "model.sample_rate", "model.precision",
                    "intra.heads", "intra.kernel"):
            del entries[key]
        cfg = model_config_from_flat(entries)
        assert (cfg.shared, cfg.sample_rate, cfg.precision) == (False, 8000, "single")
        assert (cfg.intra.heads, cfg.intra.kernel) == (1, 1)

    def test_layer_width_follows_encoder(self):
        entries = parse_flat(SMOKE_CONFIG_TEXT)
        entries["intra.attn_channels"] = "9"   # 9 + 8 != 16
        with pytest.raises(ConfigError):
            model_config_from_flat(entries)


class TestOtherSections:
    def test_synthetic_spec(self):
        entries = parse_flat(SMOKE_CONFIG_TEXT)
        spec = synthetic_spec_from_flat(entries, n_sources=2, sample_rate=8000)
        assert spec.bands == [(200.0, 400.0), (1000.0, 2000.0)]
        assert spec.length == 512 and spec.kind == "sinusoid"

    def test_train_settings(self):
        entries = parse_flat(SMOKE_CONFIG_TEXT)
        ts = train_settings_from_flat(entries)
        assert ts.steps == 500 and ts.lr == 1e-3 and ts.batch == 2

    def test_train_defaults(self):
        ts = train_settings_from_flat({})
        assert ts.length_cap == 0 and ts.out_dir == "run"

    def test_eval_settings(self):
        es = eval_settings_from_flat(parse_flat(SMOKE_CONFIG_TEXT))
        assert es.count == 16 and es.seed == 7

    def test_every_setting_key_lands_in_its_field(self):
        entries = parse_flat("""
            data.kind = noise_band
            data.length = 300
            data.bands = 150-450; 900-1800
            data.level_db_lo = -6.5
            data.level_db_hi = 3.25
            data.seed = 11
            train.steps = 7
            train.lr = 0.02
            train.batch = 3
            train.seed = 5
            train.beta1 = 0.8
            train.beta2 = 0.95
            train.eps = 1e-6
            train.length_cap = 256
            train.out_dir = elsewhere
            eval.count = 4
            eval.seed = 9
        """)
        read = [
            (synthetic_spec_from_flat(entries, n_sources=2, sample_rate=16000),
             SyntheticSpec(), dict(length=300, kind="noise_band",
                                   bands=[(150.0, 450.0), (900.0, 1800.0)],
                                   level_db_lo=-6.5, level_db_hi=3.25, seed=11)),
            (train_settings_from_flat(entries), TrainSettings(),
             dict(steps=7, lr=0.02, batch=3, seed=5, beta1=0.8, beta2=0.95,
                  eps=1e-6, length_cap=256, out_dir="elsewhere")),
            (eval_settings_from_flat(entries), EvalSettings(), dict(count=4, seed=9)),
        ]
        for got, default, expected in read:
            for name, value in expected.items():
                assert getattr(default, name) != value, name
                assert getattr(got, name) == value, name
        assert read[0][0].sample_rate == 16000

    @pytest.mark.parametrize("lr", ["nan", "inf"])
    def test_non_finite_lr_rejected(self, lr):
        with pytest.raises(ConfigError, match="learning rate must be finite"):
            train_settings_from_flat({"train.lr": lr})

    @pytest.mark.parametrize("key, value, named", [
        ("data.level_db_lo", "nan", "level_db_lo nan"),
        ("data.level_db_hi", "7000", "level_db_hi 7000.0"),
        ("data.level_db_lo", "-101", "level_db_lo -101.0"),
        ("data.length", "16", "band 100.0-300.0 holds no frequency bin at length 16"),
    ])
    def test_synthetic_values_that_cannot_be_generated(self, key, value, named):
        entries = {"data.kind": "noise_band", "data.bands": "100-300; 1000-2000",
                   "data.length": "64", key: value}
        with pytest.raises(ConfigError, match=named):
            synthetic_spec_from_flat(entries, n_sources=2, sample_rate=8000)

    def test_bands_required_despite_dataclass_default(self):
        with pytest.raises(ConfigError, match="missing required config key data.bands"):
            synthetic_spec_from_flat({}, n_sources=2, sample_rate=8000)

    def test_band_syntax_error(self):
        with pytest.raises(ConfigError):
            synthetic_spec_from_flat({"data.bands": "not-a-band"},
                                     n_sources=1, sample_rate=8000)


class TestValidators:
    def test_default_config_is_valid(self):
        cfg = default_model_config()
        cfg.validate()
        assert cfg.width == 256 and cfg.chunk_size == 250

    def test_speaker_minimum(self):
        cfg = tiny_model_config()
        cfg.speakers = 1
        with pytest.raises(ConfigError):
            cfg.validate()

    def test_odd_chunk_size_rejected(self):
        cfg = tiny_model_config()
        cfg.chunk_size = 7
        with pytest.raises(ConfigError):
            cfg.validate()

    def test_heads_must_divide_attention_channels(self):
        with pytest.raises(ConfigError):
            PathConfig(16, 6, 10, heads=4, kernel=5, ffn_dim=64).validate()

    def test_even_conv_kernel_rejected(self):
        with pytest.raises(ConfigError):
            PathConfig(16, 8, 8, heads=2, kernel=4, ffn_dim=64).validate()

    def test_degenerate_paths_validate(self):
        PathConfig(16, 16, 0, heads=2, kernel=1, ffn_dim=64).validate()
        PathConfig(16, 0, 16, heads=1, kernel=5, ffn_dim=64).validate()

    def test_precision_values(self):
        cfg = tiny_model_config()
        cfg.precision = "half"
        with pytest.raises(ConfigError):
            cfg.validate()
        assert tiny_model_config(precision="double").dtype == np.float64

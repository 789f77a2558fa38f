"""Flat key/value config format and the dataclass validators behind it."""

from dataclasses import FrozenInstanceError, fields, replace

import numpy as np
import pytest
from conftest import SMOKE_CONFIG_TEXT, tiny_model_config

from casep.codec import EncoderConfig
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

    def test_repeated_key_names_both_lines(self):
        # the last value would otherwise win, and two texts hash alike
        with pytest.raises(ConfigError, match=r"^line 4: key a\.b repeats line 1$"):
            parse_flat("a.b = 1\nc.d = 2\n\na.b = 3\n")


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

    @pytest.mark.parametrize("key", ["encoder.filter", "model.chunksize",
                                     "intra.width", "inter.head"])
    def test_unknown_key_rejected(self, key):
        entries = parse_flat(SMOKE_CONFIG_TEXT)
        entries[key] = "2"
        with pytest.raises(ConfigError, match=f"^unknown config key {key}$"):
            model_config_from_flat(entries)

    def test_other_sections_pass_untouched(self):
        # a checkpoint's run metadata and keys of sections read elsewhere
        entries = model_config_to_flat(tiny_model_config())
        extra = {"trained.steps": "500", "trained.data_seed": "0",
                 "train.step": "3", "a.b": "1"}
        cfg = model_config_from_flat({**entries, **extra})
        assert model_config_to_flat(cfg) == entries

    def test_layer_width_follows_encoder(self):
        entries = parse_flat(SMOKE_CONFIG_TEXT)
        entries["intra.attn_channels"] = "9"   # 9 + 8 != 16
        with pytest.raises(ConfigError):
            model_config_from_flat(entries)


class TestOtherSections:
    def test_synthetic_spec(self):
        entries = parse_flat(SMOKE_CONFIG_TEXT)
        spec = synthetic_spec_from_flat(entries, n_sources=2, sample_rate=8000)
        assert spec.bands == ((200.0, 400.0), (1000.0, 2000.0))
        assert spec.length == 512 and spec.kind == "sinusoid"

    def test_train_settings(self):
        entries = parse_flat(SMOKE_CONFIG_TEXT)
        ts = train_settings_from_flat(entries)
        assert ts.steps == 500 and ts.lr == 1e-3 and ts.batch == 2

    def test_train_defaults(self):
        ts = train_settings_from_flat({})
        assert ts.seed == 0 and ts.out_dir == "run"

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
            train.out_dir = elsewhere
            eval.count = 4
            eval.seed = 9
        """)
        read = [
            (synthetic_spec_from_flat(entries, n_sources=2, sample_rate=16000),
             SyntheticSpec(), dict(length=300, kind="noise_band",
                                   bands=((150.0, 450.0), (900.0, 1800.0)),
                                   level_db_lo=-6.5, level_db_hi=3.25, seed=11)),
            (train_settings_from_flat(entries), TrainSettings(),
             dict(steps=7, lr=0.02, batch=3, seed=5, beta1=0.8, beta2=0.95,
                  eps=1e-6, out_dir="elsewhere")),
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

    @pytest.mark.parametrize("name", ["beta1", "beta2"])
    @pytest.mark.parametrize("beta", [1.0, -0.1, float("nan")])
    def test_betas_outside_unit_interval_rejected(self, name, beta):
        with pytest.raises(ConfigError, match=rf"train\.{name} must lie in \[0, 1\)"):
            TrainSettings(**{name: beta})

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

    @pytest.mark.parametrize("key", ["data.sample_rate", "data.n_sources",
                                     "train.step", "eval.counts"])
    def test_unknown_key_rejected(self, key):
        # each reader passes the other sections, so the key's own reader raises
        entries = {**parse_flat(SMOKE_CONFIG_TEXT), key: "3"}
        with pytest.raises(ConfigError, match=f"^unknown config key {key}$"):
            synthetic_spec_from_flat(entries, n_sources=2, sample_rate=8000)
            train_settings_from_flat(entries)
            eval_settings_from_flat(entries)

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
        assert cfg.width == 256 and cfg.chunk_size == 250

    def test_speaker_minimum(self):
        with pytest.raises(ConfigError):
            replace(tiny_model_config(), speakers=1)

    def test_odd_chunk_size_rejected(self):
        with pytest.raises(ConfigError):
            replace(tiny_model_config(), chunk_size=7)

    def test_heads_must_divide_attention_channels(self):
        with pytest.raises(ConfigError):
            PathConfig(16, 6, 10, heads=4, kernel=5, ffn_dim=64)

    def test_even_conv_kernel_rejected(self):
        with pytest.raises(ConfigError):
            PathConfig(16, 8, 8, heads=2, kernel=4, ffn_dim=64)

    @pytest.mark.parametrize("cfg", [
        EncoderConfig(16, 4, 2), tiny_model_config().intra, tiny_model_config(),
        SyntheticSpec(), TrainSettings(), EvalSettings(),
    ], ids=lambda cfg: type(cfg).__name__)
    def test_configs_are_frozen(self, cfg):
        # a config is checked once, when built, so none may change after
        for f in fields(cfg):
            with pytest.raises(FrozenInstanceError):
                setattr(cfg, f.name, getattr(cfg, f.name))

    def test_synthetic_bands_cannot_change(self):
        # a passed list is stored as a tuple: the checked band count holds
        spec = SyntheticSpec(bands=[(200.0, 400.0), (1000.0, 2000.0)])
        assert spec.bands == ((200.0, 400.0), (1000.0, 2000.0))
        with pytest.raises(AttributeError):
            spec.bands.append((3000.0, 3500.0))
        with pytest.raises(TypeError):
            spec.bands[0][0] = 300.0
        assert hash(spec) == hash(SyntheticSpec(bands=spec.bands))

    def test_degenerate_paths_validate(self):
        PathConfig(16, 16, 0, heads=2, kernel=1, ffn_dim=64)
        PathConfig(16, 0, 16, heads=1, kernel=5, ffn_dim=64)

    def test_precision_values(self):
        with pytest.raises(ConfigError):
            replace(tiny_model_config(), precision="half")
        assert tiny_model_config(precision="double").dtype == np.float64

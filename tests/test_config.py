"""Validation tests for the configuration dataclasses."""

import pytest

from repro.config import BoatConfig, RainForestConfig, SplitConfig
from repro.core import config_at_depth


class TestSplitConfig:
    def test_defaults_valid(self):
        SplitConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"min_samples_split": 1},
            {"min_samples_leaf": 0},
            {"max_depth": -1},
            {"max_categorical_exhaustive": 0},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SplitConfig(**kwargs)

    def test_frozen(self):
        config = SplitConfig()
        with pytest.raises(AttributeError):
            config.max_depth = 5


class TestBoatConfig:
    def test_defaults_valid(self):
        BoatConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"sample_size": 0},
            {"bootstrap_repetitions": 1},
            {"bootstrap_subsample": 0},
            {"interval_widening": -0.1},
            {"interval_impurity_slack": -0.1},
            {"inmemory_threshold": -1},
            {"bucket_budget": 1},
            {"spill_threshold_rows": 0},
            {"batch_rows": 0},
            {"sql_pushdown": True, "checkpoint_dir": "ckpt"},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            BoatConfig(**kwargs)


class TestRainForestConfig:
    def test_defaults_valid(self):
        RainForestConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"avc_buffer_entries": 0},
            {"inmemory_threshold": -1},
            {"batch_rows": 0},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            RainForestConfig(**kwargs)


class TestConfigAtDepth:
    def test_unbounded_unchanged(self):
        config = SplitConfig(max_depth=None)
        assert config_at_depth(config, 5) is config

    def test_depth_zero_unchanged(self):
        config = SplitConfig(max_depth=8)
        assert config_at_depth(config, 0) is config

    def test_budget_subtracted(self):
        config = SplitConfig(max_depth=8)
        assert config_at_depth(config, 3).max_depth == 5

    def test_clamped_at_zero(self):
        config = SplitConfig(max_depth=3)
        assert config_at_depth(config, 10).max_depth == 0

    def test_other_fields_preserved(self):
        config = SplitConfig(min_samples_split=99, max_depth=8)
        assert config_at_depth(config, 2).min_samples_split == 99

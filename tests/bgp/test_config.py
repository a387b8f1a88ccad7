"""Unit tests for BgpConfig and the variant registry."""

import pytest

from repro.bgp import BgpConfig, VARIANT_NAMES, variant
from repro.errors import ConfigError


class TestConfig:
    def test_defaults_match_paper(self):
        config = BgpConfig()
        assert config.mrai == 30.0
        assert config.mrai_jitter == (0.75, 1.0)
        assert config.processing_delay == (0.1, 0.5)
        assert not any(
            (config.wrate, config.ssld, config.assertion, config.ghost_flushing)
        )

    def test_with_mrai_returns_new_config(self):
        base = BgpConfig(ssld=True)
        changed = base.with_mrai(15.0)
        assert changed.mrai == 15.0
        assert changed.ssld
        assert base.mrai == 30.0

    def test_variant_name(self):
        assert BgpConfig().variant_name == "standard"
        assert BgpConfig(ssld=True).variant_name == "ssld"
        assert BgpConfig(ssld=True, wrate=True).variant_name == "ssld+wrate"

    def test_invalid_mrai(self):
        with pytest.raises(ConfigError):
            BgpConfig(mrai=-1.0)

    def test_invalid_jitter(self):
        with pytest.raises(ConfigError):
            BgpConfig(mrai_jitter=(0.0, 1.0))

    def test_invalid_processing_delay(self):
        with pytest.raises(ConfigError):
            BgpConfig(processing_delay=(0.5, 0.1))

    def test_frozen(self):
        with pytest.raises(Exception):
            BgpConfig().mrai = 5.0


class TestRegistry:
    def test_all_five_variants(self):
        assert VARIANT_NAMES == [
            "standard",
            "ssld",
            "wrate",
            "assertion",
            "ghost-flushing",
        ]

    def test_variant_flags(self):
        assert variant("ssld").ssld
        assert variant("wrate").wrate
        assert variant("assertion").assertion
        assert variant("ghost-flushing").ghost_flushing
        standard = variant("standard")
        assert not any(
            (standard.ssld, standard.wrate, standard.assertion, standard.ghost_flushing)
        )

    def test_variant_mrai_passthrough(self):
        assert variant("ssld", mrai=7.0).mrai == 7.0

    def test_unknown_variant(self):
        with pytest.raises(ConfigError, match="unknown BGP variant"):
            variant("turbo")

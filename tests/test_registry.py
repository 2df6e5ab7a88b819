"""Tests for the unified scheme registry."""

import pytest

from repro import registry
from repro.dedup.base import DedupScheme


class TestNames:
    def test_evaluation_schemes_in_paper_order(self):
        assert registry.scheme_names() == (
            "Baseline", "Dedup_SHA1", "DeWrite", "ESD")

    def test_registered_names_list_evaluation_first(self):
        assert registry.registered_scheme_names() == (
            "Baseline", "Dedup_SHA1", "DeWrite", "ESD",
            "DaE", "PDE", "NV-Dedup", "ESD-Delta")

    def test_cli_codes(self):
        assert registry.scheme_codes() == {
            "0": "Baseline", "1": "Dedup_SHA1", "2": "DeWrite", "3": "ESD"}


class TestResolution:
    @pytest.mark.parametrize("token,expected", [
        ("0", "Baseline"),
        ("3", "ESD"),
        ("ESD", "ESD"),
        ("esd", "ESD"),
        ("dewrite", "DeWrite"),
        ("nv-dedup", "NV-Dedup"),
        ("esd-delta", "ESD-Delta"),
    ])
    def test_resolve_codes_and_names(self, token, expected):
        assert registry.resolve_scheme_name(token) == expected

    def test_unknown_token_lists_registered_names(self):
        with pytest.raises(ValueError, match="registered schemes: Baseline"):
            registry.resolve_scheme_name("4")

    def test_scheme_info_unknown_lists_registered_names(self):
        with pytest.raises(ValueError, match="registered schemes: Baseline"):
            registry.scheme_info("SHA-256")


class TestConstruction:
    @pytest.mark.parametrize("name", [
        "Baseline", "Dedup_SHA1", "DeWrite", "ESD",
        "DaE", "PDE", "NV-Dedup", "ESD-Delta"])
    def test_make_scheme_builds_named_instance(self, name, config):
        scheme = registry.make_scheme(name, config)
        assert isinstance(scheme, DedupScheme)
        assert scheme.name == name

    def test_info_class_matches_instance(self):
        info = registry.scheme_info("ESD")
        assert info.evaluation
        assert info.code == "3"
        assert info.cls.name == "ESD"


"""The Hypothesis profile from ``tests/conftest.py`` reaches every test."""

import os

from hypothesis import settings


def test_loaded_profile_follows_the_environment():
    name = os.environ.get("HYPOTHESIS_PROFILE", "dev")
    assert settings.default.derandomize is (name == "ci")


def test_ci_profile_is_derandomized():
    assert settings.get_profile("ci").derandomize is True
    assert settings.get_profile("dev").derandomize is False


def test_per_test_budget_inherits_the_profile():
    budget = settings(max_examples=7)
    assert budget.max_examples == 7
    assert budget.derandomize is settings.default.derandomize

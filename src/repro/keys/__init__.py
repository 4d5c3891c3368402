"""Key generation: the pattern mini-language and key definitions."""

from .definition import KeyDefinition, KeyPart, compile_key, generate_keys
from .pattern import Pattern, PatternItem, compile_pattern, parse_pattern

__all__ = [
    "KeyDefinition",
    "KeyPart",
    "Pattern",
    "PatternItem",
    "compile_key",
    "compile_pattern",
    "generate_keys",
    "parse_pattern",
]

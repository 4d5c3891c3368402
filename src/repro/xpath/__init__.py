"""XPath subset: parsing and evaluation of SXNM relative/absolute paths."""

from .ast import AttributeStep, ChildStep, Path, Step, TextStep
from .evaluate import (compile_path, first_value, resolve_absolute,
                       select_elements, select_values)
from .parser import parse_path

__all__ = [
    "AttributeStep",
    "ChildStep",
    "Path",
    "Step",
    "TextStep",
    "compile_path",
    "first_value",
    "parse_path",
    "resolve_absolute",
    "select_elements",
    "select_values",
]

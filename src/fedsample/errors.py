"""Exception types shared across the package.

Plain ValueError covers invalid arguments, unsupported requests, and
insufficient data at call sites; the classes here carry the cases that
need to be told apart by callers (the CLI maps them to exit codes).
"""

from __future__ import annotations


class ConfigError(Exception):
    """Bad run configuration: unknown keys, wrong types, out-of-range values."""


class ParseError(ValueError):
    """Malformed input file; message carries the file's path and the
    offending line number."""

    def __init__(self, message: str, line: int | None = None, path: str | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        if path is not None:
            message = f"{path}: {message}"
        super().__init__(message)


class NumericError(ArithmeticError):
    """Non-finite values reached a numeric boundary (overflow or divergence)."""

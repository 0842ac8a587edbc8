"""Exception hierarchy shared across the package.

Two families matter to callers: :class:`InputError` covers malformed or
invalid inputs (bad mesh text, unknown materials, out-of-range parameters)
and maps to CLI exit code 2, while :class:`AcousticDomainError` covers
situations where the inputs parse fine but the requested quantity is
undefined (open scenes, decay curves that never reach the fit range) and
maps to exit code 3.
"""

from __future__ import annotations

import sys


class EchobakeError(Exception):
    """Base class for all package errors."""


class InputError(EchobakeError):
    """Invalid or malformed input. CLI exit code 2."""


class MeshParseError(InputError):
    """Mesh text violates the supported OBJ subset. Carries a line number."""


class MaterialError(InputError):
    """Material table problems: unknown name, bad coefficient, wrong arity."""


class AcousticDomainError(EchobakeError):
    """Acoustically undefined situation. CLI exit code 3."""


class WatertightError(AcousticDomainError):
    """Mesh is not closed/consistently oriented, so enclosed volume is
    undefined. Lists boundary edges."""


class NoCollisionsError(AcousticDomainError):
    """Every traced ray escaped without a single surface hit."""


class InsufficientDecayError(AcousticDomainError):
    """Energy decay never spans the regression range."""


class ValidationFailure(AcousticDomainError):
    """A validation suite ran fine but a measured quantity missed its
    tolerance."""


def is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def is_finite_real(x) -> bool:
    """An int or float inside the float range: not a bool, NaN or inf."""
    return (is_int(x) or isinstance(x, float)) and abs(x) <= sys.float_info.max


def is_point(p) -> bool:
    """A tuple or list of exactly 3 finite reals."""
    return isinstance(p, (tuple, list)) and len(p) == 3 and all(map(is_finite_real, p))

"""Dunkl heat kernel for the reflection group Z_2^d: kernel evaluation,
Dunkl operators, and numerical certification of the Li-Yau and Harnack
inequalities the kernel satisfies."""

__version__ = "0.1.0"

from . import inequalities, kernel, operators, quadrature, semigroup
from .inequalities import *  # noqa: F403
from .kernel import *  # noqa: F403
from .operators import *  # noqa: F403
from .quadrature import *  # noqa: F403
from .semigroup import *  # noqa: F403

# a public name is declared once, in its module's __all__
__all__ = sorted({name for m in (inequalities, kernel, operators, quadrature, semigroup) for name in m.__all__})

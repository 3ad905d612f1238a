"""Named fixtures: the running examples used across the test corpus and CLI.

Each entry is an accretive quadratic form on R^{2n}, phase-space variables
ordered (x_1..x_n, xi_1..xi_n).  Its matrix is an exact constant, symmetric
with Re Q >= 0 as written, so it is built with none of QuadraticForm's
checks (quadform._unchecked), at the default tolerance.
"""
from __future__ import annotations

import numpy as np

from .errors import ParseError
from .quadform import QuadraticForm, _unchecked


def heat(n: int = 1) -> QuadraticForm:
    """q = |xi|^2, the free heat semigroup."""
    Q = np.zeros((2 * n, 2 * n), dtype=complex)
    Q[n:, n:] = np.eye(n)
    return _unchecked(n, Q)


def harmonic(n: int = 1) -> QuadraticForm:
    """q = (|x|^2 + |xi|^2) / 2, the harmonic oscillator."""
    return _unchecked(n, 0.5 * np.eye(2 * n, dtype=complex))


def kolmogorov() -> QuadraticForm:
    """q = eta^2 + i v xi on variables (x, v, xi, eta)."""
    Q = np.zeros((4, 4), dtype=complex)
    Q[3, 3] = 1.0
    Q[1, 2] = Q[2, 1] = 0.5j
    return _unchecked(2, Q)


def fokker_planck() -> QuadraticForm:
    """q = xi^2 / 2 - 2 i x xi (n = 1)."""
    Q = np.array([[0.0, -1j], [-1j, 0.5]], dtype=complex)
    return _unchecked(1, Q)


def shifted_diagonal() -> QuadraticForm:
    """q = (xi - x)^2; the singular space is the diagonal of R^2."""
    Q = np.array([[1.0, -1.0], [-1.0, 1.0]], dtype=complex)
    return _unchecked(1, Q)


def x_squared() -> QuadraticForm:
    """q = x^2, a pure multiplication operator (graph condition fails)."""
    Q = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    return _unchecked(1, Q)


_REGISTRY = {
    "heat": heat,
    "harmonic": harmonic,
    "kolmogorov": kolmogorov,
    "fokker-planck": fokker_planck,
    "shifted-diagonal": shifted_diagonal,
    "x-squared": x_squared,
}


def fixture_names() -> list[str]:
    return sorted(_REGISTRY)


def get_fixture(name: str) -> QuadraticForm:
    try:
        return _REGISTRY[name]()
    except KeyError:
        raise ParseError(f"unknown fixture {name!r}; known: "
                         f"{', '.join(fixture_names())}",
                         module="fixtures", operation="get_fixture") from None

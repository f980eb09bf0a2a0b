"""Exponent-pair algebra for the Neumann Lane-Emden system.

Couples (p, q) with p >= 0, q > 0 index the system -Lap u = |v|^(q-1) v,
-Lap v = |u|^(p-1) u with no-flux boundary data.  This module holds the
dual exponents alpha = (p+1)/p, beta = (q+1)/q, the weights gamma_1,
gamma_2 splitting the dual constraint, the admissible-region
classification, and the exact algebra linking the nonlinear eigenvalue
Lambda, the dual level D = 1/Lambda and the least-energy level c.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

__all__ = [
    "ExponentPair",
    "Region",
    "HyperbolaError",
    "classify_region",
    "c_from_lambda",
    "lambda_from_c",
]

HYPERBOLA_TOL = 1e-12
CRITICAL_TOL = 1e-12


class Region(enum.Enum):
    SUBCRITICAL = "subcritical"
    CRITICAL_ADMISSIBLE = "critical-admissible"
    CRITICAL_INADMISSIBLE = "critical-inadmissible"
    HYPERBOLA = "hyperbola"
    SIGN_CASE = "sign-case"
    SUPERCRITICAL = "supercritical"


class HyperbolaError(ValueError):
    """Raised when an operation is undefined on the pq = 1 hyperbola."""


@dataclass(frozen=True)
class ExponentPair:
    p: float
    q: float
    dim: int

    def __post_init__(self) -> None:
        if not (self.p >= 0.0 and math.isfinite(self.p)):
            raise ValueError(f"p must be finite and >= 0, got {self.p}")
        if not (self.q > 0.0 and math.isfinite(self.q)):
            raise ValueError(f"q must be finite and > 0, got {self.q}")
        if self.dim < 1 or self.dim != int(self.dim):
            raise ValueError(f"dimension must be a positive integer, got {self.dim}")

    @property
    def alpha(self) -> float:
        if self.p == 0.0:
            raise ValueError("alpha is undefined for p = 0 (sign case)")
        return (self.p + 1.0) / self.p

    @property
    def beta(self) -> float:
        return (self.q + 1.0) / self.q

    # gamma_1 + gamma_2 = 1, gamma_1 alpha + gamma_2 beta = gamma and
    # 1/alpha + 1/beta = 1/gamma; the p,q forms below stay finite at p = 0.

    @property
    def gamma1(self) -> float:
        return self.p * (self.q + 1.0) / (2.0 * self.p * self.q + self.p + self.q)

    @property
    def gamma2(self) -> float:
        return self.q * (self.p + 1.0) / (2.0 * self.p * self.q + self.p + self.q)

    @property
    def gamma(self) -> float:
        return (self.p + 1.0) * (self.q + 1.0) / (2.0 * self.p * self.q + self.p + self.q)

    @property
    def on_hyperbola(self) -> bool:
        return abs(self.p * self.q - 1.0) <= HYPERBOLA_TOL


def _critical_balance(e: ExponentPair) -> float:
    return 1.0 / (e.p + 1.0) + 1.0 / (e.q + 1.0) - (e.dim - 2.0) / e.dim


def _critical_admissible(e: ExponentPair) -> bool:
    n = e.dim
    if n >= 6:
        bound = (n + 2.0) / (2.0 * (n - 2.0))
    elif n == 5:
        bound = 17.0 / 13.0
    elif n == 4:
        bound = 7.0 / 3.0
    else:
        return False
    return e.p > bound and e.q > bound


def classify_region(e: ExponentPair) -> Region:
    """Admissibility tag of an exponent pair.

    Subcritical means the strict compactness inequality
    1/(p+1) + 1/(q+1) > (N-2)/N with p, q > 0 and pq != 1; the hyperbola
    pq = 1 and the sign case p = 0 are tagged separately; on the critical
    curve the dimension-specific lower bounds on p, q decide between
    admissible and inadmissible.
    """
    if e.p == 0.0:
        return Region.SIGN_CASE
    if e.on_hyperbola:
        return Region.HYPERBOLA
    balance = _critical_balance(e)
    if balance > CRITICAL_TOL:
        return Region.SUBCRITICAL
    if balance < -CRITICAL_TOL:
        return Region.SUPERCRITICAL
    if _critical_admissible(e):
        return Region.CRITICAL_ADMISSIBLE
    return Region.CRITICAL_INADMISSIBLE


def c_from_lambda(e: ExponentPair, lam: float) -> float:
    """Least-energy level from the eigenvalue Lambda.

    For p > 0 the levels satisfy Lambda^((p+1)(q+1)/(pq-1)) =
    ((p+1)(q+1)/(pq-1)) c, so c has the sign of pq - 1; for p = 0,
    Lambda^(-(q+1)) = -(q+1) c.  Undefined on the hyperbola.
    """
    if not lam > 0:
        raise ValueError(f"Lambda must be positive, got {lam}")
    if e.p == 0.0:
        return -(lam ** -(e.q + 1.0)) / (e.q + 1.0)
    if e.on_hyperbola:
        raise HyperbolaError("c is undefined on the hyperbola pq = 1")
    ratio = (e.p + 1.0) * (e.q + 1.0) / (e.p * e.q - 1.0)
    return lam**ratio / ratio


def lambda_from_c(e: ExponentPair, c: float) -> float:
    """Inverse of c_from_lambda on its domain."""
    if e.p == 0.0:
        if not c < 0:
            raise ValueError("sign-case levels are negative")
        return (-(e.q + 1.0) * c) ** (-1.0 / (e.q + 1.0))
    if e.on_hyperbola:
        raise HyperbolaError("c is undefined on the hyperbola pq = 1")
    ratio = (e.p + 1.0) * (e.q + 1.0) / (e.p * e.q - 1.0)
    base = ratio * c
    if not base > 0:
        raise ValueError(f"level c = {c} has the wrong sign for pq - 1 = {e.p * e.q - 1}")
    return base ** (1.0 / ratio)


"""Exact rational exponent-pair calculus and the admissible-range constants.

All arithmetic runs on ``fractions.Fraction`` (always reduced, positive
denominator); nothing here ever touches floating point, so every headline
constant is re-derived exactly.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .errors import ValidationError

HALF = Fraction(1, 2)


@dataclass(frozen=True)
class ExpPair:
    """An exponent pair (kappa, lambda) with 0 <= kappa <= 1/2 <= lambda <= 1."""

    kappa: Fraction
    lam: Fraction

    def __post_init__(self) -> None:
        if not (0 <= self.kappa <= HALF <= self.lam <= 1):
            raise ValidationError(
                f"({self.kappa}, {self.lam}) violates 0 <= kappa <= 1/2 <= lambda <= 1"
            )

    def __str__(self) -> str:
        return format_pair(self)


def a_process(p: ExpPair) -> ExpPair:
    """Van der Corput A-transform: (k, l) -> (k/(2k+2), (k+l+1)/(2k+2))."""
    d = 2 * p.kappa + 2
    return ExpPair(p.kappa / d, (p.kappa + p.lam + 1) / d)


def b_process(p: ExpPair) -> ExpPair:
    """Van der Corput B-transform: (k, l) -> (l - 1/2, k + 1/2); an involution."""
    if p.lam < HALF:
        raise ValidationError(f"B-process needs lambda >= 1/2, got {p.lam}")
    return ExpPair(p.lam - HALF, p.kappa + HALF)


def apply_chain(ops: str, p: ExpPair) -> ExpPair:
    """Apply a composition string like "BAAAA" (rightmost transform first)."""
    for op in reversed(ops.strip().upper()):
        if op == "A":
            p = a_process(p)
        elif op == "B":
            p = b_process(p)
        else:
            raise ValidationError(f"unknown transform {op!r}; expected A or B")
    return p


# ---------------------------------------------------------------------------
# the piecewise-linear exponent for large prime factors of floor(n^c)
# ---------------------------------------------------------------------------

# (left endpoint, right endpoint, coefficients (a, b, den) meaning (a+b*c)/den)
LPF_EXPONENT_PIECES: tuple[tuple[Fraction, Fraction, tuple[int, int, int]], ...] = (
    (Fraction(243, 205), Fraction(24979, 20803), (2, -1, 1)),
    (Fraction(24979, 20803), Fraction(112, 87), (3, -2, 1)),
    (Fraction(112, 87), Fraction(160, 117), (92, -49, 68)),
    (Fraction(160, 117), Fraction(128, 85), (74, -31, 86)),
    (Fraction(128, 85), Fraction(31, 20), (23, -10, 25)),
    (Fraction(31, 20), Fraction(5, 3), (4, -2, 3)),
    (Fraction(5, 3), Fraction(2), (3, -1, 6)),
)


def _eval_form(form: tuple[int, int, int], c: Fraction) -> Fraction:
    a, b, den = form
    return Fraction(a + b * c, den)


def lpf_exponent(c: Fraction) -> Fraction:
    """The piecewise-linear exponent theta(c) such that the largest prime
    factor of floor(n^c) exceeds n^(theta(c)-eps) infinitely often.

    Defined for 243/205 <= c < 2.  Pieces sharing a closed endpoint agree
    there; the first two pieces meet at a genuine jump (the half-open
    boundary at 24979/20803).
    """
    c = Fraction(c)
    lo, hi = LPF_EXPONENT_PIECES[0][0], LPF_EXPONENT_PIECES[-1][1]
    if not (lo <= c < hi):
        raise ValidationError(f"c={c} outside the table domain [{lo}, {hi})")
    # pieces abut exactly, so the half-open convention picks a unique owner;
    # at the five shared closed endpoints both sides agree anyway
    for left, right, form in LPF_EXPONENT_PIECES:
        if left <= c < right:
            return _eval_form(form, c)
    raise AssertionError("unreachable: piece lookup failed")


# minima of linear forms from the two groupings of the trilinear bound;
# forms are (a, b, den) for (a + b*c)/den
LPF_MID_FORMS: tuple[tuple[int, int, int], ...] = (
    (7, -4, 4),
    (7, -3, 7),
    (92, -49, 68),
    (54, -28, 42),
    (54, -29, 39),
    (266, -139, 192),
    (100, -53, 74),
    (6, -3, 5),
    (20, -5, 22),
)

LPF_HIGH_FORMS: tuple[tuple[int, int, int], ...] = (
    (5, -2, 6),
    (8, -4, 6),
    (74, -31, 86),
    (46, -20, 50),
    (43, -18, 50),
    (230, -103, 228),
    (82, -35, 92),
    (22, -7, 20),
)


def lpf_exponent_mid(c: Fraction) -> Fraction:
    """Exact minimum of the nine admissible linear forms on [112/87, 160/117]."""
    c = Fraction(c)
    return min(_eval_form(f, c) for f in LPF_MID_FORMS)


def lpf_exponent_high(c: Fraction) -> Fraction:
    """Exact minimum of the eight admissible linear forms on [160/117, 5/3)."""
    c = Fraction(c)
    return min(_eval_form(f, c) for f in LPF_HIGH_FORMS)


def lpf_exponent_tail(c: Fraction, beta: Fraction | None = None) -> Fraction:
    """(3-c)/6 on [5/3, 2); beta/c^2 for non-integer c > 2.

    beta is a caller-supplied positive constant for the c > 2 branch (no
    effective value exists for it).
    """
    c = Fraction(c)
    if c.denominator == 1:
        raise ValidationError(f"c={c} must not be an integer")
    if Fraction(5, 3) <= c < 2:
        return Fraction(3 - c, 6)
    if c > 2:
        if beta is None or beta <= 0:
            raise ValidationError("the c > 2 branch needs a positive beta")
        return Fraction(beta) / (c * c)
    raise ValidationError(f"c={c} below the tail domain [5/3, infinity)")


# ---------------------------------------------------------------------------
# headline admissible-range constants
# ---------------------------------------------------------------------------

def smooth_values_c_threshold(p: ExpPair) -> Fraction:
    """Solve (2+kappa)(c-1) < 1-lambda for c: the threshold 1 + (1-l)/(2+k)."""
    return 1 + (1 - p.lam) / (2 + p.kappa)


SQUARE_DIVISIBILITY_CANDIDATES = (
    Fraction(7, 4),
    Fraction(19, 11),
    Fraction(149, 87),
    Fraction(12, 7),
    Fraction(85, 49),
    Fraction(163, 95),
    Fraction(71, 39),
)


def square_divisibility_threshold() -> Fraction:
    """Exact minimum of the seven admissible-c candidates (= 149/87)."""
    return min(SQUARE_DIVISIBILITY_CANDIDATES)


def carmichael_threshold(E: Fraction) -> Fraction:
    """The c-threshold 39(13+6E)/(13(39+17E)) below which the construction of
    Carmichael numbers from sequence primes goes through.

    Solves E(-17/39 + 6*gamma/13) + gamma - 1 > 0 for gamma = 1/c exactly.
    """
    E = Fraction(E)
    if not (0 < E <= 1):
        raise ValidationError(f"E={E} must lie in (0, 1]")
    return Fraction(39) * (13 + 6 * E) / (Fraction(13) * (39 + 17 * E))


def format_rational(r: Fraction, digits: int = 10) -> str:
    """Render a rational as "p/q (= decimal)" with the given digit count."""
    return f"{r.numerator}/{r.denominator} (= {float(r):.{digits}g})"


def format_pair(p: ExpPair) -> str:
    """Render both components over the common denominator, e.g. 3843/8480 4304/8480."""
    den = p.kappa.denominator * p.lam.denominator // gcd(p.kappa.denominator, p.lam.denominator)
    return (
        f"{p.kappa.numerator * (den // p.kappa.denominator)}/{den} "
        f"{p.lam.numerator * (den // p.lam.denominator)}/{den}"
    )

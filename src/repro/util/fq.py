"""Polynomials over prime fields F_q.

Two users in the paper:

- Sec. B.2 (locally-iterative coloring): each input color maps to a
  degree-<=1 polynomial a + b·x over F_q; the color sequence of a node
  is the evaluation table of its polynomial.
- Thm B.1 (Linial's algorithm): colors map to degree-<=d polynomials;
  the cover-free set system is {(x, p(x)) : x in F_q}.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.util.primes import is_prime


@dataclass(frozen=True)
class Poly1:
    """Degree-<=1 polynomial a + b·x over F_q (Sec. B.2 footnote 5:
    a = floor(color / q), b = color mod q)."""

    a: int
    b: int
    q: int

    @staticmethod
    def from_color(color: int, q: int) -> "Poly1":
        if color < 0 or color >= q * q:
            raise ValueError(f"color {color} not in [0, q^2)")
        return Poly1(color // q, color % q, q)

    def __call__(self, x: int) -> int:
        return (self.a + self.b * x) % self.q

    def agreements(self, other: "Poly1") -> int:
        """Number of x in F_q where self(x) == other(x).

        Distinct degree-<=1 polynomials over a field agree on at most
        one point (Lemma B.3's argument); equal ones agree on q.
        """
        if self.q != other.q:
            raise ValueError("mixed fields")
        if self.a == other.a and self.b == other.b:
            return self.q
        if self.b == other.b:
            return 0
        return 1


def poly_eval(coeffs: Tuple[int, ...], x: int, q: int) -> int:
    """Evaluate a polynomial given coefficients (low to high) at x."""
    acc = 0
    power = 1
    for c in coeffs:
        acc = (acc + c * power) % q
        power = (power * x) % q
    return acc


def degree_le_polynomials(color: int, degree: int, q: int) -> Tuple[int, ...]:
    """Map a color index to the ``color``-th degree-<=``degree``
    polynomial over F_q (coefficients = base-q digits).

    Injective for color < q^(degree+1); used by Linial's set system.
    """
    if not is_prime(q):
        raise ValueError(f"q={q} must be prime")
    bound = q ** (degree + 1)
    if color < 0 or color >= bound:
        raise ValueError(f"color {color} not in [0, q^{degree + 1})")
    coeffs: List[int] = []
    value = color
    for _ in range(degree + 1):
        coeffs.append(value % q)
        value //= q
    return tuple(coeffs)


def linial_set(color: int, degree: int, q: int) -> frozenset:
    """The Linial cover-free set of a color: {(x, p(x))} as ints x*q+y.

    Two distinct degree-<=d polynomials collide on at most d points,
    so a set is never covered by the union of (q-1)/d - ... others;
    choosing q > d·D makes the family D-cover-free.
    """
    coeffs = degree_le_polynomials(color, degree, q)
    return frozenset(
        x * q + poly_eval(coeffs, x, q) for x in range(q)
    )

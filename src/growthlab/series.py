"""Exact formal power series over the rationals.

Coefficient sequences are plain lists of exact numbers (``int`` or
``fractions.Fraction``).  A :class:`RationalFunction` is a pair of
integer polynomials P/Q normalized uniquely: coprime, no common integer
content, Q(0) > 0, so two equal rational functions compare equal.

One reduction reaches that form: the minimal recurrence of 2L terms of
an order-L series is unique (Massey, 1969), so the P/Q it induces is
already coprime.  ``RationalFunction.make`` reduces enough terms of
num/den to fix the order; ``recognize_rational`` reduces a fitted
prefix and accepts it only when re-expansion reproduces every input
term, including a trailing guard band that took no part in the fit.
Sequences without a stable recurrence at the window, such as the
Catalan numbers, come back as ``None``.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, gcd, lcm

from .errors import ArgumentError, Record


# ---------------------------------------------------------------------------
# polynomial helpers (ascending coefficient lists)
# ---------------------------------------------------------------------------

def poly_trim(p) -> list:
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def poly_mul(a, b) -> list:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return poly_trim(out)


def binomial_row(n: int, sign: int = 1) -> list[int]:
    """The coefficients of (1 + sign z)^n, ascending."""
    return [comb(n, j) * sign ** j for j in range(n + 1)]


def poly_eval(p, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(list(p)):
        acc = acc * x + c
    return acc


def poly_str(p, var: str = "z") -> str:
    """Human-readable polynomial with explicit signs, e.g. '1 - 2z + z^2'."""
    p = poly_trim(p)
    if not p:
        return "0"
    parts = []
    for k, c in enumerate(p):
        if c == 0:
            continue
        mag = abs(c)
        if k == 0:
            body = str(mag)
        else:
            head = "" if mag == 1 else f"{mag}"
            body = f"{head}{var}" if k == 1 else f"{head}{var}^{k}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(("+ " if c > 0 else "- ") + body)
    return " ".join(parts)


# ---------------------------------------------------------------------------
# rational functions
# ---------------------------------------------------------------------------

class RationalFunction(Record):
    """P(z)/Q(z) as tuples of integer coefficients in ascending degree,
    normalized uniquely: no common polynomial factor, no common integer
    content, Q(0) > 0.  ``make`` normalizes any pair; a record built
    directly must already be in that form."""

    __slots__ = ("numerator", "denominator")

    @staticmethod
    def make(num, den) -> "RationalFunction":
        """The normalized form of num/den.  Its order is at most
        max(len num, len den), so twice that many terms of the expansion
        fix it."""
        num, den = poly_trim(num), poly_trim(den)
        if not den or den[0] == 0:
            raise ArgumentError("denominator must have nonzero constant term")
        return _from_terms(_expand(num, den, 2 * max(len(num), len(den))))

    def expand(self, kmax: int) -> list:
        """First kmax+1 Taylor coefficients at 0, exact."""
        if kmax < 0:
            raise ArgumentError("kmax must be nonnegative")
        out = _expand(self.numerator, self.denominator, kmax + 1)
        return [int(c) if c.denominator == 1 else c for c in out]

    def evaluate(self, x) -> Fraction | None:
        """Value at x as an exact rational, or None at a pole."""
        x = Fraction(x)
        den = poly_eval(self.denominator, x)
        if den == 0:
            return None
        return poly_eval(self.numerator, x) / den

    def display(self) -> str:
        return f"({poly_str(self.numerator)}) / ({poly_str(self.denominator)})"

    def to_json_dict(self) -> dict:
        return {
            "numerator": [str(c) for c in self.numerator],
            "denominator": [str(c) for c in self.denominator],
            "display": self.display(),
        }


def closed_form_free_abelian(n: int) -> RationalFunction:
    """The growth series ((1+z)/(1-z))^n of Z^n with its standard
    symmetric basis, written reduced: the numerator is 2^n at z = 1, so
    it shares no factor 1 - z with the denominator, whose constant term
    is 1."""
    if n < 0:
        raise ArgumentError("n must be nonnegative")
    return RationalFunction(tuple(binomial_row(n)), tuple(binomial_row(n, -1)))


# ---------------------------------------------------------------------------
# the one reduction, and recognition
# ---------------------------------------------------------------------------

def _expand(p, q, n: int) -> list[Fraction]:
    """The first n Taylor coefficients of p/q at 0, exact, by the linear
    recurrence the denominator imposes; q[0] must be nonzero."""
    q0 = Fraction(q[0])
    out: list[Fraction] = []
    for k in range(n):
        acc = Fraction(p[k]) if k < len(p) else Fraction(0)
        for j in range(1, min(k, len(q) - 1) + 1):
            acc -= q[j] * out[k - j]
        out.append(acc / q0)
    return out


def _berlekamp_massey(seq: list[Fraction]):
    """Minimal LFSR for a sequence over Q.

    Returns (C, L): the connection polynomial C (ascending, C[0] = 1)
    and the LFSR length L.  The recurrence reads
    s_n = -sum_{i=1}^{deg C} C[i] * s_{n-i} for n >= L.
    """
    C = [Fraction(1)]
    B = [Fraction(1)]
    L, m, b = 0, 1, Fraction(1)
    for n, s in enumerate(seq):
        d = Fraction(s)
        for i in range(1, min(L, len(C) - 1) + 1):
            d += C[i] * seq[n - i]
        if d == 0:
            m += 1
            continue
        coef = d / b
        shifted = [Fraction(0)] * m + [coef * x for x in B]
        T = C  # C is rebuilt below, so T keeps the old polynomial
        C = C + [Fraction(0)] * (len(shifted) - len(C))
        for i, x in enumerate(shifted):
            C[i] -= x
        if 2 * L <= n:
            L = n + 1 - L
            B, b, m = T, d, 1
        else:
            m += 1
    while len(C) > 1 and C[-1] == 0:
        C.pop()
    return C, L


def _from_terms(seq) -> "RationalFunction":
    """The normalized P/Q of least order whose expansion starts with seq.

    Q is the connection polynomial C of the minimal recurrence and P is
    seq * C below degree L.  A factor shared by P and C would give a
    shorter recurrence, so the two are coprime; C(0) = 1 fixes the sign,
    one lcm clears the denominators and one gcd the integer content."""
    C, L = _berlekamp_massey(seq)
    P = poly_trim(poly_mul(seq[:L], C)[:L])
    if not P:
        return RationalFunction((0,), (1,))
    scale = lcm(*(c.denominator for c in P + C))
    P = [int(c * scale) for c in P]
    C = [int(c * scale) for c in C]
    content = gcd(*P, *C)
    return RationalFunction(tuple(c // content for c in P),
                            tuple(c // content for c in C))


def recognize_rational(seq, guard: int = 4) -> RationalFunction | None:
    """Infer P/Q from a coefficient prefix, or None.

    The minimal recurrence is fitted on all but the last ``guard``
    terms; the candidate is accepted only if its expansion reproduces
    the entire input, guard band included.  A prefix shorter than
    2 guard + 2 terms is too short to recognize and gives None.
    """
    if guard < 1:
        raise ArgumentError("guard must be at least 1")
    seq = [Fraction(x) for x in seq]
    if len(seq) < 2 * guard + 2:
        return None
    candidate = _from_terms(seq[: len(seq) - guard])
    if candidate.expand(len(seq) - 1) == seq:
        return candidate
    return None


# ---------------------------------------------------------------------------
# series utilities
# ---------------------------------------------------------------------------

def catalan(kmax: int) -> list[int]:
    """Catalan numbers c_0..c_kmax by the ratio recurrence
    c_{k+1} = c_k * 2(2k+1) / (k+2), with c_0 = 1; the division is
    exact (Stanley, *Catalan Numbers*, 2015, ch. 1)."""
    if kmax < 0:
        raise ArgumentError("kmax must be nonnegative")
    c = [1]
    for k in range(kmax):
        c.append(c[k] * 2 * (2 * k + 1) // (k + 2))
    return c

"""Exact formal power series over the rationals.

Coefficient sequences are plain lists of exact numbers (``int`` or
``fractions.Fraction``).  A :class:`RationalFunction` is a normalized
pair of integer polynomials P/Q with Q(0) > 0; normalization cancels
common polynomial factors and integer content, so two equal rational
functions compare equal as values.

``recognize_rational`` infers the minimal linear recurrence of a
sequence prefix (Berlekamp-Massey over Q), builds the induced P/Q, and
accepts it only when re-expansion reproduces every input term including
a trailing guard band that took no part in the fit.  Sequences without
a stable recurrence at the window, such as the Catalan numbers, come
back as ``None``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .errors import ArgumentError

Poly = tuple  # integer or Fraction coefficients, ascending degree


# ---------------------------------------------------------------------------
# polynomial helpers (ascending coefficient lists)
# ---------------------------------------------------------------------------

def poly_trim(p) -> list:
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def poly_add(a, b) -> list:
    n = max(len(a), len(b))
    return poly_trim([(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
                      for i in range(n)])


def poly_sub(a, b) -> list:
    n = max(len(a), len(b))
    return poly_trim([(a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0)
                      for i in range(n)])


def poly_mul(a, b) -> list:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return poly_trim(out)


def poly_divmod(a, b):
    """Exact division with remainder over the rationals."""
    a = [Fraction(x) for x in poly_trim(a)]
    b = [Fraction(x) for x in poly_trim(b)]
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    r = a
    while len(r) >= len(b):
        shift = len(r) - len(b)
        c = r[-1] / b[-1]
        q[shift] = c
        r = poly_trim([r[i] - (c * b[i - shift] if 0 <= i - shift < len(b) else 0)
                       for i in range(len(r))])
    return poly_trim(q), r


def poly_gcd(a, b) -> list:
    """Monic greatest common divisor over the rationals."""
    a = [Fraction(x) for x in poly_trim(a)]
    b = [Fraction(x) for x in poly_trim(b)]
    while b:
        _, r = poly_divmod(a, b)
        a, b = b, r
    if not a:
        return []
    lead = a[-1]
    return [x / lead for x in a]


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

@dataclass(frozen=True)
class RationalFunction:
    """P(z)/Q(z) with integer coefficients, normalized uniquely:
    no common polynomial factor, no common integer content, Q(0) > 0."""

    numerator: Poly
    denominator: Poly

    @staticmethod
    def make(num, den) -> "RationalFunction":
        num = [Fraction(x) for x in poly_trim(num)]
        den = [Fraction(x) for x in poly_trim(den)]
        if not den or den[0] == 0:
            raise ArgumentError("denominator must have nonzero constant term")
        if not num:
            return RationalFunction((0,), (1,))
        g = poly_gcd(num, den)
        if len(g) > 1:
            num, _ = poly_divmod(num, g)
            den, _ = poly_divmod(den, g)
        # clear denominators jointly, then strip joint integer content
        scale = lcm(*[c.denominator for c in num + den])
        inum = [int(c * scale) for c in num]
        iden = [int(c * scale) for c in den]
        content = 0
        for c in inum + iden:
            content = gcd(content, c)
        inum = [c // content for c in inum]
        iden = [c // content for c in iden]
        if iden[0] < 0:
            inum = [-c for c in inum]
            iden = [-c for c in iden]
        return RationalFunction(tuple(inum), tuple(iden))

    def __add__(self, other: "RationalFunction") -> "RationalFunction":
        return RationalFunction.make(
            poly_add(poly_mul(self.numerator, other.denominator),
                     poly_mul(other.numerator, self.denominator)),
            poly_mul(self.denominator, other.denominator))

    def __mul__(self, other: "RationalFunction") -> "RationalFunction":
        return RationalFunction.make(
            poly_mul(self.numerator, other.numerator),
            poly_mul(self.denominator, other.denominator))

    def __pow__(self, n: int) -> "RationalFunction":
        if n < 0:
            raise ArgumentError("negative powers are not supported")
        out = RationalFunction.make([1], [1])
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    @staticmethod
    def constant(c) -> "RationalFunction":
        c = Fraction(c)
        return RationalFunction.make([c.numerator], [c.denominator])

    def expand(self, kmax: int) -> list:
        """First kmax+1 Taylor coefficients at 0, exact.

        Unrolls the linear recurrence imposed by the denominator."""
        if kmax < 0:
            raise ArgumentError("kmax must be nonnegative")
        p, q = self.numerator, self.denominator
        q0 = Fraction(q[0])
        out: list[Fraction] = []
        for k in range(kmax + 1):
            acc = Fraction(p[k]) if k < len(p) else Fraction(0)
            for j in range(1, min(k, len(q) - 1) + 1):
                acc -= q[j] * out[k - j]
            out.append(acc / q0)
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


def expand(f: RationalFunction, kmax: int) -> list:
    return f.expand(kmax)


def evaluate_at_one(f: RationalFunction) -> Fraction | None:
    """f(1) as an exact rational, or None when 1 is a pole."""
    return f.evaluate(1)


def closed_form_free_abelian(n: int) -> RationalFunction:
    """The normalized growth series ((1+z)/(1-z))^n of Z^n with its
    standard symmetric basis."""
    if n < 0:
        raise ArgumentError("n must be nonnegative")
    return RationalFunction.make([1, 1], [1, -1]) ** n


# ---------------------------------------------------------------------------
# recognition
# ---------------------------------------------------------------------------

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
        if 2 * L <= n:
            T = list(C)
            if len(C) < len(shifted):
                C = C + [Fraction(0)] * (len(shifted) - len(C))
            for i, x in enumerate(shifted):
                C[i] -= x
            L = n + 1 - L
            B, b, m = T, d, 1
        else:
            if len(C) < len(shifted):
                C = C + [Fraction(0)] * (len(shifted) - len(C))
            for i, x in enumerate(shifted):
                C[i] -= x
            m += 1
    while len(C) > 1 and C[-1] == 0:
        C.pop()
    return C, L


def recognize_rational(seq, guard: int = 4) -> RationalFunction | None:
    """Infer P/Q from a coefficient prefix, or None.

    The minimal recurrence is fitted on all but the last ``guard``
    terms; the candidate is accepted only if its expansion reproduces
    the entire input, guard band included.
    """
    if guard < 1:
        raise ArgumentError("guard must be at least 1")
    seq = [Fraction(x) for x in seq]
    if len(seq) < 2 * guard + 2:
        raise ArgumentError(
            f"need at least {2 * guard + 2} terms for guard {guard}, got {len(seq)}")
    fit = seq[: len(seq) - guard]
    C, L = _berlekamp_massey(fit)
    # numerator: the product seq * C truncated below degree L
    P = []
    for k in range(L):
        acc = Fraction(0)
        for i in range(min(k, len(C) - 1) + 1):
            acc += C[i] * fit[k - i]
        P.append(acc)
    candidate = RationalFunction.make(P, C)
    if candidate.expand(len(seq) - 1) == seq:
        return candidate
    return None


# ---------------------------------------------------------------------------
# series utilities
# ---------------------------------------------------------------------------

def ball_series(sphere_counts) -> list:
    """Partial sums of a sphere sequence: division of the series by (1-z)."""
    if not sphere_counts:
        raise ArgumentError("sequence must be nonempty")
    out = []
    acc = 0
    for c in sphere_counts:
        acc += c
        out.append(acc)
    return out


def catalan(kmax: int) -> list[int]:
    """Catalan numbers c_0..c_kmax by the convolution recurrence
    c_{k+1} = sum_{i=0}^{k} c_i c_{k-i}, with c_0 = 1."""
    if kmax < 0:
        raise ArgumentError("kmax must be nonnegative")
    c = [1]
    for k in range(kmax):
        c.append(sum(c[i] * c[k - i] for i in range(k + 1)))
    return c

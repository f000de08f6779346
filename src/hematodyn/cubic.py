"""Closed-form roots of a monic cubic, x^3 + b*x^2 + c*x + d."""

from __future__ import annotations

import math
from typing import Tuple

__all__ = ["solve_cubic"]

# relative threshold below which the discriminant is treated as zero
_DISC_TOL = 1e-14
# 2*pi*k for k = 1, 2 is _TWO_PI and 2.0*_TWO_PI, both exact
_TWO_PI = 2.0 * math.pi


def _cbrt(x: float) -> float:
    return math.copysign(abs(x) ** (1.0 / 3.0), x)


def _polish(root: complex, b: float, c: float, d: float) -> complex:
    # up to two Newton steps, kept only while they shrink the residual
    for _ in range(2):
        p = ((root + b) * root + c) * root + d
        dp = (3.0 * root + 2.0 * b) * root + c
        if dp == 0:
            break
        step = root - p / dp
        ps = ((step + b) * step + c) * step + d
        if abs(ps) >= abs(p):
            break
        root = step
    return root


def solve_cubic(b: float, c: float, d: float) -> Tuple[complex, complex, complex]:
    """All three roots (with multiplicity) of x^3 + b*x^2 + c*x + d.

    Trigonometric form when all roots are real, Cardano otherwise; no
    iterative eigensolver involved. Roots are returned unsorted as complex
    numbers and satisfy |p(x)| at machine-level residuals for the coefficient
    ranges that arise from 3x3 characteristic polynomials.
    """
    # depressed cubic y^3 + p*y + q with x = y - b/3
    shift = b / 3.0
    p = c - b * b / 3.0
    q = (2.0 * b * b / 9.0 - c) * shift + d

    if p == 0.0 and q == 0.0:
        return (complex(-shift),) * 3

    # normalize y = s*z so the z-cubic has O(1) coefficients; otherwise the
    # discriminant under/overflows for extreme inputs and misclassifies
    s = max(math.sqrt(abs(p)), abs(q) ** (1.0 / 3.0))
    pn = (p / s) / s
    qn = ((q / s) / s) / s

    disc = -4.0 * pn * pn * pn - 27.0 * qn * qn
    scale = max(4.0 * abs(pn) ** 3, 27.0 * qn * qn)

    if abs(disc) <= _DISC_TOL * scale:
        # boundary: repeated roots
        y1 = 3.0 * qn / pn * s        # simple root
        y2 = -1.5 * qn / pn * s       # double root
        r0 = complex(y1 - shift)
        r1 = r2 = complex(y2 - shift)
    elif disc > 0.0:
        # three distinct real roots, at angles (phi - 2*pi*k)/3 for k = 0, 1, 2
        m = 2.0 * math.sqrt(-pn / 3.0)
        arg = 3.0 * qn / (pn * m)
        arg = min(1.0, max(-1.0, arg))
        phi = math.acos(arg)
        sm = s * m
        r0 = complex(sm * math.cos(phi / 3.0) - shift)
        r1 = complex(sm * math.cos((phi - _TWO_PI) / 3.0) - shift)
        r2 = complex(sm * math.cos((phi - 2.0 * _TWO_PI) / 3.0) - shift)
    else:
        # one real root and a conjugate pair
        rad = math.sqrt(qn * qn / 4.0 + pn * pn * pn / 27.0)
        u = _cbrt(-qn / 2.0 + rad)
        # the product u*v is -pn/3 exactly; dividing avoids cancellation in
        # the smaller cube root when qn and rad nearly cancel
        v = -pn / (3.0 * u) if u != 0.0 else _cbrt(-qn / 2.0 - rad)
        y_re = s * (u + v)
        y_im = s * (math.sqrt(3.0) / 2.0) * (u - v)
        r0 = complex(y_re - shift)
        r1 = complex(-y_re / 2.0 - shift, y_im)
        r2 = complex(-y_re / 2.0 - shift, -y_im)

    return _polish(r0, b, c, d), _polish(r1, b, c, d), _polish(r2, b, c, d)

"""The normal CDF and log-gamma on Python floats, as the Cephes library
computes them (S. L. Moshier, *Methods and Programs for Mathematical
Functions*, 1989: `ndtr.c` and `gamma.c`).

scipy.special evaluates `ndtr` and `gammaln` with these routines, so the
ports give scipy's values bit for bit: the same coefficients, the same
branch points and the same order of operations, with `math.exp`,
`math.log` and `math.sin` standing for the C library calls. Importing
scipy.special for two scalar functions would cost more than the rest of
the package's imports.
"""

from __future__ import annotations

import math

# erf on [0, 1]: x T(x^2) / U(x^2)
_T = (9.60497373987051638749E0, 9.00260197203842689217E1,
      2.23200534594684319226E3, 7.00332514112805075473E3,
      5.55923013010394962768E4)
_U = (3.35617141647503099647E1, 5.21357949780152679795E2,
      4.59432382970980127987E3, 2.26290000613890934246E4,
      4.92673942608635921086E4)
# erfc on [1, 8): exp(-x^2) P(x) / Q(x)
_P = (2.46196981473530512524E-10, 5.64189564831068821977E-1,
      7.46321056442269912687E0, 4.86371970985681366614E1,
      1.96520832956077098242E2, 5.26445194995477358631E2,
      9.34528527171957607540E2, 1.02755188689515710272E3,
      5.57535335369399327526E2)
_Q = (1.32281951154744992508E1, 8.67072140885989742329E1,
      3.54937778887819891062E2, 9.75708501743205489753E2,
      1.82390916687909736289E3, 2.24633760818710981792E3,
      1.65666309194161350182E3, 5.57535340817727675546E2)
# erfc on [8, inf): exp(-x^2) R(x) / S(x)
_R = (5.64189583547755073984E-1, 1.27536670759978104416E0,
      5.01905042251180477414E0, 6.16021097993053585195E0,
      7.40974269950448939160E0, 2.97886665372100240670E0)
_S = (2.26052863220117276590E0, 9.39603524938001434673E0,
      1.20489539808096656605E1, 1.70814450747565897222E1,
      9.60896809063285878198E0, 3.36907645100081516050E0)
_MAXLOG = 7.09782712893383996843E2
_SQRT1_2 = 0.70710678118654752440

# log-gamma: Stirling correction A(1/x^2) / x, and B(x) / C(x) on [2, 3)
_A = (8.11614167470508450300E-4, -5.95061904284301438324E-4,
      7.93650340457716943945E-4, -2.77777777730099687205E-3,
      8.33333333333331927722E-2)
_B = (-1.37825152569120859100E3, -3.88016315134637840924E4,
      -3.31612992738871184744E5, -1.16237097492762307383E6,
      -1.72173700820839662146E6, -8.53555664245765465627E5)
_C = (-3.51815701436523470549E2, -1.70642106651881159223E4,
      -2.20528590553854454839E5, -1.13933444367982507207E6,
      -2.53252307177582951285E6, -2.01889141433532773231E6)
_LOGPI = 1.14472988584940017414
_LS2PI = 0.91893853320467274178  # log(sqrt(2 pi))
_MAXLGM = 2.556348e305


def _polevl(x: float, coef: tuple[float, ...]) -> float:
    """coef[0] x^N + ... + coef[N] by Horner's rule."""
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _p1evl(x: float, coef: tuple[float, ...]) -> float:
    """x^N + coef[0] x^(N-1) + ... + coef[N-1]: a leading 1 implied."""
    ans = x + coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def erf(x: float) -> float:
    if x != x:
        return x
    if x < 0.0:
        return -erf(-x)
    if abs(x) > 1.0:
        return 1.0 - erfc(x)
    z = x * x
    return x * _polevl(z, _T) / _p1evl(z, _U)


def erfc(a: float) -> float:
    if a != a:
        return a
    x = -a if a < 0.0 else a
    if x < 1.0:
        return 1.0 - erf(a)
    z = -a * a
    if z < -_MAXLOG:
        return 2.0 if a < 0 else 0.0
    z = math.exp(z)
    if x < 8.0:
        p, q = _polevl(x, _P), _p1evl(x, _Q)
    else:
        p, q = _polevl(x, _R), _p1evl(x, _S)
    y = (z * p) / q
    if a < 0:
        y = 2.0 - y
    if y == 0.0:
        return 2.0 if a < 0 else 0.0
    return y


def ndtr(a: float) -> float:
    """The standard normal CDF at a."""
    if a != a:
        return a
    x = a * _SQRT1_2
    z = abs(x)
    if z < _SQRT1_2:
        return 0.5 + 0.5 * erf(x)
    y = 0.5 * erfc(z)
    return 1.0 - y if x > 0 else y


def gammaln(x: float) -> float:
    """log|Gamma(x)|; inf at the poles 0, -1, -2, ... and beyond MAXLGM."""
    if not math.isfinite(x):
        return x
    if x < -34.0:
        q = -x
        w = gammaln(q)
        p = float(math.floor(q))
        if p == q:
            return math.inf
        z = q - p
        if z > 0.5:
            p += 1.0
            z = p - q
        z = q * math.sin(math.pi * z)
        if z == 0.0:
            return math.inf
        return _LOGPI - math.log(z) - w
    if x < 13.0:
        z, p, u = 1.0, 0.0, x
        while u >= 3.0:
            p -= 1.0
            u = x + p
            z *= u
        while u < 2.0:
            if u == 0.0:
                return math.inf
            z /= u
            p += 1.0
            u = x + p
        z = abs(z)
        if u == 2.0:
            return math.log(z)
        p -= 2.0
        x = x + p
        return math.log(z) + x * _polevl(x, _B) / _p1evl(x, _C)
    if x > _MAXLGM:
        return math.inf
    q = (x - 0.5) * math.log(x) - x + _LS2PI
    if x > 1.0e8:
        return q
    p = 1.0 / (x * x)
    if x >= 1000.0:
        q += ((7.9365079365079365079365e-4 * p
               - 2.7777777777777777777778e-3) * p
              + 0.0833333333333333333333) / x
    else:
        q += _polevl(p, _A) / x
    return q

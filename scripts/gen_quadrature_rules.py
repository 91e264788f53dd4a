#!/usr/bin/env python3
"""Regenerate the nested 1-D Gaussian quadrature rule constants.

Builds the nested family of symmetric quadrature rules for the standard
normal weight that the sparse-grid code embeds as decimal constants:

  R1  (1 pt)  {0}                         exact degree 1
  R3  (3 pt)  {0, +-sqrt3}                Gauss-Hermite, exact degree 5
  R7  (7 pt)  R3 + {+-1, +-3}             exact degree 9
  R15 (15 pt) R7 + 8 points               exact degree 17

Construction notes
------------------
A strict Kronrod extension of the 3-point rule (4 added points, degree 11)
does not exist for the normal weight: the added-node polynomial comes out
as u^2 - 10u - 5 in u = x^2, which has a negative root.  Backing off to
degree 9 leaves a one-parameter family with added magnitudes satisfying
y1^2 + y2^2 = 10; the choice y2 = 1 gives y1 = 3 and rational weights
{4/9, 3/16, 1/12, 1/144}.

Extending 7 -> 15, the full degree-23 Patterson system again has a complex
pair, and the degree-21/19 families have no usefully positive member.  At
degree 17 one orthogonality condition remains:

    integral  E8(x) * x^2 (x^2-1)(x^2-3)(x^2-9)  dPhi(x) = 0,

with E8(x) = prod (x^2 - t_i).  Three of the added squared magnitudes are
chosen as (5, 11.5, 21) to (approximately) maximize the smallest weight
over the family; the condition above then fixes the fourth at t = 15/38.
Weights solve the symmetric moment system for even degrees 0..14 and are
all positive.

Run:  python scripts/gen_quadrature_rules.py
Prints the tables that live in src/windsed/pce.py as the constants _R1,
_R3, _R7 and _R15, one block per rule.
"""
import mpmath as mp

mp.mp.dps = 60
DIGITS = 30

MOMENTS = [mp.mpf(1)] + [mp.fac2(2 * k - 1) for k in range(1, 24)]


def _half_moment(k):
    """E[u^k] for u = x^2, x ~ N(0,1): the double factorial (2k-1)!!."""
    return MOMENTS[k]


def _weights(mags2):
    """Weights of the symmetric rule with node magnitudes sqrt(mags2).

    Matches even moments 0..2*len(mags2); w0 is the weight at zero and the
    returned pair weights apply to each of +-sqrt(t).
    """
    n = len(mags2)
    A = mp.matrix(n + 1, n + 1)
    rhs = mp.matrix(n + 1, 1)
    for k in range(n + 1):
        A[k, 0] = mp.mpf(1) if k == 0 else mp.mpf(0)
        for c, t in enumerate(mags2):
            A[k, c + 1] = 2 * t ** k
        rhs[k] = _half_moment(k)
    sol = mp.lu_solve(A, rhs)
    return sol[0], list(sol[1:])


def _fourth_magnitude(t2, t3, t4):
    """Solve the single degree-17 orthogonality condition for t1.

    E8 expressed via elementary symmetric functions of (t1, t2, t3, t4);
    the condition is linear in t1.
    """
    # L[E8(u) * q(u)] = 0 with q(u) = u^4 - 13u^3 + 39u^2 - 27u and
    # E8(u) = (u - t1)(u - t2)(u - t3)(u - t4).
    def lin_coeffs(u_poly):
        # value of L[u_poly * q] as (a + b*t1)
        q = [mp.mpf(0), mp.mpf(-27), mp.mpf(39), mp.mpf(-13), mp.mpf(1)]
        prod = [mp.mpf(0)] * (len(u_poly) + len(q) - 1)
        for i, a in enumerate(u_poly):
            for j, b in enumerate(q):
                prod[i + j] += a * b
        return mp.fsum(c * _half_moment(k) for k, c in enumerate(prod))

    # (u - t2)(u - t3)(u - t4) = u^3 + c2 u^2 + c1 u + c0
    c2 = -(t2 + t3 + t4)
    c1 = t2 * t3 + t2 * t4 + t3 * t4
    c0 = -t2 * t3 * t4
    cubic = [c0, c1, c2, mp.mpf(1)]
    # E8 = (u - t1) * cubic = u*cubic - t1*cubic
    a = lin_coeffs([mp.mpf(0)] + cubic)          # coefficient independent of t1
    b = lin_coeffs(cubic)                        # multiplies (-t1)
    return a / b


def build_rules():
    s3 = mp.sqrt(3)
    r1 = [(mp.mpf(0), mp.mpf(1))]
    r3 = [(-s3, mp.mpf(1) / 6), (mp.mpf(0), mp.mpf(2) / 3), (s3, mp.mpf(1) / 6)]
    r7_mags = [mp.mpf(1), mp.mpf(3), mp.mpf(9)]
    w0, pw = _weights(r7_mags)
    r7 = [(mp.mpf(0), w0)]
    for t, w in zip(r7_mags, pw):
        x = mp.sqrt(t)
        r7 += [(-x, w), (x, w)]
    t2, t3, t4 = mp.mpf(5), mp.mpf('11.5'), mp.mpf(21)
    t1 = _fourth_magnitude(t2, t3, t4)
    r15_mags = sorted(r7_mags + [t1, t2, t3, t4])
    w0, pw = _weights(r15_mags)
    r15 = [(mp.mpf(0), w0)]
    for t, w in zip(r15_mags, pw):
        x = mp.sqrt(t)
        r15 += [(-x, w), (x, w)]
    return [sorted(r) for r in (r1, r3, r7, r15)]


def exactness(rule, maxdeg=30):
    for d in range(maxdeg + 1):
        approx = mp.fsum(w * x ** d for x, w in rule)
        exact = mp.mpf(0) if d % 2 else MOMENTS[d // 2]
        if abs(approx - exact) > mp.mpf('1e-40') * max(1, abs(exact)):
            return d - 1
    return maxdeg


if __name__ == '__main__':
    rules = build_rules()
    for rule in rules:
        print(f"# {len(rule)} points, exact through degree {exactness(rule)}")
        for x, w in rule:
            print(f'    ("{mp.nstr(x, DIGITS, strip_zeros=False)}", "{mp.nstr(w, DIGITS, strip_zeros=False)}"),')
        print()

"""Shared pipeline fixtures.

The suite maps used throughout: x^2+1 at p=3 and p=5 (the p=5 reduction has
no clear periodic point over F_5, so the search lands in F_25), x^2 at p=5,
x^3 at p=5 and p=7, and the 2-dimensional map (x^2+y, y^2+x) at p=5.
"""

import math
from fractions import Fraction

import pytest

from padicdyn import RationalSelfMap, run_pipeline

SUITE_SPECS = {
    "quad_p3": (1, ["x1^2 + 1"], 3),
    "quad_p5": (1, ["x1^2 + 1"], 5),
    "square_p5": (1, ["x1^2"], 5),
    "cube_p5": (1, ["x1^3"], 5),
    "cube_p7": (1, ["x1^3"], 7),
    "twodim_p5": (2, ["x1^2 + x2", "x2^2 + x1"], 5),
}


def build_map(name):
    n, nums, _ = SUITE_SPECS[name]
    return RationalSelfMap.from_texts(n, nums)


def build_pipeline(name, **kw):
    n, nums, p = SUITE_SPECS[name]
    f = RationalSelfMap.from_texts(n, nums)
    return run_pipeline(f, prime=p, **kw)


@pytest.fixture(scope="session")
def suite_pipelines():
    return {name: build_pipeline(name) for name in SUITE_SPECS}


@pytest.fixture(scope="session")
def quad_p3_naive():
    return build_pipeline("quad_p3", lift="naive")


# small dense matrices of FFElements, for the oracles

def mat_identity(field, n):
    return [[field.one() if i == j else field.zero() for j in range(n)]
            for i in range(n)]


def mat_mul(A, B):
    n, m, k = len(A), len(B[0]), len(B)
    return [[_dot(A[i], [B[t][j] for t in range(k)]) for j in range(m)]
            for i in range(n)]


def mat_vec(A, v):
    return [_dot(row, v) for row in A]


def _dot(xs, ys):
    acc = None
    for x, y in zip(xs, ys):
        term = x * y
        acc = term if acc is None else acc + term
    return acc


def mat_eq(A, B):
    return all(a == b for ra, rb in zip(A, B) for a, b in zip(ra, rb))


def brute_force_affine_order(nbhd):
    """Independent oracle: the lcm of the cycle lengths of the reduced
    affine map acting on all of F_q^n."""
    fld = nbhd.ctx.residue_field
    n = nbhd.n
    L, c = nbhd.affine_parts()

    def apply_index(idx):
        digits = []
        i = idx
        for _ in range(n):
            i, r = divmod(i, fld.order)
            digits.append(fld.element_from_index(r))
        image = [a + b for a, b in zip(mat_vec(L, digits), c)]
        out = 0
        for elt in reversed(image):
            out = out * fld.order + fld.index_of(elt)
        return out

    perm = [apply_index(i) for i in range(fld.order ** n)]
    seen = [False] * len(perm)
    order = 1
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        cur = start
        while not seen[cur]:
            seen[cur] = True
            cur = perm[cur]
            length += 1
        order = order * length // math.gcd(order, length)
    return order


def height_growth_oracle(f, omega, steps=12):
    """Independent exact-height cross-check: 'periodic' on an exact return,
    'escaping' when heights grow monotonically through the tail, else
    'inconclusive'. Heights are max(|numerator|, |denominator|) over
    coordinates."""
    omega = tuple(Fraction(w) for w in omega)

    def height(pt):
        return max(max(abs(w.numerator), w.denominator) for w in pt)

    z = omega
    heights = [height(z)]
    for _ in range(steps):
        z = tuple(f.eval_fraction(z))
        if z == omega:
            return "periodic"
        heights.append(height(z))
    tail = heights[len(heights) // 2:]
    if all(a < b for a, b in zip(tail, tail[1:])) and tail[-1] > heights[0]:
        return "escaping"
    return "inconclusive"

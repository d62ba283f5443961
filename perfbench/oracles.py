"""Reference answers computed with numpy alone, without detline.

Every oracle returns a natural logarithm, so answers are compared as
|log result - log oracle|.

* Cellular torsion through a representation that splits into characters
  (regular representations of finite abelian groups, and scalar blocks):
  each character turns the group-ring boundary matrices into scalar
  matrices; the log torsion is the trace-weighted sum over characters of
  (-1)^i (i/2) log det' of the degree-i Laplacian, negated for the
  cohomology (cochain) side.  Boundary data below is re-derived from the
  standard presentations by Fox calculus and abelianized, independently of
  `detline.fixtures`.
* Group-ring operators: (1/|G|) log |det R| of the dense matrix R of the
  operator on l2(G)^m.
* Torus symbols: log det is the Mahler measure of det F.  Rank 1 uses
  Jensen's formula on the roots; rank 2 integrates the rank-1 Jensen value
  over the second variable (Boyd), which converges geometrically when
  det F has no zero on the torus.
* m(1 + x + y) is Smyth's closed form 3 sqrt(3) / (4 pi) L(chi_-3, 2).
"""

from __future__ import annotations

import numpy as np

# 30 digits, from mpmath: 3*sqrt(3)/(4*pi) * (psi1(1/3) - psi1(2/3)) / 9
SMYTH_1_X_Y = 0.323065947219450514093636510724

KERNEL_CUT = 1e-9


# -- cellular torsion --------------------------------------------------------
# A boundary matrix is a list of rows; an entry maps an exponent tuple over
# the generators to an integer coefficient.


def circle_cells(k):
    d1 = [[{} for _ in range(k)] for _ in range(k)]
    for i in range(k):
        if i < k - 1:
            d1[i + 1][i] = {(0,): 1}
        else:
            d1[0][i] = {(1,): 1}
        d1[i][i] = dict(d1[i][i])
        d1[i][i][(0,)] = d1[i][i].get((0,), 0) - 1
    return [d1]


def lens_cells(n):
    edge = {(1,): 1, (0,): -1}
    return [[[edge]], [[{(i,): 1 for i in range(n)}]], [[edge]]]


def torus_cells():
    # relator a b a^-1 b^-1: Fox derivatives 1 - a b a^-1 and a - a b a^-1 b^-1
    d1 = [[{(1, 0): 1, (0, 0): -1}, {(0, 1): 1, (0, 0): -1}]]
    d2 = [[{(0, 0): 1, (0, 1): -1}], [{(1, 0): 1, (0, 0): -1}]]
    return [d1, d2]


def klein_cells():
    # relator a b a b^-1: Fox derivatives 1 + a b and a - a b a b^-1
    d1 = [[{(1, 0): 1, (0, 0): -1}, {(0, 1): 1, (0, 0): -1}]]
    d2 = [[{(0, 0): 1, (1, 1): 1}], [{(1, 0): 1, (2, 0): -1}]]
    return [d1, d2]


def cyclic_characters(n):
    return [((np.exp(2j * np.pi * j / n),), 1.0 / n) for j in range(n)]


def product_characters(orders):
    n1, n2 = orders
    return [
        ((np.exp(2j * np.pi * a / n1), np.exp(2j * np.pi * b / n2)), 1.0 / (n1 * n2))
        for a in range(n1)
        for b in range(n2)
    ]


def _evaluate(matrix, values):
    out = np.zeros((len(matrix), len(matrix[0])), dtype=complex)
    for r, row in enumerate(matrix):
        for c, terms in enumerate(row):
            for exponent, coeff in terms.items():
                out[r, c] += coeff * np.prod([v**e for v, e in zip(values, exponent)])
    return out


def cellular_torsion(boundaries, characters, side="right"):
    """(log torsion coordinate, betti numbers) of the coefficient complex."""
    counts = [len(boundaries[0])] + [len(b[0]) for b in boundaries]
    log_t = 0.0
    betti = [0.0] * len(counts)
    for values, weight in characters:
        mats = [_evaluate(b, values) for b in boundaries]
        for i, size in enumerate(counts):
            lap = np.zeros((size, size), dtype=complex)
            if i >= 1:
                lap += mats[i - 1].conj().T @ mats[i - 1]
            if i < len(mats):
                lap += mats[i] @ mats[i].conj().T
            ev = np.linalg.eigvalsh(lap)
            positive = ev[ev > KERNEL_CUT * max(1.0, float(ev.max()))]
            betti[i] += weight * (size - positive.size)
            log_t += weight * (-1) ** i * (i / 2.0) * float(np.sum(np.log(positive)))
    if side == "left":
        log_t = -log_t
    return log_t, betti


# -- group rings -------------------------------------------------------------


def group_ring_log_det(dense, order):
    sign, logabs = np.linalg.slogdet(dense)
    if sign == 0:
        raise ValueError("singular operator")
    return float(logabs) / order


# -- torus symbols -----------------------------------------------------------
# A symbol is {exponent tuple: (m, m) array}.


def _det_samples(terms, axes):
    """det F on the product grid given by one angle array per variable."""
    mesh = np.meshgrid(*axes, indexing="ij")
    size = next(iter(terms.values())).shape[0]
    total = np.zeros(mesh[0].shape + (size, size), dtype=complex)
    for exponent, coeff in terms.items():
        phase = np.exp(2j * np.pi * sum(e * m for e, m in zip(exponent, mesh)))
        total += phase[..., None, None] * coeff
    return np.linalg.det(total)


def _jensen(coeffs):
    """Mahler measure of sum_k coeffs[k] z^k (low to high)."""
    coeffs = np.asarray(coeffs, dtype=complex)
    big = np.max(np.abs(coeffs))
    keep = np.nonzero(np.abs(coeffs) > 1e-13 * big)[0]
    coeffs = coeffs[keep[0] : keep[-1] + 1]
    roots = np.roots(coeffs[::-1])
    return float(np.log(abs(coeffs[-1])) + np.sum(np.log(np.maximum(1.0, np.abs(roots)))))


def mahler(terms, fourier=64, outer=256):
    """log det of a square symbol over the rank-1 or rank-2 torus."""
    rank = len(next(iter(terms)))
    size = next(iter(terms.values())).shape[0]
    lows = [min(k[a] for k in terms) for a in range(rank)]
    highs = [max(k[a] for k in terms) for a in range(rank)]
    if size * (highs[0] - lows[0]) >= fourier:
        raise ValueError("symbol degree exceeds the Fourier grid")
    x = np.arange(fourier) / fourier
    if rank == 1:
        samples = _det_samples(terms, [x])
    else:
        samples = _det_samples(terms, [x, (np.arange(outer) + 0.5) / outer])
    # coefficient of z^k sits at index k mod N; shift the lowest exponent to 0
    coeffs = np.fft.fft(samples, axis=0) / fourier
    low = size * lows[0]
    coeffs = np.roll(coeffs, -low, axis=0)[: size * (highs[0] - lows[0]) + 1]
    if rank == 1:
        return _jensen(coeffs)
    return float(np.mean([_jensen(coeffs[:, j]) for j in range(outer)]))

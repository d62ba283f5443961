"""Log-determinants of Laurent symbols over the torus as Mahler measures.

For a square symbol F whose determinant does not vanish identically,
log Det F is the torus integral of log|det F|, the Mahler measure
m(det F) (Lück, L2-Invariants, Ch. 3; Boyd 1981).  On the circle Jensen's
formula gives it from the roots; on the 2-torus Boyd's formula integrates
the circle value in one variable over the angle of the other.

A polynomial here is a matrix polynomial M(z) = sum_k M_k z^k, stored as a
coefficient array with index k on the leading axes and the m x m block on
the last two; a scalar polynomial is the case m = 1.  Its Mahler measure is
m(det M).  The roots of det M are the eigenvalues of the block companion
matrix, so a multiplicity that comes from the matrix structure, such as
det(P I) = P^m, stays as well conditioned as the roots of P.

The positive part of a Hermitian symbol of generic rank r has the
log-determinant m(e_r(F)), the Mahler measure of the product of its r
nonzero eigenvalue branches; e_r(F) comes from the coefficients.  A map d
has log Det+(d^H d) = log Det+(d d^H), since the two share their nonzero
spectrum: 2 m(det d) when d is square of full generic rank, otherwise that
of the smaller Gram matrix.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from .errors import IndeterminateConvergence

# a polynomial of degree count in the entries of F vanishes identically when
# it stays below this fraction of max |F|^count on a grid covering its box
SYMBOL_KERNEL_REL_TOL = 1e-12
EPS = float(np.finfo(float).eps)
# end coefficients below this fraction of the largest are dropped; the
# Mahler measure is continuous in the coefficients, degree drops included
COEFFICIENT_TRIM = 1e-14
# roots against the polynomial, relative to the sum of coefficient moduli
ROOT_CHECK_TOL = 1e-9
CHECK_CIRCLE = np.exp(2j * np.pi * (np.arange(8) + 0.6180339887498949) / 8)
# linkage radii tried, largest first, when merging a numerical multiple root
CLUSTER_RADII = tuple(0.5 / 4.0**k for k in range(12))
CLUSTER_BLUR = 1e-3
# roots this close to the unit circle do not count as crossing it
CIRCLE_BAND = 1e-9
# roots this close to the unit circle bound the arcs that positivity probes;
# a k-fold root is computed to about eps^(1/k), so this keeps k <= 8
PROBE_BAND = 1e-2
GL_ORDERS = (12, 24)
SCAN_NODES = 32
SECTIONS = 16
BREAKPOINT_TOL = 1e-15
# panels per turn at the start: a longer panel rarely passes the panel test
START_PANELS = 4
PANEL_REL_TOL = 1e-12
PANEL_FLOOR = 1e-15
MAX_PANELS = 500
# a matrix row whose end blocks both have |det| below this fraction of
# (sum of block norms)^m is solved through its scalar determinant
LEADING_BLOCK_TOL = 1e-12
# a symbol whose largest entry modulus, to the power of the degree of the
# polynomial measured in its entries, leaves 2^(+-RESCALE_BITS) is measured
# after an exact scaling by a power of two
RESCALE_BITS = 256
LOG2 = math.log(2.0)


@functools.lru_cache(maxsize=None)
def _gauss_legendre(n: int):
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1].

    Golub-Welsch: the nodes are the eigenvalues of the Jacobi matrix of the
    Legendre recurrence, the weights twice the squared first components of
    its eigenvectors.
    """
    k = np.arange(1.0, n)
    beta = k / np.sqrt(4.0 * k * k - 1.0)
    nodes, vectors = np.linalg.eigh(np.diag(beta, 1) + np.diag(beta, -1))
    return nodes, 2.0 * vectors[0] ** 2


def _linked(near):
    """Single-linkage cluster labels from a stack of adjacency matrices, shape
    (rows, points, points): each point's label is the smallest index in its
    cluster."""
    count = near.shape[-1]
    label = np.broadcast_to(np.arange(count), near.shape[:-1])
    while True:
        merged = np.min(np.where(near, label[:, None, :], count), axis=2)
        merged = np.take_along_axis(merged, merged, axis=1)
        if np.array_equal(merged, label):
            return label
        label = merged


def _merge_clusters(direct, lead, roots, tol):
    """Jensen sums, sum log max(1, |root|), of rows of roots with each
    numerical multiple root merged.

    A cluster whose members lie on both sides of the unit circle would make
    Jensen's formula count part of one root outside: (t - 1)^20 has computed
    roots up to 1.16 in modulus.  Such a cluster counts as its centroid,
    with its multiplicity, when the product over the other roots and the
    centroid still reproduces `direct`, the polynomial at CHECK_CIRCLE, to
    tol; otherwise it is split at the next smaller linkage radius, and a
    part that radius does not split fails again untried.  Two roots link
    when closer than the radius times the larger of 1 and their moduli, so
    the clusters of each radius refine those of the one before: the tree is
    walked one radius at a time over every row at once.
    """
    n, degree = roots.shape
    moduli = np.abs(roots)
    reach = np.maximum(1.0, np.maximum(moduli[:, :, None], moduli[:, None, :]))
    gaps = np.abs(roots[:, :, None] - roots[:, None, :])
    factors = CHECK_CIRCLE[None, :, None] - roots[:, None, :]
    terms = np.log(np.maximum(1.0, moduli))
    unresolved = np.ones((n, degree), dtype=bool)
    # size of the failed cluster each root was split from; none at the top
    parent = np.full((n, degree), degree + 1)
    for level, radius in enumerate(CLUSTER_RADII):
        active = np.nonzero(np.any(unresolved, axis=1))[0]
        if not active.size:
            break
        label = _linked(gaps[active] <= radius * reach[active])
        row, head = np.nonzero(unresolved[active] & (label == np.arange(degree)))
        member = label[row] == head[:, None]
        row = active[row]
        size = np.sum(member, axis=1)
        # summed in index order, as np.mean sums a short cluster
        centroid = np.cumsum(np.where(member, roots[row], 0.0), axis=1)[:, -1] / size
        crossed = (moduli[row] > 1.0) != (np.abs(centroid) > 1.0)[:, None]
        straddles = np.any(member & crossed, axis=1)
        tried = np.nonzero(straddles & (size != parent[row, head]))[0]
        rest = np.prod(np.where(member[tried, None, :], 1.0, factors[row[tried]]), axis=2)
        power = (CHECK_CIRCLE - centroid[tried, None]) ** size[tried, None]
        trial = lead[row[tried], None] * rest * power
        merged = np.zeros(row.size, dtype=bool)
        merged[tried] = np.max(np.abs(direct[row[tried]] - trial), axis=1) <= tol[row[tried]]
        split = straddles & ~merged & (level + 1 < len(CLUSTER_RADII))

        cluster, slot = np.nonzero(member)
        unresolved[row[cluster], slot] = split[cluster]
        parent[row[cluster], slot] = size[cluster]
        cluster, slot = np.nonzero(member & merged[:, None])
        terms[row[cluster], slot] = 0.0
        centre_term = np.log(np.maximum(1.0, np.abs(centroid[merged])))
        terms[row[merged], head[merged]] = size[merged] * centre_term
    return np.sum(terms, axis=1)


def _blurred_straddles(lead, roots, moduli, tol):
    """Rows holding a close pair of roots on opposite sides of the unit
    circle that is resolved no better than its own distance apart: the
    spread of a numerical multiple root, which _merge_clusters decides."""
    n, degree = roots.shape
    if degree < 2:
        return np.zeros(n, dtype=bool)
    gaps = np.abs(roots[:, :, None] - roots[:, None, :])
    eye = np.eye(degree, dtype=bool)
    slope = np.abs(lead)[:, None] * np.prod(np.where(eye, 1.0, gaps), axis=2)
    with np.errstate(divide="ignore"):
        spread = tol[:, None] / slope
    size = np.maximum(1.0, np.maximum(moduli[:, :, None], moduli[:, None, :]))
    outside = moduli > 1.0
    close = (gaps <= CLUSTER_RADII[0] * size) & (outside[:, :, None] != outside[:, None, :])
    blurred = np.maximum(spread[:, :, None], spread[:, None, :]) >= CLUSTER_BLUR * gaps
    return np.any(close & blurred & ~eye, axis=(1, 2))


def _evaluate_rows(blocks, points):
    """det M(z) for every row of blocks and every point z: shape (rows, points)."""
    powers = points[:, None] ** np.arange(blocks.shape[1])
    return np.linalg.det(np.einsum("nkab,zk->nzab", blocks, powers))


def _scalar_rows(blocks):
    """Coefficients of det M(z) for every row, by the discrete Fourier
    transform of its values at one point of the circle per coefficient."""
    n, width, m, _ = blocks.shape
    size = m * (width - 1) + 1
    grid = np.arange(size) / size
    values = _evaluate_rows(blocks, np.exp(2j * np.pi * grid))
    fourier = np.exp(2j * np.pi * np.outer(grid, np.arange(size)))
    return (values @ fourier.conj() / size)[:, :, None, None]


def _jensen_rows(blocks):
    """Jensen's formula for the matrix polynomial of each row of blocks.

    m(det M) = log|det M_lead| + sum log max(1, |root|).  A scalar row is
    first shifted so that its lowest significant coefficient is the
    constant one.  A row whose constant block outweighs its leading one is
    reversed, which maps each root r to 1/r and keeps m, so the companion
    never inverts the smaller end.  A matrix row with both end blocks
    singular to LEADING_BLOCK_TOL falls back to the scalar coefficients of
    its determinant, and so does one whose block companion roots miss.  The
    roots must reproduce det M at points of the unit circle to
    ROOT_CHECK_TOL relative to (sum of block norms)^m, or the row is not
    trusted.

    Returns (Mahler measures, roots outside the unit circle per row, largest
    relative residual of the root factorisation, roots per row).  An
    identically zero row has value nan.
    """
    n, width, m, _ = blocks.shape
    if width == 1:
        values = np.log(np.abs(np.linalg.det(blocks[:, 0])))
        return values, np.zeros(n, dtype=int), 0.0, np.zeros((n, 0), dtype=complex)
    if m == 1:
        size = np.abs(blocks[:, :, 0, 0])
        first = np.argmax(size > COEFFICIENT_TRIM * np.max(size, axis=1, keepdims=True), axis=1)
        blocks = blocks[np.arange(n)[:, None], (np.arange(width)[None, :] + first[:, None]) % width]
    ends = np.abs(np.linalg.det(blocks[:, [0, -1]]))
    flipped = ends[:, 1] < ends[:, 0]
    blocks = np.where(flipped[:, None, None, None], blocks[:, ::-1], blocks)
    lead_det = np.maximum(ends[:, 0], ends[:, 1])
    norm = np.sum(np.sqrt(np.sum(np.abs(blocks) ** 2, axis=(2, 3))), axis=1)
    scale = norm**m
    singular = lead_det == 0 if m == 1 else lead_det <= LEADING_BLOCK_TOL * scale
    lead = blocks[:, -1].copy()
    lead[singular] = np.eye(m)

    degree = width - 1
    companion = np.zeros((n, m * degree, m * degree), dtype=complex)
    lower = np.concatenate([blocks[:, k] for k in range(degree - 1, -1, -1)], axis=2)
    companion[:, :m, :] = -np.linalg.solve(lead, lower)
    companion[:, m:, : m * (degree - 1)] = np.eye(m * (degree - 1))
    roots = np.linalg.eigvals(companion)

    lead_det = np.linalg.det(lead)
    direct = _evaluate_rows(blocks, CHECK_CIRCLE)
    product = lead_det[:, None] * np.prod(CHECK_CIRCLE[None, :, None] - roots[:, None, :], axis=2)
    residual = np.max(np.abs(direct - product), axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        relative = residual / scale
    if m > 1:
        singular |= ~(relative <= ROOT_CHECK_TOL)
    worst = float(np.max(np.where(singular, 0.0, relative)))
    if not worst <= ROOT_CHECK_TOL:
        raise IndeterminateConvergence(
            f"roots reproduce the polynomial only to {worst:.2e} of its size"
        )

    moduli = np.abs(roots)
    values = np.log(np.abs(lead_det)) + np.sum(np.log(np.maximum(1.0, moduli)), axis=1)
    outside = np.sum(
        np.where(flipped[:, None], moduli < 1.0 - CIRCLE_BAND, moduli > 1.0 + CIRCLE_BAND),
        axis=1,
    )
    tol = np.maximum(2.0 * residual, 8.0 * width * m * EPS * scale)
    merge = np.nonzero(_blurred_straddles(lead_det, roots, moduli, tol) & ~singular)[0]
    if merge.size:
        values[merge] = np.log(np.abs(lead_det[merge])) + _merge_clusters(
            direct[merge], lead_det[merge], roots[merge], tol[merge]
        )
    if m == 1:
        values[singular] = np.nan
    elif np.any(singular):
        fallback = _jensen_rows(_scalar_rows(blocks[singular]))
        values[singular], outside[singular] = fallback[:2]
        worst = max(worst, fallback[2])
        roots[singular] = fallback[3]
    with np.errstate(divide="ignore", invalid="ignore"):  # flipped rows hold 1 / root
        roots = np.where(flipped[:, None], 1.0 / roots, roots)
    return values, outside, worst, roots


def _probe_angles(roots):
    """(row index, angle in [0, 1)) of a point on each arc between the roots
    of a row within PROBE_BAND of the unit circle, or angle 0 if none are."""
    near = np.abs(np.abs(roots) - 1.0) <= PROBE_BAND
    count = np.sum(near, axis=1)
    turns = np.sort(np.where(near, np.angle(roots) / (2.0 * np.pi) % 1.0, np.inf), axis=1)
    row, slot = np.nonzero(np.arange(roots.shape[1]) < count[:, None])
    last = slot == count[row] - 1
    middle = 0.5 * (turns[row, slot] + turns[row, np.where(last, 0, slot + 1)] + last) % 1.0
    lone = np.nonzero(count == 0)[0]
    return np.concatenate([row, lone]), np.concatenate([middle, np.zeros(lone.size)])


def _trim(coefficients, axis):
    """Drop leading and trailing coefficient slices along axis that are
    negligible next to the largest coefficient."""
    others = tuple(a for a in range(coefficients.ndim) if a != axis)
    size = np.max(np.abs(coefficients), axis=others)
    keep = np.nonzero(size > COEFFICIENT_TRIM * np.max(size))[0]
    return np.take(coefficients, np.arange(keep[0], keep[-1] + 1), axis=axis)


def _jensen(coefficients):
    """(m(det M), diagnostics, probes) on the circle, M(z) = sum_k coefficients[k] z^k."""
    values, _, residual, roots = _jensen_rows(_trim(coefficients, 0)[None])
    return float(values[0]), {
        "route": "jensen",
        "breakpoints": [],
        "panels": 0,
        "error": 0.0,
        "residual": residual,
        "nodes": 1,
    }, _probe_angles(roots)[1][:, None]


def _boyd(coefficients):
    """m(det M) on the 2-torus, M(x, y) = sum c[i, j] x^i y^j (Boyd).

    Jensen's formula in x, the inner variable, is integrated over the angle
    phi of y, the outer one; each circle solve takes the eigenvalues of a
    block companion of size m times the degree in x.  The integrand has a
    kink wherever a root crosses the unit circle: the angles where the
    number of roots outside changes on a scan of SCAN_NODES midpoints are
    located by repeated sectioning and are the breakpoints, angles phi of y.

    With no breakpoint the integrand is periodic, and analytic unless a root
    touches the circle without crossing it, so the equispaced trapezoid rule
    converges geometrically (Trefethen and Weideman, SIAM Review 56, 2014).
    The scan is its first level; each further level adds the midpoints of
    the nodes so far, up to 4 SCAN_NODES nodes, until two levels agree to
    PANEL_REL_TOL of the mean |integrand| or to PANEL_FLOOR.  Two levels
    more than the square root of that fraction apart show a kink the scan
    cannot see, such as a tangential zero: geometric convergence would not
    reach the tolerance at the next level, and the panels take over.  Two
    levels also agree whatever the integrand's Fourier coefficients at
    multiples of the coarser level's node count: every node sees m(4 + x)
    = log 4 on 3 + x + y^64, whose measure is log 3.  So the rule runs only
    when det M has degree below SCAN_NODES / 2 in y, where the integrand's
    coefficients do not all sit past the band a level samples, and a level
    settles only once its sampled coefficients from a quarter of its node
    count on are below the square root of that fraction of the mean
    |integrand|, as geometric convergence to the tolerance implies.

    The panels are adaptive Gauss-Legendre ones between the breakpoints.  A
    panel is split until its two orders agree to PANEL_REL_TOL of its
    integral of |integrand| (above the integrand's rounding) or to
    PANEL_FLOOR; the gaps sum to the error estimate.

    In the diagnostics `panels` counts the settled panels and reads 0 when
    the trapezoid rule settled, whose `error` is then the gap between its
    last two levels; `nodes` counts the circles solved, the scan and the
    breakpoint search included: N for the trapezoid rule on N nodes.  The
    probe points, (x angle, phi) pairs, are those of every row solved.
    """
    powers = np.arange(coefficients.shape[1])
    points, solved = [], []

    def solve(phi):
        solved.append(phi.size)
        phases = np.exp(2j * np.pi * np.outer(phi, powers))
        *result, roots = _jensen_rows(np.einsum("pj,ijab->piab", phases, coefficients))
        row, theta = _probe_angles(roots)
        points.append(np.column_stack([theta, phi[row]]))
        return result

    scan = (np.arange(SCAN_NODES) + 0.5) / SCAN_NODES
    values, counts, residual = solve(scan)
    change = np.nonzero(counts != np.roll(counts, -1))[0]
    low, width, base = scan[change], 1.0 / SCAN_NODES, counts[change]
    steps = np.arange(1, SECTIONS)
    while change.size and width > BREAKPOINT_TOL:
        width /= SECTIONS
        probes = low[:, None] + width * steps[None, :]
        seen = solve(probes.ravel() % 1.0)[1].reshape(probes.shape)
        moved = seen != base[:, None]
        low = low + width * np.where(moved.any(axis=1), np.argmax(moved, axis=1), SECTIONS - 1)
    breakpoints = np.sort((low + 0.5 * width) % 1.0)

    def report(total, panels, error, residual):
        return total, {
            "route": "boyd",
            "breakpoints": [float(b) for b in breakpoints],
            "panels": panels,
            "error": error,
            "residual": residual,
            "nodes": sum(solved),
        }, np.concatenate(points)

    # det M has degree at most m (n - 1) in y, n the coefficients' y extent
    degree = coefficients.shape[2] * (coefficients.shape[1] - 1)
    if not change.size and 2 * degree < SCAN_NODES:
        nodes, level = scan, float(np.mean(values))
        for _ in range(2):
            # the midpoints of equispaced nodes, shifted by half a spacing
            fresh = (nodes - 0.5 / nodes.size) % 1.0
            more, _, worst = solve(fresh)
            nodes, values = np.concatenate([nodes, fresh]), np.concatenate([values, more])
            residual = max(residual, worst)
            previous, level = level, float(np.mean(values))
            gap, magnitude = abs(level - previous), float(np.mean(np.abs(values)))
            # the sampled Fourier coefficients from a quarter of the nodes on
            spectrum = np.abs(np.fft.rfft(values[np.argsort(nodes)])) / nodes.size
            decayed = spectrum[nodes.size // 4 :].max() <= math.sqrt(PANEL_REL_TOL) * magnitude
            if decayed and gap <= max(PANEL_FLOOR, PANEL_REL_TOL * magnitude):
                return report(level, 0, gap, residual)
            if not gap <= math.sqrt(PANEL_REL_TOL) * magnitude:
                break

    x_low, w_low = _gauss_legendre(GL_ORDERS[0])
    x_high, w_high = _gauss_legendre(GL_ORDERS[1])
    unit = np.concatenate([x_low, x_high])
    edges = np.concatenate([[0.0], breakpoints, [1.0]])
    cuts = np.concatenate([np.linspace(a, b, int(np.ceil(START_PANELS * (b - a))), endpoint=False)
                           for a, b in zip(edges[:-1], edges[1:])] + [[1.0]])
    middle, half = 0.5 * (cuts[:-1] + cuts[1:]), 0.5 * np.diff(cuts)
    total, error, settled, evaluated, residual = 0.0, 0.0, 0, 0, 0.0
    while half.size:
        evaluated += half.size
        if evaluated > MAX_PANELS:
            raise IndeterminateConvergence(
                f"Boyd quadrature did not settle within {MAX_PANELS} panels"
            )
        phi = middle[:, None] + half[:, None] * unit[None, :]
        values, _, worst = solve(phi.ravel())
        residual = max(residual, worst)
        values = values.reshape(phi.shape)
        low_order = half * (values[:, : x_low.size] @ w_low)
        high_order = half * (values[:, x_low.size :] @ w_high)
        magnitude = half * (np.abs(values[:, x_low.size :]) @ w_high)
        gap = np.abs(high_order - low_order)
        done = gap <= np.maximum(PANEL_FLOOR, PANEL_REL_TOL * magnitude)
        total += float(np.sum(high_order[done]))
        error += float(np.sum(gap[done]))
        settled += int(np.sum(done))
        quarter = 0.5 * half[~done]
        middle = np.concatenate([middle[~done] - quarter, middle[~done] + quarter])
        half = np.tile(quarter, 2)
    return report(total, settled, error, residual)


def _measure(coefficients):
    """(m(det M), diagnostics, probe points) of a coefficient array over the
    rank-1 or rank-2 torus.

    On the 2-torus the inner variable, whose roots Jensen's formula takes on
    each circle, is the one of lower degree (x on a tie): its block
    companion has size m times that degree.  Boyd's diagnostics name the
    integrated variable, whose angles the breakpoints are, by its exponent
    index `outer_axis`.  A polynomial constant in one variable goes to
    Jensen's formula in the other.  The probe points keep the (x, y) order
    either way.
    """
    if coefficients.ndim == 3:
        return _jensen(coefficients)
    coefficients = _trim(_trim(coefficients, 0), 1)
    rows, cols = coefficients.shape[:2]
    swapped = rows > cols > 1 or rows == 1 < cols
    if swapped:
        coefficients = np.swapaxes(coefficients, 0, 1)
    if coefficients.shape[1] == 1:
        value, diagnostics, probes = _jensen(coefficients[:, 0])
        probes = np.insert(probes, 1, 0.0, axis=1)
    else:
        value, diagnostics, probes = _boyd(coefficients)
        diagnostics["outer_axis"] = 0 if swapped else 1
    return value, diagnostics, probes[:, ::-1] if swapped else probes


def _times(a, b):
    """Product of two scalar polynomials given as coefficient arrays."""
    out = np.zeros(tuple(np.add(a.shape, b.shape) - 1), dtype=complex)
    for index in zip(*np.nonzero(a)):
        out[tuple(slice(i, i + n) for i, n in zip(index, b.shape))] += a[index] * b
    return out


def _minor_sum(blocks, count):
    """e_count of a matrix polynomial, the sum of its count x count principal
    minors, by the Leibniz formula in coefficient arithmetic.  Index 0 stays
    the lowest exponent on every axis, now count times the symbol's."""
    total = 0.0
    for rows in itertools.combinations(range(blocks.shape[-1]), count):
        for order in itertools.permutations(range(count)):
            inversions = sum(p > q for p, q in itertools.combinations(order, 2))
            entries = (blocks[..., rows[j], rows[order[j]]] for j in range(count))
            total = total + (-1) ** inversions * functools.reduce(_times, entries)
    return total


def _blocks(symbol):
    """Coefficient array of a nonzero symbol, index 0 the lowest exponent on
    every axis."""
    keys = np.array(list(symbol.coefficients), dtype=int)
    low, high = keys.min(axis=0), keys.max(axis=0)
    blocks = np.zeros(tuple(high - low + 1) + symbol.shape, dtype=complex)
    for k, c in symbol.coefficients.items():
        blocks[tuple(np.asarray(k) - low)] = c
    return blocks


def newton_nodes(symbol, count):
    """The nodes j / n per axis of a nonzero symbol, with n one more than
    count times the width of its Newton box along that axis.

    That is one node per exponent of a polynomial of degree count in the
    entries, such as det F (count the size) or e_count(F), so the grid
    determines such a polynomial: it vanishes identically if it vanishes at
    every node.
    """
    keys = np.array(list(symbol.coefficients), dtype=int)
    spans = count * (keys.max(axis=0) - keys.min(axis=0)) + 1
    axes = np.meshgrid(*(np.arange(n) / n for n in spans), indexing="ij")
    return np.stack([a.ravel() for a in axes], axis=-1)


def _vanishes(values, norms, count):
    """Values or coefficients of a polynomial of degree count in the entries
    stay below SYMBOL_KERNEL_REL_TOL times the largest of the samples'
    Frobenius norms to the power count."""
    scale = float(np.max(norms)) ** count
    return float(np.max(np.abs(values))) <= SYMBOL_KERNEL_REL_TOL * scale


def _rescaled(symbol, count):
    """(2^-k F, k) for a symbol F measured through a polynomial of degree
    count in its entries.  k is 0 while the largest entry modulus to the
    power count stays within 2^(+-RESCALE_BITS), and otherwise brings that
    modulus into [1/2, 1), so the polynomial stays inside the float range;
    the scaling is exact, and the polynomial gains the factor 2^(-k count)."""
    top = np.max(np.abs(np.array(list(symbol.coefficients.values()))), initial=0.0)
    k = math.frexp(top)[1]
    if abs(k * count) <= RESCALE_BITS:
        return symbol, 0
    scaled = {e: np.ldexp(np.ascontiguousarray(c).view(float), -k).view(complex)
              for e, c in symbol.coefficients.items()}
    return type(symbol)(symbol.rank, scaled, shape=symbol.shape), k


def torus_log_det(symbol, vanishing, message):
    """(m(det F), diagnostics, probe points) of a square Laurent symbol F.

    det F must not vanish at the newton_nodes, which determine it, to
    SYMBOL_KERNEL_REL_TOL, or `vanishing` is raised; a nonzero 1 x 1 symbol
    is its own determinant.  The diagnostics give the route (jensen
    or boyd), the breakpoints, the number of panels, the quadrature error
    estimate, the largest relative residual of the root factorisation and
    the number of circles solved (nodes), and on the boyd route the
    outer_axis whose angles the breakpoints are.
    The probe points, shape (probes, rank), are one per arc between the
    roots of det F near the unit circle on every circle solved.  F is
    measured as _rescaled(F, m) = 2^-k F, whose Mahler measure is m k log 2
    less.
    """
    if not symbol.coefficients:
        raise vanishing(message)
    m = symbol.shape[0]
    symbol, k = _rescaled(symbol, m)
    if m > 1:
        samples = symbol.evaluate_grid(newton_nodes(symbol, m))
        if _vanishes(np.linalg.det(samples), np.linalg.norm(samples, axis=(1, 2)), m):
            raise vanishing(message)
    value, diagnostics, probes = _measure(_blocks(symbol))
    return value + m * k * LOG2, diagnostics, probes


def positive_log_det(symbol, kernel_tol, vanishing, message):
    """(kernel rank, log-determinant of the positive part, diagnostics) of a
    Hermitian positive semidefinite symbol F of size m.

    F(theta) has its generic rank r except on the zero set of the nonzero
    trigonometric polynomial e_r(F), so the kernel rank is m - r, and r is
    the largest number of eigenvalues above kernel_tol times the largest at
    one of the newton_nodes, which determine e_r(F).  The positive part's
    log-determinant is m(e_r(F)): m(det F) for r = m, otherwise that of the
    sum of the r x r principal minors.  Like det F in torus_log_det, e_r(F)
    must not vanish to SYMBOL_KERNEL_REL_TOL, or `vanishing` is raised.
    F is measured as _rescaled(F, m) = 2^-k F, whose e_r has the Mahler
    measure r k log 2 less.
    """
    m = symbol.shape[0]
    if not symbol.coefficients:
        return m, *_measure(np.ones((1,) * symbol.rank + (1, 1), dtype=complex))[:2]
    symbol, k = _rescaled(symbol, m)
    samples = symbol.evaluate_grid(newton_nodes(symbol, m))
    eigenvalues = np.linalg.eigvalsh(samples)
    count = int(np.max(np.sum(eigenvalues > kernel_tol * np.max(eigenvalues), axis=1)))
    if count == m:
        polynomial, values = _blocks(symbol), np.linalg.det(samples)
    else:
        values = _minor_sum(_blocks(symbol), count)
        polynomial = values[..., None, None]
    if _vanishes(values, np.linalg.norm(samples, axis=(1, 2)), count):
        raise vanishing(message)
    value, diagnostics, _ = _measure(polynomial)
    return m - count, value + count * k * LOG2, diagnostics


def map_log_det(d, kernel_tol, vanishing, message):
    """(generic rank r, A = log Det+(d^H d), diagnostics) of a Laurent map d.

    d^H d and d d^H have the same positive spectrum, so one Mahler measure
    gives A.  A nonzero square d of size m is sampled at the newton_nodes
    that determine its minors; r is the largest number of squared singular
    values above kernel_tol times the largest.  At r = m, A = 2 m(det d):
    half the degree of det(d^H d) per variable.  |det d|^2 must then not
    vanish to SYMBOL_KERNEL_REL_TOL against the Gram matrix d^H d at those
    nodes, whose Frobenius norm is that of the squared singular values, or
    `vanishing` is raised.  Any other d goes to positive_log_det of its
    smaller Gram matrix, which gives both r and A with the same relative cut.
    d is measured as _rescaled(d, 2 min(rows, cols)) = 2^-k d, whose A is
    2 r k log 2 less.
    """
    rows, cols = d.shape
    d, k = _rescaled(d, 2 * min(rows, cols))
    if rows == cols and d.coefficients:
        samples = d.evaluate_grid(newton_nodes(d, rows))
        squares = np.linalg.svd(samples, compute_uv=False) ** 2
        if np.max(np.sum(squares > kernel_tol * np.max(squares), axis=1)) == rows:
            if _vanishes(np.prod(squares, axis=1), np.linalg.norm(squares, axis=1), rows):
                raise vanishing(message)
            value, diagnostics, _ = _measure(_blocks(d))
            value = 2.0 * (value + rows * k * LOG2)
            return rows, value, dict(diagnostics, error=2.0 * diagnostics["error"])
    gram = d.adjoint() @ d if cols <= rows else d @ d.adjoint()
    kernel, value, diagnostics = positive_log_det(gram, kernel_tol, vanishing, message)
    rank = gram.shape[0] - kernel
    return rank, value + 2 * rank * k * LOG2, diagnostics

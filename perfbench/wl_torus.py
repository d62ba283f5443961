"""torus-quadrature: determinants and torsion of Laurent symbols over the
rank-1 and rank-2 torus at the default grids.

Each job is abelian_fk_det_general, abelian_fk_det (on F*F),
abelian_dense_isomorphism_check or abelian_torsion on a seeded symbol of
size 1 to 3.  The work is batched eigen and singular values over three
grid refinement levels; no modules or complexes code runs.  Every deck
slot has a fixed rank, size and function, and the seed draws the
coefficients: a scaled unitary constant term plus perturbations of at
most 0.6 of its norm, so the smallest singular value stays above 0.2 on
the torus, every answer exists and det F has no zero on the torus.
"""

from __future__ import annotations

import math

import numpy as np

import detline as dl
import oracles as O
from common import Job, Workload
from detline.symbols import DEFAULT_RESOLUTION

EXPONENTS = {1: [(1,), (-1,)], 2: [(1, 0), (0, 1), (-1, 1)]}
SHAPES = [(rank, size) for rank in (1, 2) for size in (1, 2, 3)]
KINDS = ("general", "hermitian", "dense", "torsion")
# two more mid-cost slots put the median job inside a cluster of similar
# cost, so p50 does not jump between cost levels from run to run
EXTRA = [("general", 1, 3), ("hermitian", 1, 3)]


def seeded_symbol(rng, rank, size):
    z = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
    q, _ = np.linalg.qr(z)
    scale = math.exp(rng.uniform(-0.7, 0.7))
    terms = {(0,) * rank: scale * q}
    shares = rng.dirichlet(np.ones(len(EXPONENTS[rank])))
    for exponent, share in zip(EXPONENTS[rank], shares):
        a = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
        terms[exponent] = 0.6 * scale * share * a / np.linalg.norm(a, 2)
    return terms


class GridCounter:
    """Times LaurentMatrix.evaluate_grid per refinement level and counts the
    nodes and branches (nodes x matrix size) each top-level call evaluates."""

    def __init__(self):
        self.tracer = None
        self.nodes = 0
        self.branches = 0

    def targets(self, tracer):
        self.tracer = tracer
        return [(dl.LaurentMatrix, "evaluate_grid", self.factory)]

    def factory(self, original):
        def evaluate_grid(symbol, nodes):
            count = len(nodes)
            resolution = round(count ** (1.0 / symbol.rank))
            level = round(math.log2(resolution / DEFAULT_RESOLUTION[symbol.rank]))
            self.nodes += count
            self.branches += count * symbol.shape[0]
            with self.tracer.span(f"symbols.evaluate_grid.L{level}"):
                return original(symbol, nodes)

        return evaluate_grid

    def call(self, tr, name, fn, *args):
        self.nodes = self.branches = 0
        result = tr.call(name, fn, *args)
        tr.count("symbols.grid_nodes", self.nodes)
        tr.count("symbols.branches", self.branches)
        return result


def _run(counter, kind, symbol):
    call = counter.call

    def run(tr, out):
        if kind == "general":
            r = call(tr, "symbols.abelian_fk_det_general", dl.abelian_fk_det_general, symbol)
            out["log_det"] = r.log_value
        elif kind == "hermitian":
            r = call(tr, "symbols.abelian_fk_det", dl.abelian_fk_det, symbol)
            out["log_det"] = r.log_value
        elif kind == "dense":
            r = call(
                tr,
                "symbols.abelian_dense_isomorphism_check",
                dl.abelian_dense_isomorphism_check,
                symbol,
            )
            out["log_det"] = r.log_determinant
        else:
            r = call(tr, "symbols.abelian_torsion", dl.abelian_torsion, [symbol])
            out["log_torsion"] = r.log_coordinate

    return run


def _job(counter, label, kind, terms, mahler, defect=None):
    """mahler() is the Mahler measure of det of the symbol `terms`."""
    symbol = dl.LaurentMatrix(len(next(iter(terms))), terms)
    if kind == "hermitian":
        symbol = symbol.adjoint() @ symbol
    key = "log_torsion" if kind == "torsion" else "log_det"
    factor = {"hermitian": 2.0, "torsion": -1.0}.get(kind, 1.0)
    return Job(
        label, _run(counter, kind, symbol), lambda: {key: factor * mahler()}, defect=defect
    )


def build(seed):
    rng = np.random.default_rng(seed)
    counter = GridCounter()
    deck = []
    for rank, size in SHAPES:
        for kind in KINDS:
            terms = seeded_symbol(rng, rank, size)
            deck.append(_job(counter, f"{kind} rank {rank} size {size}", kind, terms,
                             lambda terms=terms: O.mahler(terms)))
    for kind, rank, size in EXTRA:
        terms = seeded_symbol(rng, rank, size)
        deck.append(_job(counter, f"{kind} rank {rank} size {size} b", kind, terms,
                         lambda terms=terms: O.mahler(terms)))
    one = np.eye(1)
    smyth = {(0, 0): one, (1, 0): one, (0, 1): one}
    diag = {(0,): np.diag([1.5e-3, 1.5e-4, 1.0])}
    defects = [
        _job(
            counter,
            "general 1+x+y",
            "general",
            smyth,
            lambda: O.SMYTH_1_X_Y,
            defect="rank-2 quadrature of 1+x+y misses Smyth's value by 1.8e-6",
        ),
        Job(
            "hermitian diag(1.5e-3, 1.5e-4, 1)",
            _run(counter, "hermitian", dl.LaurentMatrix(1, diag)),
            {"log_det": math.log(1.5e-3 * 1.5e-4)},
            defect="excision heuristic refuses a finite determinant (DivergentIntegral)",
        ),
    ]
    return Workload(
        defects=defects, deck=deck, warmup=deck, instrument=counter.targets
    )

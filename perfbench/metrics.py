"""Names and units of every metric the benchmark prints.

End-to-end metrics come from the untraced run (--trace 0), per-layer
metrics from the traced run (--trace 1).  A per-layer time is the median
duration of one call, in ms; a per-layer count is the median per call.
A layer a workload never calls reads 0.
"""

WORKLOADS = ("cellular-torsion", "group-operators", "torus-quadrature", "cli-documents")

END_TO_END = {
    "setup_s": "s",
    "job_ms_p50": "ms",
    "job_ms_p90": "ms",
    "jobs_per_s": "1/s",
    "fail_ratio": "failed/attempted",
    "max_log_err": "abs",
    "peak_rss_mb": "MB",
}

# span name -> metric name is span + "_ms"
TIMED_SPANS = (
    "torsion.assemble_coefficients",
    "modules.direct_sum_many",
    "complexes.torsion_iso_via_exact_sequences",
    "complexes.torsion_iso_via_laplacians",
    "complexes.hodge",
    "complexes.determinant_class_check",
    "torsion.check_unimodular",
    "torsion.invariance_check",
    "fixtures.split_edge",
    "algebra.build_group_algebra",
    "modules.regular_module",
    "modules.CommutantOperator.from_matrix",
    "determinant.fk_det_spectral",
    "determinant.fk_det",
    "determinant.fk_det_path",
    "lines.pushforward",
    "lines.exact_sequence_iso",
    "symbols.evaluate_grid.L0",
    "symbols.evaluate_grid.L1",
    "symbols.evaluate_grid.L2",
    "symbols.abelian_fk_det",
    "symbols.abelian_fk_det_general",
    "symbols.abelian_dense_isomorphism_check",
    "symbols.abelian_torsion",
    "cli.interpreter",
    "cli.import",
    "documents.load_document",
    "documents.decode.module",
    "documents.decode.operator",
    "documents.decode.complex",
    "documents.decode.cell_complex",
    "documents.decode.representation",
    "documents.decode.symbol",
    "documents.report",
    "cli.main",
)

COUNTS = (
    "torsion.carrier_dim",
    "torsion.block_dim",
    "algebra.group_order",
    "symbols.grid_nodes",
    "symbols.branches",
)

TRACE = {
    # median over jobs of (traced wall - untraced wall) / untraced wall
    "trace.overhead_pct": "%",
    # median over jobs of the untraced wall not covered by the job's stage spans
    "trace.remainder_pct": "%",
    # circle(64) x C[Z/5]: (assembly + exact-sequence route) / hodge, per job
    "trace.circle64_c5_stage_ratio": "ratio",
}

PER_LAYER = {
    **{f"{name}_ms": "ms" for name in TIMED_SPANS},
    **{name: "count" for name in COUNTS},
    **TRACE,
}

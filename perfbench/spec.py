"""Names, units and directions of every metric the benchmark reports.

BENCHMARK.json at the repository root lists the same metrics; the self-check
(run.py --selfcheck) fails if the two disagree or if a run leaves one out.
"""

# The workloads BENCHMARK.json lists, and two more that run by hand only: their
# single long-lived worker follows one CPU's speed, which swings too much
# between runs for the benchmark's bounds (see README.md).
WORKLOADS = ("certify", "lattice")
BY_HAND = ("symbolic", "forms")

END_TO_END = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

# Per-layer metrics from the traced run.  <module>.<function>.<field> with
# field busy_ms, self_ms or calls comes from the spans; the rest are counters.
PER_LAYER = (
    "exact.smith_normal_form.busy_ms",
    "exact.smith_normal_form.calls",
    "exact.smith_normal_form.deadline_failures",
    "exact.smith_normal_form.transform_bits_max",
    "exact.det_exact.busy_ms",
    "exact.det_exact.calls",
    "exact.det_expansion.busy_ms",
    "exact.det_expansion.calls",
    "exact.Poly.mul.busy_ms",
    "exact.Poly.mul.calls",
    "exact.Poly.add.calls",
    "exact.Poly.divexact.busy_ms",
    "schubert.schur_poly.busy_ms",
    "schubert.schur_poly.calls",
    "schubert.schur_poly.cache_misses",
    "schubert.schur_product.busy_ms",
    "schubert.schur_product.self_ms",
    "schubert.schur_product.calls",
    "schubert.pieri.busy_ms",
    "tate.d2_matrix.busy_ms",
    "tate.d2_matrix.calls",
    "tate.d2_matrix_from_chern.busy_ms",
    "tate.d2_matrix_from_chern.calls",
    "tate.chern_twist_product.busy_ms",
    "tate.chern_twist_product.calls",
    "tate.enumerate_multi_indices.busy_ms",
    "tate.enumerate_multi_indices.calls",
    "spectral.weight_table.busy_ms",
    "spectral.build_e2.self_ms",
    "spectral.apply_d2.busy_ms",
    "spectral.assemble.busy_ms",
    "hyperplane.gram_matrix.busy_ms",
    "hyperplane.basis_certificate.busy_ms",
    "hyperplane.tate_iso_check.busy_ms",
    "hyperplane.intersection_pairing.calls",
    "algebras.enumerate_right_ideals.busy_ms",
    "algebras.independent.busy_ms",
    "algebras.independent_left_ideal.busy_ms",
    "algebras.rank_modp.calls",
    "geometry.witt_split.busy_ms",
    "geometry.witt_split.exhausted",
    "geometry.find_isotropic.busy_ms",
    "geometry.find_isotropic.calls",
    "geometry.represent.busy_ms",
    "geometry.congruence_between.calls",
    "geometry.similarity_certificate.busy_ms",
    "geometry.verify_quadric_identity.busy_ms",
    "geometry.classify_all_charts.busy_ms",
    "cli.startup_ms",
    "cli.verify_all.busy_ms",
    "cli.verify_all.self_ms",
    "trace.overhead_ms",
    "trace.overhead_pct",
)

_FIELD_UNITS = {"busy_ms": "ms", "self_ms": "ms", "calls": "count",
                "deadline_failures": "count", "transform_bits_max": "bits",
                "cache_misses": "count", "exhausted": "count", "startup_ms": "ms",
                "overhead_ms": "ms", "overhead_pct": "%"}


def unit_of(metric: str) -> str:
    return _FIELD_UNITS[metric.rsplit(".", 1)[1]]


def per_layer_value(metric: str, layers: dict, counters: dict):
    """Value of one per-layer metric from a traced worker's output (0 if unused)."""
    if metric in counters:
        return counters[metric]
    span, field = metric.rsplit(".", 1)
    if field in ("busy_ms", "self_ms", "calls"):
        return layers.get(span, {}).get(field, 0)
    return 0

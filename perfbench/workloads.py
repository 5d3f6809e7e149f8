"""Benchmark workloads and the verdict each check must reach.

A workload is a list of scenarios, each run through ``homocat.cli`` exactly
as ``homocat verify`` runs a scenario file.  Every scenario names its checks
explicitly, so a change cannot get faster by running fewer of them, and every
named check has the status the mathematics predicts.  The benchmark seed is
written into each scenario's ``seed`` field; verdicts must not depend on it.
"""

PASS = "PASS"

# The 17 checks that apply to the cyclic demo over F2 (all but
# semisimple_collapse, which is SKIPPED there).
F2_CYCLIC_CHECKS = (
    "pd1", "pd2", "pd3_capped", "projector_form", "orthogonality",
    "idempotence", "decomposition_of_identity", "tightness", "periodicity",
    "koszul_compact", "koszul_projector", "eigenaction", "quasi_idempotent",
    "obstruction_z", "obstruction_w", "cones_commute", "self_obstruction",
)
Z_CYCLIC_CHECKS = ("pd1", "pd2", "obstruction_z", "obstruction_w",
                   "cones_commute", "self_obstruction")
Q_CYCLIC_CHECKS = ("semisimple_collapse",)
INTEGERS_CHECKS = ("modular_verdicts", "nilpotent_control", "locus_fusion")
MIXED_CHECKS = ("lambda_contractible", "split_model", "cone_closure_control")


def _scenario(label, checks, **fields):
    """(label, scenario without seed, {check id: expected status})."""
    return (label, dict(fields, checks=list(checks)),
            {cid: PASS for cid in checks})


def _cyclic(ring, m, depth, checks):
    return _scenario(f"{ring}_m{m}_d{depth}", checks, demo="cyclic",
                     ring=ring, m=m, depth=depth)


INTEGERS = _scenario("integers", INTEGERS_CHECKS, demo="integers")
MIXED = _scenario("mixed", MIXED_CHECKS, demo="mixed")
Z_M2 = _cyclic("z", 2, 12, Z_CYCLIC_CHECKS)

WORKLOADS = {
    "f2_deep": [_cyclic("f2", 2, 18, F2_CYCLIC_CHECKS)],
    "f2_wide": [_cyclic("f2", 4, 6, F2_CYCLIC_CHECKS)],
    "exact_rings": [Z_M2, _cyclic("z", 3, 12, Z_CYCLIC_CHECKS),
                    _cyclic("q", 2, 12, Q_CYCLIC_CHECKS), INTEGERS, MIXED],
    # The benchmark's own fast test; not a measured workload.
    "smoke": [INTEGERS, MIXED, Z_M2],
}


def check_ids():
    """Every check id any workload runs, in first-seen order."""
    seen = {}
    for scenarios in WORKLOADS.values():
        for _, _, expected in scenarios:
            seen.update(dict.fromkeys(expected))
    return list(seen)

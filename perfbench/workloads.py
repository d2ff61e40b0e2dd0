"""The benchmark's workloads: fixed lists of `softiga` command lines.

Each workload stresses a different stage of the pipeline (knot vector ->
space -> stiffness/mass/softness assembly -> pencil -> eigensolve ->
d-dimensional lift -> report), so that an optimisation of one stage has
a workload that exercises it and one that bypasses it. The seed only
permutes the order of the cases inside a pass; the cases themselves are
fixed.
"""


def _argv(*parts):
    return [str(part) for part in parts]


WORKLOADS = {
    # Assembly and the dense eigh do most of the work; each (p, N, space)
    # is built once per method. No lift, so the tensor layer is bypassed.
    "table_1d": [_argv("condition", "-p", p, "-N", n)
                 for p in (2, 3, 4) for n in (100, 200, 400)],
    # eta-sweep reassembles the same pencil for every weight of its grid
    # plus the unsoftened baseline: the workload for assemble-once reuse.
    "sweep_1d": [_argv("eta-sweep", "-p", p, "-N", n)
                 for p, n in ((2, 100), (3, 120), (4, 80))],
    # Tiny 1D solves lifted to d = 2, 3: the tensor layer and CLI
    # formatting dominate, so assembly changes should leave it flat.
    # The two `spectrum -d >1` cases hit a known defect (exit 1, see
    # checks.KNOWN_DEFECT) and are kept so that the defect stays visible.
    "lift_3d": [
        _argv("condition", "-p", 4, "-N", 40, "-d", 3),
        _argv("condition", "-p", 3, "-N", 40, "-d", 3,
              "--baseline", "of-iga"),
        _argv("condition", "-p", 2, "-N", 60, "-d", 2),
        _argv("spectrum", "-p", 3, "-N", 16, "-d", 2),
        _argv("spectrum", "-p", 2, "-N", 4, "-d", 3),
    ],
    # The only workload where the analytic layer (mpmath fits, reference
    # matrices) and the H1 eigenfunction code do real work; it needs full
    # eigenvectors, unlike the condition-number workloads.
    "report_1d": [
        _argv("spectrum", "-p", 3, "-N", 200),
        _argv("spectrum", "-p", 4, "-N", 120),
        _argv("convergence", "-p", 2, "--quantity", "h1"),
        _argv("convergence", "-p", 3, "--quantity", "h1"),
        _argv("dispersion", "-p", 3, "--eta", "super"),
        _argv("dispersion", "-p", 5, "--eta", "zero"),
        _argv("verify"),
    ],
}


def case_key(argv):
    """Stable name of a case, used for recorded reference values."""
    return " ".join(argv)

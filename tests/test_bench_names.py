"""The benchmark's tracer (bench/tracing.py) rebinds library functions by
name, so renaming one must fail here, not only in a benchmark run."""

from pathlib import Path

import numpy as np
import scipy.sparse as sp

from oswr.dgsolver import FactorCache

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_traced_names_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing

    bound = tracing.snapshot()
    assert bound and all(callable(obj) for obj in bound.values())


def test_factor_exposes_solve_and_triangles():
    # the tracer times `solve` and counts nnz(L+U) of each new factor
    factor = FactorCache().get(("conf", 1, 0.5), lambda: 2.0 * sp.identity(3, format="csc"))
    assert np.array_equal(factor.solve(np.full(3, 2.0)), np.ones(3))
    assert factor.L.nnz + factor.U.nnz == 6

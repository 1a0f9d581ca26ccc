"""Layer microbenchmarks (pytest-benchmark), deselected by default.

Run them with:  python -m pytest -m bench tests/test_bench.py
"""
import numpy as np
import pytest

from wittenlab.config import preset
from wittenlab.derham import laplacian_family
from wittenlab.experiments import build_complex
from wittenlab.integrals import flow_cells, pairing_matrix

pytestmark = pytest.mark.bench


@pytest.mark.parametrize("q", [0, 1])
def test_bench_pairing_matrix_circle(benchmark, q):
    """One pairing matrix of circle-sin2 at t = 4, paired with the
    lowest eigenvectors of the deformed Laplacian, one per cell."""
    cfg = preset("circle-sin2")
    cx = build_complex(cfg)
    cells = flow_cells(cx.f, cx.manifold, cfg.tolerances)
    k = len(cells.by_degree[q])
    _, V = np.linalg.eigh(laplacian_family(cx, q).at(4.0))
    M = benchmark(pairing_matrix, cx, q, V[:, :k], cells, 4.0, cfg.tolerances)
    assert M.shape == (k, k)

"""FastLSA Base Case: full-matrix solve of a small sub-problem.

When a sub-problem's dense DP matrix fits in the Base Case buffer, FastLSA
computes the matrix from the cached boundary values and extends the
solution path by plain traceback (lines 1–2 of the paper's Figure 2
pseudo-code, Figure 3(a)/(b)).
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from ..align.path import PathBuilder
from ..faults import runtime as faults
from ..faults.plan import SITE_BASE_KERNEL
from ..kernels.fullmatrix import FullMatrices, compute_full, trace_from
from ..kernels.ops import KernelInstruments
from ..obs import runtime as obs
from ..scoring.scheme import ScoringScheme
from .cancel import checkpoint
from .problem import Problem

__all__ = ["solve_base_case", "MatrixFn"]

#: Signature of the dense-matrix computation, overridable by the parallel
#: driver (which fills the matrix with a tiled wavefront instead).
MatrixFn = Callable[..., FullMatrices]


def solve_base_case(
    problem: Problem,
    a_codes: np.ndarray,
    b_codes: np.ndarray,
    scheme: ScoringScheme,
    builder: PathBuilder,
    inst: KernelInstruments,
    matrix_fn: Optional[MatrixFn] = None,
) -> int:
    """Solve ``problem`` with the full-matrix algorithm; extend the path.

    The path head must sit at the problem's bottom-right entry.  On return
    the head lies on the problem's top row or left column and
    ``builder.layer`` reflects the Gotoh layer at the head (affine only).

    Returns the problem's bottom-right ``H`` value (the score of the
    rectangle given its boundary caches).
    """
    checkpoint()  # deadline boundary: one base case ≈ one tile
    faults.inject(SITE_BASE_KERNEL)
    ih, jh = builder.head
    if (ih, jh) != (problem.i1, problem.j1):
        raise ValueError(
            f"path head {(ih, jh)} is not the problem's bottom-right "
            f"({problem.i1}, {problem.j1})"
        )
    sub_a = a_codes[problem.i0 : problem.i1]
    sub_b = b_codes[problem.j0 : problem.j1]
    fn = matrix_fn or compute_full
    with obs.span(
        "fastlsa.base_case", category="base", rows=problem.nrows, cols=problem.ncols
    ) as sp:
        cells_before = inst.ops.cells
        if scheme.is_linear:
            mats = fn(
                sub_a, sub_b, scheme, problem.cache_row.h, problem.cache_col.h,
                counter=inst.ops,
            )
        else:
            mats = fn(
                sub_a,
                sub_b,
                scheme,
                problem.cache_row.h,
                problem.cache_col.h,
                first_row_f=problem.cache_row.f,
                first_col_e=problem.cache_col.e,
                counter=inst.ops,
            )
        inst.mem.alloc(mats.cells)
        score = mats.score
        local_points, end_layer = trace_from(
            mats, sub_a, sub_b, scheme, problem.nrows, problem.ncols, builder.layer
        )
        local_points += (problem.i0, problem.j0)
        builder.extend(local_points)
        builder.layer = end_layer
        inst.mem.free(mats.cells)
        if sp is not None:
            filled = inst.ops.cells - cells_before
            sp.set(cells=filled, path_points=len(local_points))
            obs.counter_add("fastlsa.cells_filled", filled)
            obs.counter_add("fastlsa.base_cases", 1)
    return score

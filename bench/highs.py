"""Independent reference optimum of a coopsim LinearProgram by scipy's HiGHS.

scipy is a dependency of the benchmark only; the package itself needs
numpy alone.  The value follows the package's reporting convention: the
raw optimum minus ``objective_shift``.
"""

from __future__ import annotations

import numpy as np


def highs_value(lp) -> float:
    from scipy.optimize import linprog

    matrix = np.asarray(lp.matrix, dtype=float)
    rhs = np.asarray(lp.rhs, dtype=float)
    senses = np.asarray(lp.senses)
    le, ge, eq = senses == "<=", senses == ">=", senses == "="
    if not (le | ge | eq).all():
        raise ValueError(f"unknown constraint sense in {sorted(set(lp.senses))}")
    a_ub = np.vstack([matrix[le], -matrix[ge]])
    b_ub = np.concatenate([rhs[le], -rhs[ge]])
    res = linprog(
        -np.asarray(lp.objective, dtype=float),
        A_ub=a_ub if len(b_ub) else None,
        b_ub=b_ub if len(b_ub) else None,
        A_eq=matrix[eq] if eq.any() else None,
        b_eq=rhs[eq] if eq.any() else None,
        bounds=(0, None),
        method="highs",
    )
    if res.status != 0:
        raise RuntimeError(f"HiGHS ended with status {res.status}: {res.message}")
    return float(-res.fun) - lp.objective_shift

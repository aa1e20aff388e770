"""Exact-arithmetic 2D differential transform engine for Laplace problems.

The package turns boundary-value problems for u_xx + u_yy = 0 on the square
(0, pi) x (0, pi) into recurrences on exact rational coefficient tables
("spectra"), solves them by marching, and verifies the truncated series
against boundary data and known closed forms.
"""

from .rules import (
    ExpPrefactor,
    dt_add,
    dt_derivative,
    dt_exp,
    dt_exp_factored,
    dt_monomial,
    dt_monomial_exp,
    dt_product,
    dt_scale,
    dt_sub,
)
from .solver import (
    MARCH_IN_M,
    MARCH_IN_N,
    BoundarySpec,
    CauchySeed,
    EdgeCondition,
    InferenceError,
    InferredLayer,
    Model,
    ModelReport,
    closed_form_model,
    infer_missing_seed,
    model_catalog,
    propagate,
    propagate_closed_form,
    residual_laplacian,
    solve_example,
    solve_model,
)
from .spectrum import (
    DtmError,
    Spectrum2D,
    as_coeff,
    make_spectrum,
    spectrum_from_json,
    spectrum_to_json,
    truncate,
)
from .taylor import (
    FuncSpec,
    funcspec_from_json,
    outer_product,
    taylor_coeffs,
    trace_value,
)
from .verify import (
    ReferenceSolution,
    boundary_residual,
    compare_closed_form,
    eval2d,
    eval_grid,
    spectrum_diff,
)

__version__ = "0.1.0"

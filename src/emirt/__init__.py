"""EM estimation of 1PL/2PL IRT item parameters with a closed-form OLS M-step."""

__version__ = "0.1.0"

from .em_nr import fit_nr
from .em_ols import FitConfig, FitResult, fit
from .model import ItemParams, ModelKind, irf, irf_grad
from .patterns import PatternData, load_response_csv, tabulate
from .quadrature import QuadratureGrid, normal_grid
from .simgen import StudyDesign, StudySummary, generate, replicate_study

__all__ = [
    "__version__",
    "FitConfig",
    "FitResult",
    "ItemParams",
    "ModelKind",
    "PatternData",
    "QuadratureGrid",
    "StudyDesign",
    "StudySummary",
    "fit",
    "fit_nr",
    "generate",
    "irf",
    "irf_grad",
    "load_response_csv",
    "normal_grid",
    "replicate_study",
    "tabulate",
]

"""Model-free screening of ultrahigh-dimensional censored survival data.

The screening utility is a kernel dependence measure between each
covariate and the standardized pair (observed time, censoring status);
covariates are ranked by it and the top floor(n / ln n) retained. No
regression model is fit anywhere, so the ranking is robust to the true
relationship between covariates and survival. A censored-data simulator
and a replicated-experiment harness with the usual screening metrics
(minimum model size, selection proportions) are included.
"""

import importlib

__version__ = "0.1.0"

#: Each public name and the module it lives in. The modules load on first use
#: (PEP 562), so ``import survscreen`` loads no numpy: ``python -m
#: survscreen`` can choose the BLAS thread count before numpy starts its pool.
_EXPORTS = {
    "EvalSummary": "evaluate",
    "ReplicationRecord": "evaluate",
    "aggregate": "evaluate",
    "min_model_size": "evaluate",
    "rank_positions": "evaluate",
    "run_experiment": "evaluate",
    "selection_proportions": "evaluate",
    "summarize_records": "evaluate",
    "CalibrationError": "exceptions",
    "DegenerateDataError": "exceptions",
    "DegenerateStatusError": "exceptions",
    "DegenerateTimesError": "exceptions",
    "InfeasibleTargetError": "exceptions",
    "NoConvergenceError": "exceptions",
    "ParseError": "exceptions",
    "ValidationError": "exceptions",
    "GAUSSIAN_DEFAULT": "kernels",
    "KernelSpec": "kernels",
    "center": "kernels",
    "gram": "kernels",
    "hsic": "kernels",
    "hsic_pair": "kernels",
    "ScreenResult": "screening",
    "StandardizedResponse": "screening",
    "SurvivalDataset": "screening",
    "dc_utility": "screening",
    "default_cutoff": "screening",
    "screen": "screening",
    "standardize": "screening",
    "ACTIVE_SETS": "simulate",
    "GeneratedData": "simulate",
    "SimScenario": "simulate",
    "calibrate_censoring": "simulate",
    "censoring_scale": "simulate",
    "expected_censoring_rate": "simulate",
    "generate": "simulate",
    "model_beta": "simulate",
    "sample_ar1_normal": "simulate",
    "sample_cox_time": "simulate",
    "sample_nonlinear_time": "simulate",
    "sample_transformation_time": "simulate",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))

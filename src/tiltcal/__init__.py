"""tiltcal: minimum-relative-entropy calibration of risk models.

Given a prior joint model of risk factors, tiltcal computes the closest
posterior (in relative entropy) that satisfies a full marginal-density view
on one linear combination of the factors plus mean/payoff views on others,
then uses the calibrated model for VaR reporting, option pricing, tail
analysis and view-sensitivity analysis.
"""

from .analytic import (
    build_posterior,
    posterior_density_z,
    posterior_marginal_linear,
    posterior_marginal_y1,
)
from .calibration import (
    CalibrationReport,
    DualState,
    GaussianLinearProblem,
    GaussianMarginalPosterior,
    QuadratureProblem,
    TiltedPosterior,
    build_dual_problem,
    dual_eval,
    existence_check,
    independence_check,
    solve_lambda_gaussian_linear,
    solve_lambda_newton,
)
from .cli import PriceSeries, estimate_prior, load_price_csv, load_spec, run
from .densities import (
    GaussianDensity,
    GridDensity,
    MarginalDensity,
    StudentTDensity,
)
from .entropy import relative_entropy
from .errors import (
    DivergentEntropy,
    InconclusiveSample,
    InsufficientData,
    InsufficientSamples,
    NonIntegrablePayoff,
    NonIntegrableTilt,
    NonSampleableConditional,
    QuadratureFailure,
    SingularBlock,
    SingularConditionalCovariance,
    SingularMap,
    SingularV,
    SpecValidationError,
    TiltcalError,
    ZeroCorrelation,
)
from .montecarlo import (
    PriceReport,
    SampleBatch,
    VarReport,
    estimate_portfolio_var,
    estimate_var,
    price_option,
    sample_portfolio,
    sample_posterior,
)
from .priors import (
    GaussianConditional,
    GaussianPrior,
    GenericPrior,
    LinearViewMap,
    gaussian_conditional,
    transform_prior,
)
from .sensitivity import SensitivityReport, sensitivities
from .tails import TailReport, check_assumption, tail_ratio_probe
from .views import MomentView, OptionPayoff, ViewSet

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # densities
    "MarginalDensity", "GaussianDensity", "StudentTDensity", "GridDensity",
    # priors and maps
    "GaussianPrior", "GenericPrior", "GaussianConditional", "LinearViewMap",
    "gaussian_conditional", "transform_prior",
    # views
    "MomentView", "OptionPayoff", "ViewSet",
    # entropy
    "relative_entropy",
    # calibration
    "DualState", "CalibrationReport", "GaussianMarginalPosterior", "TiltedPosterior",
    "GaussianLinearProblem", "QuadratureProblem", "build_dual_problem",
    "dual_eval", "solve_lambda_gaussian_linear", "solve_lambda_newton",
    "existence_check", "independence_check",
    # analytic posterior
    "build_posterior", "posterior_density_z",
    "posterior_marginal_linear", "posterior_marginal_y1",
    # monte carlo
    "SampleBatch", "sample_posterior", "sample_portfolio", "VarReport", "estimate_var",
    "estimate_portfolio_var", "PriceReport", "price_option",
    # sensitivities
    "SensitivityReport", "sensitivities",
    # tails
    "TailReport", "check_assumption", "tail_ratio_probe",
    # cli
    "PriceSeries", "load_price_csv", "estimate_prior", "load_spec", "run",
    # errors
    "TiltcalError", "SingularBlock", "SingularMap",
    "SingularConditionalCovariance", "SingularV", "NonIntegrableTilt",
    "NonIntegrablePayoff", "DivergentEntropy", "QuadratureFailure",
    "ZeroCorrelation", "NonSampleableConditional", "InsufficientSamples",
    "InsufficientData", "InconclusiveSample", "SpecValidationError",
]

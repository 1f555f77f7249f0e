"""``repro.pricing`` -- the option pricing library (Premia substitute).

The public surface is organised like Premia's (asset, model, option, method)
tuples:

* models: :mod:`repro.pricing.models` (Black-Scholes, local volatility,
  Heston, Merton, correlated multi-asset Black-Scholes);
* options/products: :mod:`repro.pricing.products` (vanilla, digital, barrier,
  basket, Asian, American);
* methods: :mod:`repro.pricing.methods` (closed form, finite differences,
  trees, Monte-Carlo, Longstaff-Schwartz, Fourier-COS);
* the engine: :class:`repro.pricing.engine.PricingProblem`, the analogue of
  Premia's ``PremiaModel`` object, with name-based registries.
"""

from repro.pricing import analytics
from repro.pricing.batch import (
    BatchPlan,
    ProblemBatch,
    SimulationSignature,
    plan_batches,
    price_problems,
    simulation_signature,
)
from repro.pricing.cache import (
    CacheStats,
    ResultCache,
    model_digest,
    problem_digest,
    stable_digest,
)
from repro.pricing.engine import (
    ASSET_CLASSES,
    PricingProblem,
    compatible_methods,
    list_methods,
    list_models,
    list_products,
    premia_create,
    register_method,
    register_method_alias,
    register_model,
    register_product,
)
from repro.pricing.greeks import GreekReport, bump_model, compute_greeks
from repro.pricing.methods import (
    METHOD_CLASSES,
    BinomialTree,
    ClosedFormBarrier,
    ClosedFormBasketApprox,
    ClosedFormCall,
    ClosedFormDigital,
    ClosedFormPut,
    FourierCOS,
    LongstaffSchwartz,
    MonteCarloEuropean,
    PDEAmerican,
    PDEBarrier,
    PDEEuropean,
    PricingMethod,
    PricingResult,
    ResultColumns,
    TrinomialTree,
)
from repro.pricing.models import (
    MODEL_CLASSES,
    BlackScholesModel,
    CEVModel,
    HestonModel,
    MertonJumpModel,
    Model,
    MultiAssetBlackScholesModel,
    SmileLocalVolModel,
    flat_correlation,
)
from repro.pricing.products import (
    PRODUCT_CLASSES,
    AmericanBasketCall,
    AmericanBasketPut,
    AmericanCall,
    AmericanPut,
    AsianCall,
    AsianPut,
    BarrierOption,
    BasketCall,
    BasketPut,
    DigitalCall,
    DigitalPut,
    DownOutCall,
    DownOutPut,
    EuropeanCall,
    EuropeanPut,
    Product,
    UpOutCall,
    UpOutPut,
)
from repro.pricing.rng import (
    AntitheticGenerator,
    PseudoRandomGenerator,
    RandomGenerator,
    SobolGenerator,
    create_generator,
)

__all__ = [
    # engine
    "PricingProblem",
    "premia_create",
    "register_model",
    "register_product",
    "register_method",
    "register_method_alias",
    "list_models",
    "list_products",
    "list_methods",
    "compatible_methods",
    "ASSET_CLASSES",
    # batch pricing & result cache
    "BatchPlan",
    "ProblemBatch",
    "SimulationSignature",
    "plan_batches",
    "price_problems",
    "simulation_signature",
    "CacheStats",
    "ResultCache",
    "model_digest",
    "problem_digest",
    "stable_digest",
    # models
    "Model",
    "BlackScholesModel",
    "CEVModel",
    "SmileLocalVolModel",
    "HestonModel",
    "MertonJumpModel",
    "MultiAssetBlackScholesModel",
    "flat_correlation",
    "MODEL_CLASSES",
    # products
    "Product",
    "EuropeanCall",
    "EuropeanPut",
    "DigitalCall",
    "DigitalPut",
    "BarrierOption",
    "DownOutCall",
    "DownOutPut",
    "UpOutCall",
    "UpOutPut",
    "BasketCall",
    "BasketPut",
    "AsianCall",
    "AsianPut",
    "AmericanCall",
    "AmericanPut",
    "AmericanBasketCall",
    "AmericanBasketPut",
    "PRODUCT_CLASSES",
    # methods
    "PricingMethod",
    "PricingResult",
    "ResultColumns",
    "ClosedFormCall",
    "ClosedFormPut",
    "ClosedFormDigital",
    "ClosedFormBarrier",
    "ClosedFormBasketApprox",
    "PDEEuropean",
    "PDEBarrier",
    "PDEAmerican",
    "BinomialTree",
    "TrinomialTree",
    "MonteCarloEuropean",
    "LongstaffSchwartz",
    "FourierCOS",
    "METHOD_CLASSES",
    # greeks & rng
    "GreekReport",
    "compute_greeks",
    "bump_model",
    "RandomGenerator",
    "PseudoRandomGenerator",
    "SobolGenerator",
    "AntitheticGenerator",
    "create_generator",
    "analytics",
]

"""Numerical pricing methods (the *method* layer of the Premia substitute)."""

from repro.pricing.methods.base import PricingMethod, PricingResult, ResultColumns
from repro.pricing.methods.closed_form import (
    ClosedFormBarrier,
    ClosedFormBasketApprox,
    ClosedFormCall,
    ClosedFormDigital,
    ClosedFormPut,
)
from repro.pricing.methods.fourier import FourierCOS
from repro.pricing.methods.longstaff_schwartz import LongstaffSchwartz
from repro.pricing.methods.montecarlo import MonteCarloEuropean
from repro.pricing.methods.pde import PDEAmerican, PDEBarrier, PDEEuropean, PDEGrid
from repro.pricing.methods.tree import BinomialTree, TrinomialTree

#: name -> class mapping used by the engine registry
METHOD_CLASSES: dict[str, type[PricingMethod]] = {
    cls.method_name: cls
    for cls in (
        ClosedFormCall,
        ClosedFormPut,
        ClosedFormDigital,
        ClosedFormBarrier,
        ClosedFormBasketApprox,
        PDEEuropean,
        PDEBarrier,
        PDEAmerican,
        BinomialTree,
        TrinomialTree,
        MonteCarloEuropean,
        LongstaffSchwartz,
        FourierCOS,
    )
}

__all__ = [
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
    "PDEGrid",
    "BinomialTree",
    "TrinomialTree",
    "MonteCarloEuropean",
    "LongstaffSchwartz",
    "FourierCOS",
    "METHOD_CLASSES",
]

"""The pricing-problem engine: the analogue of Premia's ``PremiaModel``.

In the paper, a pricing problem is described at the Nsp level by creating a
``PremiaModel`` object and setting its asset class, model, option and method::

    P = premia_create()
    P.set_asset[str="equity"]
    P.set_model[str="Heston1dim"]
    P.set_option[str="PutAmer"]
    P.set_method[str="MC_AM_Alfonsi_LongstaffSchwartz"]
    save('fic', P)

:class:`PricingProblem` mirrors that interface: ``set_asset``, ``set_model``,
``set_option``, ``set_method``, ``compute`` and ``get_method_results``.  The
(model, option, method) names are resolved through module-level registries so
that new models, products and methods can be plugged in without touching the
engine ("it is an easy task to add any new pricing algorithms using the
Premia framework").

A :class:`PricingProblem` is fully described by a plain dictionary
(:meth:`PricingProblem.wire_view`; :meth:`PricingProblem.to_dict` is its deep
copy), which is what the :mod:`repro.serial` layer encodes into
architecture-independent problem files.
"""

from __future__ import annotations

import copy
from typing import Any, Sequence

from repro.errors import ProblemStateError, RegistryError, ReproError, SerializationError
from repro.pricing.methods import METHOD_CLASSES, PricingMethod, PricingResult
from repro.pricing.methods.longstaff_schwartz import LongstaffSchwartz
from repro.pricing.models import MODEL_CLASSES, Model
from repro.pricing.products import PRODUCT_CLASSES, Product

__all__ = [
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
]

#: asset classes recognised by :meth:`PricingProblem.set_asset`; the paper's
#: experiments are restricted to equity derivatives but Premia also covers
#: rates, credit, commodities and inflation.  A book on the wire numbers
#: each position's class by its place here (:mod:`repro.pricing.book`):
#: append a class, never reorder them, or bump the protocol version.
ASSET_CLASSES = ("equity", "interest_rate", "credit", "commodity", "inflation")

# ---------------------------------------------------------------------------
# registries
# ---------------------------------------------------------------------------

_MODEL_REGISTRY: dict[str, type[Model]] = dict(MODEL_CLASSES)
_PRODUCT_REGISTRY: dict[str, type[Product]] = dict(PRODUCT_CLASSES)
_METHOD_REGISTRY: dict[str, type[PricingMethod]] = dict(METHOD_CLASSES)
#: aliases map a Premia-style method name to (registry name, default params)
_METHOD_ALIASES: dict[str, tuple[str, dict[str, Any]]] = {}


def register_model(cls: type[Model]) -> type[Model]:
    """Register a new model class (usable as a decorator)."""
    if not getattr(cls, "model_name", None) or cls.model_name == "abstract":
        raise RegistryError("model classes must define a non-abstract model_name")
    _MODEL_REGISTRY[cls.model_name] = cls
    return cls


def register_product(cls: type[Product]) -> type[Product]:
    """Register a new product class (usable as a decorator)."""
    if not getattr(cls, "option_name", None) or cls.option_name == "abstract":
        raise RegistryError("product classes must define a non-abstract option_name")
    _PRODUCT_REGISTRY[cls.option_name] = cls
    return cls


def register_method(cls: type[PricingMethod]) -> type[PricingMethod]:
    """Register a new pricing method class (usable as a decorator)."""
    if not getattr(cls, "method_name", None) or cls.method_name == "abstract":
        raise RegistryError("method classes must define a non-abstract method_name")
    _METHOD_REGISTRY[cls.method_name] = cls
    return cls


def register_method_alias(alias: str, method_name: str, **default_params: Any) -> None:
    """Register a Premia-style alias for a method with default parameters.

    Example: ``MC_AM_Alfonsi_LongstaffSchwartz`` (the paper's example method)
    aliases :class:`LongstaffSchwartz` with the Alfonsi variance scheme.
    """
    if method_name not in _METHOD_REGISTRY:
        raise RegistryError(f"unknown method {method_name!r} for alias {alias!r}")
    _METHOD_ALIASES[alias] = (method_name, dict(default_params))


def list_models() -> list[str]:
    """Names of all registered models."""
    return sorted(_MODEL_REGISTRY)


def list_products() -> list[str]:
    """Names of all registered products."""
    return sorted(_PRODUCT_REGISTRY)


def list_methods(include_aliases: bool = True) -> list[str]:
    """Names of all registered methods (and aliases)."""
    names = set(_METHOD_REGISTRY)
    if include_aliases:
        names |= set(_METHOD_ALIASES)
    return sorted(names)


def _build_model(name: str, params: dict[str, Any]) -> Model:
    if name not in _MODEL_REGISTRY:
        raise RegistryError(f"unknown model {name!r}; known models: {list_models()}")
    return _MODEL_REGISTRY[name].from_params(params)


def _build_product(name: str, params: dict[str, Any]) -> Product:
    if name not in _PRODUCT_REGISTRY:
        raise RegistryError(f"unknown option {name!r}; known options: {list_products()}")
    return _PRODUCT_REGISTRY[name].from_params(params)


def _build_method(name: str, params: dict[str, Any]) -> PricingMethod:
    if name in _METHOD_ALIASES:
        target, defaults = _METHOD_ALIASES[name]
        merged = dict(defaults)
        merged.update(params)
        return _METHOD_REGISTRY[target].from_params(merged)
    if name not in _METHOD_REGISTRY:
        raise RegistryError(f"unknown method {name!r}; known methods: {list_methods()}")
    return _METHOD_REGISTRY[name].from_params(params)


def compatible_methods(model: Model, product: Product) -> list[str]:
    """Names of registered methods (with default parameters) that can price
    ``product`` under ``model``."""
    names = []
    for name, cls in _METHOD_REGISTRY.items():
        try:
            method = cls()
        except TypeError:  # pragma: no cover - methods requiring parameters
            continue
        if method.supports(model, product):
            names.append(name)
    return sorted(names)


# the alias named in the paper's example script
register_method_alias(
    "MC_AM_Alfonsi_LongstaffSchwartz",
    LongstaffSchwartz.method_name,
    heston_scheme="alfonsi",
)
# a few convenience aliases with Premia-flavoured names
register_method_alias("CF_CallEuro_BlackScholes", "CF_Call")
register_method_alias("CF_PutEuro_BlackScholes", "CF_Put")
register_method_alias("FD_CrankNicolson", "FD_European", theta=0.5)
register_method_alias("FD_Implicit", "FD_European", theta=1.0)
register_method_alias("MC_Standard", "MC_European")
register_method_alias("MC_Sobol", "MC_European", rng_kind="sobol")


# ---------------------------------------------------------------------------
# the PricingProblem object
# ---------------------------------------------------------------------------


class PricingProblem:
    """A fully specified pricing problem (asset, model, option, method).

    The object supports two construction styles:

    * Premia/Nsp style, by name::

        p = PricingProblem()
        p.set_asset("equity")
        p.set_model("BlackScholes1D", spot=100, rate=0.05, volatility=0.2)
        p.set_option("CallEuro", strike=100, maturity=1.0)
        p.set_method("CF_Call")

    * directly from instances::

        p = PricingProblem.from_instances(model, product, method)

    ``compute()`` runs the method and stores the :class:`PricingResult`;
    ``get_method_results()`` returns it.
    """

    def __init__(self, label: str | None = None):
        self.asset: str = "equity"
        self.label = label
        self._model_name: str | None = None
        #: parameter dicts as given by name; ``None`` after a leg was set from
        #: an instance, until :meth:`wire_view` asks the instance for them
        self._model_params: dict[str, Any] | None = {}
        self._product_name: str | None = None
        self._product_params: dict[str, Any] | None = {}
        self._method_name: str | None = None
        self._method_params: dict[str, Any] | None = {}
        self._model: Model | None = None
        self._product: Product | None = None
        self._method: PricingMethod | None = None
        self._result: PricingResult | None = None
        self._leg_replaced()

    # -- setters ----------------------------------------------------------------
    def _leg_replaced(self) -> None:
        """Forget what was derived from the (model, option, method) triple:
        the result and the memos of :func:`repro.pricing.cache.problem_digest`
        and :func:`repro.pricing.batch.simulation_signature` (the latter a
        1-tuple, ``None`` being a valid signature); say again whether the
        triple is complete."""
        self._result = None
        self._digest_cache: str | None = None
        self._signature_cache: tuple[Any] | None = None
        #: whether the problem has a model, an option and a method (a plain
        #: attribute, so a planner reads a whole book's without a call each)
        self.is_complete = (
            self._model is not None and self._product is not None and self._method is not None
        )

    def set_asset(self, name: str) -> "PricingProblem":
        if name not in ASSET_CLASSES:
            raise RegistryError(
                f"unknown asset class {name!r}; known classes: {ASSET_CLASSES}"
            )
        self.asset = name
        return self

    def set_model(self, name: str | Model, **params: Any) -> "PricingProblem":
        if isinstance(name, Model):
            self._model = name
            self._model_name = name.model_name
            self._model_params = None
        else:
            self._model_name = name
            self._model_params = params
            self._model = _build_model(name, params)
        self._leg_replaced()
        return self

    def set_option(self, name: str | Product, **params: Any) -> "PricingProblem":
        if isinstance(name, Product):
            self._product = name
            self._product_name = name.option_name
            self._product_params = None
        else:
            self._product_name = name
            self._product_params = params
            self._product = _build_product(name, params)
        self._leg_replaced()
        return self

    def set_method(self, name: str | PricingMethod, **params: Any) -> "PricingProblem":
        if isinstance(name, PricingMethod):
            self._method = name
            self._method_name = name.method_name
            self._method_params = None
        else:
            self._method_name = name
            self._method_params = params
            self._method = _build_method(name, params)
        self._leg_replaced()
        return self

    @classmethod
    def from_instances(
        cls,
        model: Model,
        product: Product,
        method: PricingMethod,
        asset: str = "equity",
        label: str | None = None,
    ) -> "PricingProblem":
        problem = cls(label=label)
        problem.set_asset(asset)
        problem.set_model(model)
        problem.set_option(product)
        problem.set_method(method)
        return problem

    # -- accessors ----------------------------------------------------------------
    @property
    def model(self) -> Model:
        if self._model is None:
            raise ProblemStateError("the problem has no model; call set_model first")
        return self._model

    @property
    def product(self) -> Product:
        if self._product is None:
            raise ProblemStateError("the problem has no option; call set_option first")
        return self._product

    @property
    def method(self) -> PricingMethod:
        if self._method is None:
            raise ProblemStateError("the problem has no method; call set_method first")
        return self._method

    @property
    def model_name(self) -> str | None:
        return self._model_name

    @property
    def option_name(self) -> str | None:
        return self._product_name

    @property
    def method_name(self) -> str | None:
        return self._method_name

    @property
    def has_result(self) -> bool:
        return self._result is not None

    # -- computation ---------------------------------------------------------------
    def compute(self) -> PricingResult:
        """Run the pricing method and store (and return) its result."""
        if not self.is_complete:
            missing = [
                name
                for name, value in (
                    ("model", self._model),
                    ("option", self._product),
                    ("method", self._method),
                )
                if value is None
            ]
            raise ProblemStateError(f"problem is incomplete, missing: {missing}")
        self._result = self.method.price(self.model, self.product)
        return self._result

    def get_method_results(self) -> PricingResult:
        """Return the stored result of the last :meth:`compute` call."""
        if self._result is None:
            raise ProblemStateError("no results available; call compute() first")
        return self._result

    # -- serialization ----------------------------------------------------------------
    def wire_view(self) -> dict[str, Any]:
        """Plain-dictionary description (model/option/method names + params).

        The dictionary only contains numbers, strings, lists and nested
        dictionaries, so the :mod:`repro.serial` XDR encoder can write it
        without type-specific hooks.  It is a **read-only view**: the
        parameter dictionaries are the problem's own, shared for an encoder
        that only reads them.  :meth:`to_dict` is the copy callers may edit.
        """
        (model, model_params), (method, method_params), (option, option_params) = (
            self.wire_legs()
        )
        return {
            "asset": self.asset,
            "label": self.label,
            "model": {"name": model, "params": model_params},
            "option": {"name": option, "params": option_params},
            "method": {"name": method, "params": method_params},
            "result": None if self._result is None else self._result.as_dict(),
        }

    def wire_legs(self) -> tuple[tuple[str | None, dict[str, Any]], ...]:
        """``(name, params)`` of the model, method and option legs, as
        :meth:`wire_view` writes them (read-only: the problem's own dicts)."""
        if self._model_params is None:
            self._model_params = self.model.to_params()
        if self._method_params is None:
            self._method_params = self.method.to_params()
        if self._product_params is None:
            self._product_params = self.product.to_params()
        return (
            (self._model_name, self._model_params),
            (self._method_name, self._method_params),
            (self._product_name, self._product_params),
        )

    @staticmethod
    def wire_columns(problems: Sequence["PricingProblem"]) -> list[list[Any]]:
        """Every problem's label, asset class and :meth:`wire_legs`, as eight
        columns: labels, assets, then the name and the parameters of the
        model, the method and the option legs.  A pass per column, and the
        parameter columns again where a leg set from an instance had not been
        asked for its parameters yet."""

        def parameters() -> list[list[Any]]:
            return [[problem._model_params for problem in problems],
                    [problem._method_params for problem in problems],
                    [problem._product_params for problem in problems]]

        params = parameters()
        if any(None in column for column in params):
            for problem in problems:
                problem.wire_legs()
            params = parameters()
        return [
            [problem.label for problem in problems],
            [problem.asset for problem in problems],
            [problem._model_name for problem in problems], params[0],
            [problem._method_name for problem in problems], params[1],
            [problem._product_name for problem in problems], params[2],
        ]

    def share_leg(self, leg: str, source: "PricingProblem") -> None:
        """Take ``source``'s ``model`` or ``method`` leg as it is: the same
        object, name and parameters (the members of one book header)."""
        for name in (f"_{leg}", f"_{leg}_name", f"_{leg}_params"):
            setattr(self, name, getattr(source, name))
        self._leg_replaced()

    def to_dict(self) -> dict[str, Any]:
        """An independent deep copy of :meth:`wire_view`."""
        return copy.deepcopy(self.wire_view())

    def set_leg_from_wire(self, leg: str, entry: Any, where: str = "") -> None:
        """Set the ``model`` / ``option`` / ``method`` leg from its decoded
        ``{name, params}`` entry (nothing, where the entry is empty).

        The entry comes off a wire: whatever the named class makes of
        parameters it was never written with -- an unknown keyword, a string
        for a number -- is a :class:`~repro.errors.SerializationError` naming
        the leg at ``where``, never the class's own ``TypeError``.
        """
        setter = {"model": self.set_model, "option": self.set_option,
                  "method": self.set_method}[leg]
        try:
            entry = entry or {}
            if entry.get("name"):
                setter(entry["name"], **(entry.get("params") or {}))
        except ReproError:
            raise
        except Exception as exc:  # noqa: BLE001 - any constructor, any hostile parameter
            raise SerializationError(
                f"{where}'{leg}' does not build from {entry!r:.200}: "
                f"{type(exc).__name__}: {exc}"
            ) from exc

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "PricingProblem":
        problem = cls(label=data.get("label"))
        problem.set_asset(data.get("asset", "equity"))
        for leg in ("model", "option", "method"):
            problem.set_leg_from_wire(leg, data.get(leg), "PricingProblem payload: ")
        result = data.get("result")
        if result is not None:
            problem._result = PricingResult.from_dict(result)
        return problem

    # -- misc --------------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PricingProblem):
            return NotImplemented
        a, b = self.wire_view(), other.wire_view()
        a.pop("result"), b.pop("result")
        return a == b

    def __repr__(self) -> str:
        return (
            f"PricingProblem(asset={self.asset!r}, model={self._model_name!r}, "
            f"option={self._product_name!r}, method={self._method_name!r}, "
            f"label={self.label!r})"
        )


def premia_create(label: str | None = None) -> PricingProblem:
    """Premia-flavoured factory function, mirroring the paper's scripts."""
    return PricingProblem(label=label)

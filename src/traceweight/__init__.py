"""Cyclic codes from trace representations over F_q, with their exact
weight distributions predicted in closed form and verified by exhaustive
enumeration at desk scale.

The public names load on first access (PEP 562), each from its home
module, so importing the package, or running its command line, loads
numpy only when a name or command needs it."""

_HOMES = {
    "admission": ("BudgetExceeded", "FieldSizeError", "TIER_BUDGETS", "brute_work",
                  "rank_sweep_work", "split_prime_power"),
    "codes": ("CodeSpec", "ConsistencyError", "build_code", "build_gamma"),
    "engine": ("VerifyReport", "brute_distribution", "measure_rank_counts",
               "rank_sweep", "verify"),
    "fields": ("FieldCtx", "Poly", "make_field", "minimal_polynomial"),
    "hermitian": ("cayley_spectrum", "enumerate_hermitian", "rank1_count",
                  "verify_isomorphism"),
    "quadforms": ("FormSpace", "QuadForm", "all_forms", "big_T", "r_histogram",
                  "s_histogram"),
    "spectra": ("WeightDistribution", "eigenvalues", "frequencies",
                "gaussian_binomial", "predict"),
}
_MODULE_OF = {name: module for module, names in _HOMES.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value

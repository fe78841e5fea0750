"""Cyclic codes from trace representations over F_q, with their exact
weight distributions predicted in closed form and verified by exhaustive
enumeration at desk scale."""

from .codes import (Codeword, CodeSpec, ConsistencyError, annihilated_by,
                    build_code, build_gamma, codeword, weight, zero_params)
from .engine import (TIER_BUDGETS, VerifyReport, brute_distribution,
                     brute_work, measure_rank_counts, rank_sweep,
                     rank_sweep_work, verify)
from .fields import (BudgetExceeded, FieldCtx, FieldSizeError, Poly,
                     make_field, minimal_polynomial, split_prime_power)
from .hermitian import (cayley_spectrum, enumerate_hermitian, rank1_count,
                        verify_isomorphism)
from .quadforms import (FormSpace, QuadForm, all_forms, big_T,
                        count_solutions, r_histogram, s_histogram)
from .spectra import (WeightDistribution, eigenvalues, frequencies,
                      gaussian_binomial, predict)

__all__ = [
    "BudgetExceeded", "CodeSpec", "Codeword", "ConsistencyError", "FieldCtx",
    "FieldSizeError", "FormSpace", "Poly", "QuadForm", "TIER_BUDGETS",
    "VerifyReport", "WeightDistribution", "all_forms", "annihilated_by",
    "big_T", "brute_distribution", "brute_work", "build_code", "build_gamma",
    "cayley_spectrum", "codeword", "count_solutions",
    "eigenvalues", "enumerate_hermitian", "frequencies", "gaussian_binomial",
    "make_field", "measure_rank_counts", "minimal_polynomial", "predict",
    "r_histogram", "rank1_count", "rank_sweep", "rank_sweep_work",
    "s_histogram", "split_prime_power", "verify", "verify_isomorphism",
    "weight", "zero_params",
]

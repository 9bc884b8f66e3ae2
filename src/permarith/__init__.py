"""Exact-arithmetic permanents and determinants of structured matrices.

Core pieces: exact scalar rings (rationals, residues, Laurent polynomials,
cyclotomic fields), generic Glynn/naive permanents and the fraction-free
(Bareiss) determinant, the structured matrix families, the named integer
sequences they generate, and a registry of verification checks with a CLI.
"""

from .cyclotomic import (Cyc, CyclotomicField, FqRoot, cyclotomic_poly,
                         find_fq_root, gauss_sum, sqrt_element)
from .families import (build_cyclotomic, build_integer, build_qpoly,
                       build_rational)
from .matrices import (Mat, det_divfree, det_field, per_naive, per_ryser,
                       per_sum_coeffs)
from .ntheory import (bernoulli, binomial, double_factorial, factorial,
                      is_prime, jacobi, mod_reduce_rat)
from .rings import GF, QPOLY, QQ, ZZ, LPoly, ModInt, Rat, Ring, Zmod, qint
from .sequences import (DERANGEMENT_VARIANTS, SEQ_NAMES, SeqValue,
                        derangement_sum, masked_sum, seq_T, seq_c,
                        seq_c_prime, seq_d, seq_s, seq_s_prime, seq_t,
                        seq_t_prime, sequence_value)
from .verifier import (ALL_CHECK_IDS, Report, default_grid, run_check,
                       run_suite, run_tasks)

__version__ = "0.1.0"

"""qasymp: exact q-series for partitions without k consecutive part sizes,
arbitrary-precision evaluation at q = e^{-s}, Wright-function asymptotics,
and the rational Puiseux-coefficient tables of the small-s expansion."""

from .errors import (DivisionByZeroBeta, InvalidK, InvalidRho, InvertAtZero, NonConvergent,
                     PoleAtNonpositive, QAsympError, ReconstructionFailed,
                     SeriesTruncationError, TermCapExceeded)
from .exactcore import (FormalSeries, ZPolynomial, bernoulli_number, bernoulli_polynomial,
                        rational_to_str)
from .qseries import (Gk_series_oracle, chi_series, euler_identity_check,
                      g2_product_side, gk_from_oracle, gk_series_andrews,
                      pochhammer_series, theta_product_check, theta_series)
from .hires import (EvalConfig, I_n_num, format_real, gamma_q_num, gk_num,
                    pochhammer_num, qq_infinity_num, qsubz_num, relative_error_num,
                    theta_num)
from .wright import (W_j_num, Wj_expansion, WrightParams, b_k_coeff, re_phi_expansion,
                     wright_phi, wright_phi_moment)
from .expansion import (BivariateExpansion, beta_coeff, beta_rational, expansion_eval,
                        f2j_polynomial, hq_bivariate, hq_num, rational_ratio, zagier_c1,
                        zagier_c2, zagier_t_coeffs)

__version__ = "0.1.0"

"""Fault-tolerant LDPC memory toolkit.

Storage arrays refreshed by an unreliable correcting circuit: regular
Tanner graph construction and coding, expansion certification, the three
update rules, fault-plan generation for adversarial and independent
failure models, cycle-level Monte Carlo simulation, and the closed-form
complexity/redundancy/tail bounds.
"""

from .decoders import (EdgeMessages, GateFaultPlan, TkState, gallager_b_round,
                       parallel_bitflip_decode, tk_round)
from .exceptions import (AccountingError, AlistFormatError,
                         BudgetViolationError, ConfigError, FaultMemError,
                         GraphConstructionError)
from .expansion import (AlphaTotalBounds, ExpansionCertificate,
                        ExpansionProfile, alpha_total_bounds,
                        check_expansion_exhaustive, expansion_lower_bound_alpha,
                        expansion_upper_bound, probe_expansion_randomized)
from .faults import (AdversarialBudget, AdversarialModel, IndependentModel,
                     IndependentRates, theorem2_margin)
from .memsim import (MonteCarloResult, RunConfig, SimReport, monte_carlo,
                     run_memory, wilson_interval)
from .metrics import (DEFAULT_COST, GateCostModel, chernoff_tail, complexity,
                      constant_cost, kl_divergence, optimal_rho, pf_bound,
                      redundancy, redundancy_tk)
from .tanner import (CodeParams, TannerGraph, Word, build_random_regular,
                     code_dimension, encode, read_alist, write_alist)

__version__ = "0.1.0"

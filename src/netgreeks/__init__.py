"""Valuation and risk-neutral Greeks for firm networks with cross-holdings."""

from .blackscholes import call_price, put_price
from .fixpoint import BatchSolution, ConvergenceError, FixedPointConfig, solve_claims_batch
from .gbm import GbmParams, normal_variates, sample_terminal
from .local import (LocalValuationState, independent_default_delta,
                    local_delta, local_fixed_point, marginal_contagion)
from .mc import GreekReport, PriceResult, mc_greeks, price_claims
from .network import (FirmNetwork, NetworkError, ValidationReport, er_network, load_network,
                      symmetric_network, validate_network)
from .sensitivity import SensitivityError
from .symmetric import (SymmetricGreeks, SymmetricParams, symmetric_expost,
                        symmetric_greeks, symmetric_mc_inputs, symmetric_pi,
                        symmetric_price)

__version__ = "0.1.0"

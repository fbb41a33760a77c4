"""Numerical laboratory for the ground-state energy of a polaron in a strong
magnetic field: product-ansatz energies in the lowest Landau level, the exact
effective 1D problem, a Coulomb-energy decomposition ledger, and certified
lower bounds for the projected quantized-field operator."""

from .certificate import (ConstantsLedger, CutoffParams, LowerBoundCertificate,
                          analytic_infimum_floor, certificate_to_dict,
                          certify_projected, conditional_full_bound,
                          default_cutoffs)
from .decomposition import (DecompositionLedger, coulomb_D_product,
                            d_product_fourier, d_product_real, decompose)
from .errors import (ConvergenceError, DomainTooSmallError, FitError,
                     InvalidFieldError, MagpolaronError, ParameterError,
                     ResolutionError)
from .grids import Field1D, Grid1D, kinetic, mass, quartic
from .landau import effective_potential, effective_potential_fourier
from .oned import (SHARP_GN_Q4, OneDProblem, OneDSolution, closed_form_energy,
                   closed_form_minimizer, distance_to_profile, gn_ratio,
                   solve_numeric, solve_weighted)
from .pekar import (AsymptoticFit, EnergyBreakdown, PekarProductState,
                    PhysParams, coherent_infimum, fit_asymptotics,
                    pekar_energy, pekar_minimize, scaling_identity_check,
                    trial_energy, trial_state)

__version__ = "0.1.0"

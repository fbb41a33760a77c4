"""Numerical laboratory for the ground-state energy of a polaron in a strong
magnetic field: product-ansatz energies in the lowest Landau level, the exact
effective 1D problem, a Coulomb-energy decomposition ledger, and certified
lower bounds for the projected quantized-field operator."""

from .certificate import (ConstantsLedger, CutoffParams, LowerBoundCertificate,
                          analytic_infimum_floor, block_error,
                          certificate_to_dict, certify_projected,
                          conditional_full_bound, coupling_v, default_cutoffs,
                          kappa, kappa1, kappa2, localization_error,
                          total_coupling_weight)
from .decomposition import (DecompositionLedger, coulomb_D_product,
                            d_product_fourier, d_product_real, decompose,
                            kernel_remainder, kernel_remainder_coefficient,
                            log_kernel, main_coefficient,
                            smooth_remainder_bound)
from .errors import (ConvergenceError, DomainTooSmallError, FitError,
                     InvalidFieldError, MagpolaronError, ParameterError,
                     ResolutionError)
from .grids import (Field1D, Grid1D, centroid, kinetic, mass, quartic,
                    shift_field)
from .landau import effective_potential, effective_potential_fourier
from .oned import (SHARP_GN_Q4, OneDProblem, OneDSolution, WeightedProblem,
                   closed_form_energy, closed_form_minimizer,
                   distance_to_profile, gn_ratio, solve_numeric,
                   solve_weighted)
from .pekar import (AsymptoticFit, EnergyBreakdown, PekarProductState,
                    PhysParams, SweepRecord, coherent_infimum, fit_asymptotics,
                    pekar_energy, pekar_minimize, scaling_identity_check,
                    sweep, sweep_grid, trial_energy, trial_state)

__version__ = "0.1.0"

"""oscillab: numerical experiments for oscillatory convolution operators,
geometric maximal functions and Littlewood-Paley theory on the line."""

from .errors import OscillabError, UnderResolved
from .numerics import (Grid, SampledFunction, SpectralFunction, Weight,
                       convolve, forward_transform, inverse_transform,
                       lp_norm, restrict, weighted_l2)
from .phases import (FiniteTypeSpec, Phase, TypeReport, ensure_finite_type,
                     finite_type_spec, normalize_phase, validate_finite_type)
from .kernels import (DecayReport, Kernel, apply_T, build_kernel, check_decay,
                      normalized_kernel)
from .maximal import (approach_maximal, fractional_maximal, global_maximal,
                      hardy_littlewood, operator_by_name, regular_maximal)
from .lpaley import (AnnuliIndex, DominatedChain, DyadicFamily, SpacedFamily,
                     dominating_weights, dyadic_pieces, spaced_energy,
                     spaced_pieces, square_function)

__version__ = "0.1.0"

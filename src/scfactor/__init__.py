"""Order reduction of nonlinear higher-order recurrences.

The library decides when a recurrence of the form

    x[n+1] = sum_i a_i(n) x[n-i] + g_n(sum_i b_i(n) x[n-i])

over a ring or free module splits into a lower-order factor driving a
first-order cofactor, builds the full factorization chain, and verifies the
result by simulating both forms and comparing trajectories.
"""

from .config import JobConfig, RunOptions, build_job, load_job
from .engine import (Breakdown, ChainRun, EquivalenceReport, Trajectory,
                     simulate, simulate_chain,
                     simulate_substitution, transport, trajectory_csv,
                     trajectory_json_obj, verify_equivalence)
from .errors import (CertificateFailure, CertificateNotPeriodic, ConfigError,
                     DivisionByNonUnit, GMapSyntaxError, Irreducible,
                     NoncommutativeRing, NotAValidRoot, NotFoldable,
                     ParseError, ScfactorError, TanhUnsupported)
from .factorize import (FactorStep, FactorizationChain, O2bVerdict,
                        SubstitutionFactorization, UnitCertificate,
                        build_variable_factor, criterion_check, factor_chain,
                        factor_once, level_name, linear_complete,
                        o2b_reducibility, second_order_shortcut,
                        substitution_factorization, variable_certificate,
                        variable_chain)
from .poly import (Poly, RootReport, deflate, durand_kerner, poly_gcd,
                   unit_roots, verified_roots)
from .recurrence import (CoeffSeq, FamilyInfo, GMap, Recurrence, build_family,
                         fold_system, make_coeff)
from .rings import El, Module, Ring, Vec, make_ring

__version__ = "0.1.0"

__all__ = [
    "Breakdown", "CertificateFailure", "CertificateNotPeriodic", "ChainRun",
    "CoeffSeq", "ConfigError", "DivisionByNonUnit", "El", "EquivalenceReport",
    "FactorStep", "FactorizationChain", "FamilyInfo", "GMap", "GMapSyntaxError",
    "Irreducible", "JobConfig", "Module", "NoncommutativeRing", "NotAValidRoot",
    "NotFoldable", "O2bVerdict", "ParseError", "Poly",
    "Recurrence", "Ring", "RootReport", "RunOptions", "ScfactorError",
    "SubstitutionFactorization", "TanhUnsupported", "Trajectory",
    "UnitCertificate", "Vec", "build_family", "build_job",
    "build_variable_factor", "criterion_check", "deflate",
    "durand_kerner", "factor_chain", "factor_once", "fold_system", "level_name",
    "linear_complete", "load_job", "make_coeff", "make_ring",
    "o2b_reducibility", "poly_gcd",
    "second_order_shortcut", "simulate", "simulate_chain",
    "simulate_substitution", "substitution_factorization", "transport",
    "trajectory_csv", "trajectory_json_obj", "unit_roots",
    "variable_certificate", "variable_chain", "verified_roots",
    "verify_equivalence",
    "__version__",
]

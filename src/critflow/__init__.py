"""critflow: selective flow rerouting for traffic engineering.

A numpy workbench that routes most traffic by ECMP, learns which few
flows are worth explicit rerouting (policy-gradient selector), reroutes
them with a min-max-utilization LP, and scores everything against
optimal-routing oracles.
"""

from .topology import (Topology, Link, load_topology, parse_topology,
                       save_topology, serialize_topology,
                       infer_capacities_from_costs, flow_index, flow_of_index,
                       from_undirected_edges, triangle3, diamond4,
                       ring_with_chords, random_topology,
                       TopologyError, TopologyParseError, TopologyValidationError)
from .traffic import (TrafficMatrix, Dataset, generate_tms, split_dataset,
                      load_tms, save_tms, TrafficError)
from .ecmp import (EcmpFractions, LinkLoads, compute_ecmp_fractions,
                   ecmp_link_loads, ecmp_max_utilization)
from .simplex import (LpProblem, LpSolution, solve_lp, lp_to_text, dump_lp,
                      LpError, LpUnboundedError,
                      LpIterationLimitError)
from .rerouting import (ReroutingSolution, solve_rerouting, solve_rerouting_batch,
                        solve_optimal_all_flows, check_rerouting_feasibility,
                        evaluate_delay, solve_delay_optimal,
                        OverloadedInstanceError)
from .policy import (PolicyParams, ActionDistribution, Solution, init_params,
                     zero_params, forward, forward_batch, sample_solution,
                     solution_log_prob, entropy, gradients, selection_objective,
                     save_checkpoint, load_checkpoint, PolicyError)
from .selectors import (SelectionResult, top_k, top_k_critical, random_k,
                        brute_force_best, SelectionError)
from .training import (TrainerConfig, Experience, TrainingLog, learning_rate,
                       compute_reward, train, replay_update,
                       TrainingError, DegenerateStateError)
from .evaluation import (EvalRecord, EvalTiming, eval_one, eval_suite, aggregate,
                         empirical_cdf, policy_selection, select,
                         write_results_csv, write_cdf_csv, write_timings_csv,
                         EvaluationError)

__version__ = "0.1.0"

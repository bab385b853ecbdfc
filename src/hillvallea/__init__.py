"""HillVallEA: hill-valley clustering with AMaLGaM-Univariate core
searches, plus a CEC2013 niching benchmark harness."""

from .problem import (BudgetedEvaluator, BudgetExhausted, DimensionMismatch,
                      ProblemSpec, uniform_init)
from .hillvalley import HillValleyOutcome, cluster_population, hill_valley_test
from .amalgam import (CoreSearchState, TerminationReason,
                      check_convergence_termination, check_reexploration,
                      generation_step, init_from_cluster, run_core_search)
from .orchestrator import (ElitistArchive, RunReport, archive_insert,
                           postprocess_archive, run_hillvallea)
from .benchmarks import UnavailableProblem, catalog, get_problem
from .scoring import Score, Summary, aggregate, score

__version__ = "0.1.0"

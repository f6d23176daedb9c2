"""Search budgets.

Every exponential search in the package is bounded by an explicit budget and
fails hard (BudgetExceeded) instead of silently truncating.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BudgetExceeded, DegreeOverflow


@dataclass(frozen=True)
class Budget:
    # firing parts (each charged vertex, each zero-chip component): the
    # exhaustive firing-subset search walks 2^parts unions; is_extremal runs
    # it only to replay an extremal answer, metric_firing_subgraphs on the
    # subdivided support model
    max_firing_vertices: int = 24
    # effective divisors enumerated per linear system
    max_lattice_candidates: int = 2_000_000
    # degree-exact products per decomposition
    max_products: int = 1_000_000
    # largest graded degree accepted by decomposition searches
    max_degree: int = 64

    def check_degree(self, m):
        if m > self.max_degree:
            raise DegreeOverflow(f"degree {m} exceeds budget {self.max_degree}")

    def check_count(self, count, limit, what):
        if count > limit:
            raise BudgetExceeded(f"{what}: {count} exceeds budget {limit}")


DEFAULT_BUDGET = Budget()

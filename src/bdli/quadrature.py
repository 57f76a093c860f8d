"""Quadrature rules on [0, 1] for the discrete line integral.

The implicit step replaces the line integral of grad H along the straight
segment from z0 to z1 by a weighted sum over segment points; the degree of
exactness of the rule decides for which polynomial energies the step
conserves H exactly.  Built-in rules:

    trapezoid   nodes (0, 1),            weights (1, 1)/2,        exactness 1
    simpson     nodes (0, 1/2, 1),       weights (1, 4, 1)/6,     exactness 3
    boole       nodes (0, 1/4, .., 1),   weights (7,32,12,32,7)/90, exactness 5

Custom rules are built from (node, weight) pairs and checked against the
same invariants; there is no rule registry, a scenario holds its own rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

_WEIGHT_SUM_TOL = 1e-15
_EXACTNESS_TOL = 1e-14


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes/weights on [0, 1] with a verified degree of exactness."""

    name: str
    nodes: tuple[float, ...]
    weights: tuple[float, ...]
    degree_of_exactness: int

    def __post_init__(self):
        object.__setattr__(self, "nodes", tuple(float(c) for c in self.nodes))
        object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))
        if len(self.nodes) != len(self.weights) or not self.nodes:
            raise ValueError("nodes and weights must be nonempty and equally long")
        if any(not 0.0 <= c <= 1.0 for c in self.nodes):
            raise ValueError(f"rule {self.name!r}: nodes must lie in [0, 1]")
        if any(b <= a for a, b in zip(self.nodes, self.nodes[1:])):
            raise ValueError(f"rule {self.name!r}: nodes must be strictly ascending")
        if not abs(sum(self.weights) - 1.0) <= _WEIGHT_SUM_TOL:  # NaN fails too
            raise ValueError(
                f"rule {self.name!r}: weights sum to {sum(self.weights)!r}, not 1"
            )
        if self.degree_of_exactness < 0:
            raise ValueError("degree_of_exactness must be >= 0")
        for k in range(self.degree_of_exactness + 1):
            err = abs(self.integrate_monomial(k) - 1.0 / (k + 1))
            if not err <= _EXACTNESS_TOL:
                raise ValueError(
                    f"rule {self.name!r} misses monomial c^{k} by {err:.2e}; "
                    f"declared degree of exactness {self.degree_of_exactness} is wrong"
                )

    @cached_property
    def first_moment(self) -> float:
        """Sum of w_i * c_i; equals 1/2 for node-symmetric rules.  Summed
        once per rule, since every DLI step reads it."""
        return float(sum(w * c for c, w in zip(self.nodes, self.weights)))

    @cached_property
    def zero_node_split(self) -> tuple[float | None, tuple[tuple[float, float], ...]]:
        """``(w0, pairs)``: the weight of the node c = 0 (None if the rule
        has none) and the other ``(c, w)`` pairs in order.  Nodes ascend, so
        c = 0 can only be first; the DLI step evaluates it once per step."""
        pairs = tuple(zip(self.nodes, self.weights))
        if pairs[0][0] == 0.0:
            return pairs[0][1], pairs[1:]
        return None, pairs

    @property
    def palindromic(self) -> bool:
        """Nodes symmetric about 1/2 and weights the same backwards (to the
        exactness tolerance): the DLI step is then time-symmetric."""
        tol, c, w = _EXACTNESS_TOL, self.nodes, self.weights
        return all(abs(a + b - 1.0) <= tol and abs(u - v) <= tol
                   for a, b, u, v in zip(c, c[::-1], w, w[::-1]))

    def integrate_monomial(self, k: int) -> float:
        """Apply the rule to f(c) = c^k."""
        return float(sum(w * c**k for c, w in zip(self.nodes, self.weights)))


BUILTIN_RULES = {
    "trapezoid": QuadratureRule("trapezoid", (0.0, 1.0), (0.5, 0.5), 1),
    "simpson": QuadratureRule("simpson", (0.0, 0.5, 1.0), (1 / 6, 4 / 6, 1 / 6), 3),
    "boole": QuadratureRule(
        "boole",
        (0.0, 0.25, 0.5, 0.75, 1.0),
        (7 / 90, 32 / 90, 12 / 90, 32 / 90, 7 / 90),
        5,
    ),
}


def builtin_rule(name: str) -> QuadratureRule:
    """One of the three built-in rules: trapezoid, simpson or boole."""
    rule = BUILTIN_RULES.get(name)
    if rule is None:
        known = ", ".join(sorted(BUILTIN_RULES))
        raise ValueError(f"unknown quadrature rule {name!r} (known: {known})")
    return rule

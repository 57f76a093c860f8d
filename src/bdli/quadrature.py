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

from .fields import ConfigError, as_count, as_real

_WEIGHT_SUM_TOL = 1e-15
_EXACTNESS_TOL = 1e-14


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes/weights on [0, 1] with a verified degree of exactness, held as
    floats and an int.  A bad value is a ConfigError naming its key: ``name``,
    ``nodes`` (nonempty, as many as the weights, ascending in [0, 1]),
    ``weights`` (summing to 1) or ``degree_of_exactness`` (which the rule
    must reach)."""

    name: str
    nodes: tuple[float, ...]
    weights: tuple[float, ...]
    degree_of_exactness: int

    def __post_init__(self):
        if not isinstance(self.name, str):
            raise ConfigError(f"name: expected a string, got {self.name!r}")
        for key in ("nodes", "weights"):
            object.__setattr__(self, key, tuple(as_real(key, c)
                                                for c in getattr(self, key)))
        d = as_count("degree_of_exactness", self.degree_of_exactness)
        object.__setattr__(self, "degree_of_exactness", d)
        c, w = self.nodes, self.weights
        if len(c) != len(w) or not c:
            raise ConfigError(f"nodes: must be nonempty and as many as the "
                              f"weights, got {len(c)} and {len(w)}")
        if any(not 0.0 <= x <= 1.0 for x in c):
            raise ConfigError(f"nodes: must lie in [0, 1], got {c}")
        if any(b <= a for a, b in zip(c, c[1:])):
            raise ConfigError(f"nodes: must be strictly ascending, got {c}")
        if not abs(sum(w) - 1.0) <= _WEIGHT_SUM_TOL:  # NaN fails too
            raise ConfigError(f"weights: must sum to 1, got a sum of {sum(w)!r}")
        if d < 0:
            raise ConfigError(f"degree_of_exactness: must be >= 0, got {d}")
        for k in range(d + 1):
            err = abs(self.integrate_monomial(k) - 1.0 / (k + 1))
            if not err <= _EXACTNESS_TOL:
                raise ConfigError(f"degree_of_exactness: {d} is wrong: the rule "
                                  f"misses monomial c^{k} by {err:.2e}")

    @property
    def palindromic(self) -> bool:
        """Nodes symmetric about 1/2 and weights the same backwards (to the
        exactness tolerance): the DLI step is then time-symmetric."""
        tol, c, w = _EXACTNESS_TOL, self.nodes, self.weights
        return all(abs(a + b - 1.0) <= tol and abs(u - v) <= tol
                   for a, b, u, v in zip(c, c[::-1], w, w[::-1]))

    def integrate_monomial(self, k: int) -> float:
        """Apply the rule to f(c) = c^k."""
        return sum(w * c**k for c, w in zip(self.nodes, self.weights))


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

"""diffeokit: exact symbolic checks for finitely generated diffeologies.

The package verifies, with rational-arithmetic certificates, the standard
constructions on diffeological spaces (plots, pullbacks, pushforwards,
subductions, quotients), vector pseudo-bundles and their morphisms,
automorphism groups and frame bundles, internal tangent cones, and
plot-indexed differential forms with covariant derivatives.

Every verdict is three-valued: Yes with a replayable certificate, No with a
concrete obstruction, or Unknown when the bounded search was exhausted.
"""

from .expr import Expr, ExprVec, ExprError, PositivityWitness

__all__ = [
    "Expr",
    "ExprVec",
    "ExprError",
    "PositivityWitness",
]

__version__ = "0.1.0"

"""Sequential probability assignment under logarithmic loss.

Predictors (Bayesian mixtures, smooth truncation, fixed-design NML),
global sequential covers, shattering numbers, exact Shtarkov-sum and
minimax machinery, a closed-form bound registry, and an experiment
harness.  The package exposes its submodules only: import them by name,
as in `from seqpa import harness` or `from seqpa.experts import glm_family`.
"""

__version__ = "0.1.0"

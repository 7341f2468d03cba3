"""Sequential probability assignment under logarithmic loss.

Predictors (Bayesian mixtures, smooth truncation, fixed-design NML),
global sequential covers, shattering numbers, exact Shtarkov-sum and
minimax machinery, a closed-form bound registry, and an experiment
harness.
"""

from .losses import (
    cumulative_loss,
    log_loss,
    log_sum_exp,
    pointwise_regret,
)
from .experts import (
    LOGISTIC,
    CodeBook,
    DsFamily,
    FiniteParamFamily,
    FiniteStaticFamily,
    HardLipschitzFamily,
    LinkFunction,
    ParamBall,
    ParametricFamily,
    best_in_hindsight,
    build_hard_lipschitz_class,
    ds_project,
    glm_family,
)
from .predictors import (
    MixturePredictor,
    NmlPredictor,
    Transcript,
    continuous_bayes,
    nml_predict,
    smooth_truncate,
)
from .covering import (
    CoverSet,
    DiscretizedFamily,
    MsoaCoverFamily,
    discretize,
    fat1_number,
    fat_shattering_number,
    grid_cover,
    msoa_cover,
    msoa_run,
)
from .shtarkov import (
    ConstantBernoulliMLE,
    DsClosedForm,
    FiniteMaxOracle,
    IntervalBernoulli,
    block_design_features,
    block_shtarkov_lower,
    ds_lower_bound,
    ds_sup_verify,
    hard_class_certificate,
    identification_bound,
    minimax_value,
    shtarkov_sum,
)
from .bounds import cover_size_bound, evaluate_bound

__version__ = "0.1.0"

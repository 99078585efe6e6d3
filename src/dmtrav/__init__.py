"""Feature-space traversal between image classes.

Move a test image's deep-feature representation away from a source
class and toward a target class under a kernel two-sample witness, then
reconstruct a pixel image from the traversed features. Includes the
bounded quasi-Newton solver, the convolutional extractor with exact
VJP, total-variation-regularized inversion, and an SVM + Platt
evaluation harness with an adversarial-perturbation baseline.
"""

from .errors import (
    DegenerateDataError,
    DmtravError,
    FormatError,
    InvalidInputError,
    NoMatchError,
    NumericalError,
)
from .evaluate import (
    AdversarialResult,
    ClassifierModel,
    SweepRecord,
    adversarial_perturb,
    fit_classifier,
    match_regularizer,
    platt_fit,
    predict,
    sweep_decisions,
    train_svm,
)
from .features import (
    Conv,
    ExtractorSpec,
    ImageTensor,
    MaxPool,
    Relu,
    WeightSet,
    forward,
    identity_spec,
    init_weights,
    load_weights,
    reference_spec,
    save_weights,
)
from .mmd import (
    FeatureMatrix,
    KernelConfig,
    WitnessValue,
    budget,
    gram,
    median_heuristic_sigma,
    witness_direct,
    witness_factored,
)
from .optim import (
    MinimizeConfig,
    MinimizeTrace,
    minimize,
)
from .reconstruct import (
    ReconstructionConfig,
    ReconstructionResult,
    invert,
    tv,
)
from .traversal import (
    LambdaRecord,
    TraversalConfig,
    materialize,
    traverse,
)

__version__ = "0.1.0"

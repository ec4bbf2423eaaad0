"""Learning stable linear dynamic systems with over-parameterized linear
RNNs trained by SGD, plus Monte-Carlo verification of the random-matrix,
linearization, and truncation bounds behind the analysis."""

# the one version string: the harness stamps artifacts with it and
# pyproject.toml reads it; it is set before the submodule imports below
__version__ = "0.1.0"

from .existence import (ComparatorParams, ConditioningError, GramInverses,
                        construct_comparator, gram_inverses, verify_existence)
from .gradients import GradientPair, loss_gradients_bptt
from .harness import generalization_gap, run_experiment
from .linalg import (DimensionError, frob, log_slope, matrix_power_opnorm,
                     operator_norm, spectral_radius)
from .losses import LossFunction, eval_loss, make_loss, sequence_loss
from .schedule import ScheduleError, TheorySchedule, theory_schedule
from .student import (StudentRNN, forward_rescaled, init_student,
                      linearized_forward, load_checkpoint, save_checkpoint)
from .teacher import (ParameterError, SequenceDataset, StableLinearSystem,
                      generate_dataset, load_dataset, random_stable_system,
                      save_dataset, simulate, stability_certificate)
from .trainer import TrainTrace, averaged_loss, running_average, sgd_train
from .verify import (LemmaReport, run_lemma, verify_concentration,
                     verify_linearization, verify_spectral, verify_tail,
                     verify_truncation)

"""casep: time-domain speech separation with a dual-path
convolution-attention mask network, built on a small numpy autodiff engine.
"""

from .tensor import (
    ConfigError,
    ContractError,
    NonFiniteError,
    ShapeError,
    Tensor,
    no_grad,
)
from .nn import Linear, LayerNorm, Module, MultiHeadAttention, Parameter, PReLU
from .optim import Adam
from .chunking import overlap_add, segment
from .codec import Decoder, Encoder, EncoderConfig, Waveform
from .blocks import DualPathBlock, HybridLayer, channel_split
from .config import (
    EvalSettings,
    ModelConfig,
    PathConfig,
    SyntheticSpec,
    TrainSettings,
    default_model_config,
    model_config_from_flat,
    model_config_to_flat,
    parse_flat,
    serialize_flat,
)
from .model import Separator
from .metrics import PitResult, improvements, sdr, si_snr, upit_loss
from .analyzer import (
    REFERENCE_BUDGETS,
    ParamReport,
    count_table,
    layer_param_counts,
    model_param_report,
)
from .synth import gen_mixture
from .checkpoint import load_checkpoint, load_model_state, load_separator, \
    model_state, save_checkpoint
from .wavio import WavFormatError, read_wav, write_wav
from .training import (
    eval_model,
    eval_run,
    grad_check_run,
    separate_files,
    train_run,
)

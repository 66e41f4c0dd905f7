"""Simultaneous speech translation policies, simulator, and evaluation metrics.

The package simulates streaming translation sessions: source features arrive
in chunks, an incremental encoder-decoder proposes candidate tokens, and a
decision policy chooses how many to commit. Emission logs feed latency
(AL/LAAL, ideal and computational-aware) and quality (BLEU) metrics.
"""

# Each module declares its public names in its own __all__; the package
# re-exports exactly those (the command line, ``cli``, stays out).
from . import attention, config, features, manifest, metrics
from . import model, policies, runner, simulator, vocab
from .attention import *
from .config import *
from .features import *
from .manifest import *
from .metrics import *
from .model import *
from .policies import *
from .runner import *
from .simulator import *
from .vocab import *

__version__ = "0.1.0"

__all__ = [
    *attention.__all__,
    *config.__all__,
    *features.__all__,
    *manifest.__all__,
    *metrics.__all__,
    *model.__all__,
    *policies.__all__,
    *runner.__all__,
    *simulator.__all__,
    *vocab.__all__,
]

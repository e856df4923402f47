"""fluxon: an SFQ spiking-neuron design-flow toolkit."""

from .core import PHI0, PulseEvent, SpikeTrain

__version__ = "0.1.0"

__all__ = ["PHI0", "PulseEvent", "SpikeTrain", "__version__"]

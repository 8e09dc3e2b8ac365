"""Error taxonomy shared across the package.

ConfigError covers anything wrong with a configuration before work starts;
the remaining classes mark failures while a run is in flight.  The CLI maps
ConfigError to exit code 2 and every other GradampError to exit code 3.
"""


class GradampError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(GradampError):
    """Invalid or inconsistent configuration, including unsupported model

    and defense combinations (for instance feature-map amplification on a
    model with no convolutional layer)."""


class IngestionError(GradampError):
    """Malformed input file; message names the offending byte offset."""


class SamplingError(GradampError):
    """A validation draw asked for more samples than a class can supply."""


class DivergenceError(GradampError):
    """The global model left the finite range; the run ends as diverged."""


class MetricError(GradampError):
    """Metric inputs violate their preconditions (mismatched checkpoints,

    empty windows, empty triggered sets)."""


class ReportError(GradampError):
    """Report generation failed, e.g. a manifest that cannot be read."""

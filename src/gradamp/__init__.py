"""Deterministic federated-learning sandbox for gradient-amplified
Byzantine-robust aggregation: a small numpy network engine, poisoning
attacks, two gradient amplifiers, three screening families, and a seeded
experiment harness with full file provenance."""

from .aggregate import (
    AggregationDecision,
    AggregatorConfig,
    RoundContext,
    aggregate_round,
    density_whitelist,
    fang_whitelist,
    fedavg,
    fltrust_aggregate,
    merged_whitelist,
)
from .amplify import (
    AmplifiedGradient,
    AmplifierConfig,
    amplify,
    amplify_mp,
    amplify_xai,
    grad_cam_weights,
    max_filter,
    select_top,
    xai_selection,
)
from .attacks import (
    AttackConfig,
    craft_updates,
    flip_labels,
    grad_ascent,
    select_malicious,
    sh_candidate,
    sh_optimized,
)
from .config import ExperimentConfig, parse_config_text
from .data import (
    Dataset,
    PartitionPlan,
    TriggerSpec,
    ValidationSpec,
    default_trigger,
    embed_trigger,
    load_csv,
    load_idx,
    make_triggered_set,
    partition,
    sample_validation,
    save_csv,
    synth_blobs,
)
from .errors import (
    ConfigError,
    DivergenceError,
    GradampError,
    IngestionError,
    MetricError,
    ReportError,
    SamplingError,
)
from .harness import RunManifest, run_experiment, run_pair, sweep
from .metrics import (
    MonitorWindow,
    RoundRecord,
    accuracy,
    asr,
    avg_asr,
    avg_ta_loss,
    heterogeneity,
    negative_pulse,
)
from .nn import (
    ForwardTrace,
    GradientSet,
    Layer,
    ModelParams,
    apply_update,
    backward,
    conv_model,
    forward,
    local_train,
    mlp_model,
)
from .report import pca_project, report, svg_line_plot

__version__ = "0.1.0"

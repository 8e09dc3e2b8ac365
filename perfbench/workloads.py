"""The benchmark's workloads and what a traced pair must show on each.

Each workload is one pinned experiment config under ``workloads/``; the
benchmark seed only sets ``seeds.data/clients/attack``.  The three were
chosen to stress different layers:

    mlp50-distcos-sh   many tiny updates (387 parameters, 50 clients), so
                       per-call Python overhead in training decides the time;
                       the only workload with the N^2 density screen and the
                       sh-optimized craft.
    mlp100k-fang-mp    the same nn/amplify code at about 260x the vector size
                       (100,867 parameters), bandwidth-bound: restored patch
                       max and the leave-one-out means dominate.
    conv-fang-xai-dba  conv forward/backward reached through training,
                       per-client activation-guided selection and the
                       leave-one-out probes; attack from round 0, so it has
                       no clean/attacked shared prefix.

``ZERO`` and ``NONZERO`` are the expected-call table: call counts (and
counters) that a traced pair must read as 0, or above 0, on that workload.
A violation fails the traced run, so a wrapper that silently stops firing
shows up instead of reading as a saving.
"""

from __future__ import annotations

import os

# Seed whose outputs are kept under reference/; it maps to the package
# default seeds (data 1, clients 2, attack 3).
PINNED_SEED = 1

CONFIG_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "workloads")

WORKLOADS: dict[str, dict[str, frozenset[str]]] = {
    "mlp50-distcos-sh": {
        "NONZERO": frozenset(
            {
                "amplify.amplify_mp.calls",
                "aggregate.density_whitelist.calls",
                "attacks.sh_optimized.calls",
                "attacks.sh_candidates",
            }
        ),
        "ZERO": frozenset(
            {
                "amplify.xai_selection.calls",
                "amplify.amplify_xai.calls",
                "aggregate.fang_whitelist.calls",
                "aggregate.fang_probes",
                "aggregate.fltrust_aggregate.calls",
                "attacks.grad_ascent.calls",
                "data.embed_trigger.calls",
                "metrics.asr.calls",
                "nn.conv_model.calls",
            }
        ),
    },
    "mlp100k-fang-mp": {
        "NONZERO": frozenset(
            {
                "amplify.amplify_mp.calls",
                "aggregate.fang_whitelist.calls",
                "aggregate.fang_probes",
                "attacks.grad_ascent.calls",
            }
        ),
        "ZERO": frozenset(
            {
                "amplify.xai_selection.calls",
                "amplify.amplify_xai.calls",
                "aggregate.density_whitelist.calls",
                "aggregate.fltrust_aggregate.calls",
                "attacks.sh_optimized.calls",
                "attacks.sh_candidates",
                "data.embed_trigger.calls",
                "metrics.asr.calls",
                "nn.conv_model.calls",
            }
        ),
    },
    "conv-fang-xai-dba": {
        "NONZERO": frozenset(
            {
                "amplify.xai_selection.calls",
                "amplify.amplify_xai.calls",
                "aggregate.fang_whitelist.calls",
                "aggregate.fang_probes",
                "data.embed_trigger.calls",
                "metrics.asr.calls",
                "nn.conv_model.calls",
            }
        ),
        "ZERO": frozenset(
            {
                "amplify.amplify_mp.calls",
                "aggregate.density_whitelist.calls",
                "aggregate.fltrust_aggregate.calls",
                "attacks.sh_optimized.calls",
                "attacks.sh_candidates",
                "attacks.grad_ascent.calls",
            }
        ),
    },
}


def config_text(workload: str, seed: int) -> str:
    """The workload's pinned config with the benchmark seed applied."""
    with open(os.path.join(CONFIG_DIR, workload + ".cfg"), encoding="utf-8") as fh:
        text = fh.read()
    return text + f"seeds.data = {seed}\nseeds.clients = {seed + 1}\nseeds.attack = {seed + 2}\n"


def expectation_failures(workload: str, counts: dict[str, int]) -> list[str]:
    """Entries of the expected-call table that ``counts`` violates."""
    table = WORKLOADS[workload]
    out = []
    for name in sorted(table["ZERO"] | table["NONZERO"]):
        if name not in counts:
            out.append(f"{name}: not measured")
        elif name in table["ZERO"] and counts[name] != 0:
            out.append(f"{name}: expected 0, got {counts[name]}")
        elif name in table["NONZERO"] and counts[name] <= 0:
            out.append(f"{name}: expected > 0, got {counts[name]}")
    return out

"""Deterministic federated-learning sandbox for gradient-amplified
Byzantine-robust aggregation: a small numpy network engine, poisoning
attacks, two gradient amplifiers, three screening families, and a seeded
experiment harness with full file provenance.

Import from the submodules (``from gradamp import nn``, ``from
gradamp.harness import run_pair``); the package itself re-exports nothing,
so ``gradamp.<module>`` is always the module."""

__version__ = "0.1.0"

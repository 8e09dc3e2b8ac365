"""Trust-weighted aggregation against a boosted backdoor cohort.

The server trains a reference update on its own small trust set; each
client is weighted by the clipped cosine between its amplified update
and the amplified reference, and every accepted update is rescaled to
the reference norm before averaging.  Boosting an update by a large
factor therefore buys the attacker nothing once the cosine says the
direction is wrong, and even a positively-correlated poisoned update
is cut back to reference scale.
"""

import numpy as np

from gradamp import nn
from gradamp.aggregate import fltrust_aggregate
from gradamp.amplify import AmplifierConfig, amplify_mp
from gradamp.data import partition, synth_blobs


def main():
    data = synth_blobs(3, 200, 20, spread=2.0, seed=31)
    shards = [data.subset(idx) for idx in partition(data, 10, "iid", seed=32)]
    trust_set = data.subset(np.arange(len(data) - 50, len(data)))
    model = nn.mlp_model(20, 16, 3, seed=33)

    updates = np.stack([
        nn.local_train(model, s.features, s.labels, epochs=1, batch_size=64,
                       lr=0.03, seed=40 + i)
        for i, s in enumerate(shards)
    ])
    # three clients boost a label-0-everything update by 10x
    flipped = [1, 4, 8]
    for m in flipped:
        poisoned = shards[m]
        labels = np.zeros_like(poisoned.labels)
        bad = nn.local_train(model, poisoned.features, labels, epochs=1,
                             batch_size=64, lr=0.03, seed=40 + m)
        updates[m] = 10.0 * bad

    reference = nn.local_train(model, trust_set.features, trust_set.labels,
                               epochs=1, batch_size=64, lr=0.03, seed=99)
    amp = AmplifierConfig(kind="mp", kernel=3)
    views = amplify_mp(updates, model, amp)
    ref_view = amplify_mp(reference[None], model, amp)[0]

    decision = fltrust_aggregate(views, ref_view, updates, reference)
    print(f"reference norm: {np.linalg.norm(reference):.4f}\n")
    for i, u in enumerate(updates):
        tag = "boosted" if i in flipped else "honest"
        print(
            f"client {i} ({tag:7s}): norm {np.linalg.norm(u):8.4f}  "
            f"trust {decision.scores[i]:.4f}"
        )
    print(f"\nglobal update norm: {np.linalg.norm(decision.global_update):.4f}")
    print(f"plain mean norm would be: {np.linalg.norm(nn.mean_grads(updates)):.4f}")


if __name__ == "__main__":
    main()

"""Pick conv filters by activation importance and amplify with them.

A small conv model runs a clean validation batch, its feature-map
gradients collapse into one Grad-CAM weight per filter
(``nn.activation_weights``), and the top fraction of filters contributes
its gradient coordinates to the amplified vector.  Every client can end
up with a different selection because each client's update shifts the
model differently.
"""

import numpy as np

from gradamp import nn
from gradamp.amplify import AmplifierConfig, amplify_xai, select_top, xai_selection
from gradamp.data import synth_blobs


def main():
    data = synth_blobs(3, 40, (1, 8, 8), spread=1.5, seed=21)
    model = nn.conv_model((1, 8, 8), 3, seed=5, filters=6, kernel=3, pool=2)
    validation = data.subset(np.arange(30))

    alpha = nn.activation_weights(model, validation.features, validation.labels)
    print("filter importance weights:")
    for k, a in enumerate(alpha):
        print(f"   filter {k}: {a:+.5f}")
    print(f"top half: {select_top(alpha, 0.5).tolist()}")

    rng = np.random.default_rng(2)
    shard = lambda lo: data.subset(np.arange(lo, lo + 30))
    updates = np.stack([
        nn.local_train(
            model, shard(30 * i).features, shard(30 * i).labels,
            epochs=1, batch_size=16, lr=0.05, seed=100 + i,
        )
        for i in range(3)
    ])
    for i, u in enumerate(updates):
        chosen = xai_selection(model, u, validation, top_p=0.5)
        print(f"client {i} selects filters {chosen.tolist()}")

    amped = amplify_xai(updates, model, validation, AmplifierConfig(kind="xai", top_p=0.5))
    full = updates.shape[1]
    print(
        f"\namplified length {amped[0].size} of {full} parameters: "
        f"client 0's filters {xai_selection(model, updates[0], validation, 0.5).tolist()}"
    )


if __name__ == "__main__":
    main()

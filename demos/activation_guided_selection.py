"""Pick conv filters by activation importance and amplify with them.

A small conv model runs a clean validation batch, the captured
feature-map gradients collapse into one importance weight per filter,
and the top fraction of filters contributes its gradient coordinates
to the amplified vector.  Every client can end up with a different
selection because each client's update shifts the model differently.
"""

import numpy as np

from gradamp import nn
from gradamp.amplify import (
    AmplifierConfig,
    amplify_xai,
    grad_cam_weights,
    select_top,
    xai_selection,
)
from gradamp.data import synth_blobs


def main():
    data = synth_blobs(3, 40, (1, 8, 8), spread=1.5, seed=21)
    model = nn.conv_model((1, 8, 8), 3, seed=5, filters=6, kernel=3, pool=2)
    validation = data.subset(np.arange(30))

    trace = nn.forward(model, validation.features)
    alpha = grad_cam_weights(nn.feature_map_grads(model, trace, validation.labels))
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
        f"\namplified length {amped[0].values.size} of {full} parameters; "
        f"selection rides along: {amped[0].selected.tolist()}"
    )


if __name__ == "__main__":
    main()

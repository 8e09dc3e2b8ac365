"""Score a cohort by pairwise density and print who survives.

Seven honest clients train on their own shards; three colluders submit
the reversed cohort mean, the classic ascent collusion.  The density
score sums each client's top-K pairwise cosines, and the whitelist
keeps the ceil((1 - M_f) N) densest clients.

The demo prints raw and patch-amplified scores side by side and the
two panels disagree on purpose: reversed updates are near-perfect
negatives of honest ones, so raw cosines separate them cleanly, while
the signed patch max keeps mostly positive entries on both sides and
washes that opposition out.  The amplified view buys aggregation speed
(the vectors are an order of magnitude shorter) and pays for it with
sign information; the prediction-screening and trust-weighted routes
are the ones that stay robust to this collusion when amplified.
"""

import numpy as np

from gradamp import nn
from gradamp.aggregate import density_whitelist
from gradamp.amplify import AmplifierConfig, amplify
from gradamp.attacks import grad_ascent
from gradamp.data import partition, synth_blobs


def main():
    data = synth_blobs(3, 200, 20, spread=2.0, seed=17)
    plan = partition(data, 10, "iid", seed=18)
    shards = [data.subset(idx) for idx in plan.shards]
    model = nn.mlp_model(20, 16, 3, seed=19)

    updates = np.stack([
        nn.local_train(model, s.features, s.labels, epochs=1, batch_size=64,
                       lr=0.03, seed=i)
        for i, s in enumerate(shards)
    ])
    colluders = [1, 4, 8]
    crafted = grad_ascent(nn.mean_grads(updates), gamma=1.0)
    for m in colluders:
        updates[m] = crafted

    for label, amp_kind in (("raw", "none"), ("amplified", "mp")):
        amped = amplify(updates, AmplifierConfig(kind=amp_kind, kernel=3), model)
        whitelist, scores = density_whitelist(amped, "cos", neighbors=6,
                                              assumed_malicious=0.3)
        print(f"{label} vectors:")
        for i, s in enumerate(scores):
            mark = "colluder" if i in colluders else "honest"
            kept = "kept" if i in whitelist else "dropped"
            print(f"   client {i} ({mark:8s}): density {s:7.3f}  {kept}")
        caught = sum(1 for m in colluders if m not in whitelist)
        print(f"   -> {caught} of {len(colluders)} colluders dropped\n")
    print("the amplified panel trades this sign separation for shorter vectors;")
    print("see the wall-time acceptance gate and the robustness demos for what")
    print("that trade buys.")


if __name__ == "__main__":
    main()

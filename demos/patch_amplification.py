"""Walk through the patch-max amplifier on a toy gradient matrix.

The filter tiles a matrix into kernel x kernel patches and keeps the
signed maximum of each patch, so a strongly negative region only
survives when nothing in its patch is larger.  On a real update the
same reduction runs panel by panel and shrinks the vector roughly by
the patch area, which is what makes the downstream pairwise screening
cheaper.
"""

import numpy as np

from gradamp import nn
from gradamp.amplify import AmplifierConfig, amplify_mp, max_filter


def show(mat):
    for row in mat:
        print("   " + " ".join(f"{v:6.2f}" for v in row))


def main():
    rng = np.random.default_rng(9)
    mat = np.round(rng.normal(scale=2.0, size=(4, 6)), 2)
    print("input 4x6 matrix:")
    show(mat)
    out = max_filter(mat, 2)
    print("\nper-patch signed max, kernel 2 (2x3 output):")
    show(out)

    # negative patches survive only when the whole patch is negative
    dark = np.full((4, 4), -3.0)
    dark[2, 1] = 0.5
    print("\nmostly-negative matrix:")
    show(dark)
    print("\nkernel 2 output (one patch rescued by the lone positive):")
    show(max_filter(dark, 2))

    model = nn.mlp_model(20, 16, 3, seed=3)
    x = rng.normal(size=(32, 20))
    y = rng.integers(0, 3, size=32)
    update = nn.local_train(model, x, y, epochs=1, batch_size=16, lr=0.05, seed=1)
    amped = amplify_mp(update[None], model, AmplifierConfig(kind="mp", kernel=3))[0]
    print(
        f"\nreal update: {amped.original_size} parameters -> "
        f"{amped.values.size} amplified values "
        f"({amped.values.size / amped.original_size:.0%} of the original)"
    )
    print(f"panel grids: {amped.grids}")


if __name__ == "__main__":
    main()

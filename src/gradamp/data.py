"""Datasets, partitioning, backdoor triggers, and validation draws.

Features are float64 arrays shaped (n, d) for tabular data or
(n, channels, H, W) for images; labels are an int vector.  Image loaders
normalize to [0, 1]; tabular features pass through untouched.  Every
random choice flows through an explicit seed.

A backdoor trigger is its stamp regions, each a tuple of slices over the
feature shape whose cells a stamp sets to 1.0.
"""

from __future__ import annotations

import struct
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ConfigError, IngestionError, SamplingError

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801


@dataclass
class Dataset:
    """Features, labels and the class count.  ``cols`` is ``features``
    already lowered for a run's conv model, ``nn.lower(model, features)``,
    in its pool's cell-major order (see ``nn``).  Each model a screen runs
    the set through then skips the lowering, which would add about 140 us
    to each 160 us trace-free forward of 100 samples on the benchmark's
    conv model (median of 300 calls, 2-vCPU VM).
    Only its shape is checked.  The harness sets it once per run, on a
    conv model's validation set; every other set, a ``subset`` included,
    keeps None."""

    features: np.ndarray
    labels: np.ndarray
    num_classes: int
    cols: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.features.shape[0] != self.labels.shape[0]:
            raise ConfigError(
                f"{self.features.shape[0]} feature rows vs {self.labels.shape[0]} labels"
            )
        if len(self.labels) and (self.labels.min() < 0 or self.labels.max() >= self.num_classes):
            raise ConfigError("labels fall outside [0, num_classes)")

    def __len__(self) -> int:
        return len(self.labels)

    @property
    def feature_shape(self) -> tuple[int, ...]:
        return self.features.shape[1:]

    def subset(self, indices: np.ndarray) -> "Dataset":
        idx = np.asarray(indices, dtype=np.int64)
        return Dataset(self.features[idx].copy(), self.labels[idx].copy(), self.num_classes)


def synth_blobs(
    num_classes: int,
    per_class: int,
    dim: int | tuple[int, ...],
    spread: float,
    seed: int,
) -> Dataset:
    """Gaussian clusters, one unit-scale center per class.

    ``dim`` may be a flat width or an image shape (channels, H, W).
    spread 0 collapses every sample onto its class center.
    """
    if num_classes < 2 or per_class < 1:
        raise ConfigError("need at least 2 classes and 1 sample per class")
    shape = (dim,) if isinstance(dim, int) else tuple(dim)
    rng = np.random.default_rng(seed)
    centers = rng.normal(0.0, 1.0, size=(num_classes, *shape))
    feats = np.empty((num_classes * per_class, *shape))
    labels = np.empty(num_classes * per_class, dtype=np.int64)
    for c in range(num_classes):
        lo = c * per_class
        feats[lo : lo + per_class] = centers[c] + spread * rng.normal(
            0.0, 1.0, size=(per_class, *shape)
        )
        labels[lo : lo + per_class] = c
    order = rng.permutation(len(labels))
    return Dataset(feats[order], labels[order], num_classes)


# ---------------------------------------------------------------------------
# file formats


def _read_exact(buf: bytes, offset: int, count: int, path: str) -> bytes:
    if offset + count > len(buf):
        raise IngestionError(
            f"{path}: truncated, wanted {count} bytes at byte {offset}, file has {len(buf)}"
        )
    return buf[offset : offset + count]


def _read_bytes(path: str) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise IngestionError(f"{path}: cannot read: {exc.strerror or exc}") from exc


def load_idx(images_path: str, labels_path: str) -> Dataset:
    """Big-endian IDX pair (images magic 0x803, labels magic 0x801)."""
    ibuf, lbuf = _read_bytes(images_path), _read_bytes(labels_path)

    (imagic,) = struct.unpack(">I", _read_exact(ibuf, 0, 4, images_path))
    if imagic != IDX_IMAGES_MAGIC:
        raise IngestionError(
            f"{images_path}: bad magic 0x{imagic:08x} at byte 0, expected 0x{IDX_IMAGES_MAGIC:08x}"
        )
    n, rows, cols = struct.unpack(">III", _read_exact(ibuf, 4, 12, images_path))
    pixels = _read_exact(ibuf, 16, n * rows * cols, images_path)

    (lmagic,) = struct.unpack(">I", _read_exact(lbuf, 0, 4, labels_path))
    if lmagic != IDX_LABELS_MAGIC:
        raise IngestionError(
            f"{labels_path}: bad magic 0x{lmagic:08x} at byte 0, expected 0x{IDX_LABELS_MAGIC:08x}"
        )
    (ln,) = struct.unpack(">I", _read_exact(lbuf, 4, 4, labels_path))
    if ln != n:
        raise IngestionError(f"{labels_path}: {ln} labels for {n} images")
    raw_labels = _read_exact(lbuf, 8, ln, labels_path)

    feats = np.frombuffer(pixels, dtype=np.uint8).astype(np.float64) / 255.0
    feats = feats.reshape(n, 1, rows, cols)
    labels = np.frombuffer(raw_labels, dtype=np.uint8).astype(np.int64)
    num_classes = _class_count(labels_path, labels, lambda i: f"byte {8 + i}")
    return Dataset(feats, labels, num_classes)


def load_csv(path: str) -> Dataset:
    """Headerless rows of ``label,f1,...,fd``; features pass through as-is."""
    rows: list[list[float]] = []
    labels: list[int] = []
    linenos: list[int] = []
    width = None
    try:
        with open(path, "r", encoding="ascii") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise IngestionError(f"{path}: cannot read: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise IngestionError(f"{path}: not ASCII text at byte {exc.start}") from exc
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        parts = line.split(",")
        if width is None:
            width = len(parts)
            if width < 2:
                raise IngestionError(f"{path}: line {lineno}: need a label and features")
        elif len(parts) != width:
            raise IngestionError(f"{path}: line {lineno}: {len(parts)} fields, expected {width}")
        try:
            label = int(parts[0])
            rows.append([float(v) for v in parts[1:]])
        except ValueError as exc:
            raise IngestionError(f"{path}: line {lineno}: {exc}") from exc
        if not -(2**63) <= label < 2**63:
            raise IngestionError(f"{path}: line {lineno}: label {label} outside int64")
        labels.append(label)
        linenos.append(lineno)
    if not rows:
        raise IngestionError(f"{path}: no data rows")
    feats = np.asarray(rows)
    lab = np.asarray(labels, dtype=np.int64)
    if lab.min() < 0:
        raise IngestionError(f"{path}: line {linenos[int(lab.argmin())]}: negative label")
    finite = np.isfinite(feats).all(axis=1)
    if not finite.all():
        raise IngestionError(f"{path}: line {linenos[int(finite.argmin())]}: non-finite feature")
    return Dataset(feats, lab, _class_count(path, lab, lambda i: f"line {linenos[i]}"))


def _class_count(path: str, labels: np.ndarray, where: Callable[[int], str]) -> int:
    """max label + 1 of a loaded file's non-negative labels, once they are
    at least two distinct values and the max + 1 is no more than the rows,
    so a stray huge label cannot ask for an output layer that wide.
    ``where(i)`` names row i's place in the file."""
    n = len(labels)
    if n == 0 or (labels == labels[0]).all():
        what = f"every label is {labels[0]}, {where(0)} to {where(n - 1)}" if n else "no labels"
        raise IngestionError(f"{path}: {what}; need at least two distinct labels")
    top = int(labels.argmax())
    classes = int(labels[top]) + 1
    if classes > n:
        raise IngestionError(
            f"{path}: {where(top)}: label {classes - 1} asks for {classes} classes from {n} rows"
        )
    return classes


def format_float(x: float) -> str:
    """Shortest text that reads back as exactly ``x``; every CSV float."""
    return repr(float(x))


def exact_share(fraction: float, n: int) -> Fraction:
    """``fraction * n`` exactly, ``fraction`` read as the decimal a config
    states: 0.29 * 100 is 29, where the float product is 28.999999999999996.
    Every cohort and whitelist count rounds this value."""
    return Fraction(format_float(fraction)) * n


def save_csv(dataset: Dataset, path: str) -> None:
    """Write ``label,f1,...,fd`` rows that load_csv reads back exactly."""
    with open(path, "w", encoding="ascii") as fh:
        flat = dataset.features.reshape(len(dataset), -1)
        for y, row in zip(dataset.labels, flat):
            fh.write(str(int(y)) + "," + ",".join(format_float(v) for v in row) + "\n")


# ---------------------------------------------------------------------------
# partitioning


def partition(
    dataset: Dataset,
    num_clients: int,
    scheme: str = "iid",
    skew: float = 0.5,
    seed: int = 0,
) -> list[np.ndarray]:
    """Split sample indices across clients: one sorted index array per
    client, pointing into ``dataset``.

    ``iid`` deals a random permutation into near-equal shards.
    ``label-skew`` groups clients by a master label (client i serves label
    i mod num_classes) and routes each sample to its label's group with
    probability ``skew``, otherwise to a uniformly chosen other group.
    skew == 1/num_classes makes every group equally likely, i.e. iid.
    """
    n = len(dataset)
    if num_clients < 1:
        raise ConfigError("need at least one client")
    if num_clients > n:
        raise ConfigError(f"{num_clients} clients but only {n} samples")
    rng = np.random.default_rng(seed)
    if scheme == "iid":
        order = rng.permutation(n)
        shards = [np.sort(s) for s in np.array_split(order, num_clients)]
        return shards
    if scheme != "label-skew":
        raise ConfigError(f"unknown partition scheme {scheme!r}")
    if not 0.0 <= skew <= 1.0:
        raise ConfigError("skew must lie in [0, 1]")
    m = dataset.num_classes
    groups = [[c for c in range(num_clients) if c % m == g] for g in range(m)]
    shard_lists: list[list[int]] = [[] for _ in range(num_clients)]
    for i in range(n):
        y = int(dataset.labels[i])
        home = groups[y % m]
        if home and rng.random() < skew:
            pick = home
        else:
            pick = [c for c in range(num_clients) if c not in home] or list(range(num_clients))
        shard_lists[pick[rng.integers(len(pick))]].append(i)
    return [np.asarray(sorted(s), dtype=np.int64) for s in shard_lists]


# ---------------------------------------------------------------------------
# backdoor triggers


@dataclass(frozen=True)
class TriggerSpec:
    """Stamp regions plus the label they buy.  A region is a tuple of slices
    over the feature shape; a stamp sets each of its cells to 1.0."""

    regions: tuple[tuple[slice, ...], ...]
    target_label: int


def default_trigger(
    feature_shape: tuple[int, ...], target_label: int, split_parts: int = 1
) -> TriggerSpec:
    """3x3 bottom-right patch on every channel of an image; the last 4
    features on tabular data.  split_parts 4 gives DBA's four disjoint
    parts: the patch cut after its second row and column, row-major (2x2,
    2x1, 1x2 and 1x1 cells), or the four single features."""
    if split_parts not in (1, 4):
        raise ConfigError("triggers split into 1 or 4 parts only")
    if len(feature_shape) == 3:
        _, h, w = feature_shape
        if h < 3 or w < 3:
            raise ConfigError("image too small for the 3x3 corner trigger")
        rows = [slice(h - 3, h)] if split_parts == 1 else [slice(h - 3, h - 1), slice(h - 1, h)]
        cols = [slice(w - 3, w)] if split_parts == 1 else [slice(w - 3, w - 1), slice(w - 1, w)]
        regions = tuple((slice(None), r, c) for r in rows for c in cols)
    elif len(feature_shape) == 1:
        d = feature_shape[0]
        if d < 4:
            raise ConfigError("need at least 4 features for the tabular trigger")
        width = 4 // split_parts
        regions = tuple((slice(j, j + width),) for j in range(d - 4, d, width))
    else:
        raise ConfigError(f"unsupported feature shape {feature_shape}")
    return TriggerSpec(regions, target_label)


def _stamp(rows: np.ndarray, regions) -> None:
    for region in regions:
        rows[(slice(None), *region)] = 1.0


def _check_target(dataset: Dataset, spec: TriggerSpec) -> None:
    if not 0 <= spec.target_label < dataset.num_classes:
        raise ConfigError("trigger target label outside the label set")


def embed_trigger(
    dataset: Dataset,
    spec: TriggerSpec,
    fraction: float,
    part_index: int = 0,
    seed: int = 0,
) -> Dataset:
    """Append stamped, relabeled copies of a seeded sample choice.

    Copies round(fraction * n) rows, stamps region ``part_index`` of the
    trigger onto the copies, relabels them to the target, and appends them,
    so the poisoned shard keeps every clean row.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ConfigError("fraction must lie in [0, 1]")
    if not 0 <= part_index < len(spec.regions):
        raise ConfigError(f"part_index {part_index} out of range")
    _check_target(dataset, spec)
    n = len(dataset)
    count = int(round(fraction * n))
    if count == 0:
        return Dataset(dataset.features.copy(), dataset.labels.copy(), dataset.num_classes)
    rng = np.random.default_rng(seed)
    chosen = rng.choice(n, size=count, replace=False)
    copies = dataset.features[chosen].copy()
    _stamp(copies, [spec.regions[part_index]])
    feats = np.concatenate([dataset.features, copies])
    labels = np.concatenate(
        [dataset.labels, np.full(count, spec.target_label, dtype=np.int64)]
    )
    return Dataset(feats, labels, dataset.num_classes)


def make_triggered_set(dataset: Dataset, spec: TriggerSpec) -> Dataset:
    """Attack-success probes: every sample not already of the target class,
    stamped with every region.  Labels keep their clean values."""
    _check_target(dataset, spec)
    keep = np.flatnonzero(dataset.labels != spec.target_label)
    feats = dataset.features[keep].copy()
    _stamp(feats, spec.regions)
    return Dataset(feats, dataset.labels[keep].copy(), dataset.num_classes)


# ---------------------------------------------------------------------------
# server-side validation draws


@dataclass(frozen=True)
class ValidationSpec:
    size: int
    mode: str = "uniform"  # uniform | biased
    theta: float = 0.5
    biased_class: int = 1

    def __post_init__(self) -> None:
        if self.size < 1:
            raise ConfigError("validation size must be >= 1")
        if self.mode not in ("uniform", "biased"):
            raise ConfigError(f"unknown validation mode {self.mode!r}")
        if not 0.0 <= self.theta <= 1.0:
            raise ConfigError("theta must lie in [0, 1]")


def sample_validation(dataset: Dataset, spec: ValidationSpec, seed: int) -> Dataset:
    """Uniform draw, or a draw biased so that round(theta * size) samples
    carry ``biased_class`` and the rest come uniformly from other classes."""
    n = len(dataset)
    rng = np.random.default_rng(seed)
    if spec.mode == "uniform":
        if spec.size > n:
            raise SamplingError(f"asked for {spec.size} of {n} samples")
        return dataset.subset(np.sort(rng.choice(n, size=spec.size, replace=False)))
    if not 0 <= spec.biased_class < dataset.num_classes:
        raise ConfigError("biased_class outside the label set")
    want_biased = int(round(spec.theta * spec.size))
    pool_biased = np.flatnonzero(dataset.labels == spec.biased_class)
    pool_rest = np.flatnonzero(dataset.labels != spec.biased_class)
    if want_biased > len(pool_biased):
        raise SamplingError(
            f"class {spec.biased_class} has {len(pool_biased)} samples, wanted {want_biased}"
        )
    if spec.size - want_biased > len(pool_rest):
        raise SamplingError(
            f"other classes hold {len(pool_rest)} samples, wanted {spec.size - want_biased}"
        )
    take = [rng.choice(pool_biased, size=want_biased, replace=False)]
    take.append(rng.choice(pool_rest, size=spec.size - want_biased, replace=False))
    return dataset.subset(np.sort(np.concatenate(take)))


def split_sizes(n: int, test_fraction: float, server_fraction: float) -> tuple[int, int, int]:
    """(client, server, test) pool sizes of ``split_pools`` on ``n`` samples:
    the test and server pools take their rounded fractions of n, the
    client pool the rest."""
    # written so that a NaN fraction fails it
    if not (test_fraction >= 0 and server_fraction >= 0 and test_fraction + server_fraction < 1):
        raise ConfigError("test and server fractions must leave room for clients")
    n_test = int(round(test_fraction * n))
    n_server = int(round(server_fraction * n))
    return n - n_test - n_server, n_server, n_test


def split_pools(
    dataset: Dataset, test_fraction: float, server_fraction: float, seed: int
) -> tuple[Dataset, Dataset, Dataset]:
    """Seeded (client pool, server pool, test set) split of one dataset."""
    n = len(dataset)
    _, n_server, n_test = split_sizes(n, test_fraction, server_fraction)
    order = np.random.default_rng(seed).permutation(n)
    test = dataset.subset(order[:n_test])
    server = dataset.subset(order[n_test : n_test + n_server])
    train = dataset.subset(order[n_test + n_server :])
    return train, server, test

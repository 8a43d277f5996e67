"""Benchmark namespace generation and installation.

Builds a Hadoop-style directory tree (a few top-level project dirs, many
leaf dirs, many files) and installs it into a deployment *before*
measurements start — into NDB fragment stores for HopsFS and into the MDS
shards for CephFS.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from ..hopsfs.metadata import INODES_TABLE, InodeRow

__all__ = ["Namespace", "generate_namespace", "install_hopsfs", "install_cephfs"]


@dataclass
class Namespace:
    """A generated namespace: directories, files, and popularity weights."""

    top_dirs: list[str]
    dirs: list[str]  # leaf directories (excluding top-level)
    files: list[str]
    # Zipf-ish popularity weights aligned with ``files`` (sum to ~1).
    file_weights: list[float] = field(default_factory=list)

    def size(self) -> int:
        return len(self.top_dirs) + len(self.dirs) + len(self.files)


def generate_namespace(
    num_top_dirs: int = 8,
    dirs_per_top: int = 64,
    files_per_dir: int = 32,
    zipf_s: float = 0.5,
    seed: int = 0,
) -> Namespace:
    """Generate the tree ``/projN/dirM/fileK``.

    File popularity follows a Zipf(s) law over a random permutation of the
    files — hot files dominate reads, as in real Hadoop traces.
    """
    rng = random.Random(seed)
    top_dirs = [f"/proj{i}" for i in range(num_top_dirs)]
    dirs, files = [], []
    for top in top_dirs:
        for j in range(dirs_per_top):
            d = f"{top}/dir{j}"
            dirs.append(d)
            for k in range(files_per_dir):
                files.append(f"{d}/file{k}")
    order = list(range(len(files)))
    rng.shuffle(order)
    raw = [0.0] * len(files)
    for rank, idx in enumerate(order, start=1):
        raw[idx] = 1.0 / (rank ** zipf_s)
    total = sum(raw)
    weights = [w / total for w in raw]
    return Namespace(top_dirs=top_dirs, dirs=dirs, files=files, file_weights=weights)


def install_hopsfs(deployment, namespace: Namespace, warm_caches: bool = True) -> int:
    """Preload the namespace into NDB, assigning inode ids like HopsFS would.

    ``warm_caches`` also installs the directory rows into every namenode's
    path-component cache: benchmarks measure steady state, where the
    read-mostly top of the hierarchy is long since cached (FAST'17).
    """
    ids = deployment.ids
    path_to_id: dict[str, int] = {"/": 1}
    rows = []
    dir_rows = []
    for path in namespace.top_dirs + namespace.dirs + namespace.files:
        parent_path, _slash, name = path.rpartition("/")
        parent_id = path_to_id[parent_path or "/"]
        is_dir = path not in _file_set(namespace)
        inode_id = ids.next_inode_id()
        path_to_id[path] = inode_id
        row = InodeRow(
            id=inode_id,
            parent_id=parent_id,
            name=name,
            is_dir=is_dir,
            small_data=None if is_dir else b"",
        )
        rows.append(((parent_id, name), parent_id, row))
        if is_dir:
            dir_rows.append(row)
    count = deployment.ndb.preload(INODES_TABLE, rows)
    if warm_caches:
        for nn in deployment.namenodes:
            for row in dir_rows:
                nn.dir_cache.put(row)
    return count


def _file_set(namespace: Namespace) -> set:
    cached = getattr(namespace, "_file_set", None)
    if cached is None:
        cached = set(namespace.files)
        namespace._file_set = cached
    return cached


def install_cephfs(cluster, namespace: Namespace) -> int:
    """Preload the namespace into the MDS shards."""
    entries = [(d, True) for d in namespace.top_dirs + namespace.dirs]
    entries += [(f, False) for f in namespace.files]
    return cluster.preload(entries)

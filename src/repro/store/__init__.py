"""Out-of-core dataset store.

Columnar, partitioned, mmap-backed storage for point tables larger
than memory: :class:`DatasetWriter` ingests tables or chunk streams
into spatially-sorted fixed-size partitions, one file each with its
columns at aligned offsets and a zone-map footer (format v2, see
:mod:`repro.store.format`); :class:`Dataset` opens a store directory
and mounts a partition as one ``mmap`` with a zero-copy
``np.frombuffer`` view per column; :class:`PartitionPruner` turns zone
maps into answer-preserving partition skips; :func:`execute_dataset`
runs the raster-join pipeline partition-streamed, bitwise-equal to the
in-memory engine.
"""

from .dataset import Dataset
from .execute import execute_dataset
from .format import (
    STORE_FORMAT_VERSION,
    ColumnSpec,
    Manifest,
    PartitionInfo,
    read_manifest,
)
from .pruner import PartitionPruner, PruneResult
from .writer import DatasetWriter, build_store, build_store_from_csv

__all__ = [
    "STORE_FORMAT_VERSION",
    "ColumnSpec",
    "Dataset",
    "DatasetWriter",
    "Manifest",
    "PartitionInfo",
    "PartitionPruner",
    "PruneResult",
    "build_store",
    "build_store_from_csv",
    "execute_dataset",
    "read_manifest",
]

"""Problem files: ``save`` / ``load`` / ``sload`` and the portfolio store.

The paper represents a portfolio as "a collection of files, each file
describing a precise pricing problem" saved with the XDR-based ``save``
function.  Three ways of getting a saved problem to a worker are compared in
Tables II and III:

* **full load** -- the master ``load``\\ s the file (materialising the
  object), serializes it again, packs it and sends it;
* **serialized load** -- the master uses :func:`sload` to turn the file
  content *directly* into a :class:`~repro.serial.serial.Serial` object
  without ever building the object, and sends that ("Going directly from the
  file to the serialized object without actually creating the object itself
  is precisely the purpose of the sload function");
* **NFS** -- the master only sends the file *name* and the worker reads the
  file from the shared file system.

This module implements ``save``/``load``/``sload`` on the local file system
and :class:`ProblemStore`, a directory of problem files used by the
portfolio builders and the benchmark runner.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Any, Iterator

from repro.errors import SerializationError
from repro.serial.serial import Serial, serialize

__all__ = ["save", "load", "sload", "ProblemStore"]


def save(path: str | os.PathLike, value: Any, compress: bool = False) -> int:
    """Serialize ``value`` and write it to ``path``.

    Returns the number of bytes written.  With ``compress=True`` the payload
    is zlib-compressed ("compression, which takes most of the CPU time, can
    be done off line when preparing a set of problems").
    """
    serial = serialize(value)
    if compress:
        serial = serial.compress()
    data = serial.to_bytes()
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as handle:
        handle.write(data)
    return len(data)


def load(path: str | os.PathLike) -> Any:
    """Read a problem file and rebuild the stored value."""
    return sload(path).unserialize()


def sload(path: str | os.PathLike) -> Serial:
    """Read a problem file *directly* into a :class:`Serial` object.

    No object is materialised: the file content (which is already a
    serialized buffer) is wrapped as-is, which is exactly the optimisation
    the paper's ``sload`` function provides (Fig. 2) and that the
    *serialized load* strategy of Tables II and III exploits.
    """
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise SerializationError(f"cannot read problem file {path}: {exc}") from exc
    return Serial.from_bytes(data)


class ProblemStore:
    """A directory of serialized problem files representing a portfolio.

    Files are named ``<prefix><index>.pb`` and written with :func:`save`.
    The store records insertion order so that a portfolio read back from disk
    preserves the job order used by the schedulers.
    """

    suffix = ".pb"

    def __init__(self, directory: str | os.PathLike, prefix: str = "problem_") -> None:
        self.directory = Path(directory)
        self.prefix = prefix
        self.directory.mkdir(parents=True, exist_ok=True)

    # -- writing -----------------------------------------------------------------
    def write(self, index: int, value: Any, compress: bool = False) -> Path:
        """Write one problem file and return its path."""
        path = self.path_for(index)
        save(path, value, compress=compress)
        return path

    def write_all(self, values: Iterator[Any] | list[Any], compress: bool = False) -> list[Path]:
        """Write a sequence of problems, numbering them from 0."""
        return [self.write(i, value, compress=compress) for i, value in enumerate(values)]

    # -- reading -----------------------------------------------------------------
    def path_for(self, index: int) -> Path:
        return self.directory / f"{self.prefix}{index:06d}{self.suffix}"

    def paths(self) -> list[Path]:
        """All problem files in the store, in index order."""
        return sorted(self.directory.glob(f"{self.prefix}*{self.suffix}"))

    def load(self, index: int) -> Any:
        return load(self.path_for(index))

    def sload(self, index: int) -> Serial:
        return sload(self.path_for(index))

    def __len__(self) -> int:
        return len(self.paths())

    def __iter__(self) -> Iterator[Path]:
        return iter(self.paths())

    def total_bytes(self) -> int:
        """Total size of the stored problem files (drives the NFS and
        message-size models of the simulated cluster)."""
        return sum(path.stat().st_size for path in self.paths())

    def clear(self) -> None:
        """Delete every problem file in the store."""
        for path in self.paths():
            path.unlink()

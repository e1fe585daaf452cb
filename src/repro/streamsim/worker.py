"""Per-task set-up for Spark Python worker processes.

PySpark's worker calls ``importlib.invalidate_caches()`` at the start of
every task (``pyspark.worker_util.setup_spark_files``). Before CPython
3.13, ``zipimport.zipimporter.invalidate_caches`` re-reads its archive's
whole zip directory on each call, and a worker holds about 16 zip
importers: 13 on ``pyspark.zip`` (1,328 entries, 5.6 ms a read) and 2 on
the spark-core jar (5,359 entries, 22.6 ms a read). That is 100–230 ms of
every task, more than a partition's Algorithm 2 takes. CPython 3.13 made
the call lazy: it only drops the shared directory cache.

:func:`install` makes the call re-read an archive only when the archive
changed. Workers are reused (``spark.python.worker.reuse``, on by
default), so a task body that installs it saves every later task of its
worker the re-reads. It patches a stdlib class for the whole process:
call it from a task body only, never in the driver.
"""
from __future__ import annotations

import os
import sys
import zipimport


def install() -> None:
    """Replace ``zipimporter.invalidate_caches`` with one that re-reads an
    archive only when its ``(st_mtime_ns, st_size)`` differs from the last
    read, or when the archive cannot be stat'ed. A rewritten archive (a
    re-added py-file) is still re-read, so its new modules import; a
    rewrite that keeps both the size and the modification time is missed.
    Idempotent, and does nothing on Python 3.13 or later."""
    cls = zipimport.zipimporter
    if sys.version_info >= (3, 13) or cls.invalidate_caches.__module__ == __name__:
        return
    eager = cls.invalidate_caches
    # archive -> (st_mtime_ns, st_size) as stat'ed just before its last read
    stamps: dict[str, tuple[int, int]] = {}

    def invalidate_caches(self: zipimport.zipimporter) -> None:
        try:
            st = os.stat(self.archive)
        except OSError:
            stamps.pop(self.archive, None)
            eager(self)
            return
        stamp = (st.st_mtime_ns, st.st_size)
        files = zipimport._zip_directory_cache.get(self.archive)
        if files is not None and stamps.get(self.archive) == stamp:
            self._files = files  # the one directory every importer of it shares
            return
        # stat'ed before the read: a change during the read shows next time
        stamps[self.archive] = stamp
        eager(self)

    invalidate_caches.__doc__ = eager.__doc__
    cls.invalidate_caches = invalidate_caches

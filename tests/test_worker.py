"""The Spark Python worker's zip-importer patch (repro.streamsim.worker).

Each check runs in a fresh interpreter, so the test process's own
``zipimport`` is never patched.
"""
import json
import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

_CHECKS = r"""
import importlib, json, os, sys, zipfile, zipimport

archive = sys.argv[1]
if sys.argv[2] == "3.13":
    sys.version_info = (3, 13, 0, "final", 0)
from repro.streamsim import worker


def write(**modules):
    with zipfile.ZipFile(archive, "w") as z:
        for name, body in modules.items():
            z.writestr(name + ".py", body)


reads = []
stdlib_read = zipimport._read_directory


def counting_read(path):
    if path == archive:
        reads.append(path)
    return stdlib_read(path)


zipimport._read_directory = counting_read


def reads_during(*calls):
    reads.clear()
    for call in calls:
        call()
    return len(reads)


write(zw_one="X = 1\n")
sys.path.insert(0, archive)
import zw_one

stdlib = zipimport.zipimporter.invalidate_caches
worker.install()
installed = zipimport.zipimporter.invalidate_caches
worker.install()
out = {
    "replaced": installed is not stdlib,
    "second_install_noop": zipimport.zipimporter.invalidate_caches is installed,
    "first_call_reads": reads_during(importlib.invalidate_caches),
    "unchanged_reads": reads_during(importlib.invalidate_caches, importlib.invalidate_caches),
}
write(zw_one="X = 1\n", zw_two="Y = 'rewritten'\n")
out["rewritten_reads"] = reads_during(importlib.invalidate_caches)
import zw_two
out["rewritten_import"] = zw_two.Y
out["after_rewrite_reads"] = reads_during(importlib.invalidate_caches)
os.remove(archive)
out["removed_reads"] = reads_during(importlib.invalidate_caches)
print(json.dumps(out))
"""


def _run_checks(tmp_path, version):
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-c", _CHECKS, str(tmp_path / "mods.zip"), version],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.mark.skipif(sys.version_info >= (3, 13), reason="the stdlib call is lazy from 3.13 on")
def test_archive_reread_only_when_changed(tmp_path):
    """After the first call, an unchanged archive is not read again; a
    rewritten one is read once and its new module imports; a removed one
    (its stat fails) goes back to the stdlib call. A second install
    leaves the first in place."""
    out = _run_checks(tmp_path, "current")
    assert out == {
        "replaced": True,
        "second_install_noop": True,
        "first_call_reads": 1,
        "unchanged_reads": 0,
        "rewritten_reads": 1,
        "rewritten_import": "rewritten",
        "after_rewrite_reads": 0,
        "removed_reads": 1,
    }


def test_install_is_a_no_op_from_python_3_13(tmp_path):
    """From 3.13 the stdlib call only drops the directory cache, and the
    stdlib function stays in place."""
    out = _run_checks(tmp_path, "3.13")
    assert not out["replaced"] and out["second_install_noop"]
    assert out["rewritten_import"] == "rewritten"

"""Crash-consistency tests: a SIGKILL mid-write must never leave a
file at the destination path that parses as a complete artifact.

Both the trace capture and the checkpoint writer go through
``atomic_binary_writer`` (same-directory temp file, fsync, rename), so
the destination either holds the previous complete file or nothing —
the temp file absorbs the torn bytes.
"""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.common.errors import CheckpointError, TraceFormatError
from repro.sim.checkpoint import load_checkpoint
from repro.workloads.trace import read_trace_list, trace_record_count

_ENV = dict(os.environ,
            PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))


def _run_child(code):
    """Run a self-SIGKILLing child; returns its completed process."""
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, env=_ENV,
                          timeout=120)
    return proc


_KILL_MID_CAPTURE = """
import os, signal
from repro.workloads.generator import TraceGenerator
from repro.workloads.trace import capture_trace

def stream():
    for i, req in enumerate(
            TraceGenerator("gcc", seed=3).generate(5000)):
        if i == 900:
            os.kill(os.getpid(), signal.SIGKILL)
        yield req

capture_trace(stream(), {path!r}, chunk_records=64)
"""

_KILL_BEFORE_RENAME = """
import os, signal
from repro.common import atomic
from repro.sim.engine import SimulationEngine
from repro.sim.checkpoint import write_checkpoint
from repro.common import small_test_config
from repro.registry import make_scheme
from repro.workloads.generator import TraceGenerator

real_replace = os.replace
def killing_replace(src, dst):
    os.kill(os.getpid(), signal.SIGKILL)
atomic.os.replace = killing_replace

engine = SimulationEngine(make_scheme("ESD", small_test_config()))
session = engine.open_session(app="gcc", total_hint=800)
session.feed(TraceGenerator("gcc", seed=3).generate(800))
write_checkpoint(session, {path!r})
"""


class TestCaptureCrash:
    def test_killed_capture_leaves_no_destination(self, tmp_path):
        path = tmp_path / "cap.esdtrace"
        proc = _run_child(_KILL_MID_CAPTURE.format(path=str(path)))
        assert proc.returncode == -signal.SIGKILL
        assert not path.exists()
        # The torn bytes live in the temp file — and must not parse.
        leftovers = list(tmp_path.iterdir())
        for leftover in leftovers:
            with pytest.raises(TraceFormatError):
                read_trace_list(leftover)

    def test_killed_recapture_keeps_previous_complete_file(self, tmp_path):
        path = tmp_path / "cap.esdtrace"
        from repro.workloads.generator import TraceGenerator
        from repro.workloads.trace import capture_trace
        capture_trace(TraceGenerator("lbm", seed=5).generate(150), path)
        before = path.read_bytes()
        proc = _run_child(_KILL_MID_CAPTURE.format(path=str(path)))
        assert proc.returncode == -signal.SIGKILL
        assert path.read_bytes() == before
        assert trace_record_count(path) == 150


class TestCheckpointCrash:
    def test_kill_before_rename_leaves_no_destination(self, tmp_path):
        path = tmp_path / "run.ckpt"
        proc = _run_child(_KILL_BEFORE_RENAME.format(path=str(path)))
        assert proc.returncode == -signal.SIGKILL
        assert not path.exists()

    def test_leftover_temp_is_not_a_checkpoint_path(self, tmp_path):
        """A torn temp file must fail checkpoint validation loudly."""
        torn = tmp_path / ".run.ckpt.1234.tmp"
        torn.write_bytes(b"ESDCKPT1" + b"\x00" * 40)
        with pytest.raises(CheckpointError):
            load_checkpoint(torn)

    def test_kill_during_checkpointed_run_never_tears_file(self, tmp_path):
        """SIGKILL an actual ``repro run --checkpoint-every`` midway:
        whenever the signal lands, the checkpoint file on disk is either
        absent or loads (and resumes) cleanly."""
        ck = tmp_path / "mid.ckpt"
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "run", "--scheme", "ESD",
             "--app", "gcc", "--requests", "60000",
             "--checkpoint", str(ck), "--checkpoint-every", "500"],
            env=_ENV, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        try:
            deadline = time.time() + 60
            while not ck.exists() and time.time() < deadline:
                time.sleep(0.02)
            assert ck.exists(), "no checkpoint appeared within 60s"
            proc.send_signal(signal.SIGKILL)
        finally:
            proc.wait(timeout=30)
        restored = load_checkpoint(ck)
        assert restored.meta["scheme"] == "ESD"
        assert 0 < restored.session.processed <= 60_000

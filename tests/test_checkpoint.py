"""Tests for mid-run session checkpoints and bit-exact resume."""

import pickle
import struct
from itertools import islice

import pytest

from repro.cli import main
from repro.common import small_test_config
from repro.common.errors import CheckpointError, SessionError
from repro.registry import make_scheme
from repro.sim.checkpoint import (
    CHECKPOINT_MAGIC,
    CHECKPOINT_VERSION,
    checkpoint_bytes,
    load_checkpoint,
    write_checkpoint,
)
from repro.sim.engine import EngineConfig, SimulationEngine
from repro.sim.export import result_state_bytes
from repro.sim.session import Session
from repro.workloads.generator import TraceGenerator


def _trace(n=2_600, app="gcc", seed=7):
    return TraceGenerator(app, seed=seed).generate_list(n)


def _direct_state(trace, scheme_name, config, app="gcc"):
    engine = SimulationEngine(make_scheme(scheme_name, config),
                              EngineConfig())
    result = engine.run(iter(trace), app=app, total_hint=len(trace))
    return result_state_bytes(result)


def _resumed_state(trace, scheme_name, config, cut, app="gcc"):
    """Checkpoint at ``cut``, dirty the process, restore, finish."""
    engine = SimulationEngine(make_scheme(scheme_name, config),
                              EngineConfig())
    session = engine.open_session(app=app, total_hint=len(trace))
    stream = iter(trace)
    session.feed(islice(stream, cut))
    blob = session.checkpoint()
    # An unrelated run in between: a resume depends on nothing outside
    # the checkpointed graph.
    other = SimulationEngine(make_scheme("Baseline", small_test_config()))
    other.run(iter(_trace(400, app="lbm", seed=9)), app="lbm",
              total_hint=400)
    restored = Session.restore(blob)
    skip = restored.processed
    replay = iter(trace)
    for _ in range(skip):
        next(replay)
    restored.feed(replay)
    return result_state_bytes(restored.finalize())


class TestBitExactResume:
    @pytest.mark.parametrize("scheme_name", ["ESD", "NV-Dedup", "DeWrite"])
    @pytest.mark.parametrize("unaligned", [True])
    def test_resume_matches_direct(self, scheme_name, unaligned):
        """A cut at 1,337 requests, or (unaligned False) at 1,024."""
        trace = _trace()
        config = small_test_config()
        cut = 1_337 if unaligned else 1_024
        direct = _direct_state(trace, scheme_name, config)
        resumed = _resumed_state(trace, scheme_name, config, cut=cut)
        assert direct == resumed

    def test_resume_offset_is_processed_count(self):
        """A session holds no unprocessed request, so the checkpoint's
        resume offset is the count fed before it."""
        trace = _trace(1_500)
        config = small_test_config()
        engine = SimulationEngine(make_scheme("ESD", config), EngineConfig())
        session = engine.open_session(app="gcc", total_hint=len(trace))
        session.feed(islice(iter(trace), 1_100))
        assert session.processed == 1_100
        restored = load_checkpoint(session.checkpoint())
        assert restored.session.processed == 1_100
        assert restored.meta["processed"] == 1_100
        direct = _direct_state(trace, "ESD", config)
        resumed = _resumed_state(trace, "ESD", config, cut=1_100)
        assert direct == resumed

    def test_checkpoint_is_pure_snapshot(self):
        """Checkpointing must not perturb the continuing session."""
        trace = _trace(1_800)
        config = small_test_config()
        engine = SimulationEngine(make_scheme("ESD", config), EngineConfig())
        session = engine.open_session(app="gcc", total_hint=len(trace))
        stream = iter(trace)
        session.feed(islice(stream, 600))
        session.checkpoint()
        session.checkpoint()
        session.feed(stream)
        with_ckpt = result_state_bytes(session.finalize())
        assert with_ckpt == _direct_state(trace, "ESD", config)


class TestCheckpointContainer:
    def _session_blob(self, cut=500):
        trace = _trace(1_000)
        engine = SimulationEngine(make_scheme("ESD", small_test_config()),
                                  EngineConfig())
        session = engine.open_session(app="gcc", total_hint=len(trace))
        session.feed(islice(iter(trace), cut))
        return session.checkpoint()

    def test_meta(self):
        blob = self._session_blob(cut=500)
        restored = load_checkpoint(blob)
        assert restored.meta["app"] == "gcc"
        assert restored.meta["scheme"] == "ESD"
        assert restored.session.processed == 500

    def test_payload_is_one_pickle_of_the_graph(self):
        """The memo caches ride in the pickled scheme graph: the payload
        has no section beside the session, and the restored caches hold
        the checkpointed counters and entries in LRU order."""
        blob = self._session_blob(cut=500)
        payload = pickle.loads(blob[struct.calcsize("<8sHHIQ"):])
        assert sorted(payload) == ["meta", "session", "version"]
        saved = payload["session"].scheme.memo_caches()
        restored = load_checkpoint(blob).session.scheme.memo_caches()
        assert [c.name for c in restored] == ["counter_pad", "line_ecc"]
        for before, after in zip(saved, restored):
            assert after.stats() == before.stats()
            assert list(after._data.items()) == list(before._data.items())
            assert after.touched

    def test_file_roundtrip(self, tmp_path):
        trace = _trace(900)
        engine = SimulationEngine(make_scheme("ESD", small_test_config()),
                                  EngineConfig())
        session = engine.open_session(app="gcc", total_hint=len(trace))
        session.feed(islice(iter(trace), 400))
        path = tmp_path / "run.ckpt"
        write_checkpoint(session, path)
        assert load_checkpoint(path).session.processed == 400
        # Atomic finalize leaves no temp litter.
        assert [p.name for p in tmp_path.iterdir()] == ["run.ckpt"]

    def test_finalized_session_rejected(self):
        trace = _trace(300)
        engine = SimulationEngine(make_scheme("ESD", small_test_config()),
                                  EngineConfig())
        session = engine.open_session(app="gcc", total_hint=len(trace))
        session.feed(iter(trace))
        session.finalize()
        with pytest.raises(SessionError):
            checkpoint_bytes(session)

    def test_bad_magic(self):
        blob = bytearray(self._session_blob())
        blob[:8] = b"NOTACKPT"
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(bytes(blob))

    def test_truncated(self):
        blob = self._session_blob()
        with pytest.raises(CheckpointError):
            load_checkpoint(blob[: len(blob) // 2])

    def test_payload_corruption_caught_by_crc(self):
        blob = bytearray(self._session_blob())
        blob[-1] ^= 0xFF
        with pytest.raises(CheckpointError, match="checksum|CRC|crc"):
            load_checkpoint(bytes(blob))

    def test_short_header(self):
        with pytest.raises(CheckpointError):
            load_checkpoint(CHECKPOINT_MAGIC)

    def test_old_version_rejected(self):
        """Versions 1 and 2 pickle sessions with execution switches, a v3
        scheme graph has no observation binding, a v4 graph pickles the
        removed cache geometry and per-frame write counts, a v5 session
        carries an epoch buffer of requests it has not processed, and a
        v6 graph may carry the removed LRCU decay mode, and a v7 payload
        pickles its memo caches as calls to the removed registry; they
        must fail typed at load, naming the version, never halfway
        through a feed or as an unreadable payload."""
        assert CHECKPOINT_VERSION == 8
        for old in (1, 2, 3, 4, 5, 6, 7):
            blob = bytearray(self._session_blob())
            magic, _, reserved, crc, length = struct.unpack_from("<8sHHIQ",
                                                                 blob)
            struct.pack_into("<8sHHIQ", blob, 0, magic, old, reserved, crc,
                             length)
            with pytest.raises(CheckpointError, match=f"version {old}"):
                load_checkpoint(bytes(blob))


class TestCliResume:
    """``repro run --resume`` runs the checkpoint's configuration, so flags
    that would change it are refused instead of silently dropped."""

    def _checkpoint(self, tmp_path, *flags):
        ckpt = tmp_path / "run.ckpt"
        argv = ["run", "--scheme", "ESD", "--app", "gcc", "--requests",
                "1500", "--seed", "7", "--checkpoint", str(ckpt),
                "--stop-after", "700", *flags]
        assert main(argv) == 3
        return ckpt

    def _resume(self, tmp_path, ckpt, *flags):
        state = tmp_path / "resumed.json"
        argv = ["run", "--scheme", "ESD", "--app", "gcc", "--requests",
                "1500", "--seed", "7", "--resume", str(ckpt),
                "--export-state", str(state), *flags]
        return main(argv), state

    @pytest.mark.parametrize("flags,field", [
        (("--efit-kb", "4"), "metadata_cache"),
    ], ids=["efit-kb"])
    def test_mismatched_flags_rejected(self, tmp_path, capsys, flags,
                                       field):
        ckpt = self._checkpoint(tmp_path)
        with pytest.raises(SystemExit) as exc:
            self._resume(tmp_path, ckpt, *flags)
        message = str(exc.value)
        assert "different system configuration" in message
        assert field in message

    def test_matching_flags_resume_bit_exact(self, tmp_path, capsys):
        direct = tmp_path / "direct.json"
        argv = ["run", "--scheme", "ESD", "--app", "gcc", "--requests",
                "1500", "--seed", "7", "--efit-kb", "4",
                "--export-state", str(direct)]
        assert main(argv) == 0
        ckpt = self._checkpoint(tmp_path, "--efit-kb", "4")
        code, resumed = self._resume(tmp_path, ckpt, "--efit-kb", "4")
        assert code == 0
        assert resumed.read_bytes() == direct.read_bytes()

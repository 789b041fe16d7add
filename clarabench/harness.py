"""Shared plumbing for the Clara benchmark.

Everything here runs in the benchmark's client process: locating the
checkout, building the trained artifact the program under test loads,
isolating the program's processes, percentile arithmetic and the golden
answer record.  The program itself is only ever driven through its
public surfaces (``python -m repro``, ``clara serve``'s HTTP API and
``Clara.load`` / ``Clara.analyze`` in :mod:`worker`).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
BUILD_DIR = ROOT / ".bench_build"
GOLDEN_PATH = BENCH_DIR / "golden.json"

#: packets per analyzed trace in every workload.
N_PACKETS = 20
#: seed of the one artifact every workload loads.
TRAIN_SEED = 0


class CheckoutError(RuntimeError):
    """The benchmark is not running from a checkout of the program."""


def check_checkout() -> None:
    if not (SRC / "repro" / "__init__.py").is_file():
        raise CheckoutError(
            f"no program source at {SRC / 'repro'}: run the benchmark"
            " from the root of a checkout"
        )


def source_digest() -> str:
    """Content hash of every Python file of the program, so a cached
    artifact is reused only for the exact source that trained it."""
    h = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def digest_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def digest_envelope(env: Dict) -> str:
    """Digest of an analyze envelope, with the per-request
    ``request_id`` stripped so equal answers digest equally."""
    env = dict(env)
    env.pop("request_id", None)
    return digest_bytes(
        json.dumps(env, sort_keys=True, separators=(",", ":")).encode()
    )


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a live process, in MB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


@dataclass
class Outcome:
    """One attempted request: its latency, and whether it failed."""

    key: str
    latency_s: float
    #: ``ok``, ``unchecked`` (answered; no golden answer is recorded and
    #: none is required, see :class:`Golden`), or the failure reason
    #: (``mismatch``, ``unrecorded``, ``http 500``, ``deadline``...).
    verdict: str
    digest: Optional[str] = None
    #: the request id the request was sent with (serve_mix).
    ref: Optional[str] = None

    @property
    def failed(self) -> bool:
        return self.verdict not in ("ok", "unchecked")


def percentile(outcomes: Sequence[Outcome], q: float) -> float:
    """The nearest-rank ``q``-quantile of the latencies, in seconds,
    where a failed request ranks slower than every success (its value is
    raised to the slowest success if it failed faster)."""
    ranked = sorted(outcomes, key=lambda o: (o.failed, o.latency_s))
    if not ranked:
        raise ValueError("no outcomes")
    rank = max(1, math.ceil(q * len(ranked)))
    return max(o.latency_s for o in ranked[:rank])


def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


class Golden:
    """The recorded answers, keyed by workload and request inputs."""

    #: Workloads whose requests depend on ``--seed``; only some seeds
    #: are recorded, so elsewhere their answers go unchecked.  Every
    #: other workload's requests are all recorded, and an answer with no
    #: record fails.
    SEEDED = frozenset({"novel_nf"})

    def __init__(self, record: Dict[str, Dict[str, str]],
                 recording: bool = False) -> None:
        self.record = record
        #: ``--record``: answers with no record are expected, not failures.
        self.recording = recording

    @classmethod
    def load(cls, path: Path = GOLDEN_PATH,
             recording: bool = False) -> "Golden":
        if not path.is_file():
            if not recording:
                raise CheckoutError(
                    f"no golden answers at {path}: nothing could be checked")
            return cls({}, recording)
        return cls(json.loads(path.read_text()), recording)

    def verdict(self, workload: str, key: str, digest: str) -> str:
        expected = self.record.get(workload, {}).get(key)
        if expected is None:
            if self.recording or workload in self.SEEDED:
                return "unchecked"
            return "unrecorded"
        return "ok" if expected == digest else "mismatch"

    def merge(self, workload: str, outcomes: Sequence[Outcome]) -> None:
        """Add the digests of answered requests (recording mode)."""
        table = self.record.setdefault(workload, {})
        for o in outcomes:
            if o.digest is not None and o.verdict in ("ok", "unchecked"):
                table[o.key] = o.digest

    def save(self, path: Path = GOLDEN_PATH) -> None:
        ordered = {w: dict(sorted(t.items())) for w, t in
                   sorted(self.record.items())}
        path.write_text(json.dumps(ordered, indent=1) + "\n")


@dataclass
class Session:
    """One benchmark invocation: a private scratch directory inside the
    checkout (artifact cache, span files), the environment every
    program process runs with, and the processes still to stop."""

    run_dir: Path
    artifact: Path
    env: Dict[str, str]
    children: List[subprocess.Popen] = field(default_factory=list)

    @classmethod
    def open(cls) -> "Session":
        check_checkout()
        BUILD_DIR.mkdir(exist_ok=True)
        run_dir = Path(tempfile.mkdtemp(prefix="run-", dir=BUILD_DIR))
        cache = run_dir / "clara-cache"
        cache.mkdir()
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC)
        # The user's ~/.cache/repro-clara is never read or written.
        env["REPRO_CLARA_CACHE"] = str(cache)
        # Cold starts read cached bytecode, as an installed program does.
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        session = cls(run_dir=run_dir, artifact=Path(), env=env)
        try:
            session.artifact = session._build_artifact()
        except BaseException:
            session.close()
            raise
        return session

    def _build_artifact(self) -> Path:
        """The fixed-seed ``TrainConfig.quick()`` artifact, trained with
        ``cache="off"`` outside any timed run.  It is kept under
        ``.bench_build`` keyed by the source hash: training is
        deterministic, so an artifact trained from the same source is the
        same artifact, and retraining it (~13 s) in every run would cost
        a quarter of a serve run's wall time."""
        path = BUILD_DIR / f"clara-{source_digest()}.pkl"
        if path.is_file():
            return path
        partial = self.run_dir / "artifact.pkl"
        code = (
            "import sys\n"
            "from repro.core import Clara, TrainConfig\n"
            f"clara = Clara(seed={TRAIN_SEED})\n"
            "clara.train(TrainConfig.quick(), cache='off')\n"
            "clara.save(sys.argv[1])\n"
        )
        self.run([sys.executable, "-c", code, str(partial)],
                 timeout=600, what="training the artifact")
        os.replace(partial, path)
        return path

    def run(self, argv: Sequence[str], timeout: float, what: str) -> None:
        proc = self.spawn(argv, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE)
        try:
            _, err = proc.communicate(timeout=timeout)
        finally:
            self.stop(proc)
        if proc.returncode != 0:
            raise RuntimeError(
                f"{what} failed (exit {proc.returncode}):"
                f" {err.decode(errors='replace')[-2000:]}"
            )

    def spawn(self, argv: Sequence[str], **kwargs) -> subprocess.Popen:
        kwargs.setdefault("stdin", subprocess.DEVNULL)
        proc = subprocess.Popen(list(argv), env=self.env, cwd=str(ROOT),
                                **kwargs)
        self.children.append(proc)
        return proc

    def stop(self, proc: subprocess.Popen, grace_s: float = 15.0) -> None:
        """SIGTERM, then SIGKILL after ``grace_s``; always reaped."""
        if proc.returncode is None and proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout=grace_s)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        for stream in (proc.stdin, proc.stdout, proc.stderr):
            if stream is not None:
                stream.close()
        if proc in self.children:
            self.children.remove(proc)

    def kill(self, proc: subprocess.Popen) -> None:
        if proc.returncode is None and proc.poll() is None:
            proc.kill()
        self.stop(proc)

    def close(self) -> None:
        for proc in list(self.children):
            self.kill(proc)
        shutil.rmtree(self.run_dir, ignore_errors=True)

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def wait_for_line(path: Path, marker: str, proc: subprocess.Popen,
                  timeout_s: float) -> str:
    """Poll a log file until a line containing ``marker`` appears."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if path.is_file():
            for line in path.read_text(errors="replace").splitlines():
                if marker in line:
                    return line
        if proc.poll() is not None:
            break
        time.sleep(0.002)
    raise RuntimeError(
        f"process {proc.pid} did not print {marker!r}"
        f" (exit {proc.returncode}); log: "
        + (path.read_text(errors="replace")[-2000:] if path.is_file() else "")
    )

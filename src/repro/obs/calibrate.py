"""Host calibration: make fleet records from different machines comparable.

A cells/s figure from a laptop and one from a CI runner measure two
different machines as much as they measure the code.  This module runs a
~2 s deterministic microbenchmark — repeated best-of passes of a fixed
MPEG simulation through the default execution backend, the same hot loop
every sweep cell spends its time in — and derives a dimensionless **host
score**: ``1.0`` on the nominal reference host, ``2.0`` on a machine
twice as fast.  The score is cached in ``.repro/host.json`` (next to the
fleet ledger) and stamped into every subsequent
:class:`~repro.obs.fleet.FleetRecord`, so ``repro fleet`` can divide the
raw throughput out into *normalized* cells/s before comparing records or
checking for regressions.

The probe is a pure function of the simulator (fixed workload, seed,
machine, no DAQ), so a score moves only when the host — or the
simulator's own hot-loop performance — does.  That ambiguity is
deliberate: the sentinel compares sweeps *normalized by the score taken
on the same host*, so host changes cancel and code regressions remain.

Uncalibrated hosts read as score ``0.0`` ("unknown"); consumers fall
back to raw throughput.  Run ``repro calibrate`` once per machine (and
after hardware changes) to stamp it.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from time import perf_counter
from typing import Dict, Optional, Union

#: Bump when the probe workload or scoring changes: old scores are then
#: not comparable and are ignored on read.
CALIBRATION_VERSION = 1

#: Where the score lives, next to the fleet ledger (repo-local,
#: gitignored operational state — scores are per-machine, never shared).
DEFAULT_HOST_PATH = Path(".repro") / "host.json"

#: Wall seconds one probe pass takes on the nominal reference host
#: (score 1.0).  Chosen once when the probe was defined; never retune
#: without bumping :data:`CALIBRATION_VERSION`.
NOMINAL_PROBE_WALL_S = 0.024

#: Simulated seconds of MPEG per probe pass.  Sized so a handful of
#: passes fit the ~2 s calibration budget on hosts within ~4x of
#: nominal, while each pass is long enough to dominate per-pass setup.
PROBE_DURATION_S = 30.0


@dataclass(frozen=True)
class HostCalibration:
    """One host's cached calibration result.

    Attributes:
        score: nominal probe wall / this host's best probe wall
            (dimensionless; higher = faster host).
        probe_wall_s: best-of-N wall seconds of one probe pass.
        passes: probe repetitions measured within the budget.
        unix_time: when the calibration ran.
        hostname / machine / python: fingerprint of what was measured,
            for the human reading ``host.json`` — never compared.
        version: :data:`CALIBRATION_VERSION` at calibration time.
    """

    score: float
    probe_wall_s: float
    passes: int
    unix_time: float
    hostname: str
    machine: str
    python: str
    version: int = CALIBRATION_VERSION

    def to_json(self) -> dict:
        return asdict(self)


def _probe_pass() -> float:
    """One deterministic probe simulation; returns its wall seconds.

    Imported lazily: calibration is the only reason this module needs
    the simulator, and :mod:`repro.measure.parallel` imports the
    sibling :func:`host_score` at module load.
    """
    from repro.kernel.recorders import RECORDING_MINIMAL
    from repro.measure.parallel import PolicySpec, SweepCell, WorkloadSpec
    from repro.workloads.mpeg import MpegConfig

    cell = SweepCell(
        workload=WorkloadSpec(
            "mpeg", MpegConfig(duration_s=PROBE_DURATION_S)
        ),
        policy=PolicySpec("best"),
        seed=0,
        use_daq=False,
        recording=RECORDING_MINIMAL,
    )
    start = perf_counter()
    cell.run()
    return perf_counter() - start


def calibrate(budget_s: float = 2.0) -> HostCalibration:
    """Measure this host: repeat the probe within ``budget_s``, keep the
    best pass (the least-disturbed one), and score against nominal.

    One warm-up pass absorbs import and allocator effects before timing
    starts; at least two timed passes always run, budget permitting the
    loop continues until ``budget_s`` is spent.
    """
    import platform
    import socket

    _probe_pass()  # warm-up, untimed
    best = float("inf")
    passes = 0
    t0 = perf_counter()
    while passes < 2 or perf_counter() - t0 < budget_s:
        best = min(best, _probe_pass())
        passes += 1
        if passes >= 64:  # absurdly fast host; enough samples
            break
    return HostCalibration(
        score=NOMINAL_PROBE_WALL_S / best,
        probe_wall_s=best,
        passes=passes,
        unix_time=time.time(),
        hostname=socket.gethostname(),
        machine=f"{platform.system()} {platform.machine()}",
        python=platform.python_version(),
    )


def save_calibration(
    cal: HostCalibration, path: Union[str, Path] = DEFAULT_HOST_PATH
) -> Path:
    """Write the calibration cache (creating ``.repro/`` if needed)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(cal.to_json(), indent=2, sort_keys=True) + "\n")
    _SCORE_CACHE.pop(str(path.resolve()), None)
    return path


def load_calibration(
    path: Union[str, Path] = DEFAULT_HOST_PATH
) -> Optional[HostCalibration]:
    """Read a cached calibration; None when absent, damaged or stale.

    A missing or unreadable cache is the common "never calibrated"
    case, not an error; a version mismatch means the probe changed and
    the old score is not comparable, so it reads as uncalibrated too.
    """
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except (OSError, ValueError):
        return None
    if not isinstance(raw, dict) or raw.get("version") != CALIBRATION_VERSION:
        return None
    known = {f for f in HostCalibration.__dataclass_fields__}
    try:
        cal = HostCalibration(**{k: v for k, v in raw.items() if k in known})
    except TypeError:
        return None
    if not isinstance(cal.score, (int, float)) or cal.score <= 0:
        return None
    return cal


def calibration_path() -> Path:
    """Where this process keeps the host calibration:
    ``REPRO_HOST_CALIBRATION`` when set (tests and CI point it at a
    scratch file), else :data:`DEFAULT_HOST_PATH`."""
    return Path(os.environ.get("REPRO_HOST_CALIBRATION") or DEFAULT_HOST_PATH)


#: Per-path score memo: sweeps stamp every fleet record, and the score
#: cannot change under a running process (``repro calibrate`` is a
#: separate invocation).
_SCORE_CACHE: Dict[str, float] = {}


def host_score(path: Union[str, Path, None] = None) -> float:
    """This host's calibration score, or ``0.0`` when uncalibrated.

    ``path`` defaults to :func:`calibration_path`.
    """
    if path is None:
        path = calibration_path()
    key = str(Path(path).resolve())
    if key not in _SCORE_CACHE:
        cal = load_calibration(path)
        _SCORE_CACHE[key] = cal.score if cal is not None else 0.0
    return _SCORE_CACHE[key]

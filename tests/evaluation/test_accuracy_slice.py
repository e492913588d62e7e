"""TKCM's accuracy on one paper panel, recomputed bit for bit.

``tests/fixtures/fig15_sbr1d_tkcm_block.json`` records TKCM's recovered
block of the Fig. 15 ``sbr-1d`` panel (576 values, each as ``float.hex``),
its RMSE and the SHA-256 of the block's little-endian float64 bytes, as
:func:`repro.evaluation.experiments.fig15_recovery_comparison` computed
them with ``methods=("TKCM",)`` (the same bits at 1 and 2 BLAS threads).
TKCM's estimate is a mean of observed anchor values, so only a changed
anchor selection can move a bit of it.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from repro.evaluation import experiments

FIXTURE = Path(__file__).resolve().parent.parent / "fixtures" / "fig15_sbr1d_tkcm_block.json"


def test_fig15_sbr1d_tkcm_block_is_bit_exact():
    record = json.loads(FIXTURE.read_text())
    outcome = experiments.fig15_recovery_comparison("sbr-1d", methods=("TKCM",))
    block = np.asarray(outcome["recoveries"]["TKCM"], dtype=float)
    assert [value.hex() for value in block.tolist()] == record["block"]
    assert hashlib.sha256(block.astype("<f8").tobytes()).hexdigest() == record["block_sha256"]
    assert float(outcome["rmse"]["TKCM"]).hex() == record["rmse"]

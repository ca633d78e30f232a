"""Byte-identity of full-line builds, join-grown overlays and failure-sweep
CSV against digests recorded before the 1/d samplers were merged into
`linkgen.sample_line_links`.  A change to any of these digests is an RNG
stream change and must be logged with before/after statistics."""

import hashlib

import numpy as np
import pytest

from lineworld.dynamics import ReplacementPolicy
from lineworld.harness import ExperimentConfig, build_by_joins, run_experiment
from lineworld.linkgen import InversePowerLaw
from lineworld.overlay import build


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("seed,digest", [
    (1, "06f0a689881d565ff3b718a0a5f04e64ae910a909f9eae7a9445970ad5f792ba"),
    (2, "963a12910eef3e967485385d76351dd238a438ab27ee215ba1020b68a231304c"),
    (3, "43b32f235b3e5d5cd917247d6145868e91d66fc2aa9eda39bec0da33b353e3d9"),
])
def test_full_line_build_dump(seed, digest):
    g = build(2 ** 10, InversePowerLaw(10), np.random.default_rng(seed))
    assert sha256(g.dump_text()) == digest


def test_build_by_joins_dump():
    g = build_by_joins(2 ** 9, 9, ReplacementPolicy.INVERSE_DISTANCE, np.random.default_rng(4))
    assert sha256(g.dump_text()) == "6628bfd67cfb8b9a22e5d61dd98dd9a3d8b05b4e4d9117c24f71b8f01b974c42"


@pytest.mark.parametrize("model,p_grid,digest", [
    ("node", (0.0, 0.3, 0.6), "cac3df17cf444859f250ec12af214bfbad7e7afd8a1daebb9585eb41e49705de"),
    ("link", (1.0, 0.5, 0.2), "7836fd1079420be3b0707a1e228e9b1d6f8d76c346adc8cde1c278b1a5600ddf"),
])
def test_failures_csv(model, p_grid, digest):
    cfg = ExperimentConfig("failures", n=2 ** 10, links=10, p_grid=p_grid, trials=3,
                           messages=30, seed=5, failure_model=model)
    assert sha256(run_experiment(cfg)) == digest

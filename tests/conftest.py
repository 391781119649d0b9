"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.scoring import (
    ScoringScheme,
    affine_gap,
    blosum62,
    dna_simple,
    linear_gap,
    paper_scheme,
)


@pytest.fixture(autouse=True)
def _isolated_calibration_cache(tmp_path, monkeypatch):
    """Point the tune cache at an empty per-test directory.

    The developer's real ``~/.cache/fastlsa/calibration.json`` (if they
    ever ran ``fastlsa calibrate``) must not leak into tests: the service
    defaults to ``tune="auto"``, so a cached profile would silently
    change backend decisions suite-wide.  The load memo is keyed by
    path, so no explicit reset is needed.
    """
    from repro.tune import profile as tune_profile

    monkeypatch.setenv(tune_profile.CACHE_DIR_ENV, str(tmp_path / "tune-cache"))
    # Each test gets a fresh shot at the warn-once "no profile" notice.
    monkeypatch.setattr(tune_profile, "_WARNED_NO_PROFILE", False)


@pytest.fixture(scope="session", autouse=True)
def _drain_worker_pools():
    """Tear down the shared wavefront pool once the suite finishes."""
    yield
    from repro.parallel import shutdown_pools

    shutdown_pools()


@pytest.fixture
def rng():
    """Deterministic RNG shared by randomised tests."""
    return np.random.default_rng(20030707)


@pytest.fixture
def dna_scheme():
    """DNA +5/−4 matrix with linear gap −6."""
    return ScoringScheme(dna_simple(), linear_gap(-6))


@pytest.fixture
def protein_scheme():
    """BLOSUM62 with linear gap −8."""
    return ScoringScheme(blosum62(), linear_gap(-8))


@pytest.fixture
def affine_scheme():
    """BLOSUM62 with affine gap (−11, −2)."""
    return ScoringScheme(blosum62(), affine_gap(-11, -2))


@pytest.fixture
def affine_dna_scheme():
    """DNA matrix with affine gap (−8, −1)."""
    return ScoringScheme(dna_simple(), affine_gap(-8, -1))


@pytest.fixture
def table1_scheme():
    """The paper's exact worked-example scheme (Table 1, gap −10)."""
    return paper_scheme()


def random_dna(rng, length):
    """Random DNA string of a given length."""
    return "".join(rng.choice(list("ACGT"), length))


def random_protein(rng, length, alphabet="ARNDCQEGHILKMFPSTWYV"):
    """Random protein string of a given length."""
    return "".join(rng.choice(list(alphabet), length))

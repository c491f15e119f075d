"""Shared fixtures: generated cohorts and trained artifacts, built once."""

from __future__ import annotations

import pytest

from eviground.cohort import Cohort, CohortConfig, generate_cohort


@pytest.fixture(scope="session")
def small_cohort(tmp_path_factory) -> Cohort:
    """24 patients; enough structure for unit tests, fast to build."""
    root = tmp_path_factory.mktemp("small_cohort")
    generate_cohort(CohortConfig(n_patients=24), root, seed=11)
    return Cohort.load(root)


@pytest.fixture(scope="session")
def default_cohort(tmp_path_factory) -> Cohort:
    """The default 100-patient cohort used by the acceptance criteria."""
    root = tmp_path_factory.mktemp("default_cohort")
    generate_cohort(CohortConfig(n_patients=100), root, seed=0)
    return Cohort.load(root)


@pytest.fixture(scope="session")
def trained_sea(default_cohort):
    """Grounder trained at defaults on the default cohort, with wall time."""
    import time

    from eviground.grounding import GrounderConfig, train_grounding

    start = time.time()
    emb, dec, _ = train_grounding(default_cohort, GrounderConfig(), seed=0)
    return emb, dec, time.time() - start

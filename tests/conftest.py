import numpy as np
import pytest

import elastiseg.solver


@pytest.fixture
def float64_solves(monkeypatch):
    """Solves run in float64, the arithmetic of earlier versions, whose bits the test pins."""
    monkeypatch.setattr(elastiseg.solver, "DTYPE", np.float64)


@pytest.fixture
def no_early_stop(monkeypatch):
    """Solves run to max_iters: the stop rule never fires."""
    monkeypatch.setattr(elastiseg.solver, "STOP_TOL", 0.0)

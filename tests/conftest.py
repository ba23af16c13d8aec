import numpy as np
import pytest

from mpdsa import msa
from mpdsa.configspace import LatticeGeometry
from mpdsa.operators import hopping_template
from mpdsa.spectral import GapCertificate


@pytest.fixture(scope="session", autouse=True)
def _warm_blas():
    # first large eigh triggers one-time OpenBLAS kernel selection
    np.linalg.eigh(np.eye(600))


@pytest.fixture(scope="session")
def line():
    return LatticeGeometry(kind="lattice", d=1)


@pytest.fixture(scope="session")
def plane():
    return LatticeGeometry(kind="lattice", d=2)


@pytest.fixture(scope="session")
def path_graph():
    # 0 - 1 - 2 - 3 - 4
    adj = ((1,), (0, 2), (1, 3), (2, 4), (3,))
    return LatticeGeometry(kind="graph", d=1, growth_constant=3.0, adjacency=adj)


def _residual_ratios(template, h, energy, source, g):
    """Row t: ||(H_t - E) g_t - delta_source||_inf over the bound
    n eps ||H_t - E||_inf ||g_t||_inf that a backward-stable solve meets,
    with H_t - E = T + diag(fl(h_t - E)) as ``GapCertificate.green_columns``
    forms it (T the dense ``template``).  The residual is summed in
    extended precision, so its own rounding stays far below the bound."""
    n = len(template)
    d = h - energy
    wide = np.longdouble
    residual = g.astype(wide) @ template.astype(wide) + d.astype(wide) * g
    residual[:, source] -= 1
    norm = np.max(np.sum(np.abs(template), axis=1) + np.abs(d), axis=1)
    bound = n * np.finfo(float).eps * norm * np.max(np.abs(g), axis=1)
    return np.max(np.abs(residual), axis=1).astype(float) / bound


@pytest.fixture(scope="session")
def residual_ratios():
    """``_residual_ratios``: a band or dense Green solve passes where
    every ratio is at most 1."""
    return _residual_ratios


@pytest.fixture(scope="session")
def block_trials():
    """Trials per block of ``msa.block_non_singularity`` on a ball: the
    band budget over one trial's general band, n (3 kd + 1) doubles, with
    kd the half-width ``GapCertificate`` computes in its band order (130
    at n = 91)."""

    def trials(spec, ball):
        kd = GapCertificate(hopping_template(spec, ball), 1).width
        return max(1, msa.BLOCK_BAND_DOUBLES // (len(ball) * (3 * kd + 1)))

    return trials

import numpy as np
import pytest

from dolbeault_ns import FormField, random_form
from dolbeault_ns.spectral import FOURIER
from oracle import DenseOperator, dense_build, oracle_compare


def test_dense_dimensions():
    op = dense_build("dbar", 2, 0, 4)
    assert op.matrix.shape == (512, 256)
    op = dense_build("dbar", 2, 1, 4)
    assert op.matrix.shape == (256, 512)
    op = dense_build("leray", 2, 1, 4)
    assert op.matrix.shape == (512, 512)


def test_dense_size_bound():
    with pytest.raises(ValueError):
        dense_build("dbar", 2, 0, 32)


def test_dense_rejects_unknown_tag():
    with pytest.raises(ValueError):
        dense_build("curl", 2, 1, 4)


def test_dense_complex_identity():
    A0 = dense_build("dbar", 2, 0, 4).matrix
    A1 = dense_build("dbar", 2, 1, 4).matrix
    assert np.linalg.norm(A1 @ A0) < 1e-12


def test_dense_adjoint_is_conjugate_transpose():
    for q in (0, 1):
        A = dense_build("dbar", 2, q, 4).matrix
        S = dense_build("dbar_star", 2, q, 4).matrix
        assert np.linalg.norm(S - A.conj().T) < 1e-10


def test_dense_laplacian_factorization():
    L = dense_build("laplacian", 2, 1, 4).matrix
    S1 = dense_build("dbar", 2, 1, 4).matrix
    S1s = dense_build("dbar_star", 2, 1, 4).matrix
    S0 = dense_build("dbar", 2, 0, 4).matrix
    S0s = dense_build("dbar_star", 2, 0, 4).matrix
    assert np.linalg.norm(L - (S1s @ S1 + S0 @ S0s)) < 1e-10


def test_dense_leray_hermitian_idempotent():
    P = dense_build("leray", 2, 1, 4).matrix
    assert np.linalg.norm(P - P.conj().T) < 1e-10
    assert np.linalg.norm(P @ P - P) < 1e-10


def test_dense_leray_eigenvalues_binary():
    P = dense_build("leray", 2, 1, 4).matrix
    eigs = np.linalg.eigvalsh(P)
    dist = np.minimum(np.abs(eigs), np.abs(eigs - 1.0))
    assert np.max(dist) < 1e-9


def test_oracle_compare_zero_field(grid4):
    z = FormField.zeros(grid4, 1, FOURIER)
    assert oracle_compare("dbar", z) == 0.0


def test_oracle_compare_dbar(grid4, rng):
    for q in (0, 1):
        u = random_form(grid4, q, rng)
        assert oracle_compare("dbar", u) < 1e-12


def test_oracle_compare_dbar_star(grid4, rng):
    u = random_form(grid4, 2, rng)
    assert oracle_compare("dbar_star", u) < 1e-12


def test_oracle_compare_laplacian(grid4, rng):
    for q in (0, 1, 2):
        u = random_form(grid4, q, rng)
        assert oracle_compare("laplacian", u) < 1e-12


def test_oracle_compare_leray(grid4, rng):
    u = random_form(grid4, 1, rng, mean_zero=False)
    assert oracle_compare("leray", u) < 1e-12

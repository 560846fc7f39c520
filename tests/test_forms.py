import math

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

import dolbeault_ns.spectral as spectral
from dolbeault_ns import (
    BilinearSpec,
    CustomTerm,
    FormField,
    SpectralGrid,
    apply_m1,
    apply_m2,
    dbar,
    index_of,
    insert_sign,
    l2_inner,
    l2_norm,
    multi_indices,
    random_form,
)
from dolbeault_ns.forms import num_components
from dolbeault_ns.spectral import FOURIER, PHYSICAL
from oracle import coordinate


def test_multi_index_enumeration_counts_and_order():
    for n in (2, 3, 4):
        for q in range(n + 1):
            idx = multi_indices(n, q)
            assert len(idx) == math.comb(n, q)
            assert list(idx) == sorted(idx)
            for m, J in enumerate(idx):
                assert index_of(n, J) == m
                assert all(1 <= j <= n for j in J)
                assert list(J) == sorted(set(J))


def test_index_of_rejects_bad_indices():
    with pytest.raises(ValueError):
        index_of(2, (2, 1))
    with pytest.raises(ValueError):
        index_of(2, (3,))


def test_insert_sign_examples():
    assert insert_sign(1, (2, 3)) == (1, (1, 2, 3))
    assert insert_sign(3, (1, 2)) == (1, (1, 2, 3))
    assert insert_sign(2, (1, 3)) == (-1, (1, 2, 3))


def test_insert_sign_duplicate_raises():
    with pytest.raises(ValueError):
        insert_sign(2, (1, 2))


def test_insert_sign_anticommutes():
    # inserting j1 then j2 versus j2 then j1 flips the combined sign
    for J in ((), (2,), (1, 4)):
        for j1, j2 in ((1, 3), (3, 5), (5, 3)):
            if j1 in J or j2 in J or j1 == j2:
                continue
            s1, K1 = insert_sign(j1, J)
            s2, _ = insert_sign(j2, K1)
            t1, K2 = insert_sign(j2, J)
            t2, _ = insert_sign(j1, K2)
            assert s1 * s2 == -t1 * t2


def test_form_field_shape_validation(grid8):
    with pytest.raises(ValueError):
        FormField(grid8, 1, np.zeros((3,) + grid8.shape, complex), FOURIER)
    with pytest.raises(ValueError):
        FormField(grid8, 1, np.zeros((2,) + grid8.shape, complex), "weird")


def test_l2_inner_constant_field_gives_volume():
    g = SpectralGrid(2, 4)
    u = FormField(g, 0, np.ones((1,) + g.shape, complex), PHYSICAL)
    val = l2_inner(u, u)
    assert val == pytest.approx((2 * np.pi) ** 4, rel=1e-13)


def test_l2_inner_mode_orthogonality(grid8):
    x1 = coordinate(grid8, 0)
    u = FormField(grid8, 0, np.broadcast_to(np.exp(1j * x1), (1,) + grid8.shape).copy(), PHYSICAL)
    v = FormField(grid8, 0, np.broadcast_to(np.exp(2j * x1), (1,) + grid8.shape).copy(), PHYSICAL)
    assert abs(l2_inner(u, v)) < 1e-12


def test_l2_inner_conjugate_symmetry(grid8, rng):
    u = random_form(grid8, 1, rng).to_physical()
    v = random_form(grid8, 1, rng).to_physical()
    assert l2_inner(u, v) == pytest.approx(np.conj(l2_inner(v, u)), rel=1e-12)


def test_l2_inner_positive_definite(grid8, rng):
    u = random_form(grid8, 1, rng).to_physical()
    val = l2_inner(u, u)
    assert abs(val.imag) < 1e-12 * abs(val)
    assert val.real > 0
    z = FormField.zeros(grid8, 1, PHYSICAL)
    assert l2_inner(z, z) == 0


def test_l2_inner_requires_physical(grid8, rng):
    u = random_form(grid8, 1, rng)
    with pytest.raises(ValueError):
        l2_inner(u, u)


def test_l2_norm_parseval(grid8, rng):
    u = random_form(grid8, 1, rng)
    assert l2_norm(u) == pytest.approx(l2_norm(u.to_physical()), rel=1e-12)


def test_apply_m1_m2_stokes_are_zero(grid8, rng):
    spec = BilinearSpec.stokes()
    omega = random_form(grid8, 2, rng).to_physical()
    u = random_form(grid8, 1, rng).to_physical()
    assert l2_norm(apply_m1(spec, omega, u)) == 0.0
    assert l2_norm(apply_m2(spec, u, u)) == 0.0
    assert spec.tables(2, 1) == ((), ())


def test_apply_m1_lamb_hand_oracle(grid8):
    # omega = dzbar_1 ^ dzbar_2 with coefficient 1, u = c dzbar_1:
    # output is conj(c) on component 2 and 0 on component 1
    c = 0.7 - 0.4j
    omega = FormField.zeros(grid8, 2, PHYSICAL)
    omega.data[0] = 1.0
    u = FormField.zeros(grid8, 1, PHYSICAL)
    u.data[0] = c
    out = apply_m1(BilinearSpec.lamb(), omega, u)
    assert np.allclose(out.data[0], 0.0)
    assert np.allclose(out.data[1], np.conj(c))


def test_apply_m1_lamb_zero_omega(grid8, rng):
    omega = FormField.zeros(grid8, 2, PHYSICAL)
    u = random_form(grid8, 1, rng).to_physical()
    assert l2_norm(apply_m1(BilinearSpec.lamb(), omega, u)) == 0.0


def test_apply_m1_lamb_requires_q1(grid3d, rng):
    omega = random_form(grid3d, 3, rng).to_physical()
    u = random_form(grid3d, 2, rng).to_physical()
    with pytest.raises(ValueError):
        apply_m1(BilinearSpec.lamb(), omega, u)


def test_apply_m2_lamb_unit_field(grid8):
    u = FormField.zeros(grid8, 1, PHYSICAL)
    u.data[0] = 1.0
    out = apply_m2(BilinearSpec.lamb(), u, u)
    assert np.allclose(out.data[0], 1.0)


def test_apply_m2_lamb_disjoint_components(grid8):
    x1 = coordinate(grid8, 0)
    u = FormField.zeros(grid8, 1, PHYSICAL)
    u.data[0] = np.exp(1j * x1)
    w = FormField.zeros(grid8, 1, PHYSICAL)
    w.data[1] = 2.0
    assert l2_norm(apply_m2(BilinearSpec.lamb(), u, w)) < 1e-14


def test_apply_m2_rejects_scalars(grid8, rng):
    u = random_form(grid8, 0, rng).to_physical()
    with pytest.raises(ValueError):
        apply_m2(BilinearSpec.lamb(), u, u)


def test_bilinear_maps_are_real_bilinear(grid8, rng):
    spec = BilinearSpec.lamb()
    om1 = random_form(grid8, 2, rng).to_physical()
    om2 = random_form(grid8, 2, rng).to_physical()
    u1 = random_form(grid8, 1, rng).to_physical()
    u2 = random_form(grid8, 1, rng).to_physical()
    a, b = 1.75, -0.4

    lhs = apply_m1(spec, a * om1 + b * om2, u1)
    rhs = a * apply_m1(spec, om1, u1) + b * apply_m1(spec, om2, u1)
    assert l2_norm(lhs - rhs) < 1e-12 * max(l2_norm(lhs), 1.0)

    lhs = apply_m1(spec, om1, a * u1 + b * u2)
    rhs = a * apply_m1(spec, om1, u1) + b * apply_m1(spec, om1, u2)
    assert l2_norm(lhs - rhs) < 1e-12 * max(l2_norm(lhs), 1.0)

    lhs = apply_m2(spec, u1, a * u2 + b * u1)
    rhs = a * apply_m2(spec, u1, u2) + b * apply_m2(spec, u1, u1)
    assert l2_norm(lhs - rhs) < 1e-12 * max(l2_norm(lhs), 1.0)


def test_lamb_pointwise_cancellation(grid8, rng):
    # sum_k M1(omega, v)_k conj(v_k) = 0 at every grid point
    for _ in range(5):
        w = random_form(grid8, 1, rng)
        v = random_form(grid8, 1, rng).to_physical()
        omega = dbar(w).to_physical()
        m1 = apply_m1(BilinearSpec.lamb(), omega, v)
        pointwise = np.sum(m1.data * np.conj(v.data), axis=0)
        scale = np.max(np.abs(omega.data)) * np.max(np.abs(v.data)) ** 2
        assert np.max(np.abs(pointwise)) < 1e-13 * max(scale, 1.0)


def test_custom_spec_json_round_trip():
    spec = BilinearSpec.custom(
        m1_terms=[CustomTerm(k=(1,), a=(1, 2), b=(2,), coeff=1.5 - 0.5j, conj_u=True)],
        m2_terms=[CustomTerm(k=(), a=(1,), b=(1,), coeff=1.0, conj_u=True)],
    )
    back = BilinearSpec.from_json(spec.to_json())
    assert back == spec

    assert BilinearSpec.from_json({"kind": "lamb"}) == BilinearSpec.lamb()
    with pytest.raises(ValueError):
        BilinearSpec.from_json({"kind": "mystery"})


def test_custom_spec_matches_lamb(rng):
    # the Lamb table, built in and as custom entries, against the
    # module-docstring formula: with W the antisymmetric extension of omega,
    # M1(omega, u)_k = sum_j W[j, k] conj(u_j) and M2(u, w) = sum_j u_j conj(w_j)
    lamb = BilinearSpec.lamb()
    for n, N in ((2, 8), (3, 4), (4, 4)):
        grid = SpectralGrid(n, N)
        omega, u, w = (random_form(grid, q, rng).to_physical() for q in (2, 1, 1))
        W = np.zeros((n, n) + grid.shape, complex)
        for m, (j, k) in enumerate(multi_indices(n, 2)):
            W[j - 1, k - 1], W[k - 1, j - 1] = omega.data[m], -omega.data[m]
        want_m1 = np.einsum("jk...,j...->k...", W, np.conj(u.data))
        want_m2 = np.einsum("j...,j...->...", u.data, np.conj(w.data))
        for spec in (lamb, BilinearSpec.custom(*lamb.tables(n, 1))):
            m1, m2 = apply_m1(spec, omega, u).data, apply_m2(spec, u, w).data[0]
            assert np.linalg.norm(m1 - want_m1) <= 1e-14 * np.linalg.norm(want_m1)
            assert np.linalg.norm(m2 - want_m2) <= 1e-14 * np.linalg.norm(want_m2)


def test_custom_spec_validates_index_shapes(grid8, rng):
    bad = BilinearSpec.custom(
        m1_terms=[CustomTerm(k=(1,), a=(1,), b=(2,), coeff=1.0)], m2_terms=[]
    )
    with pytest.raises(ValueError):
        bad.validate_for(2, 1)
    # the tables are cached once valid, so a malformed one fails on every use
    omega = random_form(grid8, 2, rng).to_physical()
    u = random_form(grid8, 1, rng).to_physical()
    for _ in range(2):
        with pytest.raises(ValueError):
            apply_m1(bad, omega, u)


def _reference_contract(rows: tuple, first: np.ndarray, second: np.ndarray, out: np.ndarray):
    """The whole-table term loop the per-component contraction replaced:
    out[k] += coeff * first[a] * second[b] over rows (k, a, b, coeff,
    conj_u), kept verbatim as the oracle."""
    conj = {b: np.conj(second[b]) for b in {b for _, _, b, _, conj_u in rows if conj_u}}
    tmp = np.empty(out.shape[1:], dtype=out.dtype)
    for k, a, b, coeff, conj_u in rows:
        np.multiply(first[a] if coeff in (1, -1) else coeff * first[a], conj[b] if conj_u else second[b], out=tmp)
        (np.subtract if coeff == -1 else np.add)(out[k], tmp, out=out[k])


def _reference_apply(n, terms, first, second, out_q, grid):
    rows = tuple((index_of(n, t.k), index_of(n, t.a), index_of(n, t.b), t.coeff, t.conj_u) for t in terms)
    out = np.zeros((num_components(n, out_q),) + grid.shape, dtype=np.complex128)
    _reference_contract(rows, first.data, second.data, out)
    return out


@st.composite
def _table(draw, n, k_len, ab_len):
    """Table entries with |K| = k_len and (|A|, |B|) = ab_len, and unit,
    imaginary-unit or general coefficients; the first two share their K,
    and when there are several output components the last has none."""
    ks = multi_indices(n, k_len)
    ks = ks[:-1] if len(ks) > 1 else ks
    coeff = st.one_of(
        st.sampled_from([1, -1, 1j, -1j]),
        st.complex_numbers(min_magnitude=0.1, max_magnitude=2.0, allow_nan=False, allow_infinity=False),
    )
    entries = []
    for i in range(draw(st.integers(2, 6))):
        entries.append(
            CustomTerm(
                k=entries[0].k if i == 1 else draw(st.sampled_from(ks)),
                a=draw(st.sampled_from(multi_indices(n, ab_len[0]))),
                b=draw(st.sampled_from(multi_indices(n, ab_len[1]))),
                coeff=complex(draw(coeff)),
                conj_u=draw(st.booleans()),
            )
        )
    return entries


@pytest.mark.parametrize(
    "n, q, kind",
    [(n, 1, "lamb") for n in (2, 3, 4)] + [(n, q, "custom") for n in (2, 3, 4) for q in range(1, n)],
)
# no shrink phase: a derandomized failure reproduces as drawn
@settings(derandomize=True, deadline=None, max_examples=4, phases=(Phase.explicit, Phase.generate))
@given(data=st.data())
def test_component_contraction_equals_whole_table_loop(n, q, kind, data):
    # M1 and M2 formed one output component at a time give the bits of the
    # whole-table loop, as whole fields and component by component
    grid = SpectralGrid(n, 4)
    if kind == "lamb":
        spec = BilinearSpec.lamb()
    else:
        spec = BilinearSpec.custom(data.draw(_table(n, q, (q + 1, q))), data.draw(_table(n, q - 1, (q, q))))
    m1_terms, m2_terms = spec.tables(n, q)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    omega, u, w = (random_form(grid, p, rng, decay=1.0).to_physical() for p in (q + 1, q, q))
    for apply, args, terms, out_q in ((apply_m1, (omega, u), m1_terms, q), (apply_m2, (u, w), m2_terms, q - 1)):
        want = _reference_apply(n, terms, *args, out_q, grid)
        got = apply(spec, *args)
        assert got.q == out_q and got.rep == PHYSICAL
        assert np.array_equal(got.data, want)
        for k in range(len(want)):
            out = np.full(grid.shape, np.nan, dtype=np.complex128)
            assert apply(spec, *args, k, out) is out
            assert np.array_equal(out, want[k])
            assert np.array_equal(apply(spec, *args, k), want[k])


@pytest.mark.parametrize("n, N, slab", [(3, 8, None), (2, 4, 3 * 4**3)], ids=["n3-N8", "short-last-slab"])
def test_contraction_over_several_slabs_equals_whole_table_loop(n, N, slab, monkeypatch):
    # a component handed over one slab at a time, as a streamed pass of 3
    # rows does (spectral.SlabStream): 4 slabs at n = 3, N = 8, and slabs
    # of 3 indices (slab samples per row) leave a short last one; first
    # entries of every kind (sign, general coefficient, each with and
    # without conjugate) and later entries of every kind keep the bits, per
    # slab and on whole components
    if slab is not None:
        monkeypatch.setattr(spectral, "_PASS", 3 * slab)
    ks, pairs = multi_indices(n, 1), multi_indices(n, 2)
    kinds = [(2.0 - 0.5j, True), (1, False), (0.5 + 1j, False), (-1, True), (-1, False), (-0.75j, True), (1, True)]
    terms = [
        CustomTerm(k=ks[i % len(ks)], a=pairs[i % len(pairs)], b=ks[(i + 1) % len(ks)], coeff=complex(c), conj_u=conj)
        for i in range(len(ks))
        for c, conj in kinds[i:] + kinds[:i]
    ]
    spec = BilinearSpec.custom(terms, ())
    grid = SpectralGrid(n, N)
    rng = np.random.default_rng(12)
    omega, u = (random_form(grid, p, rng, decay=1.0).to_physical() for p in (2, 1))
    want = _reference_apply(n, terms, omega, u, 1, grid)
    assert np.array_equal(apply_m1(spec, omega, u).data, want)
    slabs = grid.slabs(3)
    widths = [s.stop - s.start for s in slabs]
    assert widths == ([2] * 4 if slab is None else [3, 1])
    for s in slabs:
        first, second = (FormField.slab(grid, f.q, np.ascontiguousarray(f.data[..., s])) for f in (omega, u))
        for k in range(len(want)):
            assert np.array_equal(apply_m1(spec, first, second, k), want[k][..., s])


_G8, _G4 = SpectralGrid(2, 8), SpectralGrid(2, 4)


def _form(grid, q, rep=FOURIER):
    f = random_form(grid, q, np.random.default_rng(q))
    return f.to_physical() if rep == PHYSICAL else f


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: insert_sign(0, (1,)), "index 0 must be >= 1"),
        (lambda: _form(_G8, 1) + _form(_G4, 1), r"grid mismatch: SpectralGrid\(n=2, N=8\) vs SpectralGrid\(n=2, N=4\)"),
        (lambda: _form(_G8, 1) + _form(_G8, 0), "bidegree mismatch: 1 vs 0"),
        (lambda: _form(_G8, 1) + _form(_G8, 1, PHYSICAL), "representation mismatch: fourier vs physical"),
        (lambda: apply_m1(BilinearSpec.lamb(), _form(_G4, 2, PHYSICAL), _form(_G8, 1, PHYSICAL)),
         r"grid mismatch: SpectralGrid\(n=2, N=4\) vs SpectralGrid\(n=2, N=8\)"),
        (lambda: apply_m1(BilinearSpec.lamb(), _form(_G8, 1, PHYSICAL), _form(_G8, 1, PHYSICAL)),
         r"got \(1, 1\)"),
        (lambda: apply_m1(BilinearSpec.lamb(), _form(_G8, 2), _form(_G8, 1)), "got fourier and fourier"),
        (lambda: apply_m2(BilinearSpec.lamb(), _form(_G8, 1), _form(_G8, 1)), "physical representation, got fourier"),
        (lambda: FormField.slab(_G8, 1, np.zeros((2, 8, 8, 8, 9), dtype=np.complex128)),
         r"shape \(2, 8, 8, 8, 9\)"),
        (lambda: BilinearSpec(kind="wind").validate_for(2, 1), "unknown nonlinearity kind 'wind'"),
        (lambda: BilinearSpec.custom([CustomTerm(k=(1,), a=(2, 1), b=(1,), coeff=1.0)], []).validate_for(2, 1),
         r"A=\(2, 1\) is not a strictly increasing multi-index in 1..2"),
    ],
    ids=["insert-sign-index", "add-grids", "add-bidegrees", "add-representations", "m1-grids", "m1-bidegrees",
         "m1-fourier", "m2-fourier", "slab-shape", "nonlinearity-kind", "term-order"],
)
def test_forms_input_checks_name_the_bad_value(call, message):
    with pytest.raises(ValueError, match=message):
        call()

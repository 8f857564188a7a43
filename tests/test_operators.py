"""Truncated operator construction and identity tests."""

import itertools
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    CORPUS,
    assert_same_build,
    block_shift_matrix,
    eval_at,
    hankel_op,
    nonzero_triplets,
    part_rows,
    ref_hankel,
    ref_intertwining_residual,
    ref_kernel_operator,
    ref_penrose_norm,
    ref_range_operator,
    ref_toeplitz,
    scaled,
    shift_matrix,
    signed_zero_matrix,
    swept_lower_bounds,
)
from shiftlab import cli, linalg, operators
from shiftlab.linalg import Triplets, dense_matrix, spectral_norm
from shiftlab.operators import (
    _moved,
    _penrose_certified,
    _penrose_defect,
    _within,
    OperatorMatrix,
    ProductSpace,
    TruncatedSpace,
    build_kernel_operator,
    build_range_operator,
    intertwining_residual,
    leading_section,
    nehari_bounds,
    nehari_lower_bound,
    shift_rows,
    svd_analysis,
    toeplitz_op,
)
from shiftlab.subspaces import kernel_symbol_from_u, range_symbol_from_u
from shiftlab.symbols import (
    block_symbol,
    constant_symbol,
    identity_symbol,
    make_symbol,
    monomial_symbol,
    split_square_blocks,
    unit_circle_points,
    zero_symbol,
)

RS2 = 1 / np.sqrt(2)


def rand_symbol(rng, rows, cols, kmin, kmax):
    return make_symbol(rows, cols, {
        k: rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
        for k in range(kmin, kmax + 1)
    })


@st.composite
def band_symbols(draw, rows, cols, analytic=False):
    """Generic symbols: every coefficient in the band is a random complex matrix."""
    kmin = draw(st.integers(0 if analytic else -10, 3))
    kmax = draw(st.integers(kmin, kmin + 4))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return rand_symbol(rng, rows, cols, kmin, kmax)


@st.composite
def mixed_symbols(draw, analytic_row):
    """(square symbol, dim_e, n) from generic blocks, with the block row
    analytic_row ("top" for the range form, "bottom" for the kernel form)
    analytic and n at least that row's top degree."""
    de, df = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    top = [draw(band_symbols(de, cols, analytic=analytic_row == "top")) for cols in (de, df)]
    bottom = [draw(band_symbols(df, cols, analytic=analytic_row == "bottom"))
              for cols in (de, df)]
    n = draw(st.integers(max(s.kmax for s in (top if analytic_row == "top" else bottom)), 10))
    return block_symbol([top, bottom]), de, n


# one coefficient at k = -10: a Hankel matrix of it reaches deeper than its
# bandwidth, so a tightness check must deepen by the anti-analytic depth
ONE, DEEP = constant_symbol([[1.0]]), make_symbol(1, 1, {-10: [1]})


def timotin_phi():
    a = constant_symbol([[RS2]])
    b = monomial_symbol(1, [[RS2]])
    c = monomial_symbol(-1, [[RS2]])
    d = constant_symbol([[-RS2]])
    return block_symbol([[a, b], [c, d]])


def timotin_psi():
    # square symbol evaluated at the conjugate argument of the one above
    c = constant_symbol([[RS2]])
    d = monomial_symbol(-1, [[RS2]])
    a = monomial_symbol(1, [[RS2]])
    b = constant_symbol([[-RS2]])
    return block_symbol([[c, d], [a, b]])


class TestToeplitz:
    def test_shift_matrix(self):
        t = toeplitz_op(make_symbol(1, 1, {1: [1]}), 3)
        np.testing.assert_allclose(t.dense(), np.eye(4, k=-1))
        assert t.exact_window == 2

    def test_identity_symbol(self):
        t = toeplitz_op(identity_symbol(2), 5)
        np.testing.assert_allclose(t.dense(), np.eye(12))
        assert t.exact_window == 5

    def test_backward_shift_is_adjoint(self):
        fwd = toeplitz_op(make_symbol(1, 1, {1: [1]}), 3)
        bwd = toeplitz_op(make_symbol(1, 1, {-1: [1]}), 3)
        np.testing.assert_allclose(bwd.dense(), fwd.dense().conj().T)

    def test_band_too_wide_rejected(self):
        with pytest.raises(ValueError, match="band"):
            toeplitz_op(make_symbol(1, 1, {4: [1]}), 3)


class TestHankel:
    def test_zbar_gives_evaluation_at_zero(self):
        h = hankel_op(make_symbol(1, 1, {-1: [1]}), 3)
        expected = np.zeros((4, 4))
        expected[0, 0] = 1
        np.testing.assert_allclose(h.dense(), expected)
        assert h.exact_window == 3

    def test_analytic_symbol_gives_zero(self):
        h = hankel_op(make_symbol(1, 1, {0: [1], 2: [1]}), 3)
        assert not np.any(h.dense())

    def test_zbar_squared_antidiagonal(self):
        h = hankel_op(make_symbol(1, 1, {-2: [1]}), 3)
        expected = np.zeros((4, 4))
        expected[0, 1] = expected[1, 0] = 1
        np.testing.assert_allclose(h.dense(), expected)

    def test_deep_band_allowed_with_empty_window(self):
        deep = make_symbol(1, 1, {-9: [1]})
        h = hankel_op(deep, 3)
        assert h.exact_window == -1
        assert h.dense()[3, 3] == 0  # -(3+3+1) = -7 > -9 stays out of range...
        assert h.dense()[3, 2] == 0
        # block (j, i) holds the coefficient at -(j+i+1)
        assert hankel_op(deep, 4).dense()[4, 4] == 1

    def test_adjoint_identity(self):
        rng = np.random.default_rng(3)
        s = rand_symbol(rng, 2, 3, -3, 2)
        lhs = hankel_op(s, 6).dense().conj().T
        rhs = hankel_op(s.conj_arg().adjoint(), 6).dense()
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)


@st.composite
def shift_spaces(draw):
    """A product of 1-3 Hardy and Lebesgue parts of fiber dimension 1-3 and
    truncation 0-3."""
    kinds = (TruncatedSpace.hardy, TruncatedSpace.lebesgue)
    return ProductSpace.of(*draw(st.lists(
        st.builds(lambda make, f, n: make(f, n), st.sampled_from(kinds),
                  st.integers(1, 3), st.integers(0, 3)), min_size=1, max_size=3)))


class TestShiftOps:
    @settings(max_examples=60, deadline=None)
    @given(space=shift_spaces(), seed=st.integers(0, 2 ** 32 - 1))
    def test_shift_rows_matches_dense_shifts(self, space, seed):
        # shift_rows and both axes of _moved against the dense block shift,
        # for every tuple of kinds; the triplets are those of a matrix with
        # zeros, signed zeros and exact entries
        rng = np.random.default_rng(seed)
        m = signed_zero_matrix(rng, space.dim, 3)
        wide = signed_zero_matrix(rng, 2, space.dim)
        for kinds in itertools.product(("forward", "backward"), repeat=len(space.parts)):
            x = block_shift_matrix(space, kinds)
            shifted = shift_rows(nonzero_triplets(m), space, kinds)
            np.testing.assert_array_equal(dense_matrix(shifted, m.shape), x @ m)
            moved = _moved(nonzero_triplets(m), 0, space, kinds)
            np.testing.assert_array_equal(dense_matrix(moved, m.shape), x @ m)
            moved = _moved(nonzero_triplets(wide), 1, space, kinds)
            np.testing.assert_array_equal(dense_matrix(moved, wide.shape), wide @ x.T)


class TestMixedOperators:
    def test_zero_symbol_gives_zero_operator(self):
        w = build_kernel_operator(zero_symbol(2, 2), 1, 4)
        assert not np.any(w.dense())

    def test_scalar_antianalytic_corner(self):
        w = build_kernel_operator(make_symbol(2, 2, {-1: [[1, 0], [0, 0]]}), 1, 3)
        expected = np.zeros((8, 8))
        expected[0, 0] = 1
        np.testing.assert_allclose(w.dense(), expected)

    def test_kernel_operator_rejects_non_analytic_blocks(self):
        with pytest.raises(ValueError, match="analytic"):
            build_kernel_operator(make_symbol(2, 2, {-1: [[0, 0], [1, 0]]}), 1, 4)

    def test_range_operator_rejects_non_analytic_blocks(self):
        with pytest.raises(ValueError, match="analytic"):
            build_range_operator(make_symbol(2, 2, {-1: [[1, 0], [0, 0]]}), 1, 4)

    @settings(max_examples=60, deadline=None)
    @given(case=mixed_symbols("bottom"))
    def test_kernel_operator_is_the_adjoint_of_hankel_over_toeplitz(self, case):
        # [H_C*, T_A*; H_D*, T_B*] = [H_C, H_D; T_A, T_B]^H entry for entry,
        # exact on the Hankel row's window (the analytic row loses nothing)
        psi, de, n = case
        c, d, a, b = split_square_blocks(psi, de)
        w = build_kernel_operator(psi, de, n)
        h_c, h_d = hankel_op(c, n), hankel_op(d, n)
        forward = np.block([[h_c.dense(), h_d.dense()],
                            [toeplitz_op(a, n).dense(), toeplitz_op(b, n).dense()]])
        np.testing.assert_array_equal(w.dense(), forward.conj().T)
        assert w.exact_window == min(h_c.exact_window, h_d.exact_window)

    @settings(max_examples=60, deadline=None)
    @given(case=mixed_symbols("top"))
    def test_range_operator_is_toeplitz_over_hankel(self, case):
        # [T_A, T_B; H_C, H_D] entry for entry, exact where every block is
        phi, de, n = case
        a, b, c, d = split_square_blocks(phi, de)
        v = build_range_operator(phi, de, n)
        blocks = [[toeplitz_op(a, n), toeplitz_op(b, n)],
                  [hankel_op(c, n), hankel_op(d, n)]]
        np.testing.assert_array_equal(
            v.dense(), np.block([[op.dense() for op in row] for row in blocks]))
        assert v.exact_window == min(op.exact_window for row in blocks for op in row)

    def test_replicated_evaluation_operator(self):
        # columns act as f |-> (f, f(0), f(0)) / sqrt(3) on the window
        r = 1 / np.sqrt(3)
        a = constant_symbol([[r]])
        b = zero_symbol(1, 2)
        c = make_symbol(2, 1, {-1: [[r], [r]]})
        d = zero_symbol(2, 2)
        v = build_range_operator(block_symbol([[a, b], [c, d]]), 1, 4)
        n = 4
        f_off = part_rows(v.codomain, 1).start
        for k in range(n + 1):
            image = v.dense()[:, k]
            expected = np.zeros(v.codomain.dim)
            expected[k] = r
            if k == 0:
                # degree-0 coordinates of both fibers of the second part
                expected[f_off] = r
                expected[f_off + 1] = r
            np.testing.assert_allclose(image, expected, atol=1e-14)

    def test_analytic_only_bottom_rows_zero(self):
        a = constant_symbol([[1.0]])
        b = make_symbol(1, 1, {1: [1]})
        v = build_range_operator(block_symbol([[a, b], [zero_symbol(1, 1), zero_symbol(1, 1)]]), 1, 4)
        bottom = v.dense()[part_rows(v.codomain, 1), :]
        assert not np.any(bottom)

    def test_timotin_block_layout(self):
        v = build_range_operator(timotin_phi(), 1, 4)
        top_left = v.dense()[part_rows(v.codomain, 0), part_rows(v.domain, 0)]
        bottom_left = v.dense()[part_rows(v.codomain, 1), part_rows(v.domain, 0)]
        np.testing.assert_allclose(top_left, RS2 * np.eye(5))
        expected = np.zeros((5, 5))
        expected[0, 0] = RS2
        np.testing.assert_allclose(bottom_left, expected)


@st.composite
def signed_zero_symbols(draw, rows, cols, analytic=False):
    """Symbols whose coefficients hold 0, -0.0, complex(-0.0, -0.0),
    single-part and exact entries, with bands down to k = -10."""
    kmin = draw(st.integers(0 if analytic else -10, 3))
    kmax = draw(st.integers(kmin, kmin + 4))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return make_symbol(rows, cols, {k: signed_zero_matrix(rng, rows, cols)
                                    for k in range(kmin, kmax + 1)})


class TestBuilders:
    """Each builder emits exactly the entries != 0 of the dense matrix the
    reference builders in conftest write block by block, in the row-major
    order of np.nonzero: signed zeros dropped, single-part entries kept."""

    @staticmethod
    def check(op, ref):
        for got, want in zip(op.entries, nonzero_triplets(ref)):
            np.testing.assert_array_equal(got, want)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), rows=st.integers(1, 2), cols=st.integers(1, 2))
    def test_toeplitz(self, data, rows, cols):
        s = data.draw(signed_zero_symbols(rows, cols))
        n = data.draw(st.integers(max(-s.kmin, s.kmax), 10))
        self.check(toeplitz_op(s, n), ref_toeplitz(s, n))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), rows=st.integers(1, 2), cols=st.integers(1, 2),
           n=st.integers(0, 8))
    def test_hankel(self, data, rows, cols, n):
        # bands reach k = -10, deeper than n + 1 for small n
        s = data.draw(signed_zero_symbols(rows, cols))
        self.check(hankel_op(s, n), ref_hankel(s, n))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), de=st.integers(1, 2), df=st.integers(1, 2))
    def test_range_operator(self, data, de, df):
        top = [data.draw(signed_zero_symbols(de, cols, analytic=True)) for cols in (de, df)]
        bottom = [data.draw(signed_zero_symbols(df, cols)) for cols in (de, df)]
        n = data.draw(st.integers(max(s.kmax for s in top), 10))
        phi = block_symbol([top, bottom])
        self.check(build_range_operator(phi, de, n), ref_range_operator(phi, de, n))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), de=st.integers(1, 2), df=st.integers(1, 2))
    def test_kernel_operator(self, data, de, df):
        top = [data.draw(signed_zero_symbols(de, cols)) for cols in (de, df)]
        bottom = [data.draw(signed_zero_symbols(df, cols, analytic=True)) for cols in (de, df)]
        n = data.draw(st.integers(max(s.kmax for s in bottom), 10))
        psi = block_symbol([top, bottom])
        self.check(build_kernel_operator(psi, de, n), ref_kernel_operator(psi, de, n))

    def test_entry_outside_the_spaces_rejected(self):
        space = ProductSpace.of(TruncatedSpace.hardy(1, 2))
        with pytest.raises(ValueError, match="outside"):
            OperatorMatrix(space, space, Triplets(np.array([3]), np.array([0]), np.ones(1)), 2)


class TestLeadingSection:
    """The leading section at m of a mixed operator built at n >= m is the
    builder's operator at m: the same entries in the same order, with their
    dtypes, the same spaces and window, or the same band error."""

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), de=st.integers(1, 2), df=st.integers(1, 2),
           kind=st.sampled_from(["range", "kernel"]))
    def test_section_is_the_build(self, data, de, df, kind):
        # the other block row reaches k = -10, deeper than m + 1 for small m
        analytic = [kind == "range", kind == "kernel"]
        grid = [[data.draw(signed_zero_symbols(r, c, analytic=a)) for c in (de, df)]
                for r, a in zip((de, df), analytic)]
        build = build_range_operator if kind == "range" else build_kernel_operator
        n = data.draw(st.integers(max(s.kmax for s in grid[analytic.index(True)]), 12))
        m = data.draw(st.integers(0, n))
        sym = block_symbol(grid)
        deepest = build(sym, de, n)
        assert_same_build(lambda: leading_section(deepest, m), lambda: build(sym, de, m))

    def test_deep_band_keeps_its_entries(self):
        # C = zbar + zbar^9: at m = 2 the band is deeper than m + 1, so the
        # window is -1, but the zbar entry is still formed
        phi = block_symbol([[constant_symbol([[1.0]]), zero_symbol(1, 1)],
                            [make_symbol(1, 1, {-9: [1], -1: [1]}), zero_symbol(1, 1)]])
        section = leading_section(build_range_operator(phi, 1, 10), 2)
        assert section.exact_window == -1 and section.entries.rows.size == 4
        assert_same_build(lambda: section, lambda: build_range_operator(phi, 1, 2))

    def test_band_error_names_the_section(self):
        # the Toeplitz block z^3 needs n >= 3: the section at 2 fails as the
        # build at 2 does, and a truncation above the build is refused
        phi = block_symbol([[monomial_symbol(3, [[1.0]]), zero_symbol(1, 1)],
                            [zero_symbol(1, 1), zero_symbol(1, 1)]])
        deepest = build_range_operator(phi, 1, 8)
        with pytest.raises(ValueError, match=r"truncation n = 2 is smaller than the symbol band \[3, 3\]"):
            leading_section(deepest, 2)
        with pytest.raises(ValueError, match="not a leading section"):
            leading_section(deepest, 9)


class TestWindowTightness:
    """The exactness window is tight, checked against a deeper truncation:
    the deeper matrix agrees on the window columns and stays inside degrees
    0..n there, and generic symbols leave 0..n one degree past the window."""

    @staticmethod
    def check_tight(build, n, band):
        shallow, deep = build(n), build(n + band + 8)
        w = shallow.exact_window
        rows = deep.codomain.window_indices(n)
        outside = np.delete(np.arange(deep.codomain.dim), rows)
        cols = deep.domain.window_indices(w)
        np.testing.assert_array_equal(deep.dense(rows, cols),
                                      shallow.dense(cols=shallow.domain.window_indices(w)))
        assert not np.any(deep.dense(outside, cols))
        if w < n:
            beyond = np.setdiff1d(deep.domain.window_indices(w + 1), cols)
            assert np.any(deep.dense(outside, beyond))

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), rows=st.integers(1, 2), cols=st.integers(1, 2))
    def test_toeplitz(self, data, rows, cols):
        s = data.draw(band_symbols(rows, cols))
        n = data.draw(st.integers(max(-s.kmin, s.kmax), 10))
        self.check_tight(lambda m: toeplitz_op(s, m), n, s.bandwidth)

    @settings(max_examples=40, deadline=None)
    @given(s=st.tuples(st.integers(1, 2), st.integers(1, 2)).flatmap(
               lambda shape: band_symbols(*shape)),
           n=st.integers(0, 8))
    @example(s=DEEP, n=0)
    def test_hankel(self, s, n):
        self.check_tight(lambda m: hankel_op(s, m), n, max(s.bandwidth, -s.kmin))

    @settings(max_examples=40, deadline=None)
    @given(case=mixed_symbols("top"))
    @example(case=(block_symbol([[ONE, ONE], [DEEP, DEEP]]), 1, 0))
    def test_range_operator(self, case):
        phi, de, n = case
        self.check_tight(lambda m: build_range_operator(phi, de, m), n,
                         max(phi.bandwidth, -phi.kmin))

    @settings(max_examples=40, deadline=None)
    @given(case=mixed_symbols("bottom"))
    @example(case=(block_symbol([[DEEP, DEEP], [ONE, ONE]]), 1, 0))
    def test_kernel_operator(self, case):
        psi, de, n = case
        self.check_tight(lambda m: build_kernel_operator(psi, de, m), n,
                         max(psi.bandwidth, -psi.kmin))


def reference_flag(op, tol):
    """The two-sided partial-isometry flag with both sides always computed:
    window columns binary, or window rows binary."""
    def binary(m):
        if m.size == 0:
            return False
        sv = np.linalg.svd(m, compute_uv=False)
        return bool(np.all((sv <= tol) | (np.abs(sv - 1.0) <= tol)))
    rows = op.codomain.window_indices(op.exact_window)
    cols = op.domain.window_indices(op.exact_window)
    return binary(op.dense(cols=cols)) or binary(op.dense(rows=rows))


@st.composite
def operator_cases(draw):
    """(operator, kind): mixed operators built from column isometries
    (partial isometries), from a tall isometric block (only the domain side
    is binary), and from generic symbols, the first two also drawn scaled
    off isometry; kind is "kernel" for a kernel operator, else "range"."""
    family = draw(st.sampled_from(["inner", "tall", "generic"]))
    scale = draw(st.sampled_from([1.0, 0.5, 2.0]))
    kernel_form = draw(st.booleans())
    if family == "inner":
        from conftest import inner_mixture
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
        de, df = draw(st.integers(1, 2)), draw(st.integers(1, 2))
        u, _, _ = inner_mixture(rng, de, df, draw(st.integers(de, de + df)))
        sym = kernel_symbol_from_u(u, de, df) if kernel_form \
            else range_symbol_from_u(u, de, df)
        sym = scaled(sym, scale)
        n = draw(st.integers(2, 8))
    elif family == "tall":
        kernel_form = False
        df = draw(st.integers(1, 2))
        p = draw(st.integers(1, 3))
        a = make_symbol(2, 2, {0: [[0, 0], [RS2, 0]], p: [[RS2, 0], [0, 0]]})
        de = 2
        sym = block_symbol([[scaled(a, scale), zero_symbol(2, df)],
                            [zero_symbol(df, 2), zero_symbol(df, df)]])
        n = draw(st.integers(p, 8))
    else:
        de, df = draw(st.integers(1, 2)), draw(st.integers(1, 2))
        if kernel_form:
            blocks = [draw(band_symbols(de, de)), draw(band_symbols(de, df)),
                      draw(band_symbols(df, de, analytic=True)),
                      draw(band_symbols(df, df, analytic=True))]
            analytic = blocks[2:]
        else:
            blocks = [draw(band_symbols(de, de, analytic=True)),
                      draw(band_symbols(de, df, analytic=True)),
                      draw(band_symbols(df, de)), draw(band_symbols(df, df))]
            analytic = blocks[:2]
        sym = block_symbol([blocks[:2], blocks[2:]])
        n = draw(st.integers(max(s.kmax for s in analytic), 10))
    build = build_kernel_operator if kernel_form else build_range_operator
    return build(sym, de, n), "kernel" if kernel_form else "range"


@st.composite
def planted_cases(draw):
    """operator_cases, and half of the time one entry set to a random value
    inside the window rows and columns, which no shift identity survives."""
    op, kind = draw(operator_cases())
    rows = op.codomain.window_indices(op.exact_window)
    cols = op.domain.window_indices(op.exact_window)
    if rows.size and draw(st.booleans()):
        m = op.dense()
        value = complex(*draw(st.tuples(*[st.floats(-2, 2, allow_nan=False)] * 2)))
        m[draw(st.sampled_from(rows)), draw(st.sampled_from(cols))] = value
        op = OperatorMatrix(op.domain, op.codomain, nonzero_triplets(m), op.exact_window)
    return op, kind


def intertwining_window(op, kind):
    """The window intertwining_residual keeps, as it computes it."""
    n = op.domain.parts[0].deg_hi
    return min(op.exact_window, n) - 1 if kind == "range" else min(op.exact_window, n - 1)


def planted_timotin(kind):
    """The timotin operator of kind at n = 16 with one entry inside the
    window replaced, so the intertwining residual is not exactly zero."""
    build, sym = {"range": (build_range_operator, timotin_phi()),
                  "kernel": (build_kernel_operator, timotin_psi())}[kind]
    op = build(sym, 1, 16)
    m = op.dense()
    m[5, 7] = 0.25 - 0.5j
    return OperatorMatrix(op.domain, op.codomain, nonzero_triplets(m), op.exact_window)


def diagonal_operator(v):
    """The 2 x 2 diagonal (v, 2v) on two degree-0 Hardy windows, all of it
    in the window: its Gram matrix underflows at v = 1e-200 and overflows
    at v = 1e200 unless the entries are scaled first."""
    return diagonal_of(v, 2 * v)


def diagonal_of(*values):
    """The diagonal matrix of values on as many degree-0 Hardy windows, all
    of it in the window."""
    space = ProductSpace.of(*[TruncatedSpace.hardy(1, 0)] * len(values))
    at = np.arange(len(values))
    return OperatorMatrix(space, space, Triplets(at, at, np.array(values, dtype=complex)), 0)


def shared_row_matrix(q=500, shared=400, b=np.sqrt(6e-16)):
    """The (q + 1) x q matrix with column j holding 1 at row j + 1, and row 0
    holding b in the first ``shared`` columns, as a window-wide operator.
    Every Gram cosine between two columns is b**2 = 6e-16, below the
    NEGLIGIBLE eps = 8.9e-16 that couples them, yet together they raise the
    top singular value to sqrt(1 + shared b**2), 1 + 1.2e-13."""
    rows = np.concatenate([np.arange(q) + 1, np.zeros(shared, dtype=int)])
    cols = np.concatenate([np.arange(q), np.arange(shared)])
    vals = np.concatenate([np.ones(q), np.full(shared, b)]).astype(complex)
    domain = ProductSpace.of(TruncatedSpace.hardy(1, q - 1))
    codomain = ProductSpace.of(TruncatedSpace.hardy(1, q))
    return OperatorMatrix(domain, codomain, linalg.row_major(Triplets(rows, cols, vals)), q)


class TestSvdAnalysis:
    def test_rank_one_hankel(self):
        assert svd_analysis(hankel_op(make_symbol(1, 1, {-1: [1]}), 8))

    def test_truncated_shift_is_window_isometry(self):
        assert svd_analysis(toeplitz_op(make_symbol(1, 1, {1: [1]}), 8))

    @pytest.mark.parametrize("tol", [1e-8, 2.0])
    def test_zero_operator(self, tol):
        # every singular value is 0, so the zero operator is a partial
        # isometry; at tol >= 1 the Penrose bound tol (1 - tol^2) is <= 0 and
        # certifies nothing, so the SVD decides
        assert svd_analysis(toeplitz_op(zero_symbol(2, 2), 3), tol)

    def test_mixed_partial_isometries(self):
        v = build_range_operator(timotin_phi(), 1, 8)
        w = build_kernel_operator(timotin_psi(), 1, 8)
        assert svd_analysis(v)
        assert svd_analysis(w)

    def test_empty_window_certifies_nothing(self):
        h = hankel_op(make_symbol(1, 1, {-5: [1]}), 2)
        assert h.exact_window == -1
        assert not svd_analysis(h)

    @settings(max_examples=60, deadline=None)
    @given(case=planted_cases(), tol=st.sampled_from([1e-8, 1e-4]))
    def test_flag_matches_two_sided_reference(self, case, tol):
        assert svd_analysis(case[0], tol) == reference_flag(case[0], tol)

    @staticmethod
    def column_kernel_operator(n):
        """Kernel operator of U = [1; z] / sqrt(2), outside the theorem's
        class; its window keeps every row and column."""
        u = make_symbol(2, 1, {0: [[RS2], [0]], 1: [[0], [RS2]]})
        w = build_kernel_operator(kernel_symbol_from_u(u, 1, 1), 1, n)
        assert w.exact_window == n
        return w

    @pytest.mark.parametrize("u", ["timotin", "replicated-1-2"])
    def test_partial_isometries_need_no_svd(self, u, monkeypatch):
        # the Penrose certificate passes the mixed operators of the workloads
        # on their nonzero entries: no SVD, and no dense window slice
        calls, original, dense = [], operators.singular_values, OperatorMatrix.dense
        monkeypatch.setattr(operators, "singular_values",
                            lambda m: calls.append(m.shape) or original(m))
        monkeypatch.setattr(OperatorMatrix, "dense",
                            lambda op, *args, **kwargs: calls.append("dense")
                            or dense(op, *args, **kwargs))
        sym_u, de, df = {"timotin": (cli.timotin_u(), 1, 1),
                         "replicated-1-2": (cli.replicated_u(1, 2), 1, 2)}[u]
        v = build_range_operator(range_symbol_from_u(sym_u, de, df), de, 64)
        w = build_kernel_operator(kernel_symbol_from_u(sym_u, de, df), de, 64)
        assert svd_analysis(v) and svd_analysis(w)
        assert calls == []

    def test_full_window_factored_once(self, monkeypatch):
        # both compressions are the whole matrix, so one SVD decides the flag
        w = self.column_kernel_operator(64)
        shapes = []
        original = operators.singular_values

        def counted(m):
            shapes.append(m.shape)
            return original(m)

        monkeypatch.setattr(operators, "singular_values", counted)
        assert not svd_analysis(w)
        assert shapes == [(130, 130)]


class TestIntertwining:
    def test_randomized_blocks_exact_on_window(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            de = int(rng.integers(1, 4))
            df = int(rng.integers(1, 4))
            v = build_range_operator(block_symbol([
                [rand_symbol(rng, de, de, 0, 3), rand_symbol(rng, de, df, 0, 3)],
                [rand_symbol(rng, df, de, -3, 3), rand_symbol(rng, df, df, -3, 3)]]), de, 16)
            assert intertwining_residual(v, "range") <= 1e-10
            w = build_kernel_operator(block_symbol([
                [rand_symbol(rng, de, de, -3, 3), rand_symbol(rng, de, df, -3, 3)],
                [rand_symbol(rng, df, de, 0, 3), rand_symbol(rng, df, df, 0, 3)]]), de, 16)
            assert intertwining_residual(w, "kernel") <= 1e-10

    def test_zero_symbol(self):
        v = build_range_operator(zero_symbol(2, 2), 1, 6)
        assert intertwining_residual(v, "range") == 0

    def test_degree_one_blocks_small_truncation(self):
        v = build_range_operator(timotin_phi(), 1, 8)
        assert intertwining_residual(v, "range") <= 1e-12
        w = build_kernel_operator(timotin_psi(), 1, 8)
        assert intertwining_residual(w, "kernel") <= 1e-12

    def test_window_empty_raises(self):
        v = build_range_operator(make_symbol(2, 2, {3: [[1, 0], [0, 0]]}), 1, 3)
        with pytest.raises(ValueError, match="window"):
            intertwining_residual(v, "range")


class TestTripletChecks:
    """The operator checks read the nonzero entries; each must agree with
    the dense computation it replaces (the references in conftest), on
    operators that satisfy the identities and on operators with an entry
    planted inside the window, which do not."""

    @settings(max_examples=80, deadline=None)
    @given(case=planted_cases())
    def test_intertwining_matches_dense_reference(self, case):
        op, kind = case
        if intertwining_window(op, kind) < 0:
            with pytest.raises(ValueError, match="window"):
                intertwining_residual(op, kind)
            return
        # the residual's nonzero core is the array the dense SVD factors
        assert intertwining_residual(op, kind) == ref_intertwining_residual(op, kind)

    @pytest.mark.parametrize("kind", ["range", "kernel"])
    def test_planted_entry_leaves_a_residual(self, kind):
        op = planted_timotin(kind)
        resid = intertwining_residual(op, kind)
        assert resid > 0.1
        assert resid == ref_intertwining_residual(op, kind)

    @settings(max_examples=80, deadline=None)
    @given(case=planted_cases())
    def test_penrose_defect_matches_dense_reference(self, case):
        op, _ = case
        rows = op.codomain.window_indices(op.exact_window)
        cols = op.domain.window_indices(op.exact_window)
        for side, dense in ((_within(op.entries, 0, rows, op.codomain.dim), op.dense(rows=rows)),
                            (_within(op.entries, 1, cols, op.domain.dim), op.dense(cols=cols))):
            assert _penrose_defect(side) == pytest.approx(ref_penrose_norm(dense),
                                                          rel=1e-10, abs=1e-12)

    @settings(max_examples=80, deadline=None)
    @given(case=planted_cases())
    @example(case=(diagonal_operator(1e-200), "range"))
    @example(case=(diagonal_operator(1e200), "range"))
    def test_nehari_lower_bound_is_the_dense_norm(self, case):
        # the top Ritz value of the Lanczos iteration on the short side's
        # W* W is not the SVD's rounding: it keeps relative accuracy of
        # order eps, here held to about 450 eps
        op, _ = case
        cols = op.domain.window_indices(op.exact_window)
        assert nehari_lower_bound(op) == pytest.approx(spectral_norm(op.dense(cols=cols)),
                                                       rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("case", ["banded", "dense"])
    def test_both_product_routes_match_the_dense_reference(self, case, monkeypatch):
        # a banded operator takes the sparse products; a dense matrix has
        # more product terms than entries and is multiplied densely
        routes, original = [], operators.sparse_product

        def spied(a, b, limit):
            product = original(a, b, limit)
            routes.append(product is not None)
            return product

        # the Gram step (linalg.short_gram) forms W* W, the certificate W (W* W)
        monkeypatch.setattr(linalg, "sparse_product", spied)
        monkeypatch.setattr(operators, "sparse_product", spied)
        if case == "banded":
            m = build_range_operator(timotin_phi(), 1, 32).dense()
        else:
            rng = np.random.default_rng(4)
            m = rng.standard_normal((7, 5)) + 1j * rng.standard_normal((7, 5))
        assert _penrose_defect(nonzero_triplets(m)) == pytest.approx(ref_penrose_norm(m),
                                                                     rel=1e-10, abs=1e-12)
        assert routes == ([True, True] if case == "banded" else [False])


class TestPenroseBound:
    """``_penrose_defect`` multiplies only the columns its Gram matrix
    couples and bounds the Gram entries it drops by ||W||_2 ||X||_F, so it
    never reads below ||V V* V - V||_F but by rounding, however small each
    dropped entry is."""

    @staticmethod
    def further_products(monkeypatch):
        """The operand sizes of every sparse product after the Gram step."""
        sizes, original = [], operators.sparse_product

        def recorded(a, b, limit):
            sizes.append((a.rows.size, b.rows.size))
            return original(a, b, limit)

        monkeypatch.setattr(operators, "sparse_product", recorded)
        return sizes

    def test_shared_row_is_not_certified(self):
        # each cross cosine is dropped, yet the top singular value is
        # 1 + 1.2e-13, outside the band at tol = 1e-13: without the
        # ||W||_2 ||X||_F term the value reads 1.3e-14 and certifies
        op = shared_row_matrix()
        m = op.dense()
        assert _penrose_defect(op.entries) >= ref_penrose_norm(m) * (1 - 1e-10)
        assert not _penrose_certified(op.entries, 1e-13)
        assert svd_analysis(op, 1e-13) == reference_flag(op, 1e-13)

    @settings(max_examples=80, deadline=None)
    @given(case=planted_cases())
    @example(case=(diagonal_operator(1e-200), "range"))
    @example(case=(diagonal_operator(1e200), "range"))
    @example(case=(diagonal_of(1e-150, 1.0, 1e50), "range"))
    def test_never_below_the_dense_reference(self, case):
        op, _ = case
        rows = op.codomain.window_indices(op.exact_window)
        cols = op.domain.window_indices(op.exact_window)
        for side, dense in ((_within(op.entries, 0, rows, op.codomain.dim), op.dense(rows=rows)),
                            (_within(op.entries, 1, cols, op.domain.dim), op.dense(cols=cols))):
            # "not below", as at 1e200 the value is inf and the dense oracle's
            # complex products of inf read nan
            with np.errstate(over="ignore", invalid="ignore"):
                assert not _penrose_defect(side) < ref_penrose_norm(dense) * (1 - 1e-10) - 1e-15

    @pytest.mark.parametrize("op", [diagonal_operator(1e-200), diagonal_operator(1e200),
                                    diagonal_of(1e-150, 1.0, 1e50)],
                             ids=["1e-200", "1e200", "mixed"])
    def test_uncoupled_columns_take_the_closed_form(self, op, monkeypatch):
        # no Gram entry off the diagonal, so no column is coupled: the value
        # is sqrt(sum of G_jj (G_jj - 1)^2), with no product after the Gram
        # step; G underflows to 0 at 1e-200 and overflows to inf at 1e200
        sizes = self.further_products(monkeypatch)
        with np.errstate(over="ignore"):
            gram = np.abs(op.entries.vals) ** 2
            closed = float(np.sqrt(np.sum(gram * (gram - 1.0) ** 2)))
            assert _penrose_defect(op.entries) == pytest.approx(closed, rel=1e-12, abs=0.0)
        assert sizes == []

    @pytest.mark.parametrize("n", [256, 4096])
    @pytest.mark.parametrize("path", ["operators-wide-seed0/replicated-1-2-rot0.json",
                                      "sweep-dense-seed0/timotin-rot.json"])
    def test_further_products_stay_small(self, path, n, monkeypatch):
        # a work count, not a timing: whatever n is, no operand of a sparse
        # product after the Gram step holds more than 9 entries
        sizes = self.further_products(monkeypatch)
        sc = cli.parse_scenario(str(CORPUS / path))
        report = cli.run(replace(sc, n_list=(n,), checks=("partial_isometry",)))
        assert report.exit_status == 0
        assert sizes and max(max(pair) for pair in sizes) <= 9


class TestNoOperatorSizedCopies:
    """Building a mixed operator as its nonzero entries, the partial-isometry
    flag of a certified operator and the intertwining residual allocate
    nothing near the size of the dense operator (numpy's allocations, seen
    by tracemalloc)."""

    @staticmethod
    def peak_bytes(call):
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @staticmethod
    def replicated_operator(kind):
        """The n = 128 operator of kind for replicated_u(1, 2), and the bytes
        of its dense complex matrix."""
        u = cli.replicated_u(1, 2)
        build, sym = ((build_range_operator, range_symbol_from_u(u, 1, 2)) if kind == "range"
                      else (build_kernel_operator, kernel_symbol_from_u(u, 1, 2)))
        op = build(sym, 1, 128)
        return op, 16 * op.domain.dim ** 2, lambda: build(sym, 1, 128)

    @pytest.mark.parametrize("kind", ["range", "kernel"])
    def test_operator_build_stays_small(self, kind):
        _, size, build = self.replicated_operator(kind)
        assert self.peak_bytes(build) < size / 8

    @pytest.mark.parametrize("kind", ["range", "kernel"])
    def test_operator_checks_stay_small(self, kind):
        op, size, _ = self.replicated_operator(kind)
        assert self.peak_bytes(lambda: svd_analysis(op)) < size / 8
        assert self.peak_bytes(lambda: intertwining_residual(op, kind)) < size / 8


class TestStructureCharacterizations:
    def test_toeplitz_shift_compression(self):
        rng = np.random.default_rng(5)
        for _ in range(4):
            rows, cols = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            s = rand_symbol(rng, rows, cols, -3, 3)
            n = 16
            t = toeplitz_op(s, n)
            fwd_c = shift_matrix(TruncatedSpace.hardy(cols, n), "forward")
            bwd_r = shift_matrix(TruncatedSpace.hardy(rows, n), "backward")
            resid = bwd_r @ t.dense() @ fwd_c - t.dense()
            w = t.exact_window - 1
            cols_idx = t.domain.window_indices(w)
            assert spectral_norm(resid[:, cols_idx]) <= 1e-12

    def test_hankel_shift_intertwining(self):
        rng = np.random.default_rng(6)
        for _ in range(4):
            rows, cols = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            s = rand_symbol(rng, rows, cols, -3, 3)
            n = 16
            h = hankel_op(s, n)
            fwd_c = shift_matrix(TruncatedSpace.hardy(cols, n), "forward")
            bwd_r = shift_matrix(TruncatedSpace.hardy(rows, n), "backward")
            resid = h.dense() @ fwd_c - bwd_r @ h.dense()
            cols_idx = h.domain.window_indices(n - 1)
            assert spectral_norm(resid[:, cols_idx]) <= 1e-12


class TestMixedIsometryIdentities:
    """Completeness identities of the mixed operators built from column
    isometries: the operators plus the matching analytic compressions
    resolve the identity on the exactness window."""

    def _draw(self, rng, unitary):
        from conftest import inner_mixture
        dim_e = int(rng.integers(1, 4))
        dim_f = int(rng.integers(1, 4))
        dim_e0 = dim_e + dim_f if unitary else int(rng.integers(dim_e, dim_e + dim_f))
        return dim_e, dim_f, inner_mixture(rng, dim_e, dim_f, dim_e0)

    def test_kernel_operator_completeness(self):
        # W W* + T* T = I on the window, with T the analytic compression
        # of the first-fiber block
        rng = np.random.default_rng(21)
        for trial in range(6):
            dim_e, dim_f, (u, a_prime, c_sym) = self._draw(rng, trial % 2 == 0)
            n = 12
            a_flip = a_prime.conj_arg()
            w_rect = np.hstack([
                hankel_op(a_flip.entry_conj(), n).dense(),
                toeplitz_op(c_sym.adjoint(), n).dense(),
            ])
            t = toeplitz_op(a_flip, n)
            w = n - max(0, a_prime.kmax, c_sym.kmax)
            idx_dom = t.domain.window_indices(w)
            lhs = (w_rect @ w_rect.conj().T + t.dense().conj().T @ t.dense())
            gap = np.max(np.abs(lhs[np.ix_(idx_dom, idx_dom)] - np.eye(idx_dom.size)))
            assert gap <= 1e-10

    def test_range_operator_completeness(self):
        # V* V + T T* = I on the window, with T built from the adjoint of
        # the flipped second-fiber block; needs that block co-isometric
        rng = np.random.default_rng(22)
        for trial in range(6):
            dim_e, dim_f, (u, a_prime, c_sym) = self._draw(rng, unitary=True)
            n = 12
            c_flip = c_sym.conj_arg()
            v_rect = np.vstack([
                toeplitz_op(monomial_symbol(1, np.eye(dim_e)) @ a_prime, n).dense(),
                hankel_op(c_flip, n).dense(),
            ])
            t = toeplitz_op(c_flip.adjoint(), n)
            w = n - max(0, c_flip.adjoint().kmax, 1 + a_prime.kmax)
            idx = t.domain.window_indices(w)
            lhs = v_rect.conj().T @ v_rect + t.dense() @ t.dense().conj().T
            gap = np.max(np.abs(lhs[np.ix_(idx, idx)] - np.eye(idx.size)))
            assert gap <= 1e-10


class TestNehari:
    def _phi_for_scalar_d(self, d):
        z11 = zero_symbol(1, 1)
        return block_symbol([[z11, z11], [z11, d]])

    def test_rank_one_distance(self):
        d = make_symbol(1, 1, {-1: [1]})
        phi = self._phi_for_scalar_d(d)
        lows = swept_lower_bounds(phi, 1, [4, 8])
        upper = nehari_bounds(phi, 1, [(zero_symbol(1, 1), zero_symbol(1, 1))])
        for lo in lows:
            assert abs(lo - 1.0) <= 1e-10
        assert abs(upper[0] - 1.0) <= 1e-10
        assert abs(upper[0] - lows[-1]) <= 1e-10

    def test_analytic_blocks_toeplitz_norm(self):
        a = make_symbol(1, 1, {0: [1], 1: [0.5]})
        b = zero_symbol(1, 1)
        c = make_symbol(1, 1, {0: [0.25]})
        d = make_symbol(1, 1, {1: [0.5]})
        phi = block_symbol([[a, b], [c, d]])
        lows = swept_lower_bounds(phi, 1, [4, 8, 16, 32])
        assert all(x <= y + 1e-12 for x, y in zip(lows, lows[1:]))
        # with the analytic candidates the bottom row cancels, so the
        # upper bound is the sup-norm of the top row; the sweep closes
        # the bracket from below
        [upper] = nehari_bounds(phi, 1, [(c, d)])
        assert abs(upper - 1.5) <= 1e-12
        gaps = [upper - lo for lo in lows]
        assert gaps[-1] >= -1e-10
        assert gaps[-1] < gaps[0]
        assert gaps[-1] <= 0.05 * upper

    def test_hankel_ignores_analytic_part(self):
        d = make_symbol(1, 1, {-1: [2], 1: [1]})
        phi = self._phi_for_scalar_d(d)
        cand = (zero_symbol(1, 1), make_symbol(1, 1, {1: [1]}))
        assert abs(swept_lower_bounds(phi, 1, [4, 8])[-1] - 2.0) <= 1e-8
        assert abs(nehari_bounds(phi, 1, [cand])[0] - 2.0) <= 1e-8

    @pytest.mark.parametrize("seed", range(6))
    def test_upper_bounds_match_the_pointwise_loop(self, seed):
        # all circle points at once, in chunks, against one eval_at and one
        # spectral_norm per point; z**k there rounds differently from the
        # root of index k j mod N, by a few eps times k
        rng = np.random.default_rng(seed)
        dim_e, dim_f = (int(x) for x in rng.integers(1, 3, 2))

        def sparse_symbol(rows, cols, degrees):
            return make_symbol(rows, cols, {int(k): rng.standard_normal((rows, cols))
                                            + 1j * rng.standard_normal((rows, cols))
                                            for k in rng.choice(degrees, 3, replace=False)})

        phi = sparse_symbol(dim_e + dim_f, dim_e + dim_f, np.arange(-6, 7))
        candidates = [(sparse_symbol(dim_f, dim_e, np.arange(0, 40)),
                       sparse_symbol(dim_f, dim_f, np.arange(0, 40))),
                      (zero_symbol(dim_f, dim_e), zero_symbol(dim_f, dim_f))]
        for (l1, l2), upper in zip(candidates, nehari_bounds(phi, dim_e, candidates)):
            completed = phi - block_symbol([[zero_symbol(dim_e, dim_e), zero_symbol(dim_e, dim_f)],
                                            [l1, l2]])
            band = max(s.bandwidth for s in split_square_blocks(completed, dim_e))
            ref = max(spectral_norm(eval_at(completed, z))
                      for z in unit_circle_points(4 * band + 1))
            assert upper == pytest.approx(ref, rel=1e-12)

    def test_non_analytic_candidate_rejected(self):
        d = make_symbol(1, 1, {-1: [1]})
        phi = self._phi_for_scalar_d(d)
        with pytest.raises(ValueError, match="analytic"):
            nehari_bounds(phi, 1, [(zero_symbol(1, 1), d)])

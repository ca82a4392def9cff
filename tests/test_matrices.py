"""Matrix layer: unit algebra, corners, commutators, the Jordan product,
symmetry predicates and the checked symmetric/skew types, and the shift
probe."""

import operator
import random
import subprocess
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from derivring import (
    BaseDerivation,
    DomainError,
    InnerDerivation,
    JordanPairDerivation,
    Matrix,
    PolyRing,
    SkewMatrix,
    SymmetricMatrix,
    TwoLocalOracle,
    WitnessFamily,
    Zmod,
    check_corner_consistency,
    check_cross_corner,
    commutator,
    entrywise,
    jordan_mul,
    matrix_unit,
    probe_x0,
    symmetric_part,
    two_generator_check,
)
from derivring import matrices, rings
from derivring.matrices import require_shape
from derivring.sampling import random_matrix, random_symmetric
from test_jordan import (
    corner,
    jordan_unit,
    literal_commutator,
    literal_jordan_mul,
    random_skew,
)

Z5 = Zmod(5)
Z9 = Zmod(9)
P5 = PolyRing(Z5)
P9 = PolyRing(Z9)
BIG = Zmod(10**61 + 3)  # an odd modulus of 62 digits
KERNEL_RINGS = [Z5, Z9, BIG, P5, P9]


def ref_matmul(rows_a, rows_b, m):
    """Schoolbook reference multiply over Z_m, independent of Matrix."""
    n = len(rows_a)
    return [
        [sum(rows_a[i][k] * rows_b[k][j] for k in range(n)) % m for j in range(n)]
        for i in range(n)
    ]


def schoolbook(x, y):
    """One partial product: Z_m elements multiply as they always have;
    polynomials by the schoolbook rule, so the reference shares nothing
    with the kernel's Kronecker packing."""
    ring = x.ring
    if isinstance(ring, Zmod):
        return x * y
    out = [0] * (len(x.payload) + len(y.payload))
    for i, c in enumerate(x.payload):
        for j, d in enumerate(y.payload):
            out[i + j] += c * d
    return ring.element(out)


def elements(mat):
    """The entries of `mat` as ring elements, row-major."""
    n = mat.n
    return [mat.entry(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]


def is_canonical(ring, payload):
    """A payload of `ring`'s type that canonicalizes to itself."""
    return (
        type(payload) is type(ring.zero.payload)
        and ring.element(payload).payload == payload
    )


def literal_product(a, b):
    """Reference: the per-entry triple loop Matrix.__mul__ ran before the
    payload kernel, one element per partial product."""
    require_shape(b, a.ring, a.n)
    n, ring = a.n, a.ring
    ea, eb = elements(a), elements(b)
    out = [ring.zero] * (n * n)
    for i in range(n):
        for k in range(n):
            aik = ea[i * n + k]
            if aik.is_zero():
                continue
            for j in range(n):
                bkj = eb[k * n + j]
                if not bkj.is_zero():
                    out[i * n + j] = out[i * n + j] + schoolbook(aik, bkj)
    return Matrix(ring, n, tuple(x.payload for x in out))


def modulus(ring):
    return ring.modulus if isinstance(ring, Zmod) else ring.base.modulus


def random_entries(ring, n, rng, degree, zero_share):
    """n*n canonical entries; about `zero_share` of them zero, the rest
    uniform with up to degree + 1 coefficients (any value on Z_m)."""
    m = modulus(ring)
    rows = []
    for _ in range(n):
        row = []
        for _ in range(n):
            if rng.random() < zero_share:
                row.append(0)
            elif isinstance(ring, Zmod):
                row.append(rng.randrange(m))
            else:
                size = rng.randint(1, degree + 1)
                row.append([rng.randrange(m) for _ in range(size)])
        rows.append(row)
    return Matrix.from_rows(ring, rows)


def nonzero_payload(ring, rng):
    """A random nonzero canonical payload with up to five coefficients
    (any residue on Z_m). For m > 3, half the draws take multiples of 3,
    which on Z_9 and Z_9[t] are zero divisors: 3t * 3t = 0."""
    m = modulus(ring)
    step = rng.choice((1, 3)) if m > 3 else 1
    while True:
        if isinstance(ring, Zmod):
            value = rng.randrange(0, m, step)
        else:
            size = rng.randint(1, 5)
            value = ring.element([rng.randrange(0, m, step) for _ in range(size)])
            value = value.payload
        if value:
            return value


def with_support(ring, n, rng, count, one_share):
    """An n x n matrix with exactly `count` nonzero entries at random
    places, each one with probability `one_share` and otherwise a random
    nonzero value."""
    ent = [ring.zero.payload] * (n * n)
    for idx in rng.sample(range(n * n), count):
        ent[idx] = (
            ring.one.payload if rng.random() < one_share else nonzero_payload(ring, rng)
        )
    return Matrix(ring, n, tuple(ent))


def worst_case(ring, n, degree):
    """Every entry (m-1)(1 + t + ... + t^degree): each coefficient of the
    product reaches the slot bound n * (degree + 1) * (m-1)**2 exactly."""
    m = modulus(ring)
    value = m - 1 if isinstance(ring, Zmod) else [m - 1] * (degree + 1)
    return Matrix.from_rows(ring, [[value] * n for _ in range(n)])


@st.composite
def kernel_cases(draw):
    ring = draw(st.sampled_from(KERNEL_RINGS))
    n = draw(st.integers(1, 8))
    degree = draw(st.integers(0, 20))
    rng = draw(st.randoms(use_true_random=False))
    shares = st.sampled_from([0.0, 0.3, 0.8, 1.0])
    a = random_entries(ring, n, rng, degree, draw(shares))
    b = random_entries(ring, n, rng, degree, draw(shares))
    return a, b


@st.composite
def support_cases(draw):
    """Two operands over a kernel ring, n = 1..6. One of them, or both,
    has exactly 0, 1, n - 1, n or n + 1 nonzero entries, so each side of
    the cut-off at n nonzeros runs; its nonzeros are all one, all other
    values, or mixed. The other operand is a general matrix."""
    ring = draw(st.sampled_from(KERNEL_RINGS))
    n = draw(st.integers(1, 6))
    rng = draw(st.randoms(use_true_random=False))
    counts = st.sampled_from([min(c, n * n) for c in (0, 1, n - 1, n, n + 1)])
    one_share = draw(st.sampled_from([0.0, 0.5, 1.0]))

    def operand(sparse):
        if sparse:
            return with_support(ring, n, rng, draw(counts), one_share)
        return random_entries(ring, n, rng, 4, draw(st.sampled_from([0.0, 0.3])))

    side = draw(st.sampled_from(["left", "right", "both"]))
    return operand(side != "right"), operand(side != "left")


def mirrored(mat, sign):
    """The upper triangle of `mat` mirrored below it, times `sign` (1 for
    symmetric, -1 for skew, which also zeroes the diagonal)."""
    ring, n, ent = mat.ring, mat.n, list(mat.entries)
    for i in range(n):
        if sign < 0:
            ent[i * n + i] = ring.zero.payload
        for j in range(i + 1, n):
            v = ent[i * n + j]
            ent[j * n + i] = v if sign > 0 else ring.neg(v)
    return Matrix(ring, n, tuple(ent))


@st.composite
def symmetry_cases(draw):
    """Two symmetric matrices and two skew ones over a kernel ring,
    n = 1..6; a zero share of 1.0 gives zero matrices."""
    ring = draw(st.sampled_from(KERNEL_RINGS))
    n = draw(st.integers(1, 6))
    rng = draw(st.randoms(use_true_random=False))
    shares = st.sampled_from([0.0, 0.3, 1.0])

    def draw_matrix(sign):
        return mirrored(random_entries(ring, n, rng, 4, draw(shares)), sign)

    a = SymmetricMatrix.of(draw_matrix(1))
    b = SymmetricMatrix.of(draw_matrix(1))
    s = SkewMatrix.of(draw_matrix(-1))
    t = SkewMatrix.of(draw_matrix(-1))
    return a, b, s, t


class TestPayloadKernel:
    """Matrix arithmetic runs on payloads; the per-entry forms are the
    reference."""

    @given(st.one_of(kernel_cases(), support_cases()))
    def test_product_matches_literal_product(self, case):
        a, b = case
        for x, y in ((a, b), (b, a)):
            prod = x * y
            assert prod == literal_product(x, y)
            assert all(is_canonical(prod.ring, p) for p in prod.entries)
            assert commutator(x, y) == prod - literal_product(y, x)

    @pytest.mark.parametrize("ring", KERNEL_RINGS, ids=str)
    @pytest.mark.parametrize("n", range(1, 7))
    def test_probe_products_match_literal_product(self, ring, n):
        idx = range(1, n + 1)
        probes = [matrix_unit(ring, n, i, j) for i in idx for j in idx]
        if n > 1:
            probes.append(probe_x0(ring, n))
            probes += [jordan_unit(ring, n, i, j) for i in idx for j in idx if i < j]
        a = random_entries(ring, n, random.Random(n), 4, 0.0)
        for probe in probes:
            for x, y in ((a, probe), (probe, a), (probe, probes[-1])):
                prod = x * y
                assert prod == literal_product(x, y)
                assert all(is_canonical(ring, p) for p in prod.entries)

    @pytest.mark.parametrize("ring", KERNEL_RINGS, ids=str)
    def test_every_product_reaches_the_dense_kernel(self, monkeypatch, ring):
        # probes too; only a commutator whose right operand is 0/1 (here
        # at n = 4 >= sparse_from) is built without the kernel
        n = 4
        a = random_entries(ring, n, random.Random(3), 4, 0.0)
        unit, x0 = matrix_unit(ring, n, 2, 3), probe_x0(ring, n)
        want = [literal_bracket(a, unit), literal_bracket(a, x0)]

        def dense(self, a, b):
            raise RuntimeError("dense kernel")

        monkeypatch.setattr(type(ring), "matmul", dense)
        for x, y in ((a, unit), (x0, a), (unit, x0), (a, a)):
            with pytest.raises(RuntimeError, match="dense kernel"):
                x * y
        assert [commutator(a, unit), commutator(a, x0)] == want
        for x, y in ((unit, a), (x0, a), (a, a)):
            with pytest.raises(RuntimeError, match="dense kernel"):
                commutator(x, y)

    @given(kernel_cases())
    def test_elementwise_ops_match_entry_ops(self, case):
        a, b = case
        ea, eb = elements(a), elements(b)
        z = eb[0]
        assert elements(a + b) == [x + y for x, y in zip(ea, eb)]
        assert elements(a - b) == [x - y for x, y in zip(ea, eb)]
        assert elements(-a) == [-x for x in ea]
        assert elements(a * z) == [z * x for x in ea]
        assert (a == b) == (ea == eb)
        for result in (a + b, a - b, -a, a * z, z * a):
            assert all(is_canonical(result.ring, p) for p in result.entries)

    @pytest.mark.parametrize("ring", KERNEL_RINGS, ids=str)
    @pytest.mark.parametrize("n", range(1, 9))
    def test_worst_case_entries(self, ring, n):
        a = worst_case(ring, n, 20)
        assert a * a == literal_product(a, a)

    @pytest.mark.parametrize("ring", KERNEL_RINGS, ids=str)
    @pytest.mark.parametrize("n", [1, 2, 5, 8])
    def test_zero_matrices(self, ring, n):
        zero = Matrix.zero(ring, n)
        a = random_entries(ring, n, random.Random(n), 20, 0.0)
        assert (zero * a).is_zero()
        assert (a * zero).is_zero()
        assert zero * zero == zero

    def test_leading_terms_cancel_mod_composite(self):
        # 3t * 3t = 9 t^2 = 0 in Z_9[t]: the product's top slot reduces to 0
        t = P9.t
        three_t = Matrix.from_rows(P9, [[[0, 3]]])
        assert (three_t * three_t).entry(1, 1) == P9.zero
        # t^2 + 8 t^2 = 9 t^2 = 0: the dot product cancels its top slot
        a = Matrix.from_rows(P9, [[t, t], [0, 1]])
        b = Matrix.from_rows(P9, [[t, 0], [P9.element([1, 8]), 1]])
        prod = a * b
        assert prod == literal_product(a, b)
        assert prod.entry(1, 1).payload == (0, 1)
        assert all(is_canonical(P9, p) for p in prod.entries)

    @pytest.mark.parametrize(
        "left,right", [(Z5, Z9), (Z9, Z5), (Z5, P5), (P5, Z5), (P5, P9)], ids=str
    )
    def test_ring_mismatch(self, left, right):
        with pytest.raises(DomainError):
            Matrix.identity(left, 2) * Matrix.identity(right, 2)

    @pytest.mark.parametrize("ring", [P5, P9], ids=str)
    @pytest.mark.parametrize("n", range(1, 9))
    def test_narrower_slot_is_caught(self, monkeypatch, ring, n):
        # negative control: one bit short of the slot bound, the worst-case
        # coefficient carries into its neighbour and the reference sees it
        from derivring import rings

        exact = rings._slot_bits
        monkeypatch.setattr(rings, "_slot_bits", lambda *args: exact(*args) - 1)
        a = worst_case(ring, n, 20)
        assert a * a != literal_product(a, a)

    @pytest.mark.parametrize(
        "n,degree,bits",
        [(1, 14, 8), (1, 15, 9), (3, 3, 8), (4, 3, 9)],
        ids=["scalar-240", "scalar-256", "n3-192", "n4-256"],
    )
    def test_byte_slot_cut_off(self, n, degree, bits):
        # worst-case Z_5[t] operands, every coefficient 4, whose slot bound
        # n * (degree + 1) * 16 is below 256 (byte slots) or reaches 256
        # (one shift per slot); each product against the schoolbook
        from derivring import rings

        assert rings._slot_bits(n, degree + 1, degree + 1, 5) == bits
        a = worst_case(P5, n, degree)
        if n == 1:
            x = a.entry(1, 1)
            assert P5.mul(x.payload, x.payload) == schoolbook(x, x).payload
        else:
            assert a * a == literal_product(a, a)

    @pytest.mark.parametrize("ring", [Z5, Z9, P5, P9, PolyRing(BIG)], ids=str)
    def test_all_zero_operand_of_the_dense_kernel(self, ring):
        # ring.matmul itself, which every Matrix.__mul__ of two matrices
        # calls, takes the two matrices on both rings; over Z_m[t] an
        # all-zero side has no coefficients, and the other side still has
        # to fit its slots
        m = modulus(ring)
        value = m - 1 if isinstance(ring, Zmod) else [m - 1, m - 1]
        zero, full = Matrix.zero(ring, 2), Matrix.from_rows(ring, [[value] * 2] * 2)
        assert ring.matmul(zero, full) == ring.matmul(full, zero) == zero.entries


def skew_witness(ring, n, c):
    """c at (1, 2) and -c at (2, 1), zero elsewhere: the n = 2 skew
    witness [[0, c], [-c, 0]], padded with zeros for n > 2."""
    ent = [ring.zero.payload] * (n * n)
    ent[1], ent[n] = c, ring.neg(c)
    return Matrix(ring, n, tuple(ent))


def literal_bracket(a, b):
    """Reference: ab - ba from the per-entry triple loop."""
    return literal_product(a, b) - literal_product(b, a)


class TestProductPath:
    """Every `Matrix.__mul__` of two matrices reaches `ring.matmul`. The
    0/1 rule lives in `commutator`: from `ring.sparse_from` on, an
    untyped commutator whose right operand is 0/1 (at most n nonzero
    entries, each of them one) is built by `_line_moves`, two calls, and
    reaches neither `Matrix.__mul__` nor `ring.matmul`. Below it, and for
    every other pair (a 0/1 left operand with a general right one too),
    it takes ab - ba: two products, each through the kernel. Counted by
    wrapping all three."""

    @staticmethod
    def counted(monkeypatch, ring):
        """Three lists that grow by one per call of `_line_moves`, of
        `Matrix.__mul__` on two matrices, and of `ring.matmul`."""
        moves, products, kernel = [], [], []
        real_moves, real_mul, real_matmul = (
            matrices._line_moves, Matrix.__mul__, type(ring).matmul
        )

        def counting_moves(*args, **kwargs):
            moves.append(args[1])
            return real_moves(*args, **kwargs)

        def counting_mul(self, other):
            if isinstance(other, Matrix):
                products.append(self.n)
            return real_mul(self, other)

        def counting_matmul(self, a, b):
            kernel.append(a.n)
            return real_matmul(self, a, b)

        monkeypatch.setattr(matrices, "_line_moves", counting_moves)
        monkeypatch.setattr(Matrix, "__mul__", counting_mul)
        monkeypatch.setattr(type(ring), "matmul", counting_matmul)
        return moves, products, kernel

    @staticmethod
    def tally(lists):
        return [len(calls) for calls in lists]

    @staticmethod
    def grown(lists, before):
        """How many calls each list gained since `tally` gave `before`."""
        return [len(calls) - b for calls, b in zip(lists, before)]

    @staticmethod
    def sparse_operands(ring, n, rng):
        """Probes and other operands with at most n nonzero entries."""
        idx = range(1, n + 1)
        out = [matrix_unit(ring, n, i, j) for i in idx for j in idx]
        out += [Matrix.zero(ring, n), Matrix.identity(ring, n)]
        out += [with_support(ring, n, rng, min(2, n), 0.0) for _ in range(3)]
        if n > 1:
            out += [probe_x0(ring, n), jordan_unit(ring, n, 1, 2)]
            out.append(skew_witness(ring, n, nonzero_payload(ring, rng)))
        return out

    @pytest.mark.parametrize("ring", [Zmod(3), Z9, BIG], ids=str)
    def test_zmod_below_the_cut_off_never_takes_the_sparse_path(
        self, monkeypatch, ring
    ):
        counts = self.counted(monkeypatch, ring)
        assert ring.sparse_from > 1
        for n in range(1, ring.sparse_from):
            rng = random.Random(n)
            dense = random_entries(ring, n, rng, 0, 0.0)
            sparse = self.sparse_operands(ring, n, rng)
            for x in sparse:
                for y in [dense] + sparse:
                    for u, v in ((x, y), (y, x)):
                        # a typed pair's commutator takes one product
                        calls = 2 if u.parity * v.parity else 3
                        before = self.tally(counts)
                        assert u * v == literal_product(u, v)
                        assert commutator(u, v) == literal_bracket(u, v)
                        assert self.grown(counts, before) == [0, calls, calls]
        assert counts[0] == []

    @pytest.mark.parametrize("ring", [Zmod(3), Z9, BIG], ids=str)
    def test_zmod_from_the_cut_off_probe_commutators_take_line_moves(
        self, monkeypatch, ring
    ):
        moves, products, kernel = self.counted(monkeypatch, ring)
        for n in range(ring.sparse_from, ring.sparse_from + 3):
            rng = random.Random(n)
            dense = random_entries(ring, n, rng, 0, 0.0)
            for probe in (matrix_unit(ring, n, 1, 2), probe_x0(ring, n)):
                before = len(moves)
                assert commutator(dense, probe) == literal_bracket(dense, probe)
                assert moves[before:] == [n, n]
                assert products == kernel == []
                # the left operand is not scanned: [probe, a] is ab - ba
                assert commutator(probe, dense) == literal_bracket(probe, dense)
                assert moves[before:] == [n, n]
                assert products == kernel == [n, n]
                del products[:], kernel[:]
            for x, y in ((dense, probe), (probe, dense), (dense, dense)):
                assert x * y == literal_product(x, y)
            assert products == kernel == [n] * 3
            del products[:], kernel[:]

    @pytest.mark.parametrize("ring", [P5, P9], ids=str)
    @pytest.mark.parametrize("n", range(1, 7))
    def test_poly_zero_one_commutators_take_line_moves(self, monkeypatch, ring, n):
        assert ring.sparse_from == 1
        moves, products, kernel = self.counted(monkeypatch, ring)
        rng = random.Random(n)
        dense = random_entries(ring, n, rng, 3, 0.0)
        for count in range(n + 1):
            sparse = with_support(ring, n, rng, count, 1.0)
            for x, y in ((dense, sparse), (sparse, dense)):
                # line moves only when the 0/1 operand is on the right
                right = y is sparse
                before = len(moves)
                assert commutator(x, y) == literal_bracket(x, y)
                assert len(moves) == before + (2 if right else 0)
                assert products == kernel == ([] if right else [n, n])
                del products[:], kernel[:]
                assert x * y == literal_product(x, y)
                assert products == kernel == [n]
                del products[:], kernel[:]

    @pytest.mark.parametrize("ring", KERNEL_RINGS, ids=str)
    @pytest.mark.parametrize("offset", range(3))
    def test_operands_with_a_non_one_nonzero_take_the_kernel(
        self, monkeypatch, ring, offset
    ):
        # from the cut-off on, one nonzero other than one makes an operand
        # with at most n nonzero entries a general one: its product takes
        # ring.matmul and its commutator ab - ba, on either side
        n = ring.sparse_from + offset
        counts = self.counted(monkeypatch, ring)
        rng = random.Random(30 + n)
        dense = random_entries(ring, n, rng, 3, 0.0)
        values = [ring.element(2).payload, ring.element(-1).payload]
        if isinstance(ring, PolyRing):
            values.append(ring.t.payload)
        for count in range(1, n + 1):
            for value in values:
                ent = list(with_support(ring, n, rng, count, 1.0).entries)
                ent[rng.choice([k for k, x in enumerate(ent) if x])] = value
                s = Matrix(ring, n, tuple(ent))
                for x, y in ((dense, s), (s, dense)):
                    before = self.tally(counts)
                    assert x * y == literal_product(x, y)
                    assert commutator(x, y) == literal_bracket(x, y)
                    assert self.grown(counts, before) == [0, 3, 3]
        assert counts[0] == []

    @pytest.mark.parametrize("ring", KERNEL_RINGS, ids=str)
    @pytest.mark.parametrize("offset", range(3))
    def test_more_than_n_ones_take_the_kernel(self, monkeypatch, ring, offset):
        # n + 1 ones and no other nonzero: not a 0/1 operand, so the
        # commutator takes ab - ba, whether or not both sides have ones
        n = max(ring.sparse_from, 2) + offset
        moves, products, kernel = self.counted(monkeypatch, ring)
        rng = random.Random(40 + n)
        dense = random_entries(ring, n, rng, 3, 0.0)
        for _ in range(4):
            s = with_support(ring, n, rng, n + 1, 1.0)
            other = with_support(ring, n, rng, n + 1, 1.0)
            for x, y in ((dense, s), (s, dense), (s, other)):
                before = len(kernel)
                assert commutator(x, y) == literal_bracket(x, y)
                assert len(kernel) == before + 2
        assert moves == []

    @pytest.mark.parametrize("ring", [Zmod(3), Z9, Zmod(1000003), P5], ids=str)
    def test_non_one_sparse_operands_match_literal_product(self, ring):
        # operands with at most n nonzero entries, not all one, take the
        # kernel; n runs from 1 to two past the Z_m cut-off, and each
        # product of the skew witness and of two random non-one entries
        # is checked against the literal product
        for n in range(1, Zmod.sparse_from + 3):
            rng = random.Random(10 * n)
            dense = random_entries(ring, n, rng, 3, 0.0)
            sparse = [with_support(ring, n, rng, min(2, n * n), 0.0) for _ in range(4)]
            if n > 1:
                sparse += [
                    skew_witness(ring, n, nonzero_payload(ring, rng)) for _ in range(4)
                ]
            for x in sparse:
                for y in [dense] + sparse:
                    assert x * y == literal_product(x, y)
                    assert y * x == literal_product(y, x)

    @pytest.mark.parametrize("ring", [Zmod(3), Z9, Zmod(1000003), P5], ids=str)
    @pytest.mark.parametrize("n", range(1, 9))
    def test_lines_added_twice_and_scaled_lines(self, ring, n):
        # e_11 + e_21 on the right and e_11 + e_12 on the left move two
        # lines of the other operand onto one, in both passes of a
        # commutator's line moves, and fail if the moves drop their
        # `add_all` or `sub_all`; their multiples by z and z I have non-one
        # nonzeros, take the kernel and check its values.
        z = ring.element(2) if isinstance(ring, Zmod) else ring.t + ring.element(2)
        dense = random_entries(ring, n, random.Random(n), 3, 0.0)
        operands = [Matrix.scalar(z, n)]
        if n > 1:
            for i, j in ((2, 1), (1, 2)):
                pair = matrix_unit(ring, n, 1, 1) + matrix_unit(ring, n, i, j)
                operands += [pair, pair * z]
        for s in operands:
            assert dense * s == literal_product(dense, s)
            assert s * dense == literal_product(s, dense)
            assert commutator(dense, s) == literal_bracket(dense, s)
            assert commutator(s, dense) == literal_bracket(s, dense)


def matmul_bracket(a, b):
    """Reference: ab - ba from two `ring.matmul` calls, subtracted entry
    by entry with the scalar `ring.sub`."""
    ring = a.ring
    ab, ba = ring.matmul(a, b), ring.matmul(b, a)
    return Matrix(ring, a.n, tuple(map(ring.sub, ab, ba)))


def zero_divisor_leads(ring, n, rng):
    """An n x n matrix over Z_9[t] whose entries have leading coefficient
    3 or 6, zero divisors: sums and differences of two of them can lose
    their top terms."""
    rows = [
        [[rng.randrange(9) for _ in range(rng.randint(0, 3))] + [rng.choice((3, 6))]
         for _ in range(n)]
        for _ in range(n)
    ]
    return Matrix.from_rows(ring, rows)


class TestZeroOneCommutator:
    """`commutator` with a 0/1 operand, on either side or both, against
    ab - ba built from `ring.matmul`, on each side of the cut-off."""

    RINGS = [Zmod(3), Z9, Zmod(1000003), P5, P9]

    @pytest.mark.parametrize("ring", RINGS, ids=str)
    @pytest.mark.parametrize("n", range(1, 7))
    def test_matches_matmul_commutator(self, ring, n):
        rng = random.Random(700 + n)
        idx = range(1, n + 1)
        zero_one = [matrix_unit(ring, n, i, j) for i in idx for j in idx]
        if n > 1:
            zero_one.append(probe_x0(ring, n))
        zero_one += [
            with_support(ring, n, rng, count, 1.0)
            for count in range(n + 1)
            for _ in range(3)
        ]
        general = [
            random_entries(ring, n, rng, 3, 0.0),
            random_entries(ring, n, rng, 3, 0.5),
            worst_case(ring, n, 3),
        ]
        if ring is P9:
            general.append(zero_divisor_leads(ring, n, rng))
        pairs = [(d, s) for s in zero_one for d in general]
        pairs += [(s, d) for d, s in pairs]
        pairs += [(rng.choice(zero_one), rng.choice(zero_one)) for _ in range(40)]
        for x, y in pairs:
            out = commutator(x, y)
            assert out == matmul_bracket(x, y)
            assert type(out) is Matrix
            assert all(is_canonical(ring, p) for p in out.entries)


def int_dot_products(n, a, b):
    """Reference: the literal triple loop over two row-major int
    sequences, no reduction."""
    return [
        sum(a[i * n + k] * b[k * n + j] for k in range(n))
        for i in range(n)
        for j in range(n)
    ]


class TestDotProductKernel:
    """`rings._dot_products(n, reduced)`, the one dense kernel generator of
    `Zmod.matmul` (reduced) and `PolyRing.matmul` (raw), against the
    literal triple loop."""

    RINGS = [Zmod(3), Z9, Zmod(1000003), P5]
    MODULI = [3, 9, 1000003]

    @pytest.mark.parametrize("ring", RINGS, ids=str)
    @pytest.mark.parametrize("n", range(1, 10))
    def test_matmul_matches_triple_loop(self, ring, n):
        # ring.matmul itself, the kernel that every product reaches
        rng = random.Random(n)
        operands = [
            random_entries(ring, n, rng, 3, 0.0),
            random_entries(ring, n, rng, 3, 0.5),
            worst_case(ring, n, 3),
            Matrix.zero(ring, n),
        ]
        for a in operands:
            for b in operands:
                assert ring.matmul(a, b) == literal_product(a, b).entries

    @pytest.mark.parametrize("n", range(1, 10))
    def test_tuples_and_packed_lists_agree(self, n):
        # Zmod.matmul passes entry tuples, PolyRing.matmul the packed lists
        rng = random.Random(100 + n)
        a, b = (random_entries(P5, n, rng, 3, 0.2) for _ in range(2))
        pa, pb = rings._packings(a), rings._packings(b)
        bits = rings._slot_bits(n, pa[1], pb[1], 5)
        ka, kb = rings._packed(pa, bits), rings._packed(pb, bits)
        assert type(ka) is list and type(kb) is list
        kernel = rings._dot_products(n)
        want = int_dot_products(n, ka, kb)
        assert kernel(ka, kb) == kernel(tuple(ka), tuple(kb)) == want
        x, y = (random_entries(Z9, n, rng, 0, 0.2).entries for _ in range(2))
        assert kernel(x, y) == kernel(list(x), list(y)) == int_dot_products(n, x, y)

    @pytest.mark.parametrize("m", MODULI)
    @pytest.mark.parametrize("n", range(1, 10))
    def test_reduced_kernel_gives_the_residues(self, m, n):
        # each sum ends in % m inside the kernel; all-(m-1) operands make
        # every sum n(m-1)^2, the largest the kernel can meet
        rng = random.Random(m + n)
        ring = Zmod(m)
        full = worst_case(ring, n, 0).entries
        operands = [full, random_entries(ring, n, rng, 0, 0.0).entries]
        kernel = rings._dot_products(n, True)
        for a in operands:
            for b in operands:
                want = tuple([s % m for s in int_dot_products(n, a, b)])
                got = kernel(a, b, m)
                assert type(got) is tuple and got == want
                assert ring.matmul(Matrix(ring, n, a), Matrix(ring, n, b)) == want
        assert kernel(full, full, m) == ((n * (m - 1) ** 2) % m,) * (n * n)

    @pytest.mark.parametrize("n", [1, 2, 3, 8])
    def test_built_once_per_n(self, n):
        assert rings._dot_products(n) is rings._dot_products(n)
        assert rings._dot_products(n) is not rings._dot_products(n + 1)
        assert rings._dot_products(n, True) is rings._dot_products(n, True)
        assert rings._dot_products(n, True) is not rings._dot_products(n)

    def test_built_on_first_use_not_at_import(self):
        # one Z_5 product builds exactly the reduced kernel at n = 2: a
        # later lookup of (2, True) is a cache hit and builds nothing
        probe = (
            "from derivring import Matrix, Zmod, rings\n"
            "info = rings._dot_products.cache_info\n"
            "built = info().currsize\n"
            "a = Matrix.from_rows(Zmod(5), [[1, 2], [3, 4]])\n"
            "assert (a * a).entries == (2, 0, 0, 2)\n"
            "after, hits = info().currsize, info().hits\n"
            "rings._dot_products(2, True)\n"
            "print(built, after, info().currsize, info().hits - hits)\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.split() == ["0", "1", "1", "1"]


def literal_plus_transpose(p, sign, scale):
    """Reference: p + sign p^T through the whole-matrix ops, times the
    scale element if one is given."""
    out = p + p.transpose() if sign > 0 else p - p.transpose()
    return out if scale is None else out * scale


class TestMirroredKernel:
    """`ring.plus_transpose(n, entries, sign, scale)`, which builds
    (p + sign p^T) * scale mirrored from its upper triangle (on Z_m
    through the generated `rings._mirrored(n, sign)`), against the
    literal formula; and `_plus_transpose`, which still returns through
    the checked constructor."""

    RINGS = [Zmod(3), Z9, Zmod(1000003), P5]

    @pytest.mark.parametrize("ring", RINGS, ids=str)
    @pytest.mark.parametrize("n", range(1, 10))
    def test_ring_op_matches_literal(self, ring, n):
        # all-(m-1) entries make every p_ij + p_ji pass m
        rng = random.Random(n)
        half = ring.half
        scales = [None, half, half * half]
        operands = [
            random_entries(ring, n, rng, 3, 0.0),
            random_entries(ring, n, rng, 3, 0.5),
            worst_case(ring, n, 3),
            Matrix.zero(ring, n),
        ]
        for p in operands:
            for sign in (1, -1):
                for scale in scales:
                    payload = None if scale is None else scale.payload
                    got = ring.plus_transpose(n, p.entries, sign, payload)
                    assert type(got) is tuple
                    assert got == literal_plus_transpose(p, sign, scale).entries

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_poly_scale_keeps_zero_divisor_leading_coefficients(self, n):
        # over Z_9[t] every entry leads with 3 or 6, a zero divisor: the
        # unit scale (1/2 or 1/4) keeps each leading coefficient nonzero,
        # and p_ij + sign p_ji may cancel it (3 + 6, 3 - 3) before scaling
        rng = random.Random(40 + n)
        half = P9.half
        for _ in range(20):
            entries = tuple(
                tuple(rng.randrange(9) for _ in range(rng.randrange(3)))
                + (rng.choice((3, 6)),)
                for _ in range(n * n)
            )
            p = Matrix(P9, n, entries)
            for sign in (1, -1):
                for scale in (half, half * half):
                    got = P9.plus_transpose(n, entries, sign, scale.payload)
                    assert got == literal_plus_transpose(p, sign, scale).entries

    @pytest.mark.parametrize("ring", RINGS, ids=str)
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_result_types_are_unchanged(self, ring, n):
        p = random_entries(ring, n, random.Random(n), 3, 0.0)
        half = ring.half.payload
        for scale in (None, half):
            assert type(matrices._plus_transpose(p, 1, scale)) is SymmetricMatrix
            assert type(matrices._plus_transpose(p, -1, scale)) is SkewMatrix
        assert type(symmetric_part(p)) is SymmetricMatrix
        a = SymmetricMatrix.of(mirrored(p, 1))
        s = SkewMatrix.of(mirrored(p, -1))
        assert type(jordan_mul(a, a)) is SymmetricMatrix
        assert type(jordan_mul(a, s)) is SkewMatrix
        assert type(commutator(a, a)) is SkewMatrix
        assert type(commutator(a, s)) is SymmetricMatrix

    @pytest.mark.parametrize("n", [1, 2, 3, 8])
    def test_built_once_per_n_and_sign(self, n):
        for sign in (1, -1):
            assert rings._mirrored(n, sign) is rings._mirrored(n, sign)
            assert rings._mirrored(n, sign) is not rings._mirrored(n + 1, sign)
        assert rings._mirrored(n, 1) is not rings._mirrored(n, -1)

    def test_built_on_first_use_not_at_import(self):
        probe = (
            "import derivring\n"
            "from derivring import SymmetricMatrix, Zmod, jordan_mul, rings\n"
            "built = rings._mirrored.cache_info().currsize\n"
            "a = SymmetricMatrix(Zmod(5), 2, (1, 2, 2, 4))\n"
            "assert jordan_mul(a, a).entries == (0, 0, 0, 0)\n"
            "print(built, rings._mirrored.cache_info().currsize)\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.split() == ["0", "1"]

    @pytest.mark.parametrize("ring", [Z9, P5], ids=str)
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_constructor_still_checks_the_ring_op(self, monkeypatch, ring, n):
        # a ring op that returns one entry off its mirror is refused by
        # the SymmetricMatrix/SkewMatrix constructor
        real = type(ring).plus_transpose

        def broken(self, n, entries, sign, scale=None):
            out = list(real(self, n, entries, sign, scale))
            out[n] = self.add(out[n], self.one.payload)  # entry (2, 1)
            return tuple(out)

        rng = random.Random(n)
        a = SymmetricMatrix.of(mirrored(random_entries(ring, n, rng, 3, 0.0), 1))
        b = SymmetricMatrix.of(mirrored(random_entries(ring, n, rng, 3, 0.0), 1))
        monkeypatch.setattr(type(ring), "plus_transpose", broken)
        with pytest.raises(DomainError, match="not symmetric"):
            jordan_mul(a, b)
        with pytest.raises(DomainError, match="not skew-symmetric"):
            commutator(a, b)
        with pytest.raises(DomainError, match="not symmetric"):
            symmetric_part(a * b)


class TestUnits:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_unit_algebra_exhaustive(self, n):
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                eij = matrix_unit(Z5, n, i, j)
                for k in range(1, n + 1):
                    for l in range(1, n + 1):
                        ekl = matrix_unit(Z5, n, k, l)
                        if j == k:
                            assert eij * ekl == matrix_unit(Z5, n, i, l)
                        else:
                            assert (eij * ekl).is_zero()

    def test_unit_products(self):
        assert matrix_unit(Z5, 2, 1, 2) * matrix_unit(Z5, 2, 2, 1) == matrix_unit(
            Z5, 2, 1, 1
        )
        assert (matrix_unit(Z5, 2, 1, 2) * matrix_unit(Z5, 2, 1, 2)).is_zero()

    def test_diagonal_completeness(self):
        total = Matrix.zero(Z5, 3)
        for i in range(1, 4):
            total = total + matrix_unit(Z5, 3, i, i)
        assert total == Matrix.identity(Z5, 3)

    def test_index_out_of_range(self):
        with pytest.raises(DomainError):
            matrix_unit(Z5, 2, 0, 1)
        with pytest.raises(DomainError):
            matrix_unit(Z5, 2, 1, 3)


ZERO3 = Matrix.zero(Z5, 3)
ORACLE3 = TwoLocalOracle(Z5, 3, InnerDerivation(ZERO3))


class TestInputRules:
    """The dimension, index and shape rules of `matrices`, each written
    once, refuse bad input at every builder and every map that uses
    them."""

    @pytest.mark.parametrize("n", [0, -1])
    @pytest.mark.parametrize(
        "build",
        [
            lambda n: Matrix.zero(Z5, n),
            lambda n: Matrix.scalar(Z5.one, n),
            lambda n: matrix_unit(Z5, n, 1, 1),
            lambda n: entrywise(BaseDerivation.zero(Z5), n),
        ],
        ids=["zero", "scalar", "unit", "entrywise"],
    )
    def test_dimension_below_one(self, build, n):
        with pytest.raises(DomainError):
            build(n)

    # (-1, 2) would reach a valid storage slot through a negative offset
    @pytest.mark.parametrize("i,j", [(0, 1), (1, 0), (3, 1), (1, 3), (-1, 2)])
    @pytest.mark.parametrize(
        "build",
        [
            lambda i, j: Matrix.identity(Z5, 2).entry(i, j),
            lambda i, j: matrix_unit(Z5, 2, i, j),
        ],
        ids=["entry", "unit"],
    )
    def test_index_outside_the_matrix(self, build, i, j):
        with pytest.raises(DomainError):
            build(i, j)

    @pytest.mark.parametrize(
        "other", [Matrix.identity(Z5, 2), Matrix.identity(Z9, 3)], ids=["n", "ring"]
    )
    @pytest.mark.parametrize(
        "apply",
        [
            ORACLE3,
            lambda x: WitnessFamily(
                ORACLE3,
                {
                    (i, j): x if (i, j) == (1, 2) else ZERO3
                    for i in range(1, 4)
                    for j in range(1, 4)
                    if i != j
                },
            ),
            lambda x: JordanPairDerivation(Z5, 3, [(x, x)]),
            JordanPairDerivation(Z5, 3),
            entrywise(BaseDerivation.zero(Z5), 3),
        ],
        ids=["oracle", "witness", "jordan-pair", "jordan-argument", "lift"],
    )
    def test_map_refuses_another_shape(self, apply, other):
        # every map here expects 3 x 3 matrices over Z_5
        with pytest.raises(DomainError):
            apply(other)

    @pytest.mark.parametrize(
        "other", [Matrix.identity(Z5, 3), Matrix.identity(Z9, 2)], ids=["n", "ring"]
    )
    @pytest.mark.parametrize(
        "apply",
        [
            operator.add,
            operator.sub,
            operator.mul,
            lambda a, b: check_cross_corner(a, b, 1, 2, 2),
            lambda a, b: check_corner_consistency(a, b, 1, 2),
            lambda a, b: two_generator_check(a, b, a, 1),
            lambda a, b: two_generator_check(a, a, b, 1),
        ],
        ids=[
            "add", "sub", "mul", "cross-corner", "corner-consistency",
            "two-generator-y", "two-generator-d",
        ],
    )
    def test_operand_pairs_refuse_another_shape(self, apply, other):
        # one operand rule, `require_shape`: the second matrix must have
        # the first one's n and ring
        with pytest.raises(DomainError, match="expected a 2x2 matrix over"):
            apply(Matrix.identity(Z5, 2), other)


class TestArithmetic:
    def test_matmul_frozen(self):
        a_rows = [[1, 2], [3, 4]]
        b_rows = [[0, 1], [1, 0]]
        expected = ref_matmul(a_rows, b_rows, 5)
        assert expected == [[2, 1], [4, 3]]
        a = Matrix.from_rows(Z5, a_rows)
        b = Matrix.from_rows(Z5, b_rows)
        assert a * b == Matrix.from_rows(Z5, expected)

    def test_identity_neutral(self):
        rng = random.Random(11)
        eye = Matrix.identity(Z9, 3)
        for _ in range(50):
            a = random_matrix(Z9, 3, rng)
            assert a * eye == a
            assert eye * a == a

    def test_distributivity(self):
        rng = random.Random(12)
        for _ in range(500):
            a = random_matrix(Z5, 2, rng)
            b = random_matrix(Z5, 2, rng)
            c = random_matrix(Z5, 2, rng)
            assert (a + b) * c == a * c + b * c

    def test_decomposition_identity(self):
        rng = random.Random(13)
        a = random_matrix(Z9, 4, rng)
        total = Matrix.zero(Z9, 4)
        for i in range(1, 5):
            for j in range(1, 5):
                total = total + matrix_unit(Z9, 4, i, j) * a.entry(i, j)
        assert total == a

    def test_shape_and_ring_mismatch(self):
        with pytest.raises(DomainError):
            Matrix.zero(Z5, 2) + Matrix.zero(Z5, 3)
        with pytest.raises(DomainError):
            Matrix.zero(Z5, 2) * Matrix.zero(Z9, 2)

    def test_entry_bounds(self):
        with pytest.raises(DomainError):
            Matrix.zero(Z5, 2).entry(3, 1)

    def test_from_rows_must_be_square(self):
        with pytest.raises(DomainError):
            Matrix.from_rows(Z5, [[1, 2], [3]])
        with pytest.raises(DomainError):
            Matrix.from_rows(Z5, [])

    def test_equality_and_hash(self):
        a = Matrix.from_rows(Z5, [[1, 2], [3, 4]])
        b = Matrix.from_rows(Z5, [[1, 2], [3, 4]])
        assert a == b
        assert hash(a) == hash(b)
        assert a != Matrix.from_rows(Z5, [[1, 2], [3, 0]])
        # a SymmetricMatrix is equal to, and hashes like, the same Matrix
        plain = Matrix.from_rows(P5, [[[1, 2], 3], [3, 0]])
        sym = SymmetricMatrix.of(plain)
        assert sym == plain and plain == sym
        assert hash(sym) == hash(plain)


class TestCommutator:
    def test_unit_relation(self):
        e12 = matrix_unit(Z5, 2, 1, 2)
        e21 = matrix_unit(Z5, 2, 2, 1)
        expected = matrix_unit(Z5, 2, 1, 1) - matrix_unit(Z5, 2, 2, 2)
        assert commutator(e12, e21) == expected

    def test_antisymmetry_and_center(self):
        rng = random.Random(14)
        eye = Matrix.identity(Z9, 3)
        for _ in range(50):
            a = random_matrix(Z9, 3, rng)
            assert commutator(a, a).is_zero()
            assert commutator(a, eye).is_zero()

    def test_commutator_of_symmetric_is_skew(self):
        rng = random.Random(15)
        for _ in range(1000):
            a = random_symmetric(Z9, 3, rng)
            b = random_symmetric(Z9, 3, rng)
            assert commutator(a, b).is_skew()


class TestCorner:
    def test_single_entry(self):
        a = Matrix.from_rows(Z5, [[1, 2], [3, 4]])
        assert corner(a, 1, 2) == Matrix.from_rows(Z5, [[0, 2], [0, 0]])

    def test_matches_unit_products(self):
        rng = random.Random(16)
        a = random_matrix(Z9, 4, rng)
        for i in range(1, 5):
            for j in range(1, 5):
                eii = matrix_unit(Z9, 4, i, i)
                ejj = matrix_unit(Z9, 4, j, j)
                assert corner(a, i, j) == eii * a * ejj

    def test_peirce_decomposition(self):
        rng = random.Random(17)
        a = random_matrix(Z5, 3, rng)
        total = Matrix.zero(Z5, 3)
        for i in range(1, 4):
            for j in range(1, 4):
                total = total + corner(a, i, j)
        assert total == a

    def test_central_offdiagonal_corners_vanish(self):
        z = Matrix.scalar(Z5.element(3), 3)
        for i in range(1, 4):
            for j in range(1, 4):
                if i != j:
                    assert corner(z, i, j).is_zero()

    def test_bounds(self):
        with pytest.raises(DomainError):
            corner(Matrix.zero(Z5, 2), 1, 3)


class TestJordan:
    def test_unit_times_jordan_unit(self):
        e11 = matrix_unit(Z5, 2, 1, 1)
        eb12 = jordan_unit(Z5, 2, 1, 2)
        # 1/2 = 3 over Z_5
        assert jordan_mul(e11, eb12) == eb12 * Z5.element(3)

    def test_commutative(self):
        rng = random.Random(18)
        for _ in range(500):
            a = random_matrix(Z5, 2, rng)
            b = random_matrix(Z5, 2, rng)
            assert jordan_mul(a, b) == jordan_mul(b, a)

    def test_identity_is_unit(self):
        rng = random.Random(19)
        eye = Matrix.identity(Z9, 3)
        for _ in range(50):
            a = random_matrix(Z9, 3, rng)
            assert jordan_mul(eye, a) == a

    def test_closure_on_symmetric(self):
        rng = random.Random(20)
        for _ in range(1000):
            a = random_symmetric(Z9, 3, rng)
            b = random_symmetric(Z9, 3, rng)
            prod = jordan_mul(a, b)
            assert prod.is_symmetric()
            assert isinstance(prod, SymmetricMatrix)


def count_products(fn, *args):
    """fn(*args) and the number of Matrix.__mul__ calls it made."""
    real = Matrix.__mul__
    calls = []

    def counted(self, other):
        calls.append(other)
        return real(self, other)

    Matrix.__mul__ = counted
    try:
        return fn(*args), len(calls)
    finally:
        Matrix.__mul__ = real


class TestSymmetryShortcuts:
    """commutator and jordan_mul of two typed arguments (SymmetricMatrix or
    SkewMatrix) take one product by the parity rule ba = sign (ab)^T,
    sign = a.parity * b.parity; the literal two-product formulas are the
    reference."""

    @given(symmetry_cases())
    def test_jordan_mul_of_symmetric_matches_literal(self, case):
        a, b, _, _ = case
        for x, y in ((a, b), (b, a), (a, a)):
            prod = jordan_mul(x, y)
            assert prod == literal_jordan_mul(x, y)
            assert type(prod) is SymmetricMatrix

    @given(symmetry_cases())
    def test_skew_symmetric_commutator_matches_literal(self, case):
        a, b, s, _ = case
        for x in (a, b):
            out = commutator(s, x)
            assert out == literal_commutator(s, x)
            assert type(out) is SymmetricMatrix

    @given(symmetry_cases())
    def test_every_typed_pair_takes_one_product(self, case):
        a, b, s, t = case
        # (x, y, type of [x, y], type of x.y)
        table = (
            (a, b, SkewMatrix, SymmetricMatrix),
            (s, a, SymmetricMatrix, SkewMatrix),
            (a, s, SymmetricMatrix, SkewMatrix),
            (s, t, SkewMatrix, SymmetricMatrix),
        )
        for x, y, bracket_type, jordan_type in table:
            out, products = count_products(commutator, x, y)
            assert out == literal_commutator(x, y)
            assert type(out) is bracket_type
            assert products == 1
            prod, products = count_products(jordan_mul, x, y)
            assert prod == literal_jordan_mul(x, y)
            assert type(prod) is jordan_type
            assert products == 1

    @given(symmetry_cases())
    def test_other_argument_pairs_keep_the_literal_formula(self, case):
        a, b, s, _ = case
        plain = Matrix(a.ring, a.n, a.entries)
        # a plain operand keeps Matrix; typed pairs take the parity rule
        for x, y, kind in (
            (plain, b, Matrix),
            (b, plain, Matrix),
            (s, a, SkewMatrix),
            (a, s, SkewMatrix),
        ):
            prod = jordan_mul(x, y)
            assert prod == literal_jordan_mul(x, y)
            assert type(prod) is kind
        for x, y, kind in (
            (a, s, SymmetricMatrix),
            (a, b, SkewMatrix),
            (s, s, SkewMatrix),
            (plain, b, Matrix),
        ):
            out = commutator(x, y)
            assert out == literal_commutator(x, y)
            assert type(out) is kind

    @pytest.mark.parametrize("ring", KERNEL_RINGS, ids=str)
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_symmetric_constructor_rejects_one_broken_entry(self, ring, n):
        rng = random.Random(n)
        sym = mirrored(random_entries(ring, n, rng, 3, 0.0), 1)
        assert SymmetricMatrix(ring, n, sym.entries) == sym
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if i == j:
                    continue
                broken = sym + matrix_unit(ring, n, i, j)
                with pytest.raises(DomainError):
                    SymmetricMatrix(ring, n, broken.entries)
                with pytest.raises(DomainError):
                    SymmetricMatrix.of(broken)

    @pytest.mark.parametrize("ring", KERNEL_RINGS, ids=str)
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_skew_constructor_rejects_one_broken_entry(self, ring, n):
        rng = random.Random(n)
        skew = mirrored(random_entries(ring, n, rng, 3, 0.0), -1)
        assert SkewMatrix(ring, n, skew.entries) == skew
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                # off the diagonal one entry breaks the pair; on it, a
                # nonzero entry breaks skewness
                broken = skew + matrix_unit(ring, n, i, j)
                with pytest.raises(DomainError):
                    SkewMatrix(ring, n, broken.entries)
                with pytest.raises(DomainError):
                    SkewMatrix.of(broken)

    @pytest.mark.parametrize("ring", [Z9, P5], ids=str)
    @pytest.mark.parametrize("n", [2, 3])
    def test_typed_results_take_the_counted_constructor(self, monkeypatch, ring, n):
        # each typed result is built by Matrix.__init__ and checked by
        # is_symmetric or is_skew exactly once: the benchmark counts
        # matrix_allocs and symmetry_checks on these three names
        seen = {"__init__": [], "is_symmetric": [], "is_skew": []}
        for name, calls in seen.items():
            real = Matrix.__dict__[name]

            def wrapped(self, *args, real=real, calls=calls):
                calls.append(self)
                return real(self, *args)

            monkeypatch.setattr(Matrix, name, wrapped)
        rng = random.Random(n)
        p, q, r = (random_entries(ring, n, rng, 3, 0.0) for _ in range(3))
        a, b = SymmetricMatrix.of(mirrored(p, 1)), SymmetricMatrix.of(mirrored(q, 1))
        s = SkewMatrix.of(mirrored(r, -1))
        for fn, args, kind in (
            (jordan_mul, (a, b), SymmetricMatrix),
            (jordan_mul, (a, s), SkewMatrix),
            (commutator, (a, b), SkewMatrix),
            (commutator, (a, s), SymmetricMatrix),
            (symmetric_part, (p,), SymmetricMatrix),
        ):
            for calls in seen.values():
                calls.clear()
            out = fn(*args)
            assert type(out) is kind
            assert [x for x in seen["__init__"] if x is out] == [out]
            check = "is_symmetric" if kind is SymmetricMatrix else "is_skew"
            assert seen[check] == [out]
            assert seen["is_skew" if check == "is_symmetric" else "is_symmetric"] == []


class TestPredicates:
    def test_transpose(self):
        a = Matrix.from_rows(Z5, [[1, 2], [3, 4]])
        assert a.transpose() == Matrix.from_rows(Z5, [[1, 3], [2, 4]])

    def test_symmetric_identity(self):
        assert Matrix.identity(Z5, 3).is_symmetric()

    def test_symmetric_wrapper_validates(self):
        with pytest.raises(DomainError):
            SymmetricMatrix.of(Matrix.from_rows(Z5, [[0, 1], [2, 0]]))
        sym = SymmetricMatrix.of(Matrix.from_rows(Z5, [[0, 1], [1, 0]]))
        assert sym == jordan_unit(Z5, 2, 1, 2)
        # a matrix that already has the type comes back unchanged
        assert SymmetricMatrix.of(sym) is sym
        skew = SkewMatrix.of(Matrix.from_rows(Z5, [[0, 1], [-1, 0]]))
        assert SkewMatrix.of(skew) is skew

    @pytest.mark.parametrize("ring", [Z5, Z9, P5], ids=str)
    def test_skew(self, ring):
        assert Matrix.from_rows(ring, [[0, 1], [-1, 0]]).is_skew()
        assert not Matrix.from_rows(ring, [[0, 1], [1, 0]]).is_skew()
        # over these rings skewness forces a zero diagonal
        assert not Matrix.from_rows(ring, [[1, 0], [0, -1]]).is_skew()
        rng = random.Random(21)
        for n in range(2, 6):
            s = random_skew(ring, n, rng)
            assert s.is_skew()
            for i, j in ((1, 2), (2, 1), (n, n)):
                assert not (s + matrix_unit(ring, n, i, j)).is_skew()


class TestShiftProbe:
    def test_small_cases(self):
        assert probe_x0(Z5, 2) == matrix_unit(Z5, 2, 1, 2)
        assert probe_x0(Z5, 3) == matrix_unit(Z5, 3, 1, 2) + matrix_unit(Z5, 3, 2, 3)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_nilpotent(self, n):
        x0 = probe_x0(Z9, n)
        power = Matrix.identity(Z9, n)
        for _ in range(n):
            power = power * x0
        assert power.is_zero()

    def test_needs_n_at_least_two(self):
        with pytest.raises(DomainError):
            probe_x0(Z5, 1)


class TestPolynomialEntries:
    def test_matmul_over_poly_ring(self):
        t = P5.t
        a = Matrix.from_rows(P5, [[t, (1,)], [(0,), t * t]])
        b = Matrix.identity(P5, 2)
        assert a * b == a
        assert (a * a).entry(1, 1) == t * t


def full_entries(ring, n, rng, length):
    """A matrix whose n*n entries each have exactly `length` coefficients,
    the top one nonzero, so every product with it takes the dense kernel
    and its longest entry length is `length`."""
    m = modulus(ring)
    rows = [
        [[rng.randrange(m) for _ in range(length - 1)] + [rng.randrange(1, m)]
         for _ in range(n)]
        for _ in range(n)
    ]
    return Matrix.from_rows(ring, rows)


class TestPackingMemo:
    """A matrix keeps its Kronecker packing for each slot width on itself
    after its first dense Z_m[t] product (`rings._packings`)."""

    @pytest.mark.parametrize(
        "ring,degree,degrees",
        [(P5, 15, (3, 7, 15)), (PolyRing(BIG), 5, (0, 2, 5))],
        ids=str,
    )
    def test_one_matrix_at_several_widths(self, ring, degree, degrees):
        # worst-case operands reach each slot bound exactly, so a packing
        # reused at the wrong width would carry into the next slot
        from derivring import rings

        m = modulus(ring)
        a = worst_case(ring, 2, degree)
        widths = [rings._slot_bits(2, degree + 1, d + 1, m) for d in degrees]
        assert len(set(widths)) == len(widths)
        if ring is P5:
            assert widths == [8, 9, 10]
        for d in degrees:
            b = worst_case(ring, 2, d)
            first = (a * b, b * a)
            assert first == (literal_product(a, b), literal_product(b, a))
            assert (a * b, b * a) == first
        assert sorted(a._packings[2]) == sorted(widths)

    def test_fixed_operand_is_packed_once_per_width(self, monkeypatch):
        from derivring import rings

        calls = [0]
        pack = rings._pack

        def counted(coeffs, bits):
            calls[0] += 1
            return pack(coeffs, bits)

        monkeypatch.setattr(rings, "_pack", counted)
        n, k, rng = 3, 5, random.Random(8)
        fixed = full_entries(P5, n, rng, 6)
        widths = set()
        # fresh operands of 2 and 6 coefficients: byte and 9-bit slots
        for length in (2, 6):
            widths.add(rings._slot_bits(n, 6, length, 5))
            for _ in range(k):
                fresh = full_entries(P5, n, rng, length)
                assert fixed * fresh == literal_product(fixed, fresh)
        assert widths == {7, 9}
        assert calls[0] == n * n * (len(widths) + 2 * k)

    def test_reassigned_entries_are_packed_again(self):
        # `entries` is a writable slot: a packing kept for the old tuple
        # must not serve the new one, even at the same slot width
        rng = random.Random(9)
        a, b = full_entries(P9, 3, rng, 3), full_entries(P9, 3, rng, 3)
        assert a * b == literal_product(a, b)
        a.entries = full_entries(P9, 3, rng, 3).entries
        assert a * b == literal_product(a, b)
        assert b * a == literal_product(b, a)

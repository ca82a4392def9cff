"""Matrix layer: unit algebra, corners, commutators, the Jordan product,
symmetry predicates and the checked symmetric/skew types, and the shift
probe."""

import copy
import functools
import itertools
import operator
import pickle
import random
import subprocess
import sys
import threading

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
from derivring.matrices import brackets, require_shape
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


def narrow_slots(monkeypatch):
    """From now on, make every slot width one bit below the bit length of
    its largest slot value. The final width that `_slot_bits` returns is
    patched, not the width before the two-byte rounding (9 to 15 bits
    would round back up to 16 and fit). `_slots` gets a fresh cache, so
    no plan made at the true width serves."""

    def short(n, la, lb, m, bias=0):
        return (bias + rings._slot_bound(n, la, lb, m)).bit_length() - 1

    monkeypatch.setattr(rings, "_slot_bits", short)
    monkeypatch.setattr(rings, "_slots", functools.cache(rings._slots.__wrapped__))


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
        # probes too, on the product's first read (`x * y` itself only
        # checks the shapes); no commutator does: one whose right operand
        # is a partial permutation is two gathers, any other one the
        # fused kernel `ring.commute`
        n = 4
        a = random_entries(ring, n, random.Random(3), 4, 0.0)
        unit, x0 = matrix_unit(ring, n, 2, 3), probe_x0(ring, n)
        general = ((unit, a), (x0, a), (a, a))
        want = [literal_bracket(a, unit), literal_bracket(a, x0)]
        want_general = [literal_bracket(x, y) for x, y in general]

        def refused(kernel):
            def run(self, a, b):
                raise RuntimeError(kernel)

            return run

        monkeypatch.setattr(type(ring), "matmul", refused("dense kernel"))
        for x, y in ((a, unit), (x0, a), (unit, x0), (a, a)):
            prod = x * y
            with pytest.raises(RuntimeError, match="dense kernel"):
                prod.entries
        assert [commutator(a, unit), commutator(a, x0)] == want
        assert [commutator(x, y) for x, y in general] == want_general
        monkeypatch.setattr(type(ring), "commute", refused("fused kernel"))
        assert [commutator(a, unit), commutator(a, x0)] == want
        for x, y in general:
            with pytest.raises(RuntimeError, match="fused kernel"):
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
        a = worst_case(ring, n, 20)
        narrow_slots(monkeypatch)
        assert a * a != literal_product(a, a)

    @pytest.mark.parametrize(
        "n,degree,bits",
        [(1, 14, 8), (1, 15, 16), (3, 3, 8), (4, 3, 16)],
        ids=["scalar-240", "scalar-256", "n3-192", "n4-256"],
    )
    def test_byte_slot_cut_off(self, n, degree, bits):
        # worst-case Z_5[t] operands, every coefficient 4, whose slot bound
        # n * (degree + 1) * 16 is below 256 (byte slots) or reaches 256
        # (9 bits, rounded up to two-byte slots: the pair rule holds for
        # 5); each product against the schoolbook
        bound = rings._slot_bound(n, degree + 1, degree + 1, 5)
        assert bound.bit_length() == (8 if bits == 8 else 9)
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


def refuse(monkeypatch, ring, name):
    """Make `ring`'s op `name` raise RuntimeError(name) from now on."""

    def refused(self, *args):
        raise RuntimeError(name)

    monkeypatch.setattr(type(ring), name, refused)


def spy(monkeypatch, ring, name):
    """Count the calls of `ring`'s op `name` from now on."""
    calls = []
    real = getattr(type(ring), name)

    def counted(self, *args):
        calls.append(name)
        return real(self, *args)

    monkeypatch.setattr(type(ring), name, counted)
    return calls


class TestUnreadProduct:
    """`x * y` of two matrices checks the shapes and returns the product
    unread: it multiplies through `ring.matmul` on the first read of its
    entries, and a sum or difference of two unread products is one
    `ring.product_sum`."""

    RINGS = [Z9, P5, P9]

    @staticmethod
    def operands(ring, n=3, seed=0):
        rng = random.Random(seed)
        return [random_entries(ring, n, rng, 3, 0.2) for _ in range(4)]

    @pytest.mark.parametrize("ring", RINGS, ids=str)
    def test_mismatch_raises_at_the_product(self, monkeypatch, ring):
        refuse(monkeypatch, ring, "matmul")
        a = Matrix.identity(ring, 2)
        other = P9 if ring is not P9 else Z9
        for b in (Matrix.identity(ring, 3), Matrix.identity(other, 2)):
            with pytest.raises(DomainError):
                a * b
            with pytest.raises(DomainError):
                b * a

    @pytest.mark.parametrize("ring", RINGS, ids=str)
    def test_refused_matmul_raises_on_first_read(self, monkeypatch, ring):
        a, b, _, _ = self.operands(ring)
        want = literal_product(a, b)
        refuse(monkeypatch, ring, "matmul")
        prod = a * b
        with pytest.raises(RuntimeError, match="matmul"):
            prod.entries
        with pytest.raises(RuntimeError, match="matmul"):
            prod == want
        monkeypatch.undo()
        assert prod == want

    @pytest.mark.parametrize("ring", RINGS, ids=str)
    def test_read_twice_multiplies_once(self, monkeypatch, ring):
        a, b, _, _ = self.operands(ring)
        want = literal_product(a, b)
        calls = spy(monkeypatch, ring, "matmul")
        prod = a * b
        assert calls == []
        first = prod.entries
        assert prod.entries is first and first == want.entries
        assert prod == want and hash(prod) == hash(want)
        assert repr(prod) == repr(want) and (prod - want).is_zero()
        assert calls == ["matmul"]

    @pytest.mark.parametrize("ring", RINGS, ids=str)
    @pytest.mark.parametrize("sign", [1, -1])
    def test_sum_of_unread_products_is_one_product_sum(self, monkeypatch, ring, sign):
        a, b, c, d = self.operands(ring)
        want = read_alone(a, b, c, d, sign)
        refuse(monkeypatch, ring, "matmul")
        calls = spy(monkeypatch, ring, "product_sum")
        p, q = a * b, c * d
        out = p + q if sign > 0 else p - q
        assert type(out) is Matrix and out == want
        assert calls == ["product_sum"]

    @pytest.mark.parametrize("ring", RINGS, ids=str)
    @pytest.mark.parametrize("sign", [1, -1])
    def test_a_read_product_takes_the_plain_op(self, monkeypatch, ring, sign):
        # read on either side, or a plain matrix on the left: the unread
        # side is multiplied, and the two are summed by `add_all` or
        # `sub_all`
        a, b, c, d = self.operands(ring)
        want = read_alone(a, b, c, d, sign)
        refuse(monkeypatch, ring, "product_sum")
        op = "add_all" if sign > 0 else "sub_all"
        for read in ("left", "right", "plain"):
            matmuls = spy(monkeypatch, ring, "matmul")
            plain = spy(monkeypatch, ring, op)
            p, q = a * b, c * d
            if read == "left":
                p.entries
            elif read == "right":
                q.entries
            else:
                p = Matrix(ring, p.n, p.entries)
            out = p + q if sign > 0 else p - q
            assert out == want
            assert matmuls == ["matmul", "matmul"] and plain == [op]

    @pytest.mark.parametrize("ring", RINGS, ids=str)
    def test_value_semantics_match_a_plain_matrix(self, ring):
        # each on a fresh unread product, against the plain matrix of
        # the same payloads
        a, b, _, _ = self.operands(ring)
        want = Matrix(ring, a.n, ring.matmul(a, b))
        assert a * b == want and want == a * b
        assert hash(a * b) == hash(want)
        assert repr(a * b) == repr(want)
        assert {a * b, want} == {want}
        for clone in (copy.copy(a * b), copy.deepcopy(a * b),
                      pickle.loads(pickle.dumps(a * b))):
            assert type(clone) is Matrix and clone == want
            assert clone.entries == want.entries

    def test_threads_reading_one_product_agree(self):
        # the first read writes the product's entries, and over Z_m[t]
        # its operands' packing memos: threads that read one unread
        # product, or sum it with another, at once all see the exact
        # payloads
        a, b, c, d = self.operands(P5, n=4)
        want = literal_product(a, b).entries
        fused = read_alone(a, b, c, d, 1).entries
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                p, q = a * b, c * d
                seen = []
                readers = [lambda: seen.append(p.entries)] * 3
                readers.append(lambda: seen.append((p + q).entries))
                threads = [threading.Thread(target=read) for read in readers]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=10)
                assert not any(thread.is_alive() for thread in threads)
                assert sorted(seen) == sorted([want] * 3 + [fused])
        finally:
            sys.setswitchinterval(interval)


def skew_witness(ring, n, c):
    """c at (1, 2) and -c at (2, 1), zero elsewhere: the n = 2 skew
    witness [[0, c], [-c, 0]], padded with zeros for n > 2."""
    ent = [ring.zero.payload] * (n * n)
    ent[1], ent[n] = c, ring.neg(c)
    return Matrix(ring, n, tuple(ent))


def literal_bracket(a, b):
    """Reference: ab - ba from the per-entry triple loop."""
    return literal_product(a, b) - literal_product(b, a)


def partial_permutation(ring, n, pairs):
    """The 0/1 matrix with a one at each 0-based (row, column) of `pairs`."""
    ent = [ring.zero.payload] * (n * n)
    for k, j in pairs:
        ent[k * n + j] = ring.one.payload
    return Matrix(ring, n, tuple(ent))


def random_partial_permutation(ring, n, rng, count):
    """A partial permutation with `count` ones, at random rows and columns."""
    rows, cols = rng.sample(range(n), count), rng.sample(range(n), count)
    return partial_permutation(ring, n, zip(rows, cols))


def every_partial_permutation(ring, n):
    """Every n x n partial permutation: the zero matrix, each e_{i,j}, ...,
    each full permutation matrix."""
    for count in range(n + 1):
        for rows in itertools.combinations(range(n), count):
            for cols in itertools.permutations(range(n), count):
                yield partial_permutation(ring, n, zip(rows, cols))


class TestProductPath:
    """Every `Matrix.__mul__` of two matrices reaches `ring.matmul`. The
    probe rule lives in `commutator`: on every ring and at every n, an
    untyped commutator whose right operand is a partial permutation (at
    most one 1 in each row and each column, 0 elsewhere) is two gathers
    of the left operand's entries and one `sub_all`, and reaches none of
    `Matrix.__mul__`, `ring.matmul` and `ring.commute`. Every other pair
    (a probe on the left, ones sharing a line, a non-one nonzero, more
    than n ones) is exactly one call of the fused kernel `ring.commute`
    and no product. Counted by wrapping all three."""

    @staticmethod
    def counted(monkeypatch, ring):
        """Three lists that grow by one per call of `Matrix.__mul__` on two
        matrices, of `ring.matmul` and of `ring.commute`."""
        products, kernel, fused = [], [], []
        real_mul = Matrix.__mul__
        real_matmul, real_commute = type(ring).matmul, type(ring).commute

        def counting_mul(self, other):
            if isinstance(other, Matrix):
                products.append(self.n)
            return real_mul(self, other)

        def counting_matmul(self, a, b):
            kernel.append(a.n)
            return real_matmul(self, a, b)

        def counting_commute(self, a, b):
            fused.append(a.n)
            return real_commute(self, a, b)

        monkeypatch.setattr(Matrix, "__mul__", counting_mul)
        monkeypatch.setattr(type(ring), "matmul", counting_matmul)
        monkeypatch.setattr(type(ring), "commute", counting_commute)
        return products, kernel, fused

    @staticmethod
    def tally(lists):
        return [len(calls) for calls in lists]

    @staticmethod
    def grown(lists, before):
        """How many calls each list gained since `tally` gave `before`."""
        return [len(calls) - b for calls, b in zip(lists, before)]

    @staticmethod
    def general(ring, n, rng, degree):
        """A random operand that is not 0/1 at any n, n = 1 too: its
        (1, 1) entry is 2."""
        ent = list(random_entries(ring, n, rng, degree, 0.0).entries)
        ent[0] = ring.element(2).payload
        return Matrix(ring, n, tuple(ent))

    @pytest.mark.parametrize("ring", KERNEL_RINGS, ids=str)
    @pytest.mark.parametrize("n", range(1, 7))
    def test_probe_commutators_take_two_gathers(self, monkeypatch, ring, n):
        products, kernel, fused = self.counted(monkeypatch, ring)
        rng = random.Random(n)
        dense = self.general(ring, n, rng, 3)
        idx = range(1, n + 1)
        probes = [matrix_unit(ring, n, i, j) for i in idx for j in idx]
        if n > 1:
            probes.append(probe_x0(ring, n))
        probes.append(Matrix.zero(ring, n))
        probes.append(random_partial_permutation(ring, n, rng, n))
        probes += [
            random_partial_permutation(ring, n, rng, rng.randint(1, n))
            for _ in range(4)
        ]
        for probe in probes:
            assert commutator(dense, probe) == literal_bracket(dense, probe)
            assert products == kernel == fused == []
            # the left operand is not scanned: [probe, a] is one fused call
            assert commutator(probe, dense) == literal_bracket(probe, dense)
            assert products == kernel == [] and fused == [n]
            del fused[:]
            for x, y in ((dense, probe), (probe, dense)):
                assert x * y == literal_product(x, y)
            assert products == kernel == [n, n] and fused == []
            del products[:], kernel[:]

    @pytest.mark.parametrize("ring", KERNEL_RINGS, ids=str)
    @pytest.mark.parametrize("n", range(1, 7))
    def test_ones_sharing_a_line_take_the_kernel(self, monkeypatch, ring, n):
        # e_11 + e_21 (two ones in a column) and e_11 + e_12 (in a row)
        # are 0/1 with at most n ones but no partial permutation: one fused
        # call. A random 0/1 operand takes it exactly when its ones meet.
        counts = self.counted(monkeypatch, ring)
        rng = random.Random(20 + n)
        dense = self.general(ring, n, rng, 3)
        operands = []
        if n > 1:
            for i, j in ((2, 1), (1, 2)):
                pair = matrix_unit(ring, n, 1, 1) + matrix_unit(ring, n, i, j)
                operands.append((pair, True))
        for count in range(n + 1):
            s = with_support(ring, n, rng, count, 1.0)
            ones = [divmod(k, n) for k, x in enumerate(s.entries) if x]
            rows, cols = ({line[side] for line in ones} for side in (0, 1))
            operands.append((s, len(rows) < count or len(cols) < count))
        for s, shared in operands:
            before = self.tally(counts)
            assert commutator(dense, s) == literal_bracket(dense, s)
            assert self.grown(counts, before) == [0, 0, 1 if shared else 0]

    @pytest.mark.parametrize("ring", KERNEL_RINGS, ids=str)
    @pytest.mark.parametrize("n", range(1, 7))
    def test_operands_with_a_non_one_nonzero_take_the_kernel(
        self, monkeypatch, ring, n
    ):
        # one nonzero other than one makes an operand with at most n
        # nonzero entries a general one: its product takes ring.matmul
        # and its commutator the fused ring.commute, on either side
        counts = self.counted(monkeypatch, ring)
        rng = random.Random(30 + n)
        dense = self.general(ring, n, rng, 3)
        values = [ring.element(2).payload, ring.element(-1).payload]
        if isinstance(ring, PolyRing):
            values.append(ring.t.payload)
        for count in range(1, n + 1):
            for value in values:
                ent = list(random_partial_permutation(ring, n, rng, count).entries)
                ent[rng.choice([k for k, x in enumerate(ent) if x])] = value
                s = Matrix(ring, n, tuple(ent))
                for x, y in ((dense, s), (s, dense)):
                    before = self.tally(counts)
                    assert x * y == literal_product(x, y)
                    assert commutator(x, y) == literal_bracket(x, y)
                    assert self.grown(counts, before) == [1, 1, 1]

    @pytest.mark.parametrize("ring", KERNEL_RINGS, ids=str)
    @pytest.mark.parametrize("n", range(2, 7))
    def test_more_than_n_ones_take_the_kernel(self, monkeypatch, ring, n):
        # n + 1 ones and no other nonzero: not a partial permutation, so
        # the commutator is one fused call, whether or not both sides have
        # ones
        counts = self.counted(monkeypatch, ring)
        rng = random.Random(40 + n)
        dense = random_entries(ring, n, rng, 3, 0.0)
        for _ in range(4):
            s = with_support(ring, n, rng, n + 1, 1.0)
            other = with_support(ring, n, rng, n + 1, 1.0)
            for x, y in ((dense, s), (s, dense), (s, other)):
                before = self.tally(counts)
                assert commutator(x, y) == literal_bracket(x, y)
                assert self.grown(counts, before) == [0, 0, 1]

    @pytest.mark.parametrize("ring", [Zmod(3), Z9, Zmod(1000003), P5], ids=str)
    def test_non_one_sparse_operands_match_literal_product(self, ring):
        # operands with at most n nonzero entries, not all one, take the
        # kernel; for n from 1 to 6 each product of the skew witness and
        # of two random non-one entries is checked against the literal
        # product
        for n in range(1, 7):
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
        # e_11 + e_21 and e_11 + e_12 have two ones in a column or a row,
        # so each product adds two lines of the other operand into one; a
        # probe rule that let them through as gathers would keep one of
        # the two. Their multiples by z and z I have non-one nonzeros,
        # take the kernel and check its values.
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
    ab - ba built from `ring.matmul`, at every n from 1 to 6; and with
    a partial permutation on the right against the literal ab - ba."""

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

    @pytest.mark.parametrize("ring", RINGS, ids=str)
    @pytest.mark.parametrize("n", range(1, 9))
    def test_partial_permutations_match_literal_bracket(self, ring, n):
        # every partial permutation at n <= 3, random ones of each size at
        # n = 4..8, on the right of general operands (Z_9[t]: zero-divisor
        # leading coefficients, which a difference can cancel)
        rng = random.Random(800 + n)
        if n <= 3:
            probes = list(every_partial_permutation(ring, n))
        else:
            probes = [
                random_partial_permutation(ring, n, rng, count)
                for count in range(n + 1)
                for _ in range(2)
            ]
        general = [random_entries(ring, n, rng, 3, 0.0), worst_case(ring, n, 3)]
        if ring is P9:
            general.append(zero_divisor_leads(ring, n, rng))
        for a in general:
            for probe in probes:
                out = commutator(a, probe)
                assert out == literal_bracket(a, probe)
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
    """`rings._product_sums(n, 0, reduced)`, the sign-0 case of the one
    matrix kernel generator, run by `Zmod.matmul` (reduced) and
    `PolyRing.matmul` (raw), against the literal triple loop."""

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
        kernel = rings._product_sums(n, 0)
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
        kernel = rings._product_sums(n, 0, True)
        for a in operands:
            for b in operands:
                want = tuple([s % m for s in int_dot_products(n, a, b)])
                got = kernel(a, b, m)
                assert type(got) is tuple and got == want
                assert ring.matmul(Matrix(ring, n, a), Matrix(ring, n, b)) == want
        assert kernel(full, full, m) == ((n * (m - 1) ** 2) % m,) * (n * n)

    @pytest.mark.parametrize("n", [1, 2, 3, 8])
    def test_built_once_per_n(self, n):
        kernel = rings._product_sums
        for sign in (0, 1, -1):
            assert kernel(n, sign) is kernel(n, sign)
            assert kernel(n, sign) is not kernel(n + 1, sign)
            assert kernel(n, sign, True) is kernel(n, sign, True)
            assert kernel(n, sign, True) is not kernel(n, sign)
        assert kernel(n, 0) is not kernel(n, 1)
        assert kernel(n, 0, True) is not kernel(n, -1, True)

    def test_built_on_first_use_not_at_import(self):
        # one Z_5 product builds exactly the reduced kernel at n = 2: a
        # later lookup of (2, True) is a cache hit and builds nothing
        probe = (
            "from derivring import Matrix, Zmod, rings\n"
            "info = rings._product_sums.cache_info\n"
            "built = info().currsize\n"
            "a = Matrix.from_rows(Zmod(5), [[1, 2], [3, 4]])\n"
            "assert (a * a).entries == (2, 0, 0, 2)\n"
            "after, hits = info().currsize, info().hits\n"
            "rings._product_sums(2, 0, True)\n"
            "print(built, after, info().currsize, info().hits - hits)\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.split() == ["0", "1", "1", "1"]


def bound_pair(ring, n, degree):
    """For n >= 2: a with row 1, and b with column 2, all (m-1)(1 + t +
    ... + t^degree), zero elsewhere. Then (ab)_12 has the slot bound
    B = n * (degree + 1) * (m-1)**2 in its middle slot and (ba)_12 =
    b_12 a_22 = 0, so [a, b] reaches +B there and [b, a] reaches -B."""
    m = modulus(ring)
    full = m - 1 if isinstance(ring, Zmod) else [m - 1] * (degree + 1)
    rows_a = [[full if i == 0 else 0 for _ in range(n)] for i in range(n)]
    rows_b = [[full if j == 1 else 0 for j in range(n)] for _ in range(n)]
    return Matrix.from_rows(ring, rows_a), Matrix.from_rows(ring, rows_b)


def biased_width(ring, n, degree):
    """The bias K = m * ceil(B / m) for the slot bound B, and the slot
    width of `ring.commute`, on two operands of degree + 1 coefficients."""
    m = modulus(ring)
    bound = n * (degree + 1) * (m - 1) ** 2
    bias = -(-bound // m) * m
    return bias, rings._slot_bits(n, degree + 1, degree + 1, m, bias)


class TestCommuteKernel:
    """`ring.commute(a, b)`, the payloads of ab - ba from one call of the
    generated `rings._commutators(n, reduced)` (reduced on Z_m, raw on
    the packed ints of Z_m[t], whose slots carry the bias K), against the
    literal bracket."""

    RINGS = [Zmod(3), Z9, Zmod(1000003), P5, P9]

    @pytest.mark.parametrize("ring", RINGS, ids=str)
    @pytest.mark.parametrize("n", range(1, 9))
    def test_commute_matches_literal_bracket(self, ring, n):
        # all-zero operands on either side, zero-divisor leads on Z_9[t],
        # and for n >= 2 a pair whose bracket reaches +B and -B
        rng = random.Random(900 + n)
        operands = [
            random_entries(ring, n, rng, 3, 0.0),
            random_entries(ring, n, rng, 6, 0.5),
            worst_case(ring, n, 3),
            Matrix.zero(ring, n),
        ]
        if ring is P9:
            operands.append(zero_divisor_leads(ring, n, rng))
        if n > 1:
            operands += bound_pair(ring, n, 3)
        for a in operands:
            for b in operands:
                out = ring.commute(a, b)
                assert type(out) is tuple
                assert out == literal_bracket(a, b).entries
                assert all(is_canonical(ring, p) for p in out)

    @pytest.mark.parametrize(
        "ring,n,degree,bits",
        [(PolyRing(Zmod(3)), 2, 3, 7), (PolyRing(Zmod(3)), 4, 6, 8),
         (P5, 2, 3, 16), (P5, 1, 7, 16), (PolyRing(Zmod(61)), 2, 1, 15)],
        ids=["Z3t-66", "Z3t-224", "Z5t-260", "Z5t-260-scalar", "Z61t-28914"],
    )
    def test_byte_and_shift_slots(self, ring, n, degree, bits):
        # 2K below 256 packs byte slots, whose bias sits 8 bits apart
        # whatever the width; 2K from 256 up takes two-byte slots where
        # the pair rule holds (Z_5: K + B = 258, 9 bits, rounded up to 16)
        # and one shift per slot where it does not (Z_61: 15 bits)
        bias, width = biased_width(ring, n, degree)
        assert width == bits and (2 * bias < 256) == (bits <= 8)
        assert rings._two_byte(bits, modulus(ring)) == (bits == 16)
        operands = [worst_case(ring, n, degree), Matrix.zero(ring, n)]
        if n > 1:
            operands += bound_pair(ring, n, degree)
        for a in operands:
            for b in operands:
                assert ring.commute(a, b) == literal_bracket(a, b).entries

    @pytest.mark.parametrize("ring", [P5, P9], ids=str)
    @pytest.mark.parametrize("n", range(2, 9))
    def test_narrower_slot_is_caught(self, monkeypatch, ring, n):
        # negative control: one bit short of commute's width, the biased
        # slot K + B of [a, b] carries into its neighbour. At n = 1 every
        # bracket is zero, so nothing reaches the top of a slot.
        # The same holds for `ring.product_sum`: ab - cd with c = d = 0
        # reaches K + B, and ab + cd with worst-case operands 2B.
        a, b = bound_pair(ring, n, 20)
        full, zero = worst_case(ring, n, 20), Matrix.zero(ring, n)
        cases = [
            (lambda: ring.commute(a, b), literal_bracket(a, b)),
            (lambda: ring.product_sum(a, b, zero, zero, -1), literal_product(a, b)),
            (lambda: ring.product_sum(full, full, full, full, 1),
             literal_product(full, full) + literal_product(full, full)),
        ]
        for run, want in cases:
            assert run() == want.entries
        narrow_slots(monkeypatch)
        for run, want in cases:
            assert run() != want.entries

    @pytest.mark.parametrize("n", range(1, 10))
    def test_raw_and_reduced_kernels(self, n):
        # commute's kernel is `_product_sums(n, -1)` on (a, b, b, a): raw,
        # the signed int sums of ab - ba as a list; reduced, their
        # residues as a tuple
        rng = random.Random(1000 + n)
        a, b = (random_entries(Z9, n, rng, 0, 0.2).entries for _ in range(2))
        want = [
            x - y for x, y in zip(int_dot_products(n, a, b), int_dot_products(n, b, a))
        ]
        raw = rings._product_sums(n, -1)(a, b, b, a)
        assert type(raw) is list and raw == want
        reduced = rings._product_sums(n, -1, True)(a, b, b, a, 9)
        assert reduced == tuple([x % 9 for x in want])


def read_alone(a, b, c, d, sign):
    """Reference: ab + sign cd with each product read alone, through the
    dense kernel, and summed by the plain whole-matrix `+` or `-`."""
    p, q = a * b, c * d
    p, q = Matrix(p.ring, p.n, p.entries), Matrix(q.ring, q.n, q.entries)
    return p + q if sign > 0 else p - q


def slot_widths(monkeypatch):
    """The slot width of every matrix kernel's `_unpacked` call from now
    on, in order: one per kernel call."""
    widths = []
    unpacked = rings._unpacked

    def spied(sums, bits, offset, m):
        widths.append(bits)
        return unpacked(sums, bits, offset, m)

    monkeypatch.setattr(rings, "_unpacked", spied)
    return widths


class TestProductSumKernel:
    """`ring.product_sum(a, b, c, d, sign)`, the payloads of ab + sign cd
    from one call of the generated `rings._product_sums(n, sign,
    reduced)`, against the two products read alone and summed."""

    RINGS = [
        Zmod(3), Z5, Z9, Zmod(1000003),
        PolyRing(Zmod(3)), P5, P9, PolyRing(Zmod(1000003)),
    ]

    @pytest.mark.parametrize("ring", RINGS, ids=str)
    @pytest.mark.parametrize("n", range(1, 9))
    @pytest.mark.parametrize("sign", [1, -1])
    def test_matches_products_read_alone(self, ring, n, sign):
        # every ordered pair of operands meets the next pair: all-zero
        # operands in every position, zero-divisor leads on Z_9[t], and
        # degrees 1 and 3, on both sides of the byte-slot edge
        rng = random.Random(1100 + 10 * n + sign)
        operands = [
            random_entries(ring, n, rng, 1, 0.0),
            random_entries(ring, n, rng, 3, 0.5),
            worst_case(ring, n, 3),
            Matrix.zero(ring, n),
        ]
        if ring is P9:
            operands.append(zero_divisor_leads(ring, n, rng))
        pairs = list(itertools.product(operands, repeat=2))
        for (a, b), (c, d) in zip(pairs, pairs[1:] + pairs[:1]):
            out = ring.product_sum(a, b, c, d, sign)
            assert type(out) is tuple
            assert out == read_alone(a, b, c, d, sign).entries
            assert all(is_canonical(ring, p) for p in out)

    @pytest.mark.parametrize(
        "ring,degree,product_bits,sum_bits",
        [(PolyRing(Zmod(3)), 3, 6, 7), (P5, 2, 7, 8), (P5, 3, 8, 16)],
        ids=["Z3t-64", "Z5t-192", "Z5t-256"],
    )
    def test_a_product_alone_keeps_its_own_width(
        self, monkeypatch, ring, degree, product_bits, sum_bits
    ):
        # n = 2, worst-case operands: one product's bound is B, the sum's
        # 2B, and the biased difference's K + B (K = m ceil(B / m)). At
        # degree 3 on Z_5[t], B = 128 packs bytes and 2B = 256 takes
        # two-byte slots.
        n, m = 2, modulus(ring)
        full = worst_case(ring, n, degree)
        length = degree + 1
        bias, diff_bits = biased_width(ring, n, degree)
        assert rings._slot_bits(n, length, length, m) == product_bits
        assert rings._slot_bits(2 * n, length, length, m) == sum_bits
        widths = slot_widths(monkeypatch)
        assert (full * full).entries == literal_product(full, full).entries
        assert widths == [product_bits]
        widths.clear()
        twice = literal_product(full, full) + literal_product(full, full)
        assert full * full + full * full == twice
        assert widths == [sum_bits]
        widths.clear()
        assert (full * full - full * full).is_zero()
        assert widths == [diff_bits]

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("n", range(1, 10))
    def test_raw_and_reduced_kernels(self, sign, n):
        # raw, the int sums of ab + sign cd as a list; reduced, their
        # residues as a tuple
        rng = random.Random(1200 + n)
        a, b, c, d = (random_entries(Z9, n, rng, 0, 0.2).entries for _ in range(4))
        want = [
            x + sign * y
            for x, y in zip(int_dot_products(n, a, b), int_dot_products(n, c, d))
        ]
        raw = rings._product_sums(n, sign)(a, b, c, d)
        assert type(raw) is list and raw == want
        reduced = rings._product_sums(n, sign, True)(a, b, c, d, 9)
        assert reduced == tuple([x % 9 for x in want])

    @pytest.mark.parametrize("n", [1, 2, 3, 8])
    def test_built_once_per_n_and_sign(self, n):
        kernel = rings._product_sums
        assert kernel(n, 1) is kernel(n, 1)
        assert kernel(n, 1) is not kernel(n, -1)
        assert kernel(n, -1, True) is not kernel(n, -1)
        assert kernel(n, 1) is not kernel(n + 1, 1)


def literal_plus_transpose(p, sign, scale):
    """Reference: (p + sign p^T) * scale through the whole-matrix ops."""
    out = p + p.transpose() if sign > 0 else p - p.transpose()
    return out * scale


def cancelling_leads(ring, n, rng):
    """An n x n matrix whose pairs above the diagonal cancel their leading
    terms: p_ij leads with c t^k and p_ji with -c t^k (p_ij + p_ji drops
    its top) or c t^k (p_ij - p_ji does), alternately, below which each
    entry has random coefficients of its own length. c is 3 or 6 where m
    is 9, zero divisors; on Z_m each entry is its lead alone."""
    m, poly = modulus(ring), isinstance(ring, PolyRing)
    ent = [ring.element(rng.randrange(m)).payload for _ in range(n * n)]
    for i in range(n):
        for j in range(i + 1, n):
            c = rng.choice((3, 6)) if m == 9 else rng.randrange(1, m)
            k = rng.randrange(4) if poly else 0
            for idx, lead in ((i * n + j, c), (j * n + i, -c if (i + j) % 2 else c)):
                low = [rng.randrange(m) for _ in range(rng.randrange(k + 1))]
                coeffs = low + [0] * (k - len(low)) + [lead]
                ent[idx] = ring.element(coeffs if poly else lead).payload
    return Matrix(ring, n, tuple(ent))


class TestMirroredKernel:
    """`ring.plus_transpose(n, entries, sign, scale)`, which builds
    (p + sign p^T) * scale mirrored from its upper triangle through the
    generated `rings._mirrored(n, sign)` (on Z_m[t] once per coefficient
    plane), against the literal formula, at the scales 1/2 and 1/4 that
    its callers pass; and `_plus_transpose`, which still returns through
    the checked constructor."""

    RINGS = [Zmod(3), Z9, Zmod(1000003), P5, P9]

    @pytest.mark.parametrize("ring", RINGS, ids=str)
    @pytest.mark.parametrize("n", range(1, 10))
    def test_ring_op_matches_literal(self, ring, n):
        # all-(m-1) entries make every p_ij + p_ji pass m; random entries
        # have unequal lengths, and `cancelling_leads` loses top terms
        rng = random.Random(n)
        half = ring.half
        scales = [half, half * half]
        operands = [
            random_entries(ring, n, rng, 3, 0.0),
            random_entries(ring, n, rng, 3, 0.5),
            worst_case(ring, n, 3),
            Matrix.zero(ring, n),
            cancelling_leads(ring, n, rng),
            cancelling_leads(ring, n, rng),
        ]
        for p in operands:
            for sign in (1, -1):
                for scale in scales:
                    got = ring.plus_transpose(n, p.entries, sign, scale.payload)
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
        half = ring.half
        for scale in (half.payload, (half * half).payload):
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
        # the SymmetricMatrix/SkewMatrix constructor (the commutator does
        # not call it: see TestTypedBrackets)
        real = type(ring).plus_transpose

        def broken(self, n, entries, sign, scale):
            out = list(real(self, n, entries, sign, scale))
            out[n] = self.add(out[n], self.one.payload)  # entry (2, 1)
            return tuple(out)

        rng = random.Random(n)
        a = SymmetricMatrix.of(mirrored(random_entries(ring, n, rng, 3, 0.0), 1))
        b = SymmetricMatrix.of(mirrored(random_entries(ring, n, rng, 3, 0.0), 1))
        monkeypatch.setattr(type(ring), "plus_transpose", broken)
        with pytest.raises(DomainError, match="not symmetric"):
            jordan_mul(a, b)
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
    """jordan_mul of two typed arguments (SymmetricMatrix or SkewMatrix)
    takes one product by the parity rule ba = sign (ab)^T,
    sign = a.parity * b.parity, and commutator returns the type of parity
    -sign; the literal two-product formulas are the reference."""

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
        # (x, y, type of x.y); the commutators of typed pairs take no
        # product (TestTypedBrackets)
        table = (
            (a, b, SymmetricMatrix),
            (s, a, SkewMatrix),
            (a, s, SkewMatrix),
            (s, t, SymmetricMatrix),
        )
        for x, y, jordan_type in table:
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


def typed_operands(ring, n, rng):
    """Symmetric and skew operands over `ring`: mirrored from dense and
    sparse random entries and, on Z_9[t], from entries that lead with a
    zero divisor (3 or 6), whose products and sums can lose their top
    terms."""
    bases = [random_entries(ring, n, rng, 3, 0.0), random_entries(ring, n, rng, 3, 0.5)]
    if ring is P9:
        bases.append(zero_divisor_leads(ring, n, rng))
    return [
        kind.of(mirrored(p, kind.parity))
        for p in bases
        for kind in (SymmetricMatrix, SkewMatrix)
    ]


def typed_probes(ring, n):
    """The symmetric probes of the Jordan layer: each e_ii, and each
    e_ij + e_ji for i < j, partial permutations of one or two ones."""
    idx = range(1, n + 1)
    probes = [SymmetricMatrix.of(matrix_unit(ring, n, i, i)) for i in idx]
    probes += [
        SymmetricMatrix.of(matrix_unit(ring, n, i, j) + matrix_unit(ring, n, j, i))
        for i in idx
        for j in idx
        if i < j
    ]
    return probes


class TestTypedBrackets:
    """`commutator` of typed operands takes the rule of b's shape alone:
    two gathers and one `sub_all` for a probe, one `ring.commute`
    otherwise. The result is the literal ab - ba, as the type of parity
    -a.parity * b.parity, and forms no product and no symmetrisation."""

    RINGS = [Z9, P5, P9]

    @staticmethod
    def pairs(ring, n, rng):
        ops = typed_operands(ring, n, rng)
        pairs = [(x, y) for x in ops for y in ops]
        for x in ops:
            # y is constant, so the top terms of x(x + y) and (x + y)x cancel
            y = mirrored(random_entries(ring, n, rng, 0, 0.0), x.parity)
            pairs.append((x, type(x).of(x + y)))
        pairs += [(x, probe) for x in ops for probe in typed_probes(ring, n)]
        return pairs

    @pytest.mark.parametrize("ring", RINGS, ids=str)
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_match_literal_with_the_parity_type_and_no_product(
        self, monkeypatch, ring, n
    ):
        pairs = self.pairs(ring, n, random.Random(900 + n))
        want = [literal_bracket(x, y) for x, y in pairs]
        calls = []
        for owner, name in ((Matrix, "__mul__"), (type(ring), "plus_transpose")):
            real = getattr(owner, name)

            def counted(*args, real=real, name=name):
                calls.append(name)
                return real(*args)

            monkeypatch.setattr(owner, name, counted)
        types = {1: SymmetricMatrix, -1: SkewMatrix}
        for (x, y), expected in zip(pairs, want):
            out = commutator(x, y)
            assert out == expected
            assert type(out) is types[-x.parity * y.parity]
            assert all(is_canonical(ring, p) for p in out.entries)
        assert calls == []

    @pytest.mark.parametrize("ring", RINGS, ids=str)
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_constructor_checks_each_rule(self, monkeypatch, ring, n):
        # a `commute` (general b) or a `sub_all` (probe b) that returns
        # entry (2, 1) off its mirror is refused by the result's type
        rng = random.Random(n)
        a, s = typed_operands(ring, n, rng)[:2]
        b = typed_operands(ring, n, rng)[0]
        probes = typed_probes(ring, n)  # e_11 first, e_{n-1,n} + e_{n,n-1} last
        cases = [
            ("commute", a, b, "not skew-symmetric"),
            ("commute", s, a, "not symmetric"),
        ]
        cases += [
            ("sub_all", x, probe, refusal)
            for probe in (probes[0], probes[-1])
            for x, refusal in ((a, "not skew-symmetric"), (s, "not symmetric"))
        ]
        for name, x, y, refusal in cases:
            real = getattr(type(ring), name)

            def broken(self, *args, real=real):
                out = list(real(self, *args))
                out[n] = self.add(out[n], self.one.payload)
                return tuple(out)

            assert type(commutator(x, y)).parity == -x.parity * y.parity
            with monkeypatch.context() as patch:
                patch.setattr(type(ring), name, broken)
                with pytest.raises(DomainError, match=refusal):
                    commutator(x, y)


# (ring, degree): Z_m, and Z_m[t] with entries of up to degree + 1
# coefficients at byte (Z_3[t]), two-byte (Z_5[t] from n = 3, Z_9[t]) and
# shift (Z_1000003[t]) slots
STACKED_RINGS = [
    (Z9, 0),
    (Zmod(1000003), 0),
    (PolyRing(Zmod(3)), 3),
    (P5, 6),
    (P9, 3),
    (PolyRing(Zmod(1000003)), 2),
]


def typed_stack(ring, n, rng, degree, parity, count):
    """`count` matrices of `parity` (SymmetricMatrix for 1, SkewMatrix
    for -1), mirrored from random entries: dense, sparse and zero in
    turn."""
    kind = {1: SymmetricMatrix, -1: SkewMatrix}[parity]
    shares = (0.0, 0.5, 1.0)
    return [
        kind.of(mirrored(random_entries(ring, n, rng, degree, shares[k % 3]), parity))
        for k in range(count)
    ]


class TestStackedBrackets:
    """`brackets(a, xs)`: [a, x] for every typed x of xs from one
    `ring.matmul_each` and one mirrored kernel per x, against the literal
    ab - ba, as plain matrices."""

    @pytest.mark.parametrize("ring,degree", STACKED_RINGS, ids=str)
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_match_literal_for_every_typed_pair(self, ring, degree, n):
        rng = random.Random(910 + n)
        for pa in (1, -1):
            # a dense, sparse and zero a; stacks of 1, 2 and 2 * 20 x's
            for a in typed_stack(ring, n, rng, degree, pa, 3):
                for px in (1, -1):
                    for count in (1, 2, 40):
                        xs = typed_stack(ring, n, rng, degree, px, count)
                        out = brackets(a, xs)
                        assert [type(r) for r in out] == [Matrix] * count
                        assert out == [literal_bracket(a, x) for x in xs]
                        assert all(
                            is_canonical(ring, p) for r in out for p in r.entries
                        )

    @pytest.mark.parametrize(
        "ring,length", [(PolyRing(Zmod(3)), 23), (P5, 7), (PolyRing(Zmod(1000003)), 3)],
        ids=str,
    )
    def test_plan_covers_the_longest_x(self, ring, length):
        # the first x is constant and a later one has `length` coefficients,
        # all m - 1: a product planned at the first x's length alone
        # overflows its slots (a narrower width than the true plan's)
        n, m = 4, modulus(ring)
        a = SkewMatrix.of(mirrored(worst_case(ring, n, length - 1), -1))
        short = SymmetricMatrix.of(worst_case(ring, n, 0))
        long = SymmetricMatrix.of(worst_case(ring, n, length - 1))
        assert rings._slots(n, 0, 1, length, m)[0] < rings._slots(n, 0, length, length, m)[0]
        xs = [short, long, short, long]
        assert brackets(a, xs) == [literal_bracket(a, x) for x in xs]

    @pytest.mark.parametrize("ring", [Z9, P5], ids=str)
    def test_untyped_operands_are_refused(self, ring):
        rng = random.Random(5)
        s = typed_stack(ring, 3, rng, 2, -1, 1)[0]
        x = typed_stack(ring, 3, rng, 2, 1, 1)[0]
        plain = random_entries(ring, 3, rng, 2, 0.0)
        for a, xs in ((plain, [x]), (s, [plain]), (s, [x, plain, x]), (plain, [plain])):
            with pytest.raises(DomainError, match="symmetric or skew"):
                brackets(a, xs)

    def test_shapes_are_checked(self):
        s = SkewMatrix.of(skew_witness(Z9, 3, 1))
        for x in (SymmetricMatrix.zero(Z9, 2), SymmetricMatrix.zero(Z5, 3)):
            with pytest.raises(DomainError, match="expected a 3x3 matrix over Z_9"):
                brackets(s, [SymmetricMatrix.zero(Z9, 3), x])

    def test_empty_stack(self):
        assert brackets(SkewMatrix.of(skew_witness(P5, 2, (1,))), []) == []


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

    @pytest.mark.parametrize("n", range(2, 9))
    @pytest.mark.parametrize("ring", KERNEL_RINGS, ids=str)
    def test_literal(self, ring, n):
        # ones on the superdiagonal, zero elsewhere, written out entry by
        # entry rather than through any builder of the package
        rows = [[1 if j == i + 1 else 0 for j in range(n)] for i in range(n)]
        assert probe_x0(ring, n) == Matrix.from_rows(ring, rows)

    def test_needs_n_at_least_two(self):
        with pytest.raises(DomainError):
            probe_x0(Z5, 1)


class TestScalar:
    @pytest.mark.parametrize("n", range(1, 9))
    @pytest.mark.parametrize("ring", KERNEL_RINGS, ids=str)
    def test_literal(self, ring, n):
        # z on the diagonal, zero elsewhere, written out entry by entry
        z = ring.element(3)
        rows = [[3 if i == j else 0 for j in range(n)] for i in range(n)]
        assert Matrix.scalar(z, n) == Matrix.from_rows(ring, rows)
        assert type(Matrix.scalar(z, n)) is Matrix

    @pytest.mark.parametrize("n", [0, -1])
    def test_needs_n_at_least_one(self, n):
        with pytest.raises(DomainError):
            Matrix.scalar(Z5.one, n)


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
        [(P5, 15, (3, 7, 15)), (PolyRing(Zmod(61)), 3, (0, 1, 3)),
         (PolyRing(BIG), 5, (0, 2, 5))],
        ids=str,
    )
    def test_one_matrix_at_several_widths(self, ring, degree, degrees):
        # worst-case operands reach each slot bound exactly, so a packing
        # reused at the wrong width would carry into the next slot
        m = modulus(ring)
        a = worst_case(ring, 2, degree)
        widths = [rings._slot_bits(2, degree + 1, d + 1, m) for d in degrees]
        if m == 5:
            # 9 and 10 bits both round up to two-byte slots, so the third
            # partner reuses the packing made for the second
            assert widths == [8, 16, 16]
        elif m == 61:
            # the pair rule fails for 61: three shift widths, none rounded
            assert widths == [13, 14, 15]
        else:
            assert len(set(widths)) == len(widths)
        for d in degrees:
            b = worst_case(ring, 2, d)
            first = (a * b, b * a)
            assert first == (literal_product(a, b), literal_product(b, a))
            assert (a * b, b * a) == first
        assert sorted(a._packings[2]) == sorted(set(widths))

    def test_fixed_operand_is_packed_once_per_width(self, monkeypatch):
        calls = [0]
        pack = rings._pack

        def counted(coeffs, bits):
            calls[0] += 1
            return pack(coeffs, bits)

        monkeypatch.setattr(rings, "_pack", counted)
        n, k, rng = 3, 5, random.Random(8)
        fixed = full_entries(P5, n, rng, 6)
        widths = set()
        # fresh operands of 2 and 6 coefficients: byte slots and 9-bit
        # slots rounded up to two-byte ones
        for length in (2, 6):
            widths.add(rings._slot_bits(n, 6, length, 5))
            for _ in range(k):
                fresh = full_entries(P5, n, rng, length)
                assert fixed * fresh == literal_product(fixed, fresh)
        assert widths == {7, 16}
        assert calls[0] == n * n * (len(widths) + 2 * k)

    def test_product_and_sum_share_one_two_byte_packing(self, monkeypatch):
        # n = 2, degree 7 on Z_5[t]: a product alone needs B = 256 (9 bits)
        # and a sum of two products 2B = 512 (10 bits). Both round up to
        # two-byte slots, so the operand is packed once, at one width.
        n, length = 2, 8
        full = worst_case(P5, n, length - 1)
        bound = rings._slot_bound(n, length, length, 5)
        assert (bound.bit_length(), (2 * bound).bit_length()) == (9, 10)
        assert rings._slots(n, 0, length, length, 5)[0] == 16
        assert rings._slots(n, 1, length, length, 5)[0] == 16
        want = literal_product(full, full)
        calls = [0]
        pack = rings._pack

        def counted(coeffs, bits):
            calls[0] += 1
            return pack(coeffs, bits)

        monkeypatch.setattr(rings, "_pack", counted)
        assert full * full == want
        assert full * full + full * full == want + want
        assert calls[0] == n * n
        assert list(full._packings[2]) == [16]

    def test_reassigned_entries_are_packed_again(self):
        # `entries` is a writable slot: a packing kept for the old tuple
        # must not serve the new one, even at the same slot width
        rng = random.Random(9)
        a, b = full_entries(P9, 3, rng, 3), full_entries(P9, 3, rng, 3)
        assert a * b == literal_product(a, b)
        a.entries = full_entries(P9, 3, rng, 3).entries
        assert a * b == literal_product(a, b)
        assert b * a == literal_product(b, a)

"""Exact certificates of the generated matrix kernels.

Each `rings._product_sums(n, sign, reduced, cols)` is straight-line
code over +, - and * with, when reduced, one % m at the end of each
output. So one run on symbolic operands, one variable per operand entry,
shows each output as an exact integer polynomial: the kernel is
certified for every input at once when each output is
sum_k a_ik b_kj + sign c_ik d_kj and ends in % m exactly when the kernel
is reduced (symbolic execution on straight-line code; King, "Symbolic
execution and program testing", CACM 1976). The square kernels
(cols = n) serve every matrix op, the one-column ones (cols = 1)
`ring.matvec`, and the product kernel (sign 0) also runs on the rows of
several matrices stacked (`ring.matmul_each`). The negative controls rewrite the generated source and
see each mutant refused."""

import re

import pytest

from derivring import rings


class Poly:
    """A sparse polynomial with int coefficients: `terms` maps each
    monomial, a sorted tuple of variable names, to its nonzero
    coefficient. `p % m` is p reduced mod m (`modulus` m, None while
    exact). A reduced value takes no further arithmetic, so an output
    is reduced only if its last operation is its one % m."""

    __slots__ = ("terms", "modulus")

    def __init__(self, terms, modulus=None):
        self.terms = {mono: c for mono, c in terms.items() if c}
        self.modulus = modulus

    @classmethod
    def var(cls, name):
        return cls({(name,): 1})

    @staticmethod
    def _exact(x):
        """The terms of an int or an unreduced Poly."""
        if isinstance(x, int):
            return {(): x}
        if x.modulus is not None:
            raise TypeError(f"arithmetic on a value reduced mod {x.modulus}")
        return x.terms

    def __add__(self, other):
        out = dict(self._exact(self))
        for mono, c in self._exact(other).items():
            out[mono] = out.get(mono, 0) + c
        return Poly(out)

    def __mul__(self, other):
        out = {}
        for ma, ca in self._exact(self).items():
            for mb, cb in self._exact(other).items():
                mono = tuple(sorted(ma + mb))
                out[mono] = out.get(mono, 0) + ca * cb
        return Poly(out)

    def __sub__(self, other):
        return self + other * -1

    def __mod__(self, m):
        return Poly(self._exact(self), m)

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return (self.terms, self.modulus) == (other.terms, other.modulus)

    def __repr__(self):
        terms = [f"{c}*{'*'.join(mono) or '1'}" for mono, c in self.terms.items()]
        body = f"({' + '.join(terms) or '0'})"
        return body if self.modulus is None else f"{body} % {self.modulus}"


M = 9  # the modulus that reduced kernels are run with


def symbolic_operands(n, sign, cols=None, blocks=1):
    """a and b, and for sign 1 or -1 also c and d, named by operand and
    row-major index (a0, a1, ...): blocks * n x n for a and c (the rows
    of `blocks` n x n matrices, stacked), and n x cols (by default n) for
    b and d."""
    cols = n if cols is None else cols
    shapes = [("a", blocks * n, n), ("b", n, cols), ("c", blocks * n, n), ("d", n, cols)]
    return [
        [Poly.var(f"{x}{e}") for e in range(rows * w)]
        for x, rows, w in shapes[: 4 if sign else 2]
    ]


def definition(n, sign, reduced, cols=None, blocks=1):
    """The outputs that `_product_sums(n, sign, reduced, cols)` must
    return for a and c of blocks * n rows: entry i*cols + j is
    sum_k a_ik b_kj + sign c_ik d_kj, written term by term, % M when
    reduced. For row i = q*n + r, that is entry (r, j) of block q's own
    product: block q's outputs are exactly that block's product."""
    cols = n if cols is None else cols
    out = []
    for i in range(blocks * n):
        for j in range(cols):
            terms = {}
            for k in range(n):
                terms[(f"a{i * n + k}", f"b{k * cols + j}")] = 1
                if sign:
                    terms[(f"c{i * n + k}", f"d{k * cols + j}")] = sign
            out.append(Poly(terms, M if reduced else None))
    return out


def refusal(kernel, n, sign, reduced, cols=None, blocks=1):
    """Why `kernel` fails its certificate as `_product_sums(n, sign,
    reduced, cols)` on a left operand of `blocks` n x n matrices stacked
    by rows, or None when it passes: run once on symbolic operands, it
    must return a tuple of outputs when reduced and a list when raw, each
    exactly its `definition`."""
    operands = symbolic_operands(n, sign, cols, blocks)
    try:
        out = kernel(*operands, *([M] if reduced else []))
    except Exception as exc:  # a mutant may not run at all
        return f"raised {exc!r}"
    if type(out) is not (tuple if reduced else list):
        return f"returned a {type(out).__name__}"
    want = definition(n, sign, reduced, cols, blocks)
    if len(out) != len(want):
        return f"returned {len(out)} outputs, not {len(want)}"
    for e, (got, exact) in enumerate(zip(out, want)):
        if got != exact:
            return f"output {e} is {got!r}, not {exact!r}"
    return None


KEYS = [
    (n, sign, reduced)
    for n in range(1, 9)
    for sign in (0, 1, -1)
    for reduced in (False, True)
]


class TestProductSumsCertificate:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_every_key_certified(self, n):
        for sign in (0, 1, -1):
            for reduced in (False, True):
                kernel = rings._product_sums(n, sign, reduced)
                assert refusal(kernel, n, sign, reduced) is None, (sign, reduced)

    def test_n16_certified(self):
        assert refusal(rings._product_sums(16, -1, True), 16, -1, True) is None

    @pytest.mark.parametrize("n", range(1, 11))
    def test_one_column_certified(self, n):
        # `matvec`'s kernel (sign 0) at every inner length of a table up
        # to n = 4 and the lengths between, with both signed forms
        for sign in (0, 1, -1):
            for reduced in (False, True):
                kernel = rings._product_sums(n, sign, reduced, 1)
                assert refusal(kernel, n, sign, reduced, 1) is None, (sign, reduced)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_stacked_rows_certified(self, n):
        # `ring.matmul_each`: the product kernel on the rows of k matrices
        # stacked. Its row loop does not depend on k, and k = 1..5 shows
        # that each block's outputs are that block's product, read from
        # its own rows, raw and reduced
        for blocks in range(1, 6):
            for reduced in (False, True):
                kernel = rings._product_sums(n, 0, reduced)
                reason = refusal(kernel, n, 0, reduced, blocks=blocks)
                assert reason is None, (blocks, reduced, reason)

    def test_definition_is_not_a_kernel(self):
        # the certificate is not vacuous: the exact sums are refused as a
        # reduced kernel's outputs, and their residues as a raw one's
        for n, sign, reduced in KEYS:
            kind = tuple if reduced else list
            exact = kind(definition(n, sign, reduced))
            other = kind(definition(n, sign, not reduced))
            assert refusal(lambda *args: exact, n, sign, reduced) is None
            assert refusal(lambda *args: other, n, sign, reduced)


def mutant(monkeypatch, rewrite, free=()):
    """The uncached `_product_sums` builder, compiling every kernel from
    its generated source after `rewrite`, with the names in `free` bound
    to symbolic variables of the same name."""

    def compiled(name, label, source):
        namespace = {x: Poly.var(x) for x in free}
        exec(compile(rewrite(source), f"<mutant {label}>", "exec"), namespace)
        return namespace[name]

    monkeypatch.setattr(rings, "_compiled", compiled)
    return rings._product_sums.__wrapped__


class TestNegativeControls:
    @pytest.mark.parametrize("n", range(1, 11))
    def test_one_column_index_reversed(self, monkeypatch, n):
        # each term x_k b_k of the one-column kernel reads b_{n-1-k}: at
        # n = 1 that is the same kernel, from n = 2 every key is refused
        def reverse(source):
            return re.sub(r"\* b(\d+)", lambda t: f"* b{n - 1 - int(t[1])}", source)

        build = mutant(monkeypatch, reverse)
        for reduced in (False, True):
            reason = refusal(build(n, 0, reduced, 1), n, 0, reduced, 1)
            assert (reason is None) == (n == 1), (reduced, reason)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_d_index_transposed(self, monkeypatch, n):
        # each term z_k d_kj reads d_jk instead; at n = 1 that is the
        # same kernel, from n = 2 every key is refused
        def transpose(source):
            def swap(term):
                e = int(term[1])
                return f"* d{e % n * n + e // n}"

            return re.sub(r"\* d(\d+)", swap, source)

        build = mutant(monkeypatch, transpose)
        for sign in (1, -1):
            for reduced in (False, True):
                reason = refusal(build(n, sign, reduced), n, sign, reduced)
                assert (reason is None) == (n == 1), (sign, reduced, reason)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_reduced_kernel_without_mod(self, monkeypatch, n):
        build = mutant(monkeypatch, lambda source: source.replace(") % m", ")"))
        for sign in (0, 1, -1):
            reason = refusal(build(n, sign, True), n, sign, True)
            assert reason.startswith("output 0"), reason

    @pytest.mark.parametrize("n", range(1, 9))
    def test_sign_zero_keeps_a_cd_term(self, monkeypatch, n):
        # each x_k b_kj of the product kernel also subtracts z_k d_kj: with
        # z and d unbound the kernel raises, and bound to free variables
        # its outputs carry the extra terms
        def keep_cd(source):
            return re.sub(r"x(\d+) \* b(\d+)", r"x\1 * b\2 - z\1 * d\2", source)

        for free in ((), [f"z{k}" for k in range(n)] + [f"d{e}" for e in range(n * n)]):
            build = mutant(monkeypatch, keep_cd, free)
            for reduced in (False, True):
                reason = refusal(build(n, 0, reduced), n, 0, reduced)
                assert reason.startswith("raised" if not free else "output 0"), reason


def restarted_late(kernel, n):
    """A stacked product that restarts each block after the first one row
    late: block q reads the n rows from row q*n + 1 on, the last block
    wrapping round to row 0."""

    def run(a, b, *m):
        size = len(a)
        rows = a + a  # the wrap
        out = []
        for start in range(0, size, n * n):
            offset = start + n if start else 0
            out += kernel(rows[offset : offset + n * n], b, *m)
        return tuple(out) if m else out

    return run


class TestStackedNegativeControl:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_rows_restarted_at_the_wrong_offset(self, n):
        # one block is the kernel itself; from two blocks on every
        # stack is refused
        for blocks in range(1, 6):
            for reduced in (False, True):
                late = restarted_late(rings._product_sums(n, 0, reduced), n)
                reason = refusal(late, n, 0, reduced, blocks=blocks)
                assert (reason is None) == (blocks == 1), (blocks, reduced, reason)

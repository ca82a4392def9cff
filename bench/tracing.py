"""Instrumentation the benchmark installs from outside the package.

Two kinds, never installed together:

- Spans time the layer functions that `derivring.campaign` calls, by
  replacing those names in the campaign module's namespace.
- Counts wrap the kernel classes and functions of `rings`, `matrices`,
  `twolocal` and `jordan`, wherever a `derivring` module has bound them.

Both return an `uninstall` callable that puts every original back.
"""

from __future__ import annotations

import sys
import time

# campaign-module name -> span metric it is timed under
SPAN_NAMES = {
    "random_element": "sampling.generate_s",
    "random_matrix": "sampling.generate_s",
    "random_pairs": "sampling.generate_s",
    "random_symmetric": "sampling.generate_s",
    "random_x0_commutant": "sampling.generate_s",
    "gen_witness_family": "twolocal.witness_s",
    "reconstruct_abar": "twolocal.reconstruct_s",
    "verify_theorem1": "twolocal.verify_s",
    "check_cross_corner": "twolocal.lemma_s",
    "check_offdiag_formula": "twolocal.lemma_s",
    "check_diag_difference": "twolocal.lemma_s",
    "matrix_unit": "campaign.recovery_s",
    "commutator": "campaign.recovery_s",
    "gen_jordan_instance": "jordan.witness_s",
    "verify_jordan_theorem": "jordan.verify_s",
    "check_diag_zero": "jordan.diag_s",
    "pairs_to_commutator": "jordan.diag_s",
    "leibniz_check": "derivations.leibniz_s",
    "two_generator_check": "derivations.two_generator_s",
}
TOWER_SPAN = "derivations.tower_s"
REPORT_SPAN = "serialize.report_s"


class Spans:
    """Wall time per span metric, with nesting: `total` is inclusive,
    `own` excludes nested spans, and `top` sums the outermost spans."""

    def __init__(self):
        self.total = {}
        self.own = {}
        self.top = 0.0
        self._stack = []

    def wrap(self, label, fn):
        clock = time.perf_counter
        stack = self._stack

        def traced(*args, **kwargs):
            start = clock()
            stack.append(0.0)
            try:
                return fn(*args, **kwargs)
            finally:
                spent = clock() - start
                nested = stack.pop()
                self.total[label] = self.total.get(label, 0.0) + spent
                self.own[label] = self.own.get(label, 0.0) + spent - nested
                if stack:
                    stack[-1] += spent
                else:
                    self.top += spent

        return traced


def install_spans(spans):
    """Time the layer calls made by `derivring.campaign`."""
    import derivring.campaign as campaign

    originals = {name: getattr(campaign, name) for name in SPAN_NAMES}
    originals["extend_tower"] = campaign.extend_tower
    for name, label in SPAN_NAMES.items():
        setattr(campaign, name, spans.wrap(label, originals[name]))

    def traced_extend_tower(delta, n):
        return spans.wrap(TOWER_SPAN, originals["extend_tower"](delta, n))

    campaign.extend_tower = traced_extend_tower

    def uninstall():
        for name, fn in originals.items():
            setattr(campaign, name, fn)

    return uninstall


# count metric -> (owner, attribute names). An owner is a class, whose
# methods are wrapped in place, or a function, whose every binding in a
# derivring module namespace is replaced.
def _count_targets():
    from derivring import matrices, rings, twolocal, jordan

    return {
        "rings.element_allocs": (rings.RingElement, ("__init__",)),
        "rings.zmod_ops": (rings.ZmodElement, ("__add__", "__sub__", "__mul__", "__neg__")),
        "rings.poly_ops": (rings.PolyElement, ("__add__", "__sub__", "__mul__", "__neg__")),
        "rings.delta_calls": (rings.BaseDerivation, ("__call__",)),
        "matrices.matrix_allocs": (matrices.Matrix, ("__init__",)),
        "matrices.symmetry_checks": (matrices.Matrix, ("is_symmetric",)),
        "matrices.jordan_mul_calls": (matrices.jordan_mul, ()),
        "matrices.commutator_calls": (matrices.commutator, ()),
        "twolocal.oracle_evals": (twolocal.TwoLocalOracle, ("__call__",)),
        "twolocal.validations": (twolocal.WitnessFamily, ("validate",)),
        "jordan.validations": (jordan.JordanWitnessFamily, ("validate",)),
    }


def _counted(cell, fn):
    def counted(*args, **kwargs):
        cell[0] += 1
        return fn(*args, **kwargs)

    return counted


def install_counts(counts):
    """Count kernel calls; the returned `uninstall` restores every
    original and writes the totals into `counts` (metric -> int)."""
    from derivring.matrices import Matrix

    restore = []

    def patch(owner, name, new):
        restore.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, new)

    cells = {}
    for metric, (owner, attrs) in _count_targets().items():
        cell = cells[metric] = [0]
        if isinstance(owner, type):
            for attr in attrs:
                patch(owner, attr, _counted(cell, owner.__dict__[attr]))
            continue
        wrapper = _counted(cell, owner)
        for module in _derivring_modules():
            for name, value in list(vars(module).items()):
                if value is owner:
                    patch(module, name, wrapper)

    # Matrix.__mul__ also scales by a ring element; only products count
    matmul = [0]
    cells["matrices.matmul_calls"] = matmul
    original_mul = Matrix.__dict__["__mul__"]

    def counted_mul(self, other):
        if isinstance(other, Matrix):
            matmul[0] += 1
        return original_mul(self, other)

    patch(Matrix, "__mul__", counted_mul)

    def uninstall():
        for owner, name, value in reversed(restore):
            setattr(owner, name, value)
        for metric, cell in cells.items():
            counts[metric] = cell[0]

    return uninstall


def _derivring_modules():
    return [
        module
        for name, module in sorted(sys.modules.items())
        if module is not None and (name == "derivring" or name.startswith("derivring."))
    ]

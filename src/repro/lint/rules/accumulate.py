"""``no-allocating-accumulate``: gradient accumulation must not allocate.

The tensor core's backward pass runs once per graph node per training
step; inside ``src/repro/tensor`` the pattern

::

    x.grad = x.grad + contribution

allocates a fresh array on *every* contribution — the exact allocation
churn the PR-10 acceleration removed by pooling gradient buffers and
accumulating with ``np.add(current, grad, out=current)`` (see
``Tensor._accumulate`` and DESIGN.md "The tensor core").  Reintroducing
an allocating accumulate in the hot path is a silent performance
regression the benchmarks would only catch at their gate, hours from the
edit; this rule catches it at lint time, in the diff.

The rule is deliberately narrow and path-scoped like
``no-sim-wallclock``: it only fires under ``src/repro/tensor``, and only
on an assignment to a ``.grad`` attribute whose right-hand side is an
``Add`` with that same attribute as an operand (either side — ``g +
x.grad`` allocates just the same).  The one legitimate occurrence, the
reference-kernel branch of ``Tensor._accumulate`` that preserves the
pre-acceleration graph as the bench baseline and equivalence oracle,
carries a pragma explaining itself.

Augmented assignment (``x.grad += g``) is *not* flagged: on an ndarray
it lowers to in-place ``np.add`` and is precisely the fix.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.engine import (
    RULES,
    FileContext,
    Rule,
    Violation,
)


def _in_tensor_tree(path: str) -> bool:
    normalized = path.replace("\\", "/")
    return "repro/tensor/" in normalized or normalized.endswith("repro/tensor")


def _check(context: FileContext) -> Iterator[Violation]:
    if not _in_tensor_tree(context.path):
        return
    for node in ast.walk(context.tree):
        if not isinstance(node, ast.Assign):
            continue
        if not isinstance(node.value, ast.BinOp):
            continue
        if not isinstance(node.value.op, ast.Add):
            continue
        for target in node.targets:
            if not (isinstance(target, ast.Attribute) and target.attr == "grad"):
                continue
            target_src = ast.unparse(target)
            operands = (node.value.left, node.value.right)
            if any(ast.unparse(operand) == target_src for operand in operands):
                yield context.violation(RULE, node, (
                    f"{target_src} = {target_src} + ... allocates a fresh "
                    "gradient array per contribution in the backward hot "
                    "path"
                ))
                break


RULE = RULES.register(Rule(
    name="no-allocating-accumulate",
    check=_check,
    description=(
        "src/repro/tensor never accumulates gradients by reassignment "
        "(x.grad = x.grad + g) — backward-pass allocation churn is what "
        "the pooled-buffer accumulate exists to avoid"
    ),
    hint=(
        "accumulate in place: np.add(x.grad, g, out=x.grad) into an "
        "owned/pooled buffer (see Tensor._accumulate), or x.grad += g"
    ),
    profiles=("lib",),
))

"""BE-tree transformations: merge, inject, sibling ordering, and
cost-driven selection.

Implements Definitions 9–10 (the transformation primitives), Algorithm 2
(single-level decision), Algorithm 3 (Δ-cost probing subroutines) and
Algorithm 4 (multi-level greedy, post-order traversal).

Algorithm 4 visits each group once; after its single-level merge/inject
decision, :func:`order_siblings` reorders the group's joined children
(the paper's "reorder" step).  Algorithm 1 joins children left to
right, so a child that shares no certain variable with the rows before
it builds a near-cartesian intermediate, and §6's pruning has nothing
to pass down to it.  The rule is connectivity, not the cost model: the
product-of-children group estimate is orders of magnitude off on nested
groups, while the shared certain variables are exactly what pruning
turns into candidates.  Ordering never moves a child across an
OPTIONAL: bag joins commute and associate, ⟕ does not.  FILTER
children keep their slots, since a group's filters are collected up
front wherever they sit.

Both primitives are *undoable*: :func:`perform_merge` /
:func:`perform_inject` return an undo closure, which Algorithm 3's
perform → measure → undo probing relies on.

Constraint checks ("if constraints are violated" in Algorithm 3) are the
semantic side-conditions spelled out in Definitions 9–10 plus the
relocation-safety condition for merge: removing P1 from its position and
re-introducing it inside the UNION moves it across any siblings between
the two, which is only semantics-preserving when intervening OPTIONAL
bodies share with P1 only variables that are certainly bound earlier
(see :mod:`repro.core.betree`'s module docstring).  Inject never moves
P1, so only Definition 10's own conditions apply.
"""

from __future__ import annotations

from typing import Callable, List, Optional as Opt, Set, Tuple

from .betree import (
    BENode,
    BETree,
    BGPNode,
    FilterNode,
    GroupNode,
    OptionalNode,
    UnionNode,
    _certain_of,
    certain_variables,
    coalesce_siblings,
)
from .cost import CostModel

__all__ = [
    "perform_merge",
    "perform_inject",
    "can_merge",
    "can_inject",
    "decide_merge",
    "decide_inject",
    "single_level_transform",
    "order_siblings",
    "multi_level_transform",
    "TransformReport",
]

Undo = Callable[[], None]


class TransformReport:
    """What the cost-driven transformer did to one tree."""

    def __init__(self):
        self.merges: int = 0
        self.injects: int = 0
        #: Groups whose joined children :func:`order_siblings` reordered.
        self.reorders: int = 0
        self.considered: int = 0
        self.total_delta: float = 0.0

    @property
    def transformations(self) -> int:
        return self.merges + self.injects + self.reorders

    def __repr__(self) -> str:
        return (
            f"TransformReport(merges={self.merges}, injects={self.injects}, "
            f"reorders={self.reorders}, considered={self.considered}, "
            f"total_delta={self.total_delta:.1f})"
        )


# ----------------------------------------------------------------------
# condition checks
# ----------------------------------------------------------------------
def _relocation_safe(parent: GroupNode, source: BENode, target: BENode) -> bool:
    """Is moving ``source`` (a BGP) to ``target``'s position safe?

    Only intervening OPTIONAL siblings matter (joins commute).  For each
    OPTIONAL strictly between the two positions, the variables the moved
    BGP shares with the OPTIONAL body must be certainly bound by the
    children before that OPTIONAL, *excluding* the moved node itself.
    """
    children = parent.children
    source_index = children.index(source)
    target_index = children.index(target)
    low, high = sorted((source_index, target_index))
    moved_vars = source.variables()
    for index in range(low + 1, high):
        sibling = children[index]
        if not isinstance(sibling, OptionalNode):
            continue
        shared = moved_vars & sibling.variables()
        if not shared:
            continue
        certain = certain_variables(
            [c for c in children[:index] if c is not source], index
        )
        if not shared <= certain:
            return False
    return True


def _prefix_safe(group: GroupNode, moved_vars: Set[str]) -> bool:
    """Is prefixing a BGP binding ``moved_vars`` to ``group`` equivalent
    to joining the BGP with the group's result?

    Joins and unions distribute over a prefixed join, so only the
    group's direct OPTIONAL children matter:

        P1 ⋈ (A ⟕ X)  ==  (P1 ⋈ A) ⟕ X

    requires every variable P1 shares with X to be *certainly* bound in
    A (the children before the OPTIONAL).  Otherwise a row of A that
    matches X only through an unbound shared variable — or survives on
    the OPTIONAL's miss-path — changes behaviour once P1's bindings are
    merged in before the left join.
    """
    for index, child in enumerate(group.children):
        if not isinstance(child, OptionalNode):
            continue
        shared = moved_vars & child.variables()
        if shared and not shared <= certain_variables(group.children, index):
            return False
    return True


def _filter_safe(group: GroupNode, moved_vars: Set[str]) -> bool:
    """Is prefixing a BGP binding ``moved_vars`` to ``group`` transparent
    to the group's own FILTER constraints?

    A direct FILTER child of the group evaluates over the group's
    result rows.  Prefixing P1 additionally binds P1's variables in
    those rows, so a filter mentioning a P1 variable changes outcome
    unless that variable is already *certainly* bound by the group
    itself (then the merged value coincides).  Filters inside nested
    subgroups / OPTIONAL bodies are scoped to their own group, which
    the prefix never enters.
    """
    for child in group.children:
        if not isinstance(child, FilterNode):
            continue
        shared = moved_vars & child.variables()
        if shared and not shared <= certain_variables(
            group.children, len(group.children)
        ):
            return False
    return True


def can_merge(parent: GroupNode, p1: BENode, union_node: BENode) -> bool:
    """Definition 9's conditions plus relocation, prefix and filter safety."""
    if not isinstance(p1, BGPNode) or p1.is_empty():
        return False
    if not isinstance(union_node, UnionNode):
        return False
    if p1 not in parent.children or union_node not in parent.children:
        return False
    if p1 is union_node:
        return False
    has_coalescable = any(
        bgp.coalescable_with(p1)
        for branch in union_node.branches
        for bgp in branch.bgp_children()
    )
    if not has_coalescable:
        return False
    # P1 is inserted as the leftmost child of *every* branch, so each
    # branch must tolerate the prefix, not just the coalescable ones.
    moved_vars = p1.variables()
    if not all(_prefix_safe(branch, moved_vars) for branch in union_node.branches):
        return False
    if not all(_filter_safe(branch, moved_vars) for branch in union_node.branches):
        return False
    return _relocation_safe(parent, p1, union_node)


def can_inject(parent: GroupNode, p1: BENode, optional_node: BENode) -> bool:
    """Definition 10's conditions (OPTIONAL must be to P1's right)."""
    if not isinstance(p1, BGPNode) or p1.is_empty():
        return False
    if not isinstance(optional_node, OptionalNode):
        return False
    children = parent.children
    if p1 not in children or optional_node not in children:
        return False
    if children.index(optional_node) < children.index(p1):
        return False
    if not _filter_safe(optional_node.group, p1.variables()):
        return False
    return any(
        bgp.coalescable_with(p1) for bgp in optional_node.group.bgp_children()
    )


# ----------------------------------------------------------------------
# transformation primitives
# ----------------------------------------------------------------------
def _snapshot_group(group: GroupNode):
    """Capture enough state to undo list- and pattern-level mutations.

    Node objects themselves are kept (not cloned) so that references
    held by callers — notably P1 inside Algorithm 2's loop — survive a
    perform/undo round trip with their identity intact.
    """
    children = list(group.children)
    patterns = [
        (child, list(child.patterns))
        for child in children
        if isinstance(child, BGPNode)
    ]
    return (group, children, patterns)


def _restore_groups(snapshots) -> None:
    for group, children, patterns in snapshots:
        group.children[:] = children
        for bgp, saved in patterns:
            bgp.patterns[:] = saved


def perform_merge(parent: GroupNode, p1: BGPNode, union_node: UnionNode) -> Undo:
    """Definition 9's action; returns an undo closure.

    P1's patterns are inserted as the leftmost child of every UNION'ed
    group, coalesced to maximality there, and P1's original slot becomes
    a retained empty BGP node.
    """
    snapshots = [_snapshot_group(parent)]
    snapshots.extend(_snapshot_group(branch) for branch in union_node.branches)
    index = parent.children.index(p1)
    parent.children[index] = BGPNode([])
    for branch in union_node.branches:
        branch.children.insert(0, BGPNode(list(p1.patterns)))
        coalesce_siblings(branch)

    def undo() -> None:
        _restore_groups(snapshots)

    return undo


def perform_inject(parent: GroupNode, p1: BGPNode, optional_node: OptionalNode) -> Undo:
    """Definition 10's action; returns an undo closure.

    P1's patterns are inserted as the leftmost child of the OPTIONAL's
    group and coalesced to maximality; P1 keeps its original occurrence.
    """
    snapshots = [_snapshot_group(optional_node.group)]
    optional_node.group.children.insert(0, BGPNode(list(p1.patterns)))
    coalesce_siblings(optional_node.group)

    def undo() -> None:
        _restore_groups(snapshots)

    return undo


# ----------------------------------------------------------------------
# Algorithm 3: Δ-cost probing subroutines
# ----------------------------------------------------------------------
def decide_merge(
    cost_model: CostModel,
    parent: GroupNode,
    p1: BGPNode,
    union_node: UnionNode,
) -> float:
    """DecideMerge(P1, U): Δ-cost of merging, or 0 when not applicable.

    The paper enumerates coalescing-target tuples; with maximal (fix-
    point) coalescing the outcome of a merge is unique, so a single
    perform / measure / undo probe suffices.
    """
    if not can_merge(parent, p1, union_node):
        return 0.0
    original = cost_model.local_cost_merge(parent, p1, union_node)
    index = parent.children.index(p1)
    undo = perform_merge(parent, p1, union_node)
    transformed = cost_model.local_cost_merge(
        parent, parent.children[index], union_node
    )
    undo()
    return transformed - original


def decide_inject(
    cost_model: CostModel,
    parent: GroupNode,
    p1: BGPNode,
    optional_node: OptionalNode,
) -> float:
    """DecideInject(P1, O): perform the inject iff its Δ-cost < 0.

    Returns the Δ-cost of the (kept or undone) transformation.
    """
    if not can_inject(parent, p1, optional_node):
        return 0.0
    original = cost_model.local_cost_inject(parent, p1, optional_node)
    undo = perform_inject(parent, p1, optional_node)
    transformed = cost_model.local_cost_inject(parent, p1, optional_node)
    delta = transformed - original
    if delta >= 0:
        undo()
        return 0.0
    return delta


# ----------------------------------------------------------------------
# Algorithm 2: single-level transformation
# ----------------------------------------------------------------------
def _only_bgp_on_left(parent: GroupNode, p1: BGPNode, target: BENode) -> bool:
    """§6's special case: P1 is the only (non-empty) node left of the
    UNION/OPTIONAL — transformation is then equivalent to candidate
    pruning and is skipped to avoid double work."""
    target_index = parent.children.index(target)
    left = [
        c
        for c in parent.children[:target_index]
        if not (isinstance(c, BGPNode) and c.is_empty())
        and not isinstance(c, FilterNode)  # filters are not positional
    ]
    return left == [p1]


def single_level_transform(
    cost_model: CostModel,
    parent: GroupNode,
    report: Opt[TransformReport] = None,
    skip_cp_equivalent: bool = False,
) -> TransformReport:
    """Algorithm 2: decide transformations among ``parent``'s children.

    Each BGP child is probed against every sibling UNION (picking the
    single most-negative merge, since a merged BGP disappears from its
    slot) and against every OPTIONAL to its right (injects are mutually
    independent, each kept iff Δ-cost < 0).

    With ``skip_cp_equivalent`` (set by the *full* strategy), the §6
    special case — a lone BGP directly feeding the operator — is left to
    candidate pruning.
    """
    report = report if report is not None else TransformReport()
    for p1 in list(parent.children):
        if not isinstance(p1, BGPNode) or p1.is_empty():
            continue
        if p1 not in parent.children:  # consumed by an earlier merge
            continue
        best_delta = 0.0
        best_union: Opt[UnionNode] = None
        for child in parent.children:
            if isinstance(child, UnionNode):
                report.considered += 1
                if skip_cp_equivalent and _only_bgp_on_left(parent, p1, child):
                    continue
                delta = decide_merge(cost_model, parent, p1, child)
                if delta < best_delta:
                    best_delta = delta
                    best_union = child
        if best_union is not None:
            perform_merge(parent, p1, best_union)
            report.merges += 1
            report.total_delta += best_delta
            continue  # P1 is gone; injects no longer apply
        for child in list(parent.children):
            if isinstance(child, OptionalNode):
                report.considered += 1
                if skip_cp_equivalent and _only_bgp_on_left(parent, p1, child):
                    continue
                delta = decide_inject(cost_model, parent, p1, child)
                if delta < 0:
                    report.injects += 1
                    report.total_delta += delta
    return report


# ----------------------------------------------------------------------
# sibling ordering
# ----------------------------------------------------------------------
def _order_run(run: List[BENode], certain: Set[str]) -> List[BENode]:
    """Order one OPTIONAL-free run of joined children, greedily.

    The first child stays first; each next one is the remaining child
    sharing the most variables with ``certain`` (earliest written wins a
    tie).  ``certain`` grows by each placed child's certain variables.
    """
    rest = list(run)
    ordered: List[BENode] = []
    while rest:
        best = 0
        if ordered:
            best = max(
                range(len(rest)),
                key=lambda i: (len(rest[i].variables() & certain), -i),
            )
        child = rest.pop(best)
        ordered.append(child)
        certain |= _certain_of(child)
    return ordered


def order_siblings(group: GroupNode) -> bool:
    """Reorder ``group``'s joined children by shared certain variables.

    The non-FILTER children split into runs at OPTIONAL children; each
    run is ordered by :func:`_order_run`, seeded with the variables the
    children before it certainly bind.  OPTIONALs and FILTERs keep their
    slots.  Returns True when the order changed.
    """
    operators = group.operator_children()
    ordered: List[BENode] = []
    certain: Set[str] = set()
    run: List[BENode] = []
    for child in operators:
        if isinstance(child, OptionalNode):
            ordered.extend(_order_run(run, certain))
            ordered.append(child)
            run = []
        else:
            run.append(child)
    ordered.extend(_order_run(run, certain))
    if all(a is b for a, b in zip(ordered, operators)):
        return False
    slots = iter(ordered)
    group.children[:] = [
        child if isinstance(child, FilterNode) else next(slots)
        for child in group.children
    ]
    return True


# ----------------------------------------------------------------------
# Algorithm 4: multi-level greedy transformation
# ----------------------------------------------------------------------
def multi_level_transform(
    cost_model: CostModel,
    tree: BETree,
    skip_cp_equivalent: bool = False,
) -> TransformReport:
    """Algorithm 4: post-order traversal, transforming bottom-up.

    Lower levels are fully transformed before their parents, so each
    single-level decision sees stable child costs — the greedy strategy
    that keeps the exponential multi-level plan space tractable.  Each
    group's children are then ordered by :func:`order_siblings`.
    """
    report = TransformReport()

    def traverse(group: GroupNode) -> None:
        for child in group.children:
            if isinstance(child, GroupNode):
                traverse(child)
            elif isinstance(child, UnionNode):
                for branch in child.branches:
                    traverse(branch)
            elif isinstance(child, OptionalNode):
                traverse(child.group)
        single_level_transform(cost_model, group, report, skip_cp_equivalent)
        if order_siblings(group):
            report.reorders += 1

    traverse(tree.root)
    return report

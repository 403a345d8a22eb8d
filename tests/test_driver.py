"""The shared backtracking driver on toy engines: exact node counts, order, budgets, unwinding."""

from itertools import product
from math import comb

import pytest

from gallaikit.search import Outcome, SearchOptions, backtrack

from oracles import not_lex_leader


def stirling2(k, j):
    # partitions of a k-set into j nonempty blocks
    if k == j:
        return 1
    if j == 0 or j > k:
        return 0
    return j * stirling2(k - 1, j) + stirling2(k - 1, j - 1)


class Toy:
    """An engine whose only constraint is at the last slot, where it accepts `wanted` alone.

    Every color fits every other slot.  With wanted None the last slot
    takes no color, so a search tries every assignment and exhausts.
    """

    def __init__(self, slots, wanted=None):
        self.values = [0] * slots
        self.placed = 0
        self.wanted = wanted

    def fits(self, pos, hi):
        assert self.placed == pos
        if pos < len(self.values) - 1:
            return (2 << hi) - 2
        if self.wanted is not None and self.values[:pos] == self.wanted[:pos]:
            return 1 << self.wanted[pos]
        return 0

    def place(self, pos, c):
        assert self.values[pos] == 0 and self.placed == pos
        self.values[pos] = c
        self.placed += 1

    def unplace(self, pos, c):
        assert self.values[pos] == c and self.placed == pos + 1
        self.values[pos] = 0
        self.placed -= 1

    def floor(self, pos):
        # nondecreasing sequences
        return self.values[pos - 1] if pos else 1


def run(toy, slots, r, floor=None, color_symmetry=True, **opts):
    opts = SearchOptions(**opts)
    result = backtrack(slots, r, opts, toy.fits, toy.place, toy.unplace, floor, first_use=color_symmetry)
    assert toy.placed == 0 and not any(toy.values)
    return result


# worker_hint is accepted and ignored: every hint must give the counts of None.
HINTS = (None, 2, 4)


@pytest.mark.parametrize("hint", HINTS)
@pytest.mark.parametrize("slots, r", [(1, 1), (3, 2), (5, 3), (8, 3), (11, 2)])
def test_exhaustion_counts_every_assignment(slots, r, hint):
    expected = sum(r**k for k in range(1, slots + 1))
    toy = Toy(slots)
    assert run(toy, slots, r, color_symmetry=False, worker_hint=hint) == (Outcome.EXHAUSTED, expected, None)


@pytest.mark.parametrize("hint", HINTS)
@pytest.mark.parametrize("slots, r", [(1, 1), (4, 2), (6, 4), (8, 3), (11, 4)])
def test_color_symmetry_counts_set_partitions(slots, r, hint):
    expected = sum(stirling2(k, j) for k in range(1, slots + 1) for j in range(1, r + 1))
    toy = Toy(slots)
    assert run(toy, slots, r, worker_hint=hint) == (Outcome.EXHAUSTED, expected, None)


@pytest.mark.parametrize("hint", HINTS)
def test_floor_counts_nondecreasing_sequences(hint):
    slots, r = 9, 3
    expected = sum(comb(k + r - 1, k) for k in range(1, slots + 1))
    toy = Toy(slots)
    result = run(toy, slots, r, floor=toy.floor, color_symmetry=False, worker_hint=hint)
    assert result == (Outcome.EXHAUSTED, expected, None)


@pytest.mark.parametrize("hint", HINTS)
def test_first_accepted_leaf_is_the_least_and_budgets_are_exact(hint):
    slots, r = 8, 2
    wanted = [1, 2] * (slots // 2)
    toy = Toy(slots, wanted)
    opts = {"color_symmetry": False, "worker_hint": hint}

    kind, nodes, colors = run(toy, slots, r, **opts)
    assert (kind, colors) == (Outcome.FOUND, wanted)
    assert run(toy, slots, r, **opts, node_budget=nodes) == (Outcome.FOUND, nodes, wanted)
    assert run(toy, slots, r, **opts, node_budget=nodes - 1) == (Outcome.BUDGET_EXCEEDED, nodes, None)


class Picky(Toy):
    """A toy engine that rejects a fixed set of colors at every slot."""

    def __init__(self, slots, rejected, wanted=None):
        super().__init__(slots, wanted)
        self.rejected = sum(1 << c for c in rejected)

    def fits(self, pos, hi):
        return super().fits(pos, hi) & ~self.rejected


@pytest.mark.parametrize("hint", HINTS)
def test_rejected_colors_count_as_nodes_and_budgets_stop_inside_them(hint):
    # colors 2, 3 and 5 of 1..5 never fit: each slot visit tries 5 colors, of which
    # 1 and 4 fit, so a slot skips the run 2, 3 and ends with the run 5
    slots, r, rejected = 8, 5, (2, 3, 5)
    total = 5 * (2**slots - 1)
    opts = {"color_symmetry": False, "worker_hint": hint}
    picky = Picky(slots, rejected)
    assert run(picky, slots, r, **opts) == (Outcome.EXHAUSTED, total, None)
    # the overrun lands on the trailing 5 of the first slot
    assert run(picky, slots, r, **opts, node_budget=total - 1) == (Outcome.BUDGET_EXCEEDED, total, None)

    wanted = [1] * (slots - 1) + [4]
    picky = Picky(slots, rejected, wanted)
    # ones down to the last slot, then its 1, the skipped 2 and 3, and the 4
    nodes = slots - 1 + 4
    assert run(picky, slots, r, **opts) == (Outcome.FOUND, nodes, wanted)
    assert run(picky, slots, r, **opts, node_budget=nodes) == (Outcome.FOUND, nodes, wanted)
    for budget in (nodes - 1, nodes - 2):  # budgets that fall on the skipped 3 and 2
        assert run(picky, slots, r, **opts, node_budget=budget) == (
            Outcome.BUDGET_EXCEEDED,
            budget + 1,
            None,
        )


def lex_leader_nodes(slots, r, perms):
    # colors tried below every first-use prefix that no perm rejects, by brute force
    nodes = 0
    for k in range(slots):
        for prefix in product(range(1, r + 1), repeat=k):
            if any(c > max(prefix[:j], default=0) + 1 for j, c in enumerate(prefix)):
                continue  # not numbered by first use
            if any(not_lex_leader(list(prefix[:j]), g) for j in range(1, k + 1) for g in perms):
                continue
            nodes += min(r, max(prefix, default=0) + 1)
    return nodes


@pytest.mark.parametrize("hint", HINTS)
def test_perms_keep_the_lex_leaders(hint):
    # a transposition and a rotation of the slots; the rotation is not its own
    # inverse, so the count pins the direction (x o g)[k] = x[g[k]]
    slots, r = 8, 3
    perms = [[2, 1, 0, *range(3, slots)], [(k + 1) % slots for k in range(slots)]]
    toy = Toy(slots)
    result = backtrack(slots, r, SearchOptions(worker_hint=hint), toy.fits, toy.place, toy.unplace, perms=perms)
    assert result == (Outcome.EXHAUSTED, lex_leader_nodes(slots, r, perms), None)
    assert toy.placed == 0


def test_perms_need_first_use_colors():
    toy = Toy(3)
    with pytest.raises(ValueError, match="first-use"):
        backtrack(3, 2, SearchOptions(), toy.fits, toy.place, toy.unplace, first_use=False, perms=[[2, 1, 0]])
    with pytest.raises(ValueError, match="permutation"):
        backtrack(3, 2, SearchOptions(), toy.fits, toy.place, toy.unplace, perms=[[0, 1, 1]])

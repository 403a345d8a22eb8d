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
        # nondecreasing sequences; the driver calls floor on entering a slot, with
        # every earlier slot placed (the grid engine's floor relies on that)
        assert self.placed == pos and all(self.values[:pos]) and not self.values[pos]
        return self.values[pos - 1] if pos else 1


def run(toy, slots, r, floor=None, **opts):
    opts = SearchOptions(**opts)
    result = backtrack(slots, r, opts, toy.fits, toy.place, toy.unplace, floor)
    assert toy.placed == 0 and not any(toy.values)
    return result


# worker_hint is accepted and ignored: every hint must give the counts of None.
HINTS = (None, 2, 4)


@pytest.mark.parametrize("hint", HINTS)
@pytest.mark.parametrize("slots, r", [(1, 1), (4, 2), (6, 4), (8, 3), (11, 4)])
def test_color_symmetry_counts_set_partitions(slots, r, hint):
    expected = sum(stirling2(k, j) for k in range(1, slots + 1) for j in range(1, r + 1))
    toy = Toy(slots)
    assert run(toy, slots, r, worker_hint=hint) == (Outcome.EXHAUSTED, expected, None)


@pytest.mark.parametrize("hint", HINTS)
def test_floor_counts_nondecreasing_sequences(hint):
    # a nondecreasing first-use sequence starts at 1 and steps up by exactly 1 at
    # most r - 1 times, so there are sum_j C(k - 1, j), j < r, of length k
    slots, r = 9, 3
    expected = sum(comb(k - 1, j) for k in range(1, slots + 1) for j in range(r))
    toy = Toy(slots)
    result = run(toy, slots, r, floor=toy.floor, worker_hint=hint)
    assert result == (Outcome.EXHAUSTED, expected, None)


class Logged(Toy):
    """A toy engine that logs each callback as (name, pos)."""

    def __init__(self, slots, wanted=None):
        super().__init__(slots, wanted)
        self.log = []

    def fits(self, pos, hi):
        self.log.append(("fits", pos))
        return super().fits(pos, hi)

    def place(self, pos, c):
        self.log.append(("place", pos))
        super().place(pos, c)

    def unplace(self, pos, c):
        self.log.append(("unplace", pos))
        super().unplace(pos, c)

    def floor(self, pos):
        self.log.append(("floor", pos))
        return super().floor(pos)


@pytest.mark.parametrize("wanted, budget", [(None, None), ([1, 1, 2, 2, 3, 3], None), (None, 20)])
def test_floor_runs_once_per_slot_entry_just_before_fits(wanted, budget):
    slots, r = 6, 3
    toy = Logged(slots, wanted)
    run(toy, slots, r, floor=toy.floor, node_budget=budget)
    log = toy.log
    # the driver enters slot 0 at the start and slot pos + 1 after each place(pos)
    entries = [0] + [pos + 1 for name, pos in log if name == "place" and pos + 1 < slots]
    assert [pos for name, pos in log if name == "floor"] == entries
    for k, (name, pos) in enumerate(log):
        if name == "floor":
            assert log[k + 1] == ("fits", pos)
            assert k == 0 or log[k - 1] == ("place", pos - 1)
        elif name == "fits":
            assert log[k - 1] == ("floor", pos)


@pytest.mark.parametrize("hint", HINTS)
def test_first_accepted_leaf_is_the_least_and_budgets_are_exact(hint):
    slots, r = 8, 2
    wanted = [1, 2] * (slots // 2)
    toy = Toy(slots, wanted)
    opts = {"worker_hint": hint}
    # a two-color first-use sequence of length k is 1 and then k - 1 free bits (2 for
    # a set bit), and those not above wanted[:k] are the 2^k // 3 + 1 whose bits are
    # at most 1010..., read in binary
    nodes = sum(2**k // 3 + 1 for k in range(1, slots + 1))

    assert run(toy, slots, r, **opts) == (Outcome.FOUND, nodes, wanted)
    assert run(toy, slots, r, **opts, node_budget=nodes) == (Outcome.FOUND, nodes, wanted)
    assert run(toy, slots, r, **opts, node_budget=nodes - 1) == (Outcome.BUDGET_EXCEEDED, nodes, None)


class Apart(Toy):
    """A toy engine whose constraints do not tell colors apart.

    Slot k must differ from slots k - 2 and k - 3, and the last slot from
    slot 0 too.
    """

    def fits(self, pos, hi):
        ok = (2 << hi) - 2
        for back in ((2, 3, pos) if pos == len(self.values) - 1 else (2, 3)):
            if back <= pos:
                ok &= ~(1 << self.values[pos - back])
        return ok

    def good(self, colors):
        last = len(colors) - 1
        return all(colors[k] != colors[k - d] for k in range(len(colors)) for d in (2, 3) if d <= k) and (
            last < 2 or colors[last] != colors[0]
        )


@pytest.mark.parametrize("slots, r", [(4, 2), (5, 2), (6, 2), (6, 3), (7, 3), (8, 3), (7, 4)])
def test_first_use_colors_find_the_least_good_assignment_of_all(slots, r):
    # renaming colors maps good assignments to good ones, so the least of them all
    # is numbered by first use, and the driver finds it
    apart = Apart(slots)
    good = [list(colors) for colors in product(range(1, r + 1), repeat=slots) if apart.good(colors)]
    kind, _, colors = run(apart, slots, r)
    if good:
        assert (kind, colors) == (Outcome.FOUND, min(good))
    else:
        assert (kind, colors) == (Outcome.EXHAUSTED, None)


class Picky(Toy):
    """A toy engine that opens colors 1..opened on its first slots, then rejects a fixed set.

    Slot pos < opened takes color pos + 1 alone, and every later slot
    rejects the colors in `rejected`.
    """

    def __init__(self, slots, opened, rejected, wanted=None):
        super().__init__(slots, wanted)
        self.opened = opened
        self.rejected = sum(1 << c for c in rejected)

    def fits(self, pos, hi):
        if pos < self.opened:
            return 1 << (pos + 1)
        return super().fits(pos, hi) & ~self.rejected


@pytest.mark.parametrize("hint", HINTS)
def test_rejected_colors_count_as_nodes_and_budgets_stop_inside_them(hint):
    # slots 0..3 open colors 1..4 in 1 + 2 + 3 + 4 nodes (each rejects the colors
    # below its own), so every later slot tries all of 1..5.  Colors 2, 3 and 5
    # never fit there: each visit tries 5 colors, of which 1 and 4 fit and open no
    # color, so a slot skips the run 2, 3 and ends with the run 5
    slots, opened, r, rejected = 10, 4, 5, (2, 3, 5)
    prefix = sum(range(1, opened + 1))
    total = prefix + 5 * (2 ** (slots - opened) - 1)
    opts = {"worker_hint": hint}
    picky = Picky(slots, opened, rejected)
    assert run(picky, slots, r, **opts) == (Outcome.EXHAUSTED, total, None)
    # the overrun lands on the trailing 5 of the first slot after the opened ones
    assert run(picky, slots, r, **opts, node_budget=total - 1) == (Outcome.BUDGET_EXCEEDED, total, None)

    wanted = [1, 2, 3, 4] + [1] * (slots - opened - 1) + [4]
    picky = Picky(slots, opened, rejected, wanted)
    # the opened slots, ones down to the last slot, then its 1, the skipped 2 and 3,
    # and the 4
    nodes = prefix + slots - opened - 1 + 4
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


def test_perms_must_permute_the_slots():
    toy = Toy(3)
    with pytest.raises(ValueError, match="permutation"):
        backtrack(3, 2, SearchOptions(), toy.fits, toy.place, toy.unplace, perms=[[0, 1, 1]])

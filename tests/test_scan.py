"""The open-block scan of Flajolet & Schott, written once in the oracles:
the scan word round-trips every partition and tells the nonoverlapping
ones by their closes, and the transfer model counts the (X, Y) joint far
past enumeration, where it is symmetric and its Y marginal over
nonoverlapping partitions is the v-triangle's row. The word with every
close taken from the oldest block, then Claesson's map, sends the
nonoverlapping partitions one to one onto the avoiders, with Y the last
entry and X the statistic st."""

from collections import Counter

from partinv import bessel, enumerate_all, enumerate_nonoverlapping, is_nonoverlapping, stat_x, stat_y, v_table

from oracles import (avoiders_depth_first, bell_numbers, claesson_permutation, finish_table, from_scan_word,
                     nonnesting, scan_word, stack_to_queue, stat_st, transfer_joint)


def test_scan_word_round_trips_and_closes_the_newest_block_iff_nonoverlapping():
    for n in range(1, 10):
        for p in enumerate_all(n):
            word = scan_word(p)
            assert from_scan_word(word) == p
            newest, k = True, 0
            for letter in word:
                if letter == "O":
                    k += 1
                elif letter[0] == "C":
                    newest &= letter[1] == k
                    k -= 1
            assert newest == is_nonoverlapping(p), p


def test_transfer_model_matches_enumeration_and_the_triangle():
    depths = [*range(1, 41), 60]
    finish = {nov: finish_table(max(depths) - 1, nov) for nov in (False, True)}
    for n in range(1, 10):
        assert transfer_joint(n, finish[False], False) == Counter(
            (stat_x(p), stat_y(p)) for p in enumerate_all(n)), n
        assert transfer_joint(n, finish[True], True) == Counter(
            (stat_x(p), stat_y(p)) for p in enumerate_nonoverlapping(n)), n
    bell = bell_numbers(max(depths))
    for n in depths:
        every, nonoverlapping = (transfer_joint(n, finish[nov], nov) for nov in (False, True))
        for joint in every, nonoverlapping:
            assert all(joint[y, x] == count for (x, y), count in joint.items()), n
        assert sum(every.values()) == bell[n]
        assert sum(nonoverlapping.values()) == bessel(n)
        marginal = [sum(nonoverlapping[x, y] for x in range(1, n + 1)) for y in range(1, n + 1)]
        assert marginal == list(v_table(n)[n - 1]), n


def test_stack_to_queue_and_claesson_map_the_nonoverlapping_partitions_onto_the_avoiders():
    listed = avoiders_depth_first(9)
    for n in range(1, 10):
        images = []
        for p in enumerate_nonoverlapping(n):
            q = stack_to_queue(p)
            assert nonnesting(q), p
            perm = claesson_permutation(q)
            assert (perm[-1], stat_st(perm)) == (stat_y(p), stat_x(p)), p
            images.append(perm)
        # the listing holds each avoider once, so equal sorted lists make the map one to one and onto
        assert sorted(images) == sorted(listed[n]), n
        # so the images of stack_to_queue are distinct nonnesting partitions, and being as many as
        # those, they are all of them: cutting the avoiders gives exactly the nonnesting partitions
        assert sum(map(nonnesting, enumerate_all(n))) == len(images), n

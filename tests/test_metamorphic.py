"""The verdict relations of tests/metamorphic.py on a seeded slice of its
full sweep: every rewrite must decide as the input does."""

from metamorphic import RELATIONS, inputs, outcomes, sweep


def test_relations_keep_every_verdict():
    # the bench corpora, generate_corpus seeds 1-3 in both profiles and
    # the hand-made inputs; none of them runs into a limit today
    named = inputs(range(1, 4))
    counts, mismatches = sweep(named)
    assert mismatches == []
    assert len(named) == 650 + 6 * 150 + 5
    for relation in RELATIONS:
        assert counts[relation] == {"agree": len(named), "limit": 0}, relation


def test_hand_made_verdicts_need_inner_cut_decisions():
    # the first hand-made input is UNSAT only because its inner node keeps
    # its cut formulas, which its R-successor reads
    name, pf = inputs(range(0))[0]
    assert name == "hand-made#0"
    assert set(outcomes(pf).values()) == {"UNSAT"}

"""The verdict relations of tests/metamorphic.py on a seeded slice of its
full sweep: every rewrite must decide as the input does."""

from alcqisat import conj, disj, parse_problem_text
from metamorphic import IMPLIED, RELATIONS, implied, inputs, outcomes, sweep


def test_relations_keep_every_verdict():
    # the bench corpora, generate_corpus seeds 1-3 in both profiles and
    # the hand-made inputs; none of them runs into a limit today
    named = inputs(range(1, 4))
    counts, mismatches = sweep(named)
    assert mismatches == []
    assert len(named) == 650 + 6 * 150 + 5
    for relation in RELATIONS:
        assert counts[relation] == {"agree": len(named), "limit": 0}, relation
    # each input is checked under the one implied relation its verdict
    # carries
    checked = [counts[relation] for relation, _, _ in IMPLIED]
    assert sum(c["agree"] for c in checked) == len(named)
    assert all(c["agree"] > 0 and c["limit"] == 0 for c in checked)


def test_an_implied_relation_joins_the_next_goal():
    pf = parse_problem_text("gci A B\nsat (and A (not B))\n")
    following = parse_problem_text("gci C D\nsat C\n")
    assert implied(pf, "limit", following) is None
    relation, joined = implied(pf, "UNSAT", following)
    assert relation == "and next"
    assert joined.tbox == pf.tbox and joined.query is conj((pf.query, following.query))
    relation, joined = implied(pf, "SAT", following)
    assert relation == "or next"
    assert joined.tbox == pf.tbox and joined.query is disj((pf.query, following.query))


def test_hand_made_verdicts_need_inner_cut_decisions():
    # the first hand-made input is UNSAT only because its inner node keeps
    # its cut formulas, which its R-successor reads
    name, pf = inputs(range(0))[0]
    assert name == "hand-made#0"
    assert set(outcomes(pf).values()) == {"UNSAT"}

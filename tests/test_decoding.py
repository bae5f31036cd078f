import bisect
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from conftest import (
    decode_one,
    greedy_path,
    logsumexp,
    reference_context,
    reference_diverse_beam,
    reference_nucleus,
    reference_top_p_sample,
    rewrite_ids,
    softmax,
    step_logits,
    tiny_policy,
)
from riff.decoding import (
    DecodeConfig,
    _nuclei,
    decode_batch,
    diverse_beam,
    diverse_beam_batch,
    top_p_batch,
)
from riff.numerics import log_softmax_rows
from riff.policy import (
    PolicyConfig,
    PolicyParams,
    TokenSeq,
    pad,
    path_logprobs,
    seq_logprob,
    transition_logits_batch,
    transition_table,
    unpad,
)
from riff.vocab import BOS, EOS

X = TokenSeq.from_content([1, 2])


def top_p_draws(p, x, cfg, table=None) -> list[tuple[TokenSeq, float]]:
    """One input's m nucleus draws seeded by cfg.seed, each with its log-prob
    under the table (by default the input's own transition table)."""
    tables = (transition_table(p, x) if table is None else table)[None]
    rows = top_p_batch(p, tables, [cfg.seed], cfg)
    return list(zip(unpad(rows), path_logprobs(tables, rows).tolist()))


def test_config_defaults_match_shared_table():
    cfg = DecodeConfig()
    assert cfg.m == 8
    assert cfg.top_p == 0.99
    assert cfg.temperature == 0.7
    assert cfg.diversity_penalty == 3.0
    assert cfg.repetition_penalty == 10.0


def test_config_validation():
    with pytest.raises(ValueError):
        DecodeConfig(m=0)
    with pytest.raises(ValueError):
        DecodeConfig(top_p=0.0)
    with pytest.raises(ValueError):
        DecodeConfig(top_p=1.5)
    with pytest.raises(ValueError):
        DecodeConfig(temperature=0.0)
    with pytest.raises(ValueError):
        DecodeConfig(repetition_penalty=0.5)
    with pytest.raises(ValueError):
        DecodeConfig(diversity_penalty=-1.0)


def test_top_p_full_nucleus_matches_categorical():
    # with p = 1 the first-step draw is plain categorical sampling: chi-square
    # goodness of fit against the exact step distribution over 10k draws
    p = tiny_policy(seed=6, vocab=3, max_len=2)
    cfg = DecodeConfig(m=10_000, top_p=1.0, seed=99)
    draws = top_p_draws(p, X_SMALL, cfg)
    firsts = [z.ids[0] for z, _ in draws]
    counts = np.array([firsts.count(t) for t in range(3)])
    probs = softmax(step_logits(p, reference_context(p, X_SMALL), BOS))
    result = stats.chisquare(counts, f_exp=probs * len(firsts))
    assert result.pvalue > 0.01


X_SMALL = TokenSeq.from_content([1])


def test_top_p_tiny_threshold_is_greedy():
    p = tiny_policy(seed=3)
    cfg = DecodeConfig(m=4, top_p=1e-12, seed=5)
    expected = greedy_path(p, X)
    for z, _ in top_p_draws(p, X, cfg):
        assert z.ids == expected.ids


def test_top_p_deterministic_under_seed():
    p = tiny_policy(seed=4)
    cfg = DecodeConfig(m=6, seed=42)
    a = top_p_draws(p, X, cfg)
    b = top_p_draws(p, X, cfg)
    assert [z.ids for z, _ in a] == [z.ids for z, _ in b]
    assert [lp for _, lp in a] == [lp for _, lp in b]


def test_top_p_logprobs_are_model_logprobs():
    p = tiny_policy(seed=7)
    cfg = DecodeConfig(m=5, top_p=0.9, seed=11)
    for z, lp in top_p_draws(p, X, cfg):
        assert lp == seq_logprob(p, X, z)
    # longer rewrites over a wider vocabulary, at several nucleus sizes
    for seed, top_p in ((8, 1.0), (9, 0.5), (10, 0.99)):
        p = tiny_policy(seed=seed, vocab=5, max_len=6, scale=1.0)
        for z, lp in top_p_draws(p, X, DecodeConfig(m=12, top_p=top_p, seed=11)):
            assert lp == seq_logprob(p, X, z)


def test_diverse_beam_single_group_zero_penalty_is_greedy():
    gen = np.random.default_rng(0)
    for trial in range(50):
        vocab = int(gen.integers(3, 5))
        max_len = int(gen.integers(3, 5))
        p = tiny_policy(seed=trial + 100, vocab=vocab, max_len=max_len)
        x = TokenSeq.from_content([int(gen.integers(1, vocab))])
        cfg = DecodeConfig(m=1, diversity_penalty=0.0, repetition_penalty=1.0, seed=0)
        assert diverse_beam(p, x, cfg)[0].ids == greedy_path(p, x).ids


def test_diverse_beam_reference_greedy_recomputation():
    # independent greedy: recompute step distributions from raw arrays
    p = tiny_policy(seed=9, vocab=4, max_len=4)
    x = TokenSeq.from_content([2])
    ctx = p.token_embedding[[2, EOS]].mean(axis=0)
    prefix = []
    prev = BOS
    while len(prefix) < p.cfg.max_len - 1:
        state = np.tanh(p.rec_w @ np.concatenate([ctx, p.token_embedding[prev]]) + p.rec_b)
        tok = int(np.argmax(state @ p.out_head))
        if tok == EOS:
            break
        prefix.append(tok)
        prev = tok
    expected = tuple(prefix) + (EOS,)
    cfg = DecodeConfig(m=1, diversity_penalty=0.0, repetition_penalty=1.0, seed=0)
    assert diverse_beam(p, x, cfg)[0].ids == expected


def test_diverse_beam_dominant_penalty_spreads_first_tokens():
    p = tiny_policy(seed=12, vocab=5, max_len=4)
    cfg = DecodeConfig(m=4, diversity_penalty=1e6, repetition_penalty=1.0, seed=0)
    firsts = [z.ids[0] for z in diverse_beam(p, X, cfg)]
    assert len(set(firsts)) == 4


def test_diverse_beam_deterministic():
    p = tiny_policy(seed=13)
    cfg = DecodeConfig(m=4, seed=77)
    assert [z.ids for z in diverse_beam(p, X, cfg)] == [z.ids for z in diverse_beam(p, X, cfg)]
    # the seed is never read, so rewrites of a frozen rewriter can be decoded once
    other = DecodeConfig(m=4, seed=78)
    assert [z.ids for z in diverse_beam(p, X, cfg)] == [z.ids for z in diverse_beam(p, X, other)]


@pytest.mark.parametrize("kind", ["zero", "large"])
@pytest.mark.parametrize("diversity_penalty", [0.0, 3.0])
@pytest.mark.parametrize("repetition_penalty", [1.0, 10.0])
@pytest.mark.parametrize("max_len", [1, 2, 4, 24])
@pytest.mark.parametrize("m", [1, 3, 8])
def test_diverse_beam_batch_equals_reference_per_input(m, max_len, repetition_penalty, diversity_penalty, kind):
    cfg = PolicyConfig(vocab_size=7, embed_dim=4, hidden_dim=5, max_len=max_len)
    # zero parameters tie every row exactly; a large scale gives sharp rows
    p = PolicyParams(cfg) if kind == "zero" else PolicyParams.init_random(cfg, seed=max_len + m, scale=4.0)
    gen = np.random.default_rng([m, max_len])
    xs = [TokenSeq.from_content(gen.integers(1, 7, size=int(gen.integers(1, 5))).tolist()) for _ in range(9)]
    dc = DecodeConfig(m=m, repetition_penalty=repetition_penalty, diversity_penalty=diversity_penalty)
    want = [[z.ids for z in reference_diverse_beam(p, x, dc)] for x in xs]
    logits = transition_logits_batch(p, xs)[0]
    for b in range(1, 10):
        got = diverse_beam_batch(p, logits[:b], dc)
        assert rewrite_ids(got, m) == want[:b]


def test_diverse_beam_batch_names_the_input_and_step_of_a_non_finite_row():
    p = tiny_policy(seed=13, vocab=6, max_len=6)
    xs = [TokenSeq.from_content([t]) for t in (1, 2, 3)]
    logits = transition_logits_batch(p, xs)[0]
    cfg = DecodeConfig(m=3)
    beams = diverse_beam_batch(p, logits, cfg)
    # a finished group's previous token is EOS: only live rows are read and checked
    unread = logits.copy()
    unread[1, EOS] = np.nan
    assert rewrite_ids(diverse_beam_batch(p, unread, cfg), 3) == rewrite_ids(beams, 3)
    # at column 0 the pick is also the argmax of the normalized all-NaN row, so only the
    # normalizer's own check sees it
    for col, value in ((4, np.nan), (EOS, np.nan), (EOS, np.inf)):
        bad = logits.copy()
        bad[2, BOS, col] = value
        with pytest.raises(ValueError, match="non-finite transition logits for batch input 2 at decode step 0$"):
            diverse_beam_batch(p, bad, cfg)


def test_diverse_beam_batch_reruns_a_step_whose_normalization_collapses_a_near_tie():
    # x and nextafter(x, inf) top the BOS row: the raw argmax is the later token, but
    # subtracting the log-normalizer can round both to one value, and then the first wins
    p = PolicyParams(PolicyConfig(vocab_size=6, embed_dim=2, hidden_dim=2, max_len=4))
    cfg = DecodeConfig(m=1, temperature=1.0)
    gen = np.random.default_rng(0)
    for _ in range(100):
        logits = gen.uniform(-3.0, 0.0, size=(1, 6, 6))
        x = gen.uniform(0.0, 1.0)
        logits[0, BOS, 4], logits[0, BOS, 5] = x, np.nextafter(x, np.inf)
        row = logits[0, BOS] / cfg.temperature
        if np.argmax(row - logsumexp(row)) != np.argmax(row):
            break
    assert (np.argmax(row), np.argmax(row - logsumexp(row))) == (5, 4)
    got = rewrite_ids(diverse_beam_batch(p, logits, cfg), 1)[0]
    assert got == [z.ids for z in reference_diverse_beam(p, X, cfg, logits[0])]
    assert got[0][0] == 4


@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 5),
    st.integers(1, 6),
    st.sampled_from([0.7, 1.0, 1.3]),
    st.sampled_from([0.0, 3.0]),
    st.sampled_from([1.0, 10.0]),
)
@settings(max_examples=60, deadline=None)
def test_diverse_beam_batch_equals_reference_on_ties_infinities_and_near_ties(
    seed, m, max_len, temperature, diversity_penalty, repetition_penalty
):
    gen = np.random.default_rng(seed)
    n, v = int(gen.integers(1, 5)), int(gen.integers(3, 9))
    p = PolicyParams(PolicyConfig(vocab_size=v, embed_dim=2, hidden_dim=2, max_len=max_len))
    cfg = DecodeConfig(
        m=m, temperature=temperature, diversity_penalty=diversity_penalty,
        repetition_penalty=repetition_penalty,
    )
    logits = gen.normal(0.0, 2.0, size=(n, v, v))
    logits[gen.random((n, v)) < 0.2] = 0.0  # rows of exact ties
    # ulp near-ties on top: x in (0, 1) and nextafter(x, inf) at a later column
    for b, r in zip(*np.nonzero(gen.random((n, v)) < 0.5)):
        lo, hi = np.sort(gen.choice(v, 2, replace=False))
        x = gen.uniform(0.0, 1.0)
        logits[b, r] = np.minimum(logits[b, r], x - 1.0)
        logits[b, r, lo], logits[b, r, hi] = x, np.nextafter(x, np.inf)
    minus_inf = gen.random((n, v, v)) < 0.2
    minus_inf[..., gen.integers(v)] = False  # one column stays finite, so every row has a max
    logits[minus_inf] = -np.inf
    want = [[z.ids for z in reference_diverse_beam(p, X, cfg, logits[b])] for b in range(n)]
    assert rewrite_ids(diverse_beam_batch(p, logits, cfg), m) == want


def test_decoders_reject_non_finite_rows():
    p = tiny_policy(seed=13)
    logits = transition_logits_batch(p, [X])[0][0].copy()
    logits[BOS, 2] = np.inf
    with pytest.raises(ValueError, match="non-finite transition logits for batch input 0 at decode step 0"):
        diverse_beam_batch(p, logits[None], DecodeConfig(m=2))
    table = transition_table(p, X).copy()
    table[BOS, 1] = np.nan
    with pytest.raises(ValueError, match=f"transition row {BOS}"):
        top_p_draws(p, X, DecodeConfig(m=2, top_p=1.0), table)


def test_mixed_rejects_odd_m():
    p = tiny_policy(seed=1)
    with pytest.raises(ValueError, match="even"):
        decode_one(p, X, "mixed", DecodeConfig(m=3, seed=0))


def test_mixed_two_takes_one_from_each():
    p = tiny_policy(seed=14)
    cfg = DecodeConfig(m=2, seed=3)
    picks = decode_one(p, X, "mixed", cfg)
    assert len(picks) == 2
    beam_sorted = sorted(
        diverse_beam(p, X, cfg), key=lambda z: -seq_logprob(p, X, z)
    )
    assert picks[0].ids == beam_sorted[0].ids


def test_mixed_beam_half_matches_reranked_beam():
    p = tiny_policy(seed=15, vocab=5, max_len=5)
    cfg = DecodeConfig(m=4, seed=8)
    picks = decode_one(p, X, "mixed", cfg)
    beam = diverse_beam(p, X, cfg)
    lps = [seq_logprob(p, X, z) for z in beam]
    order = sorted(range(len(beam)), key=lambda i: (-lps[i], i))
    reranked = [beam[i].ids for i in order]
    expected = []
    for ids in reranked:
        if ids not in expected:
            expected.append(ids)
        if len(expected) == 2:
            break
    assert [z.ids for z in picks[:2]] == expected


def test_mixed_degenerate_pool_backfills_with_repeats():
    # a near-deterministic policy makes both decoders emit one sequence
    p = tiny_policy(seed=16, vocab=3, max_len=3)
    p.out_head[:] = 0.0
    p.token_embedding[:] = 0.0
    p.rec_w[:] = 0.0
    p.rec_b[:] = 1.0
    head = p.out_head
    head[:, EOS] = 30.0  # EOS dominates every step
    cfg = DecodeConfig(m=4, top_p=0.5, seed=2)
    picks = decode_one(p, X_SMALL, "mixed", cfg)
    assert len(picks) == 4
    assert all(z.ids == (EOS,) for z in picks)


def test_mixed_deterministic():
    p = tiny_policy(seed=17)
    cfg = DecodeConfig(m=4, seed=21)
    assert [z.ids for z in decode_one(p, X, "mixed", cfg)] == [z.ids for z in decode_one(p, X, "mixed", cfg)]


def _assert_matches_references(p, x, cfg):
    got, want = top_p_draws(p, x, cfg), reference_top_p_sample(p, x, cfg)
    assert [z.ids for z, _ in got] == [z.ids for z, _ in want]
    assert [lp for _, lp in got] == [lp for _, lp in want]
    assert [z.ids for z in diverse_beam(p, x, cfg)] == [
        z.ids for z in reference_diverse_beam(p, x, cfg)
    ]


@pytest.mark.parametrize("top_p", [1.0, 0.99, 1e-12])
@pytest.mark.parametrize("max_len", [1, 2, 3, 24])
@pytest.mark.parametrize("m", [1, 8])
def test_decoders_bitwise_equal_references(top_p, max_len, m):
    gen = np.random.default_rng([max_len, m])
    for seed in range(6):
        vocab = int(gen.integers(3, 21))
        p = tiny_policy(seed=seed, vocab=vocab, max_len=max_len, scale=float(gen.uniform(0.1, 3.0)))
        x = TokenSeq.from_content([int(t) for t in gen.integers(1, vocab, size=int(gen.integers(1, 4)))])
        cfg = DecodeConfig(
            m=m, top_p=top_p, seed=seed,
            temperature=float(gen.choice([0.7, 1.0, 1.3])),
            diversity_penalty=float(gen.choice([0.0, 3.0, 1e6])),
            repetition_penalty=float(gen.choice([1.0, 10.0])),
        )
        _assert_matches_references(p, x, cfg)


def test_decoders_bitwise_equal_references_on_ties_and_negative_logits():
    p = tiny_policy(seed=5, vocab=6, max_len=5)
    # all-equal logits: every row ties exactly
    p.out_head[:] = 0.0
    for m in (1, 8):
        _assert_matches_references(p, X, DecodeConfig(m=m, top_p=0.99, seed=m))
    # every logit negative, so the repetition penalty multiplies
    p = tiny_policy(seed=6, vocab=6, max_len=6, scale=1.2)
    p.rec_b[:] = 1.0
    p.rec_w[:] = 0.0
    p.out_head[:] = -np.abs(p.out_head) - 0.1
    assert np.all(transition_logits_batch(p, [X])[0] < 0)
    for m in (1, 8):
        _assert_matches_references(p, X, DecodeConfig(m=m, repetition_penalty=10.0, seed=m))


def test_nucleus_lookup_reproduces_generator_choice():
    # premise of top_p_batch: Generator.choice(keep, p=nucleus) takes one
    # random() per call and returns keep[bisect_right(cdf, u)]
    gen = np.random.default_rng(7)
    for trial in range(300):
        size = int(gen.integers(1, 21))
        keep = gen.permutation(40)[:size]
        probs = gen.random(size) ** 3
        nucleus = probs / probs.sum()
        cdf = nucleus.cumsum()
        cdf /= cdf[-1]
        by_choice = np.random.default_rng(trial)
        by_block = np.random.default_rng(trial).random(50).tolist()
        want = [int(by_choice.choice(keep, p=nucleus)) for _ in range(50)]
        got = [int(keep[bisect.bisect_right(cdf.tolist(), u)]) for u in by_block]
        assert got == want


def _nucleus_tables() -> np.ndarray:
    """A (4, 9, 9) stack of log-transition tables: random rows, plus rows
    that tie, peak on one token, or need every token to reach top_p."""
    gen = np.random.default_rng(21)
    tables = log_softmax_rows(gen.normal(0.0, 3.0, (4, 9, 9)))
    tables[0, 0] = np.log(np.full(9, 1.0 / 9.0))  # every token ties
    with np.errstate(divide="ignore"):
        tables[1, 2] = np.log(np.eye(9)[5])  # one-hot: probability 1 on token 5, 0 elsewhere
    tables[1, 3] = log_softmax_rows(np.where(np.arange(9) == 6, 40.0, 0.0))  # peaked, not one-hot
    # sorted, the first eight hold 0.98 < 0.99 of the mass: the cut lands on the last index
    tables[2, 4] = np.log([0.02, 0.4, 0.05, 0.2, 0.1, 0.05, 0.1, 0.05, 0.03])
    return tables


@pytest.mark.parametrize("top_p", [1e-12, 0.5, 0.9, 0.99, 1.0])
def test_nucleus_stack_equals_per_row_reference_bitwise(top_p):
    tables = _nucleus_tables()
    nuclei = _nuclei(tables, top_p)
    for b, table in enumerate(tables):
        for row in range(len(table)):
            assert nuclei(b, row) == reference_nucleus(table[row], top_p, row)
    assert reference_nucleus(tables[1, 2], top_p, 2)[0] == [5]
    if top_p == 0.99:
        assert len(reference_nucleus(tables[2, 4], top_p, 4)[0]) == 9


def test_nucleus_stack_names_a_non_finite_row():
    tables = _nucleus_tables()
    tables[2, 7, 3] = np.nan
    nuclei = _nuclei(tables, 1.0)
    with pytest.raises(ValueError, match="non-finite probabilities in transition row 7$"):
        nuclei(2, 7)
    with pytest.raises(ValueError, match="non-finite probabilities in transition row 7$"):
        reference_nucleus(tables[2, 7], 1.0, 7)
    # a NaN the nucleus never reaches is never read, row by row or stacked
    tables[2, 6] = np.log(np.eye(9)[1] * 0.999 + 0.001 / 9)
    tables[2, 6, 8] = np.nan
    assert _nuclei(tables, 0.5)(2, 6) == reference_nucleus(tables[2, 6], 0.5, 6)


@given(st.integers(0, 2**31 - 1), st.sampled_from(["beam", "top_p", "mixed"]))
@settings(max_examples=40, deadline=None)
def test_decoders_return_wellformed_sequences(seed, scheme):
    gen = np.random.default_rng(seed)
    vocab = int(gen.integers(3, 6))
    max_len = int(gen.integers(2, 6))
    p = tiny_policy(seed=seed % 997, vocab=vocab, max_len=max_len)
    x = TokenSeq.from_content([int(gen.integers(1, vocab))])
    cfg = DecodeConfig(m=4, seed=seed % 65521)
    for z in decode_one(p, x, scheme, cfg):
        assert z.ids[-1] == EOS
        assert sum(1 for t in z.ids if t == EOS) == 1
        assert len(z) <= max_len
    # decoding from the input's transition table is bitwise the same
    logits = transition_logits_batch(p, [x])[0]
    held = decode_batch(p, scheme, logits, transition_table(p, x)[None], [cfg.seed], cfg)
    assert [z.ids for z in unpad(held)] == [z.ids for z in decode_one(p, x, scheme, cfg)]
    # and the decoders return the straight-line references' ids and log-probs
    _assert_matches_references(p, x, cfg)


def test_decode_batch_rejects_unknown_scheme():
    p = tiny_policy(seed=1)
    with pytest.raises(ValueError, match="unknown decode scheme"):
        decode_one(p, X, "banana", DecodeConfig(m=2, seed=0))


def test_nucleus_buckets_equal_per_row_references_on_random_stacks():
    # nuclei of every size share a stack: ties, one-hot rows and rows cut at the last index
    gen = np.random.default_rng(22)
    whole = set()
    for trial in range(60):
        b, v = int(gen.integers(1, 5)), int(gen.integers(2, 14))
        tables = log_softmax_rows(gen.normal(0.0, float(gen.uniform(0.1, 6.0)), (b, v, v)))
        tables[gen.random((b, v)) < 0.15] = -np.log(v)  # rows that tie everywhere
        with np.errstate(divide="ignore"):
            for i, r in zip(*np.nonzero(gen.random((b, v)) < 0.15)):
                tables[i, r] = np.log(np.eye(v)[gen.integers(v)])  # one-hot rows
        top_p = float(gen.choice([0.5, 0.9, 0.99, 1.0]))
        nuclei = _nuclei(tables, top_p)
        for i, table in enumerate(tables):
            for r in range(v):
                got = nuclei(i, r)
                assert got == reference_nucleus(table[r], top_p, r)
                whole.add(len(got[0]) == v)
    assert whole == {True, False}  # some rows, not all, are cut at the last index


def test_top_p_batch_raises_only_on_a_non_finite_row_a_draw_visits():
    p = tiny_policy(seed=7, vocab=6, max_len=2)  # one sampled step: only the BOS row is visited
    xs = [TokenSeq.from_content([1]), TokenSeq.from_content([2, 3])]
    tables = np.stack([transition_table(p, x) for x in xs])
    cfg = DecodeConfig(m=4, top_p=1.0)
    want = top_p_batch(p, tables, [5, 6], cfg)
    unvisited = tables.copy()
    unvisited[1, 4] = np.nan
    got = top_p_batch(p, unvisited, [5, 6], cfg)
    assert np.array_equal(got.ids, want.ids) and np.array_equal(got.valid, want.valid)
    visited = tables.copy()
    visited[1, BOS, 3] = np.nan
    with pytest.raises(ValueError, match=f"^non-finite probabilities in transition row {BOS}$"):
        top_p_batch(p, visited, [5, 6], cfg)


@pytest.mark.parametrize("scheme", ["beam", "top_p", "mixed"])
def test_batch_decoding_equals_the_per_input_decoders(scheme):
    gen = np.random.default_rng(["beam", "top_p", "mixed"].index(scheme))
    for trial in range(12):
        vocab, max_len = int(gen.integers(3, 12)), int(gen.integers(1, 9))
        p = tiny_policy(seed=trial, vocab=vocab, max_len=max_len, scale=float(gen.uniform(0.1, 3.0)))
        xs = [
            TokenSeq.from_content(gen.integers(1, vocab, size=int(gen.integers(1, 5))).tolist())
            for _ in range(int(gen.integers(1, 6)))
        ]
        cfg = DecodeConfig(m=int(gen.choice([2, 4, 8])), top_p=float(gen.choice([0.5, 0.99, 1.0])))
        seeds = gen.integers(2**31, size=len(xs)).tolist()
        logits = transition_logits_batch(p, xs)[0]
        rows = decode_batch(p, scheme, logits, log_softmax_rows(logits), seeds, cfg)
        want = [
            [z.ids for z in decode_one(p, x, scheme, replace(cfg, seed=s))]
            for x, s in zip(xs, seeds)
        ]
        assert rewrite_ids(rows, cfg.m) == want
        # the rows are exactly pad() of their sequences
        flat = pad([TokenSeq(ids) for zs in want for ids in zs])
        assert np.array_equal(rows.ids, flat.ids) and np.array_equal(rows.valid, flat.valid)

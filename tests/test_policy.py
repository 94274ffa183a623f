"""Candidate extraction, featurization, forward/backward, checkpoints."""

import math

import numpy as np
import pytest

from tsqa.config import FeatureConfig
from tsqa.corpus import QARecord, QuestionType
from tsqa.facts import FactIndex, TimeFact, infer_question_pair
from tsqa.features import TemporalMask, Vocabulary, fuse
from tsqa.intervals import year_span
from tsqa.policy import (
    Candidate,
    CandidateSet,
    PolicyDims,
    PolicyParams,
    RecordFeatures,
    compile_record,
    effective_tables,
    extract_candidates,
    forward,
    grad_check,
    greedy_predictions,
    init_params,
    load_checkpoint,
    loss_and_grads,
    save_checkpoint,
    zeros_like_params,
)
from tsqa.tagger import tag, tokenize


def fact(s, r, o, y1, y2):
    iv = year_span(y1, y2)
    return TimeFact(s, r, o, iv.start, iv.end)


def make_record(question, context, golds, facts):
    return QARecord(
        id="t0",
        question=question,
        context=context,
        gold_answers=golds,
        question_type=QuestionType.L2_POINT,
        facts=facts,
    )


WARNOCK_FACTS = [
    fact("Neil Warnock", "employer", "Girton College", 1950, 1955),
    fact("Neil Warnock", "employer", "St Hugh's College", 1957, 1961),
    fact("Neil Warnock", "employer", "University of Bath", 1963, 1970),
    fact("Someone Else", "employer", "Elsewhere Hall", 1950, 1960),
]

WARNOCK_CTX = (
    "From 1950 to 1955, Neil Warnock worked for Girton College. "
    "From 1957 to 1961, Neil Warnock worked for St Hugh's College. "
    "From 1963 to 1970, Neil Warnock worked for University of Bath."
)


def test_extract_candidates_mentions_and_order():
    rec = make_record(
        "Which employer did Neil Warnock work for in 1958?",
        WARNOCK_CTX,
        ["St Hugh's College"],
        WARNOCK_FACTS,
    )
    cands = extract_candidates(rec, FactIndex(WARNOCK_FACTS))
    assert cands.texts == [
        "Girton College",
        "St Hugh's College",
        "University of Bath",
        "",
    ]
    # mention spans point at the first occurrence in context tokens
    assert cands[0].tok_start < cands[1].tok_start < cands[2].tok_start
    assert cands.empty_index == 3
    # Someone Else is not mentioned, so Elsewhere Hall is no candidate
    assert "Elsewhere Hall" not in cands.texts


def test_extract_candidates_duplicate_object_keeps_first_interval():
    facts = WARNOCK_FACTS + [
        fact("Neil Warnock", "employer", "Girton College", 1980, 1985)
    ]
    rec = make_record("Where in 1951?", WARNOCK_CTX, ["Girton College"], facts)
    cands = extract_candidates(rec, FactIndex(facts))
    girton = next(c for c in cands if c.text == "Girton College")
    assert girton.fact_interval == year_span(1950, 1955)


def test_extract_candidates_no_mentions():
    rec = make_record(
        "Which employer did Neil Warnock work for in 1958?",
        "Nothing relevant appears in this sentence.",
        [""],
        WARNOCK_FACTS,
    )
    cands = extract_candidates(rec, FactIndex(WARNOCK_FACTS))
    assert cands.texts == [""]


# Brute-force references: every subject and every fact scanned for every
# text, as the indexed lookups must reproduce.


def _find_run(haystack, needle):
    for i in range(len(haystack) - len(needle) + 1):
        if needle and haystack[i : i + len(needle)] == needle:
            return i
    return None


def scan_candidates(context, index):
    """(text, tok_start, tok_end, fact_interval) per candidate."""
    from tsqa.tagger import tokenize

    low = [t.text.lower() for t in tokenize(context)]
    present = {
        s
        for s in index.subjects
        if _find_run(low, [t.text.lower() for t in tokenize(s)]) is not None
    }
    found = {}
    for f in index.facts:
        if f.subject not in present:
            continue
        if f.object in found:
            if f.interval.lo < found[f.object][2].lo:
                found[f.object] = found[f.object][:2] + (f.interval,)
            continue
        toks = [t.text.lower() for t in tokenize(f.object)]
        pos = _find_run(low, toks)
        if pos is not None:
            found[f.object] = (pos, pos + len(toks), f.interval)
    ordered = sorted(found.items(), key=lambda kv: (kv[1][0], kv[1][1], kv[0]))
    return [(text, s, e, iv) for text, (s, e, iv) in ordered] + [("", None, None, None)]


def scan_question_pair(question, index):
    from tsqa.facts import EVENT_RELATION
    from tsqa.tagger import tokenize

    q_tokens = [t.text for t in tokenize(question)]
    subject = None
    for s in sorted(index.subjects, key=lambda s: (-len(s), s)):
        if _find_run(q_tokens, [t.text for t in tokenize(s)]) is not None:
            subject = s
            break
    q_lower = [t.lower() for t in q_tokens]
    relations = sorted({f.relation for f in index.facts if f.relation != EVENT_RELATION})
    relation = next((r for r in relations if r.lower() in q_lower), None)
    return subject, relation


def test_indexed_mention_lookup_matches_full_scan():
    from tsqa.facts import EVENT_RELATION

    rng = np.random.default_rng(61)
    # Subjects share first tokens and differ in case, so the first-token
    # lookup must still test each full run and respect case per side.
    firsts = ["Ada", "ada", "ADA", "Ben", "St", "the"]
    rests = ["", "Smith", "smith", "Smith Jr", "Hugh's", "of Bath", "B."]
    subjects = sorted({f"{a} {b}".strip() for a in firsts for b in rests})
    objects = ["Mill A", "mill a", "Mill", "Leeds United F.C.", "Bath", "St Hugh's", "ada", "B."]
    relations = ["employer", "Team", "team", "member"]
    facts = []
    for _ in range(160):
        y1 = int(rng.integers(1900, 2000))
        facts.append(
            fact(
                subjects[rng.integers(len(subjects))],
                relations[rng.integers(len(relations))],
                objects[rng.integers(len(objects))],
                y1,
                y1 + int(rng.integers(0, 8)),
            )
        )
    facts.append(fact("Ada", EVENT_RELATION, "Ada", 1950, 1951))
    index = FactIndex(facts)
    words = sorted({w for t in subjects + objects + relations for w in t.split()})
    words += ["worked", "for", "in", "1950", "which", "did", ",", "."]
    for _ in range(300):
        n = int(rng.integers(0, 25))
        text = " ".join(words[rng.integers(len(words))] for _ in range(n))
        rec = make_record(text, text, [""], facts)
        got = [
            (c.text, c.tok_start, c.tok_end, c.fact_interval)
            for c in extract_candidates(rec, index)
        ]
        assert got == scan_candidates(text, index), text
        assert infer_question_pair(tokenize(text), index) == scan_question_pair(text, index), text


def test_candidate_set_validation():
    CandidateSet([Candidate("a", 0, 1), Candidate("")])  # valid
    with pytest.raises(ValueError):
        CandidateSet([Candidate("x", 0, 1), Candidate("x", 2, 3), Candidate("")])
    with pytest.raises(ValueError):
        CandidateSet([Candidate("x", 0, 1)])  # missing empty
    with pytest.raises(ValueError):
        CandidateSet([Candidate(""), Candidate("")])


def compile_warnock(config, question="Which employer did Neil Warnock work for in 1958?"):
    rec = make_record(question, WARNOCK_CTX, ["St Hugh's College"], WARNOCK_FACTS)
    vocab = Vocabulary.build([rec.question, rec.context], __import__("tsqa.tagger", fromlist=["tokenize"]).tokenize)
    return compile_record(rec, FactIndex(WARNOCK_FACTS), vocab, config), vocab


def test_compile_record_gold_and_spec(tiny_features):
    comp, _ = compile_warnock(tiny_features)
    assert comp.spec.kind == "point"
    assert comp.q_interval == year_span(1958, 1958)
    assert comp.candidates.texts[comp.gold_index] == "St Hugh's College"
    assert comp.question_len > 0
    assert comp.token_ids.size == comp.bits.size


def test_compile_record_tokenizes_and_tags_the_question_once(tiny_features, monkeypatch):
    import tsqa.facts
    import tsqa.policy

    rec = make_record(
        "Which employer did Neil Warnock work for in 1958?", WARNOCK_CTX, ["St Hugh's College"], WARNOCK_FACTS
    )
    assert rec.time_spec is None  # the spec is parsed from the question's tags
    index = FactIndex(WARNOCK_FACTS)
    vocab = Vocabulary.build([rec.question, rec.context], tokenize)
    tokenized, tagged = [], []

    def counting_tokenize(text):
        tokenized.append(text)
        return tokenize(text)

    def counting_tag(tokens):
        tagged.append(len(tokens))
        return tag(tokens)

    for module in (tsqa.policy, tsqa.facts):
        monkeypatch.setattr(module, "tokenize", counting_tokenize)
    monkeypatch.setattr(tsqa.policy, "tag", counting_tag)
    comp = compile_record(rec, index, vocab, tiny_features)
    assert tokenized.count(rec.question) == 1
    assert tagged == [comp.question_len, len(tokenize(rec.context))]
    assert (comp.subject, comp.relation) == ("Neil Warnock", "employer")


def test_compile_record_empty_gold_resolves_to_empty_candidate(tiny_features):
    rec = make_record(
        "Which employer did Neil Warnock work for in 1956?",
        WARNOCK_CTX,
        [""],
        WARNOCK_FACTS,
    )
    from tsqa.tagger import tokenize

    vocab = Vocabulary.build([rec.question, rec.context], tokenize)
    comp = compile_record(rec, FactIndex(WARNOCK_FACTS), vocab, tiny_features)
    assert comp.gold_index == comp.candidates.empty_index


def test_interval_features_exact_match_candidate(tiny_features):
    comp, _ = compile_warnock(
        tiny_features, "Which employer did Neil Warnock work for from 1957 to 1961?"
    )
    hugh = comp.candidates.texts.index("St Hugh's College")
    overlap, gap, present = comp.interval_feats[hugh]
    assert (overlap, gap, present) == (1.0, 0.0, 1.0)
    # disjoint later candidate sits at a positive clamped gap
    bath = comp.candidates.texts.index("University of Bath")
    assert comp.interval_feats[bath][1] > 0
    # the empty candidate carries all-zero interval features and density
    empty = comp.candidates.empty_index
    assert comp.interval_feats[empty].tolist() == [0.0, 0.0, 0.0]
    assert comp.density[empty] == 0.0


def test_featurize_identical_candidates_identical_rows(tiny_features):
    from dataclasses import replace

    from tsqa.policy import featurize_record

    comp, vocab = compile_warnock(tiny_features)
    params = random_u_params(len(vocab), tiny_features, seed=0)
    first, e = comp.candidates[0], comp.candidates.empty_index
    twin = Candidate("Twin", first.tok_start, first.tok_end, first.fact_interval)
    # A twin of candidate 0 with the same mention window and interval.
    twins = replace(
        comp,
        candidates=CandidateSet([first, twin, comp.candidates[e]]),
        window_pos=[comp.window_pos[0], comp.window_pos[0], comp.window_pos[e]],
        interval_feats=comp.interval_feats[[0, 0, e]],
        density=comp.density[[0, 0, e]],
    )
    feats = featurize_record(twins, params, tiny_features).feats
    assert np.array_equal(feats[0], feats[1])
    fw = tiny_features.fused_width
    assert np.array_equal(feats[2, :fw], feats[0, :fw])  # shared question pool
    assert not feats[2, fw:].any()  # mention blocks all zero


def random_u_params(vocab_size, config, seed):
    """Parameters with a nonzero time table and attention vectors."""
    params = params_for(vocab_size, config, seed=seed)
    rng = np.random.default_rng(seed)
    params.time_table[:] = rng.normal(size=params.time_table.shape)
    params.u_question[:] = rng.normal(size=params.u_question.shape)
    params.u_window[:] = rng.normal(size=params.u_window.shape)
    return params


def test_featurize_record_matches_reference_pools(tiny_features):
    from tsqa.policy import featurize_record

    comp, vocab = compile_warnock(tiny_features)
    params = random_u_params(len(vocab), tiny_features, seed=2)
    rf = featurize_record(comp, params, tiny_features)
    vectors = fuse(
        comp.token_ids,
        TemporalMask(comp.bits),
        effective_tables(params, tiny_features),
        comp.question_len,
    ).vectors
    n_q, fw, window = comp.question_len, vectors.shape[1], tiny_features.window

    def pool(rows, u):
        # softmax(u·x_i)-weighted sum, one row at a time
        if not len(rows):
            return np.zeros(fw)
        scores = [float(x @ u) for x in rows]
        top = max(scores)
        weights = [math.exp(v - top) for v in scores]
        return sum(w * x for w, x in zip(weights, rows)) / sum(weights)

    question = pool(vectors[:n_q], params.u_question)
    for i, cand in enumerate(comp.candidates):
        row = rf.feats[i]
        assert np.allclose(row[:fw], question, rtol=0, atol=1e-12), cand.text
        if cand.is_empty:
            assert not row[fw:].any()
            continue
        lo = max(0, n_q + cand.tok_start - window)
        hi = min(len(vectors) - 1, n_q + cand.tok_end - 1 + window)
        want = pool(vectors[lo : hi + 1], params.u_window)
        assert np.allclose(row[fw : 2 * fw], want, rtol=0, atol=1e-12), cand.text
        assert np.array_equal(row[2 * fw : 2 * fw + 3], comp.interval_feats[i])
        assert row[-1] == comp.bits[lo : hi + 1].mean()
    assert np.array_equal(rf.pooled[:fw], vectors.mean(axis=0))


def params_for(vocab_size, config, seed=0):
    dims = PolicyDims.from_config(vocab_size, config)
    return init_params(np.random.default_rng(seed), dims)


def test_forward_zero_params_uniform(tiny_features):
    comp, vocab = compile_warnock(tiny_features)
    params = zeros_like_params(params_for(len(vocab), tiny_features))
    from tsqa.policy import featurize_record

    rf = featurize_record(comp, params, tiny_features)
    out = forward(params, rf.feats, rf.pooled)
    k = len(comp.candidates)
    assert np.allclose(out.probs, np.full(k, 1.0 / k))
    assert out.value == 0.0


def test_forward_probs_simplex_and_shift_invariance(tiny_features):
    comp, vocab = compile_warnock(tiny_features)
    params = params_for(len(vocab), tiny_features, seed=3)
    from tsqa.policy import featurize_record

    rf = featurize_record(comp, params, tiny_features)
    out = forward(params, rf.feats, rf.pooled)
    assert out.probs.sum() == pytest.approx(1.0, abs=1e-12)
    assert (out.probs > 0).all()
    shifted = params.clone()
    shifted.b2[0] += 7.5
    out2 = forward(shifted, rf.feats, rf.pooled)
    assert np.allclose(out.probs, out2.probs)


def test_forward_permutation_equivariance(tiny_features):
    comp, vocab = compile_warnock(tiny_features)
    params = params_for(len(vocab), tiny_features, seed=5)
    from tsqa.policy import featurize_record

    rf = featurize_record(comp, params, tiny_features)
    rng = np.random.default_rng(2)
    for _ in range(20):
        perm = rng.permutation(rf.feats.shape[0])
        out = forward(params, rf.feats, rf.pooled)
        out_p = forward(params, rf.feats[perm], rf.pooled)
        assert np.allclose(out_p.logits, out.logits[perm])
        assert np.allclose(out_p.probs, out.probs[perm])


def test_forward_shape_errors(tiny_features):
    comp, vocab = compile_warnock(tiny_features)
    params = params_for(len(vocab), tiny_features)
    from tsqa.policy import featurize_record

    rf = featurize_record(comp, params, tiny_features)
    with pytest.raises(ValueError):
        forward(params, rf.feats[:, :-1], rf.pooled)
    with pytest.raises(ValueError):
        forward(params, rf.feats, rf.pooled[:-1])


def test_zero_time_table_fusion_switch_identity():
    for mode in ("add", "concat"):
        fc_on = FeatureConfig(embed_dim=4, window=2, hidden=8, fusion_mode=mode,
                              temporal_fusion=True)
        fc_off = FeatureConfig(embed_dim=4, window=2, hidden=8, fusion_mode=mode,
                               temporal_fusion=False)
        comp, vocab = compile_warnock(fc_on)
        params = params_for(len(vocab), fc_on, seed=9)
        assert not params.time_table.any()  # init rule
        from tsqa.policy import featurize_record

        rf_on = featurize_record(comp, params, fc_on)
        rf_off = featurize_record(comp, params, fc_off)
        assert np.array_equal(rf_on.feats, rf_off.feats)
        assert np.array_equal(rf_on.pooled, rf_off.pooled)
        on = forward(params, rf_on.feats, rf_on.pooled)
        off = forward(params, rf_off.feats, rf_off.pooled)
        assert np.array_equal(on.logits, off.logits)
        assert on.value == off.value


def test_effective_tables_zeroes_time_when_fusion_off(tiny_features):
    fc_off = FeatureConfig(embed_dim=4, window=2, hidden=8, temporal_fusion=False)
    params = params_for(11, fc_off, seed=1)
    params.time_table[:] = 1.0
    tables = effective_tables(params, fc_off)
    assert not tables.time_table.any()
    tables_on = effective_tables(params, tiny_features)
    assert tables_on.time_table.any()


def test_init_params_bounds_and_determinism(tiny_features):
    dims = PolicyDims.from_config(50, tiny_features)
    a = init_params(np.random.default_rng(42), dims)
    b = init_params(np.random.default_rng(42), dims)
    for (_, ta), (_, tb) in zip(a.named_tensors(), b.named_tensors()):
        assert np.array_equal(ta, tb)
    c = init_params(np.random.default_rng(43), dims)
    assert not np.array_equal(a.W1, c.W1)
    assert not a.b1.any() and not a.b2.any() and not a.bv.any()
    assert not a.time_table.any()
    limit_w1 = math.sqrt(6.0 / (dims.feature_dim + dims.hidden))
    assert np.abs(a.W1).max() <= limit_w1
    limit_w2 = math.sqrt(6.0 / (dims.hidden + 1))
    assert np.abs(a.W2).max() <= limit_w2


def test_params_validation():
    with pytest.raises(ValueError, match="non-finite"):
        PolicyParams(
            text_table=np.array([[np.nan]]),
            time_table=np.zeros((2, 1)),
            W1=np.zeros((2, 3)),
            b1=np.zeros(2),
            W2=np.zeros((1, 2)),
            b2=np.zeros(1),
            Wv=np.zeros((1, 2)),
            bv=np.zeros(1),
            u_question=np.zeros(1),
            u_window=np.zeros(1),
        )
    with pytest.raises(ValueError, match="two rows"):
        PolicyParams(
            text_table=np.zeros((3, 2)),
            time_table=np.zeros((3, 2)),  # must be two rows
            W1=np.zeros((2, 3)),
            b1=np.zeros(2),
            W2=np.zeros((1, 2)),
            b2=np.zeros(1),
            Wv=np.zeros((1, 2)),
            bv=np.zeros(1),
            u_question=np.zeros(2),
            u_window=np.zeros(2),
        )
    with pytest.raises(ValueError, match="non-finite values in u_window"):
        PolicyParams(
            text_table=np.zeros((3, 2)),
            time_table=np.zeros((2, 2)),
            W1=np.zeros((2, 3)),
            b1=np.zeros(2),
            W2=np.zeros((1, 2)),
            b2=np.zeros(1),
            Wv=np.zeros((1, 2)),
            bv=np.zeros(1),
            u_question=np.zeros(2),
            u_window=np.array([0.0, np.inf]),
        )
    with pytest.raises(ValueError, match="attention vectors"):
        PolicyParams(
            text_table=np.zeros((3, 2)),
            time_table=np.zeros((2, 2)),
            W1=np.zeros((2, 3)),
            b1=np.zeros(2),
            W2=np.zeros((1, 2)),
            b2=np.zeros(1),
            Wv=np.zeros((1, 2)),
            bv=np.zeros(1),
            u_question=np.zeros(2),
            u_window=np.zeros(4),  # widths must agree
        )


def test_cross_entropy_values_and_dlogits(tiny_features):
    comp, vocab = compile_warnock(tiny_features)
    from tsqa.policy import featurize_record

    k = len(comp.candidates)
    zero = zeros_like_params(params_for(len(vocab), tiny_features))
    rf = featurize_record(comp, zero, tiny_features)
    loss, grads, _ = loss_and_grads(zero, rf, "cross_entropy", {"gold_index": comp.gold_index})
    assert loss == pytest.approx(math.log(k), abs=1e-12)

    # at generic params the W2/b2 gradients must follow dlogits = p - onehot
    params = params_for(len(vocab), tiny_features, seed=7)
    rf = featurize_record(comp, params, tiny_features)
    loss, grads, _ = loss_and_grads(params, rf, "cross_entropy", {"gold_index": comp.gold_index})
    h = np.tanh(rf.feats @ params.W1.T + params.b1)
    probs = forward(params, rf.feats, rf.pooled).probs
    dlogits = probs.copy()
    dlogits[comp.gold_index] -= 1.0
    assert np.allclose(grads.W2[0], dlogits @ h, atol=1e-12)
    assert grads.b2[0] == pytest.approx(dlogits.sum(), abs=1e-12)
    assert loss == pytest.approx(-math.log(probs[comp.gold_index]))
    # uniform-start sanity: gold-logit derivative is 1/k - 1
    assert (1.0 / k - 1.0) == pytest.approx(float(dlogits[comp.gold_index]) if np.allclose(probs, 1 / k) else 1.0 / k - 1.0)


def test_kept_delegates_match_the_compiled_path(tiny_features):
    from tsqa.facts import bulk_load
    from tsqa.metrics import evaluate, evaluate_compiled
    from tsqa.policy import backward, featurize, featurize_record

    comp, vocab = compile_warnock(tiny_features)
    params = params_for(len(vocab), tiny_features, seed=7)
    rf = featurize_record(comp, params, tiny_features)
    for i in range(len(comp.candidates)):
        assert np.array_equal(featurize(comp, params, tiny_features, i), rf.feats[i])
    inputs = {"gold_index": comp.gold_index}
    _, grads, _ = loss_and_grads(params, rf, "cross_entropy", inputs)
    for (_, a), (_, b) in zip(backward(params, rf, "cross_entropy", inputs).named_tensors(), grads.named_tensors()):
        assert np.array_equal(a, b)
    rec = make_record("Which employer did Neil Warnock work for in 1958?", WARNOCK_CTX, ["St Hugh's College"], WARNOCK_FACTS)
    assert len(bulk_load(WARNOCK_FACTS)) == len(FactIndex(WARNOCK_FACTS))
    raw = evaluate([rec], params, bulk_load(WARNOCK_FACTS), tiny_features, vocab)
    assert raw == evaluate_compiled([comp], params, tiny_features)


def test_cross_entropy_rejects_bad_gold(tiny_features):
    comp, vocab = compile_warnock(tiny_features)
    params = params_for(len(vocab), tiny_features)
    from tsqa.policy import featurize_record

    rf = featurize_record(comp, params, tiny_features)
    with pytest.raises(ValueError):
        loss_and_grads(params, rf, "cross_entropy", {"gold_index": 99})
    with pytest.raises(ValueError):
        loss_and_grads(params, rf, "nonsense", {})


def test_ppo_zero_advantage_all_grads_zero(tiny_features):
    comp, vocab = compile_warnock(tiny_features)
    params = params_for(len(vocab), tiny_features, seed=11)
    from tsqa.policy import featurize_record

    rf = featurize_record(comp, params, tiny_features)
    out = forward(params, rf.feats, rf.pooled)
    loss, grads, _ = loss_and_grads(
        params,
        rf,
        "ppo_surrogate",
        {
            "action": 1,
            "logprob_old": float(np.log(out.probs[1])),
            "advantage": 0.0,
            "cliprange": 0.2,
        },
    )
    assert loss == 0.0
    for name, t in grads.named_tensors():
        assert not t.any(), name


def test_ppo_unclipped_at_ratio_one_matches_policy_gradient(tiny_features):
    comp, vocab = compile_warnock(tiny_features)
    params = params_for(len(vocab), tiny_features, seed=13)
    from tsqa.policy import featurize_record

    rf = featurize_record(comp, params, tiny_features)
    out = forward(params, rf.feats, rf.pooled)
    action, adv = 0, 1.7
    loss, grads, _ = loss_and_grads(
        params,
        rf,
        "ppo_surrogate",
        {
            "action": action,
            "logprob_old": float(np.log(out.probs[action])),
            "advantage": adv,
            "cliprange": 0.2,
        },
    )
    h = np.tanh(rf.feats @ params.W1.T + params.b1)
    onehot = np.zeros(len(out.probs))
    onehot[action] = 1.0
    dlogits = -adv * (onehot - out.probs)
    assert loss == pytest.approx(-adv, abs=1e-12)
    assert np.allclose(grads.W2[0], dlogits @ h, atol=1e-12)


def test_ppo_clipped_branch_zero_policy_grads(tiny_features):
    comp, vocab = compile_warnock(tiny_features)
    params = params_for(len(vocab), tiny_features, seed=17)
    from tsqa.policy import featurize_record

    rf = featurize_record(comp, params, tiny_features)
    out = forward(params, rf.feats, rf.pooled)
    action = 0
    # logp_old far below the current logp drives the ratio beyond 1 + clip;
    # with positive advantage the clipped branch freezes the gradient
    loss, grads, _ = loss_and_grads(
        params,
        rf,
        "ppo_surrogate",
        {
            "action": action,
            "logprob_old": float(np.log(out.probs[action])) - 1.0,
            "advantage": 2.0,
            "cliprange": 0.2,
        },
    )
    assert loss == pytest.approx(-1.2 * 2.0)
    for name, t in grads.named_tensors():
        assert not t.any(), name
    with pytest.raises(ValueError):
        loss_and_grads(
            params,
            rf,
            "ppo_surrogate",
            {"action": 0, "logprob_old": 0.0, "advantage": 1.0, "cliprange": 0.0},
        )


def test_value_mse_touches_only_value_head(tiny_features):
    comp, vocab = compile_warnock(tiny_features)
    params = params_for(len(vocab), tiny_features, seed=19)
    from tsqa.policy import featurize_record

    rf = featurize_record(comp, params, tiny_features)
    v = forward(params, rf.feats, rf.pooled).value
    ret = v + 0.75
    loss, grads, _ = loss_and_grads(params, rf, "value_mse", {"return": ret})
    assert loss == pytest.approx(0.75**2, abs=1e-12)
    assert np.allclose(grads.Wv[0], 2 * (v - ret) * rf.pooled)
    assert grads.bv[0] == pytest.approx(2 * (v - ret), abs=1e-12)
    for name in ("text_table", "time_table", "W1", "b1", "W2", "b2"):
        assert not dict(grads.named_tensors())[name].any(), name


def _closure(comp, config, kind, inputs):
    from tsqa.policy import featurize_record

    def run(p):
        rf = featurize_record(comp, p, config)
        return loss_and_grads(p, rf, kind, inputs)

    return run


def pick_record(compiled):
    return next(
        c for c in compiled if len(c.candidates) >= 3 and c.gold_index >= 0
    )


def test_grad_check_cross_entropy(small_compiled, small_vocab, tiny_features):
    comp = pick_record(small_compiled[0])
    params = params_for(len(small_vocab), tiny_features, seed=23)
    params.time_table[:] = np.random.default_rng(23).normal(scale=0.1, size=params.time_table.shape)
    err = grad_check(
        params,
        _closure(comp, tiny_features, "cross_entropy", {"gold_index": comp.gold_index}),
        epsilon=1e-5,
        seed=1,
    )
    assert err < 1e-4


def test_grad_check_ppo_both_branches(small_compiled, small_vocab, tiny_features):
    comp = pick_record(small_compiled[0])
    params = params_for(len(small_vocab), tiny_features, seed=29)
    params.time_table[:] = np.random.default_rng(29).normal(scale=0.1, size=params.time_table.shape)
    from tsqa.policy import featurize_record

    rf = featurize_record(comp, params, tiny_features)
    out = forward(params, rf.feats, rf.pooled)
    base = float(np.log(out.probs[0]))
    # ratio pinned at 1 (deep inside the trust region) and ratio ~ e^0.5
    # (deep inside the clipped plateau): both far from the hinge
    for logp_old, adv in ((base, 1.3), (base - 0.5, 0.9)):
        err = grad_check(
            params,
            _closure(
                comp,
                tiny_features,
                "ppo_surrogate",
                {"action": 0, "logprob_old": logp_old, "advantage": adv, "cliprange": 0.2},
            ),
            epsilon=1e-5,
            seed=2,
        )
        assert err < 1e-4


def test_grad_check_value_mse(small_compiled, small_vocab, tiny_features):
    comp = pick_record(small_compiled[0])
    params = params_for(len(small_vocab), tiny_features, seed=31)
    from tsqa.policy import featurize_record

    # the value head reads the pooled state as a constant, so the
    # finite-difference oracle must hold the features fixed too
    rf = featurize_record(comp, params, tiny_features)

    def run(p):
        return loss_and_grads(p, rf, "value_mse", {"return": 0.4})

    err = grad_check(params, run, epsilon=1e-5, seed=3)
    assert err < 1e-4


def test_grad_check_concat_mode(small_corpus, small_vocab):
    fc = FeatureConfig(embed_dim=4, window=2, hidden=8, fusion_mode="concat")
    from tsqa.facts import FactIndex as FI
    from tsqa.policy import compile_dataset

    train = small_corpus[0][:10]
    index = FI(small_corpus[3])
    compiled = compile_dataset(train, index, small_vocab, fc)
    comp = pick_record(compiled)
    params = params_for(len(small_vocab), fc, seed=37)
    params.time_table[:] = np.random.default_rng(37).normal(scale=0.1, size=params.time_table.shape)
    err = grad_check(
        params,
        _closure(comp, fc, "cross_entropy", {"gold_index": comp.gold_index}),
        epsilon=1e-5,
        seed=4,
    )
    assert err < 1e-4


def test_grad_check_linear_loss_tight():
    params = PolicyParams(
        text_table=np.array([[0.3]]),
        time_table=np.zeros((2, 1)),
        W1=np.array([[0.2, 0.1]]),
        b1=np.zeros(1),
        W2=np.array([[0.5]]),
        b2=np.zeros(1),
        Wv=np.array([[1.0, 2.0]]),
        bv=np.zeros(1),
        u_question=np.array([0.4]),
        u_window=np.array([-0.7]),
    )

    def linear(p):
        grads = zeros_like_params(p)
        grads.Wv[0, :] = np.array([1.0, -2.0])
        return float(p.Wv[0, 0] - 2.0 * p.Wv[0, 1]), grads

    assert grad_check(params, linear, epsilon=1e-5, seed=0) < 1e-9


def test_greedy_predictions_order_and_texts(small_compiled, small_vocab, tiny_features):
    compiled = small_compiled[2][:8]
    params = params_for(len(small_vocab), tiny_features, seed=41)
    preds = greedy_predictions(compiled, params, tiny_features)
    assert len(preds) == len(compiled)
    for pred, comp in zip(preds, compiled):
        assert pred in comp.candidates.texts


def test_checkpoint_round_trip_bit_exact(tmp_path, small_vocab, tiny_features):
    params = params_for(len(small_vocab), tiny_features, seed=43)
    params.time_table[:] = np.random.default_rng(5).normal(size=params.time_table.shape)
    path = tmp_path / "policy.ckpt"
    save_checkpoint(path, params, small_vocab, tiny_features)
    loaded, vocab, config = load_checkpoint(path)
    for (_, a), (_, b) in zip(params.named_tensors(), loaded.named_tensors()):
        assert np.array_equal(a, b)  # bit-exact round trip
    assert config == tiny_features
    assert len(vocab) == len(small_vocab)
    assert vocab.to_json() == small_vocab.to_json()


def test_named_tensors_are_views_into_flat_in_order(small_vocab, tiny_features):
    params = params_for(len(small_vocab), tiny_features, seed=3)
    params.time_table[:] = np.random.default_rng(3).normal(size=params.time_table.shape)
    offset = 0
    for _, t in params.named_tensors():
        assert np.shares_memory(t, params.flat)
        assert np.array_equal(params.flat[offset : offset + t.size], t.ravel())
        offset += t.size
    assert offset == params.flat.size
    params.flat[:] = np.arange(params.flat.size)
    assert params.text_table[0, 1] == 1.0 and params.u_window[-1] == params.flat.size - 1
    params.W1 += 1.0  # in-place writes through a view land in flat
    assert params.flat[params.text_table.size + params.time_table.size] == params.W1[0, 0]


def test_copies_do_not_alias_their_source(small_vocab, tiny_features):
    params = params_for(len(small_vocab), tiny_features, seed=4)
    kept = params.flat.copy()
    for copy in (params.clone(), zeros_like_params(params), PolicyParams(**dict(params.named_tensors()))):
        assert copy.shapes == params.shapes
        assert not np.shares_memory(copy.flat, params.flat)
        for (_, a), (_, b) in zip(copy.named_tensors(), params.named_tensors()):
            assert not np.shares_memory(a, b)
        copy.flat[:] = 7.0
    assert np.array_equal(params.flat, kept)


def _reference_v2_bytes(params):
    """A version-2 checkpoint written tensor by tensor."""
    import struct

    V, d = params.text_table.shape
    H, F = params.W1.shape
    head = struct.pack("<4sI5I", b"TSQP", 2, V, d, H, F, params.Wv.shape[1])
    return head + b"".join(np.ascontiguousarray(t, dtype="<f8").tobytes() for _, t in params.named_tensors())


def test_checkpoint_bytes_match_a_per_tensor_writer(tmp_path, small_vocab, tiny_features):
    params = params_for(len(small_vocab), tiny_features, seed=44)
    params.u_question[:] = np.random.default_rng(6).normal(size=params.u_question.shape)
    save_checkpoint(tmp_path / "p.ckpt", params, small_vocab, tiny_features)
    assert (tmp_path / "p.ckpt").read_bytes() == _reference_v2_bytes(params)

    # and a file from the per-tensor writer loads to equal tensors
    (tmp_path / "ref.ckpt").write_bytes(_reference_v2_bytes(params))
    (tmp_path / "ref.ckpt.json").write_text((tmp_path / "p.ckpt.json").read_text())
    loaded, _, _ = load_checkpoint(tmp_path / "ref.ckpt")
    for (name, a), (_, b) in zip(params.named_tensors(), loaded.named_tensors()):
        assert a.shape == b.shape and np.array_equal(a, b), name


def test_checkpoint_rejects_corruption(tmp_path, small_vocab, tiny_features):
    params = params_for(len(small_vocab), tiny_features)
    path = tmp_path / "p.ckpt"
    save_checkpoint(path, params, small_vocab, tiny_features)
    data = path.read_bytes()
    (tmp_path / "magic.ckpt").write_bytes(b"XXXX" + data[4:])
    (tmp_path / "magic.ckpt.json").write_text((tmp_path / "p.ckpt.json").read_text())
    with pytest.raises(ValueError, match="magic"):
        load_checkpoint(tmp_path / "magic.ckpt")
    (tmp_path / "short.ckpt").write_bytes(data[:40])
    (tmp_path / "short.ckpt.json").write_text((tmp_path / "p.ckpt.json").read_text())
    with pytest.raises(ValueError):
        load_checkpoint(tmp_path / "short.ckpt")
    bad_version = data[:4] + (99).to_bytes(4, "little") + data[8:]
    (tmp_path / "vers.ckpt").write_bytes(bad_version)
    (tmp_path / "vers.ckpt.json").write_text((tmp_path / "p.ckpt.json").read_text())
    with pytest.raises(ValueError, match="version"):
        load_checkpoint(tmp_path / "vers.ckpt")


def test_checkpoint_header_errors_name_the_file(tmp_path, small_vocab, tiny_features):
    params = params_for(len(small_vocab), tiny_features)
    save_checkpoint(tmp_path / "p.ckpt", params, small_vocab, tiny_features)
    data = (tmp_path / "p.ckpt").read_bytes()
    narrow = data[:24] + (2).to_bytes(4, "little") + data[28:]  # pooled width 2
    for name, blob, what in (
        ("short", data[:12], "too short"),
        ("magic", b"XXXX" + data[4:], "bad magic"),
        ("vers", data[:4] + (99).to_bytes(4, "little") + data[8:], "version 99"),
        ("narrow", narrow, "pooled width 2"),
        ("cut", data[:100], "checkpoint size 100"),
    ):
        path = tmp_path / f"{name}.ckpt"
        path.write_bytes(blob)
        with pytest.raises(ValueError, match=what) as exc:
            load_checkpoint(path)
        assert str(exc.value).startswith(f"{path}: ")


def test_checkpoint_rejects_version_1(tmp_path, small_vocab, tiny_features):
    # version 1 was the mean-pooling format, without the attention vectors
    params = params_for(len(small_vocab), tiny_features)
    save_checkpoint(tmp_path / "p.ckpt", params, small_vocab, tiny_features)
    data = (tmp_path / "p.ckpt").read_bytes()
    fw = tiny_features.fused_width
    v1 = data[:4] + (1).to_bytes(4, "little") + data[8 : len(data) - 16 * fw]
    (tmp_path / "v1.ckpt").write_bytes(v1)
    (tmp_path / "v1.ckpt.json").write_text((tmp_path / "p.ckpt.json").read_text())
    with pytest.raises(ValueError, match="unsupported checkpoint version 1"):
        load_checkpoint(tmp_path / "v1.ckpt")

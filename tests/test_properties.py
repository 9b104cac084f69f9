"""Property-based tests (hypothesis) — beyond the reference's golden-file
strategy: algebraic invariants of the pure kernels."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from stimson_web_scraper_ray.functions import dom, urlnorm
from stimson_web_scraper_ray.functions.extract import extract_article
from stimson_web_scraper_ray.pipelines.dedup import jaccard, shingle_hashes, simhash64
from stimson_web_scraper_ray.state.seen import SeenShard

url_paths = st.text(
    alphabet=st.sampled_from("abcdefghij0123456789-_/."), min_size=0,
    max_size=40)


@given(url_paths)
@settings(max_examples=200, deadline=None)
def test_prepare_url_strips_one_trailing_slash_and_converges(path):
    # reference parity: prepare_url strips exactly ONE trailing '/'
    # (urls.py:98), so 'a//' needs two applications — it converges, and is
    # idempotent whenever the input doesn't end in '/'
    url = "http://example.com/" + path
    once = urlnorm.prepare_url(url)
    if url.endswith("/"):
        assert once == url[:-1]
    else:
        assert urlnorm.prepare_url(once) == once
    cur = url
    for _ in range(len(url)):
        nxt = urlnorm.prepare_url(cur)
        if nxt == cur:
            break
        cur = nxt
    assert urlnorm.prepare_url(cur) == cur
    assert not cur.endswith("/") or cur == "http://example.com/"[:len(cur)]


@given(url_paths)
@settings(max_examples=200, deadline=None)
def test_canon_hash64_in_range_and_stable(path):
    url = "http://example.com/" + path
    h = urlnorm.canon_hash64(url)
    assert 0 <= h < 2**64
    assert h == urlnorm.canon_hash64(url)


@given(st.text(max_size=200))
@settings(max_examples=200, deadline=None)
def test_inner_trim_idempotent_no_newlines(s):
    once = dom.inner_trim(s)
    assert dom.inner_trim(once) == once
    assert "\n" not in once and "\t" not in once
    assert once == once.strip()


@given(st.text(max_size=500))
@settings(max_examples=100, deadline=None)
def test_extract_article_never_raises(html_text):
    art = extract_article(html_text, url="http://x.co/a/b")
    assert isinstance(art, dict)
    assert "text" in art and "status" in art


@given(st.binary(max_size=300))
@settings(max_examples=100, deadline=None)
def test_extract_article_never_raises_bytes(payload):
    art = extract_article(payload, url="http://x.co/a/b")
    assert isinstance(art, dict)


@given(st.lists(st.integers(min_value=0, max_value=2**64 - 1),
                min_size=1, max_size=100))
@settings(max_examples=50, deadline=None)
def test_seen_shard_first_sighting_exactly_once(keys):
    shard = SeenShard(0)
    arr = np.array(keys, dtype=np.uint64)
    mask = shard.check_and_insert(arr)
    # each distinct key is new exactly once
    firsts = {}
    for k, m in zip(keys, mask):
        if k not in firsts:
            firsts[k] = m
        else:
            assert not m
    assert all(firsts.values())
    # second pass: nothing is new
    assert not shard.check_and_insert(arr).any()


words = st.lists(st.sampled_from("alpha beta gamma delta epsilon zeta eta "
                                 "theta iota kappa lam mu nu xi".split()),
                 min_size=6, max_size=60)


@given(words)
@settings(max_examples=100, deadline=None)
def test_jaccard_self_is_one(ws):
    text = " ".join(ws)
    assert jaccard(text, text) == 1.0
    assert simhash64(text) == simhash64(text)


@given(words, words)
@settings(max_examples=100, deadline=None)
def test_jaccard_symmetric_bounded(a, b):
    ta, tb = " ".join(a), " ".join(b)
    j = jaccard(ta, tb)
    assert 0.0 <= j <= 1.0
    assert j == jaccard(tb, ta)


@given(words)
@settings(max_examples=50, deadline=None)
def test_shingles_deterministic(ws):
    t = " ".join(ws)
    assert shingle_hashes(t).tolist() == shingle_hashes(t).tolist()


@given(st.text(alphabet=st.characters(), max_size=64))
@settings(max_examples=300, deadline=None)
def test_inner_trim_matches_reference_formulation(s):
    """inner_trim's C-level split/join must equal the reference's
    regex-collapse + splitlines-join + strip (utils.py:307-313)."""
    import re

    from stimson_web_scraper_ray.functions.dom import inner_trim

    ws_re = re.compile(r"[\s\t]+")
    ref = "".join(ws_re.sub(" ", s).splitlines()).strip()
    assert inner_trim(s) == ref


@given(st.integers(min_value=2, max_value=64),
       st.integers(min_value=50, max_value=400))
@settings(max_examples=20, deadline=None)
def test_salt_hosts_spread_property(buckets, n):
    """A salted heavy host must spread over ~all salt buckets with no
    bucket holding more than a few times its fair share (regression for
    the uint64 % int float-promotion bug)."""
    import pyarrow as pa

    from stimson_web_scraper_ray.functions.urlnorm import canon_hash64
    from stimson_web_scraper_ray.stages.url_stage import salt_hosts

    urls = [f"http://h.example.com/a/{i}.html" for i in range(n)]
    t = pa.table({
        "url_canon": pa.array(urls),
        "url_hash": pa.array([canon_hash64(u) for u in urls], pa.uint64()),
        "host": pa.array(["h.example.com"] * n),
    })
    out = salt_hosts(t, {"h.example.com": n}, buckets).to_pandas()
    sizes = out.groupby("part_key").size()
    assert sizes.max() <= max(8, 4 * n // buckets)


@given(st.binary(max_size=300))
@settings(max_examples=120, deadline=None)
def test_ppm_wav_decoders_contained(payload):
    """Adversarial bytes through the REAL codecs either decode or raise
    an ordinary exception — and through the actor stages they always
    degrade to decode_ok=False rows, never escape the block."""
    import pyarrow as pa

    from stimson_web_scraper_ray.pipelines.multimodal import (
        PPM_MIME,
        WAV_MIME,
        AudioFeatures,
        ImageDecodeFeatures,
        decode_ppm,
        decode_wav,
    )

    for fn, prefix in ((decode_ppm, b"P6"), (decode_wav, b"RIFF")):
        try:
            fn(prefix + payload)
        except Exception:
            pass                      # any ordinary exception is fine

    t = pa.table({
        "media_id": pa.array([0, 1], pa.int64()),
        "mime": pa.array([PPM_MIME, WAV_MIME], pa.string()),
        "payload": pa.array([b"P6" + payload, b"RIFF" + payload],
                            pa.binary()),
        "meta": pa.array(["{}", "{}"], pa.string()),
    })
    out = ImageDecodeFeatures(fake=False)(t.slice(0, 1))
    assert out.num_rows == 1
    aout = AudioFeatures(fake=False)(t.slice(1, 1))
    assert aout.num_rows == 1

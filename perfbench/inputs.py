"""Seeded inputs for the benchmark.

Everything the community is asked to do is a pure function of ``--seed``:
the corpus (the MED preset of Table 3 at 15% of its size, spread over the
25 peers by the paper's Weibull law), the documents served to the fetch
phases, the cold and repeated search queries, and the documents the
writer publishes.  The system under test only ever sees the generated
inputs.

Peer 0 is the querying peer (bench process); peers 1..24 serve from the
community process.  Documents to fetch and fresh publishes always live on
serving peers, so every timed operation crosses a real socket.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import dataclass

import numpy as np

from repro.bloom.filter import BloomFilter
from repro.constants import BloomConfig
from repro.corpus import make_collection
from repro.text.analyzer import Analyzer
from repro.utils.distributions import sample_categorical

#: community size: peer 0 queries, 1..NUM_PEERS-1 serve.
NUM_PEERS = 25
#: the Table-3 preset, shrunk (shape kept) so set-up stays a few seconds:
#: every published document is gossiped, indexed and chunked at set-up.
COLLECTION = "MED"
COLLECTION_SCALE = 0.15
#: the paper's Weibull shape for documents per peer (Section 7.3).
WEIBULL_SHAPE = 0.7
#: results per ranked search.
TOP_K = 10
#: documents fetched whole: LARGE_DOCS of LARGE_BYTES (32 chunks of 64 KiB)
#: and SMALL_DOCS single-chunk documents of SMALL_BYTES.
LARGE_DOCS = 4
LARGE_BYTES = 2 * 1024 * 1024
SMALL_DOCS = 32
SMALL_BYTES = 4 * 1024
#: repeated-query pool of the publish-search workload, drawn Zipf(1).
POOL_SIZE = 300
#: repeated-pool draws generated per run (more than any run issues).
POOL_DRAWS = 20_000
#: fresh documents the writer may publish in one run.
MAX_PUBLISHES = 1_000
#: words per topic signature, and terms per query.
SIGNATURE_WORDS = 24
QUERY_TERMS = (2, 4)


@dataclass(frozen=True)
class Doc:
    """One document published at set-up."""

    doc_id: str
    text: str
    owner: int


@dataclass(frozen=True)
class FetchDoc:
    """A document the fetch phases retrieve whole."""

    doc_id: str
    owner: int
    size: int
    sha256: str


@dataclass(frozen=True)
class Publish:
    """One document the writer sends in a ``PublishRequest``."""

    doc_id: str
    text: str
    term: str
    origin: int


@dataclass
class Inputs:
    """All generated inputs of one run."""

    docs: list[Doc]
    large: list[FetchDoc]
    small: list[FetchDoc]
    cold_queries: list[str]
    pool_queries: list[str]
    pool_draws: np.ndarray
    publishes: list[Publish]

    def docs_of(self, peer: int) -> list[Doc]:
        """Documents published at ``peer`` during set-up."""
        return [d for d in self.docs if d.owner == peer]


def _blob_text(rng: np.random.Generator, header: str, size: int) -> str:
    """``size`` ASCII bytes: a header word, then 48-letter tokens.

    Tokens longer than the tokenizer's 40-character limit are discarded
    at indexing time, so a large document costs the content plane its
    full size but adds only its header term to the peer's filter.
    """
    body = rng.integers(ord("a"), ord("z") + 1, size=size - len(header) - 1, dtype=np.uint8)
    body[48::49] = ord(" ")
    return header + " " + body.tobytes().decode("ascii")


def _signatures(collection) -> list[list[str]]:
    """The most characteristic words of each topic, read off the corpus."""
    overall: Counter[str] = Counter()
    by_topic: dict[int, Counter[str]] = {}
    for doc in collection.documents:
        words = doc.text.split()
        overall.update(words)
        by_topic.setdefault(int(doc.metadata["topic"]), Counter()).update(words)
    signatures = []
    for topic in sorted(by_topic):
        counts = by_topic[topic]
        specific = [w for w, c in counts.most_common() if c >= 2 and c * 2 >= overall[w]]
        if len(specific) >= QUERY_TERMS[1]:
            signatures.append(specific[:SIGNATURE_WORDS])
    return signatures


def _queries(
    rng: np.random.Generator, signatures: list[list[str]], count: int, seen: set
) -> list[str]:
    """``count`` queries whose analyzed term sets are all distinct."""
    analyzer = Analyzer()
    out: list[str] = []
    lo, hi = QUERY_TERMS
    while len(out) < count:
        sig = signatures[int(rng.integers(0, len(signatures)))]
        n = int(rng.integers(lo, hi + 1))
        words = [sig[int(i)] for i in rng.choice(len(sig), size=n, replace=False)]
        key = frozenset(analyzer.analyze_query(" ".join(words)))
        if len(key) < lo or key in seen:
            continue
        seen.add(key)
        out.append(" ".join(words))
    return out


def _fresh_term(seed: int, index: int, salt: int) -> str:
    """A letters-only term no corpus word can equal."""
    digest = hashlib.blake2b(f"{seed}:{index}:{salt}".encode(), digest_size=8).digest()
    return "zqx" + "".join(chr(ord("a") + b % 26) for b in digest)


def peer_shares() -> np.ndarray:
    """Each peer's expected share of the corpus under the Weibull law.

    The shares are the law's quantiles at evenly spaced probabilities,
    placed on peers in one fixed order, so every seed sees the same skew
    and only which documents land where varies.
    """
    p = (np.arange(NUM_PEERS) + 0.5) / NUM_PEERS
    shares = (-np.log1p(-p)) ** (1.0 / WEIBULL_SHAPE)
    shares = np.random.default_rng(0).permutation(shares)
    return shares / shares.sum()


def make_inputs(seed: int, cold_queries: int) -> Inputs:
    """Generate every input of one run from ``seed``.

    ``cold_queries`` is how many distinct cold queries to draw; it is
    fixed by the run length, never by the seed.
    """
    rng = np.random.default_rng([seed, 0x5EED])
    collection = make_collection(COLLECTION, scale=COLLECTION_SCALE, seed=seed)
    owners = sample_categorical(peer_shares(), collection.num_documents, rng)
    docs = [
        Doc(doc.doc_id, doc.text, int(owner))
        for doc, owner in zip(collection.documents, owners)
    ]

    def fetch_docs(prefix: str, count: int, size: int) -> list[FetchDoc]:
        out = []
        for i in range(count):
            doc_id = f"{prefix}{i:04d}"
            owner = int(rng.integers(1, NUM_PEERS))
            text = _blob_text(rng, doc_id, size)
            docs.append(Doc(doc_id, text, owner))
            sha = hashlib.sha256(text.encode("utf-8")).hexdigest()
            out.append(FetchDoc(doc_id, owner, size, sha))
        return out

    large = fetch_docs("bigdoc", LARGE_DOCS, LARGE_BYTES)
    small = fetch_docs("smalldoc", SMALL_DOCS, SMALL_BYTES)

    signatures = _signatures(collection)
    seen: set = set()
    pool = _queries(rng, signatures, POOL_SIZE, seen)
    cold = _queries(rng, signatures, cold_queries, seen)
    weights = 1.0 / np.arange(1, POOL_SIZE + 1)
    draws = rng.choice(POOL_SIZE, size=POOL_DRAWS, p=weights / weights.sum())

    # A fresh term must not share a Bloom bit with any pool-query term:
    # then publishing it cannot turn a pool term into a false positive
    # anywhere, and every pool query keeps its set-up top-k.
    analyzer = Analyzer()
    cfg = BloomConfig()
    hashes = BloomFilter(cfg.num_bits, cfg.num_hashes).hashes
    pool_terms = {t for q in pool for t in analyzer.analyze_query(q)}
    taken = {int(p) for t in pool_terms for p in hashes.positions(t)}
    publishes = []
    for i in range(MAX_PUBLISHES):
        salt = 0
        while True:
            text = _fresh_term(seed, i, salt)
            (term,) = analyzer.analyze(text)
            if not taken.intersection(int(p) for p in hashes.positions(term)):
                break
            salt += 1
        origin = int(rng.integers(1, NUM_PEERS))
        publishes.append(Publish(f"fresh-{i:05d}", text, term, origin))
    return Inputs(docs, large, small, cold, pool, draws, publishes)

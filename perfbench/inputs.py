"""Seeded workload inputs and an independent numpy reference forward pass.

Nothing here calls into ``cral``: the inputs are generated from the
workload seed alone, and the reference forward reads only the arrays of
``model.state_dict()``, so a change to the program can change neither.
"""

import zlib

import numpy as np

BOW_DIM = 5000
SENTIMENT_WORDS = 150   # class-indicative words per class, shared by all domains
DOMAIN_WORDS = 250      # words over-represented in one domain
TOKENS_PER_ROW = (40, 80)


def seeded_rng(seed: int, label: str) -> np.random.Generator:
    """Independent generator per (seed, label), stable across platforms."""
    return np.random.default_rng([seed, zlib.crc32(label.encode("utf-8"))])


def bag_of_words(seed: int, domain: int, labeled: int, unlabeled: int,
                 dim: int = BOW_DIM) -> tuple:
    """Sparse count vectors for one domain: (labeled_x, labeled_y, unlabeled_x).

    Rows are multinomial word counts over a Zipf-like base vocabulary. Each
    class over-weights its own sentiment words, shared by all domains, and
    each domain over-weights its own slice of the vocabulary, so both the
    classifier and the domain discriminator have something to learn. About
    1% of the entries of a row are nonzero. Labels are balanced (``labeled``
    must be even) and the result depends on ``seed`` and ``domain`` only.
    """
    if labeled % 2:
        raise ValueError("labeled must be even to balance the classes")
    vocab = seeded_rng(seed, "bow/vocabulary")
    base = 1.0 / (vocab.permutation(dim) + 10.0)
    words = vocab.permutation(dim)
    sentiment = (words[:SENTIMENT_WORDS], words[SENTIMENT_WORDS:2 * SENTIMENT_WORDS])
    rng = seeded_rng(seed, f"bow/domain{domain}")
    own = rng.choice(words[2 * SENTIMENT_WORDS:], DOMAIN_WORDS, replace=False)
    domain_p = base.copy()
    domain_p[own] += 4.0 * base.mean()

    def draw(labels):
        x = np.zeros((labels.size, dim))
        lengths = rng.integers(*TOKENS_PER_ROW, size=labels.size)
        for c in (0, 1):
            rows = np.flatnonzero(labels == c)
            p = domain_p.copy()
            p[sentiment[c]] += 6.0 * base.mean()
            x[rows] = rng.multinomial(lengths[rows], p / p.sum())
        return x

    labeled_y = np.repeat([0, 1], labeled // 2)
    unlabeled_y = rng.permutation(np.arange(unlabeled) % 2)
    return draw(labeled_y), labeled_y, draw(unlabeled_y)


def reference_forward(state: dict, branch: int, x: np.ndarray,
                      domain=None) -> np.ndarray:
    """Eval-mode class probabilities of one branch from raw parameter arrays.

    Re-derives the architecture from parameter names: every MLP is
    ``x W^T + b`` per layer with relu between layers; the classifier reads
    [shared, specific] (zeros in place of specific when ``domain`` is None,
    the unseen-domain path) and ends in a row softmax.
    """
    def mlp(prefix, h):
        k = 0
        while f"{prefix}/layer{k}/weight" in state:
            if k:
                h = np.maximum(h, 0.0)
            h = h @ state[f"{prefix}/layer{k}/weight"].T + state[f"{prefix}/layer{k}/bias"]
            k += 1
        return h

    shared = mlp(f"branch{branch}/shared", x)
    if domain is None:
        width = state[f"branch{branch}/clf/layer0/weight"].shape[1] - shared.shape[1]
        specific = np.zeros((x.shape[0], width))
    else:
        specific = mlp(f"branch{branch}/specific{domain}", x)
    logits = mlp(f"branch{branch}/clf", np.concatenate([shared, specific], axis=1))
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)

"""``repro.workloads.rng`` against ``numpy.random.default_rng``.

numpy is the reference only here: every method must return exactly
what numpy returns for the same seed and the same call history.  Call
histories are random interleavings, so the shared 32-bit half buffer
is exercised across methods; the ziggurat tail and wedge branches are
reached deliberately by skipping raw draws until one selects them.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads._ziggurat import KE, KI
from repro.workloads.rng import Generator

np = pytest.importorskip("numpy")

SEEDS = st.one_of(
    st.integers(0, 2**32),
    st.integers(0, 2**64),
    st.integers(0, 2**200),  # more entropy words than the pool holds
)

#: ``high - low`` values at numpy's branch points: no draw, Lemire on
#: 32 bits (with heavy rejection just past 2^31), the raw 32-bit draw,
#: Lemire on 64 bits (heavy rejection just past 2^63), the raw 64-bit
#: draw.
SPANS = st.one_of(
    st.sampled_from([
        1, 2, 3, 7, 1000, 2**31 + 1, 2**32 - 1, 2**32, 2**32 + 1,
        2**40 + 3, 2**63 + 1, 2**64 - 1, 2**64,
    ]),
    st.integers(1, 2**64),
)


@st.composite
def integer_ranges(draw):
    span = draw(SPANS)
    low = draw(st.integers(-(2**63), 2**63 - span))
    return low, low + span


PROBABILITIES = st.one_of(
    st.floats(1e-6, 0.33),            # inversion: ceil(-E / log1p(-p))
    st.floats(0.34, 1.0),             # search over the CDF
    st.just(0.333333333333333333333333),
)

OPS = st.one_of(
    st.tuples(st.just("integers"), integer_ranges()),
    st.tuples(st.just("integers_n"), integer_ranges(), st.integers(0, 6)),
    st.tuples(st.just("random")),
    st.tuples(st.just("random_n"), st.integers(0, 6)),
    st.tuples(
        st.just("normal"), st.floats(-1e3, 1e3), st.floats(0.0, 1e3)
    ),
    st.tuples(st.just("geometric"), PROBABILITIES),
    st.tuples(st.just("permutation"), st.integers(0, 80)),
    st.tuples(
        st.just("choice_p"),
        st.lists(st.floats(0.0, 10.0), min_size=1, max_size=40).filter(
            lambda w: sum(w) > 0
        ),
        st.integers(1, 12),
    ),
    st.integers(1, 300).flatmap(
        lambda n: st.tuples(
            st.just("choice_distinct"), st.just(n), st.integers(0, n)
        )
    ),
)


def call_ours(gen, op):
    name, *args = op
    if name == "integers":
        return gen.integers(*args[0])
    if name == "integers_n":
        return gen.integers(*args[0], size=args[1])
    if name == "random":
        return gen.random()
    if name == "random_n":
        return gen.random(args[0])
    if name == "normal":
        return gen.normal(*args)
    if name == "geometric":
        return gen.geometric(args[0])
    if name == "permutation":
        return gen.permutation(args[0])
    if name == "choice_p":
        weights, size = args
        total = sum(weights)
        return gen.choice(len(weights), size, p=[w / total for w in weights])
    n, size = args
    return gen.choice(n, size, replace=False)


def call_numpy(gen, op):
    name, *args = op
    if name == "integers":
        return int(gen.integers(*args[0]))
    if name == "integers_n":
        return gen.integers(*args[0], size=args[1]).tolist()
    if name == "random":
        return float(gen.random())
    if name == "random_n":
        return gen.random(args[0]).tolist()
    if name == "normal":
        return float(gen.normal(*args))
    if name == "geometric":
        return int(gen.geometric(args[0]))
    if name == "permutation":
        return gen.permutation(args[0]).tolist()
    if name == "choice_p":
        weights, size = args
        total = sum(weights)
        return gen.choice(
            len(weights), size=size, p=[w / total for w in weights]
        ).tolist()
    n, size = args
    return gen.choice(n, size=size, replace=False).tolist()


@settings(max_examples=300, deadline=None)
@given(seed=SEEDS, ops=st.lists(OPS, max_size=20))
def test_call_histories_match_numpy(seed, ops):
    ours = Generator(seed)
    theirs = np.random.default_rng(seed)
    for op in ops:
        assert call_ours(ours, op) == call_numpy(theirs, op), op


# -- ziggurat branches --------------------------------------------------


def normal_tail(raw):
    rabs = raw >> 9 & (2**52 - 1)
    return raw & 0xFF == 0 and rabs >= KI[0]


def normal_wedge(raw):
    idx = raw & 0xFF
    return idx != 0 and raw >> 9 & (2**52 - 1) >= KI[idx]


def exponential_tail(raw):
    ri = raw >> 3
    return ri & 0xFF == 0 and ri >> 8 >= KE[0]


def exponential_wedge(raw):
    ri = raw >> 3
    idx = ri & 0xFF
    return idx != 0 and ri >> 8 >= KE[idx]


def skips_to(predicate, seed, count):
    """Raw-draw offsets in ``seed``'s stream whose draw satisfies
    ``predicate``: the first ``count`` of them."""
    gen = Generator(seed)
    offsets = []
    k = 0
    while len(offsets) < count:
        if predicate(gen._next64()):
            offsets.append(k)
        k += 1
    return offsets


def advanced(seed, skip):
    """Our generator and numpy's, each ``skip`` raw draws in."""
    ours = Generator(seed)
    for _ in range(skip):
        ours._next64()
    theirs = np.random.default_rng(seed)
    theirs.bit_generator.random_raw(skip)
    return ours, theirs


@pytest.mark.parametrize("seed", [0, 7, 2**70])
@pytest.mark.parametrize("predicate", [normal_tail, normal_wedge])
def test_normal_branches_match_numpy(predicate, seed):
    for skip in skips_to(predicate, seed, 12):
        ours, theirs = advanced(seed, skip)
        for _ in range(3):
            assert ours.normal(0.0, 1.0) == theirs.normal(0.0, 1.0)


@pytest.mark.parametrize("seed", [0, 7, 2**70])
@pytest.mark.parametrize("predicate", [exponential_tail, exponential_wedge])
def test_exponential_branches_match_numpy(predicate, seed):
    for skip in skips_to(predicate, seed, 12):
        ours, theirs = advanced(seed, skip)
        for _ in range(3):
            assert ours._standard_exponential() == (
                theirs.standard_exponential()
            )
        ours, theirs = advanced(seed, skip)
        assert ours.geometric(0.01) == theirs.geometric(0.01)


def test_negative_seed_is_refused():
    with pytest.raises(ValueError):
        Generator(-1)


def test_empty_integer_range_is_refused():
    with pytest.raises(ValueError):
        Generator(1).integers(5, 5)

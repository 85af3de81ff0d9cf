from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noisylab.annotators import staple, train_with_confusion
from noisylab.data import gen_blobs, gen_rings, split
from noisylab.harness import PipelineError, run_experiment, sweep
from noisylab.losses import LossSpec
from noisylab.model import ModelParams, TrainConfig, grad_check, init, stack
from noisylab.noise import (TransitionMatrix, draw_labels,
                            feature_dependent_inject, symmetric_transition)
from noisylab.numerics import Rng, _check_args, check_prob_vector, softmax
from noisylab.procedures import (iterative_clean, mixup, peer_rows,
                                 train_co_teaching)
from noisylab.reweight import (RunningLossFilter, make_reweighter,
                               rank_prune, trimmed_filter)


class TestSoftmax:
    def test_symmetry(self):
        assert np.allclose(softmax([0.0, 0.0, 0.0]), [1 / 3] * 3)

    def test_hand_value(self):
        # e^0 / (e^0 + 3) = 0.25
        assert np.allclose(softmax([0.0, np.log(3.0)]), [0.25, 0.75])

    def test_shift_invariance(self):
        base = softmax([1.0, 2.0, 3.0])
        for shift in (-650.0, 0.0, 100.0, 650.0):
            assert np.allclose(softmax(np.array([1.0, 2.0, 3.0]) + shift),
                               base, atol=1e-12)

    def test_no_overflow_at_700(self):
        out = softmax([700.0, -700.0])
        assert np.all(np.isfinite(out))
        assert abs(out.sum() - 1.0) < 1e-12

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            softmax([np.inf, 0.0])
        with pytest.raises(ValueError):
            softmax([np.nan, 0.0])

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(min_value=-700, max_value=700), min_size=1,
                    max_size=10))
    def test_always_valid_prob_vector(self, logits):
        check_prob_vector(softmax(logits))

    # the row max comes from a transposed copy; max is exact whatever the
    # order, so every shape gives the bits of the last-axis reduction
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(1, 5), min_size=1, max_size=3),
           st.integers(1, 12), st.data())
    def test_equals_the_last_axis_max(self, lead, K, data):
        values = st.one_of(st.sampled_from([0.0, -0.0, 1.0, 1e300, -1e300]),
                           st.floats(-700, 700))
        n = int(np.prod(lead)) * K
        logits = np.array(data.draw(st.lists(
            values, min_size=n, max_size=n))).reshape(*lead, K)
        e = np.exp(logits - np.maximum.reduce(logits, axis=-1, keepdims=True))
        expected = e / np.add.reduce(e, axis=-1, keepdims=True)
        out = softmax(logits)
        assert out.shape == logits.shape
        assert out.tobytes() == expected.tobytes()


class TestRng:
    def test_equal_seeds_equal_streams(self):
        a, b = Rng(123), Rng(123)
        assert np.array_equal(a.uniform(10_000), b.uniform(10_000))

    def test_different_seeds_differ(self):
        assert not np.array_equal(Rng(1).uniform(100), Rng(2).uniform(100))

    def test_split_streams_independent_and_reproducible(self):
        kids1 = Rng(5).split(3)
        kids2 = Rng(5).split(3)
        for k1, k2 in zip(kids1, kids2):
            assert np.array_equal(k1.uniform(100), k2.uniform(100))
        assert not np.array_equal(kids1[0].uniform(100),
                                  kids1[1].uniform(100))

    def test_requires_seed(self):
        with pytest.raises(ValueError):
            Rng()


class TestCategoricalDraws:
    """draw_labels, the one categorical sampler, on a class-0 truth drawn
    from row 0 of T; check_prob_vector, the check of each row."""

    @staticmethod
    def draw(row0, n, rng):
        K = len(row0)
        T = TransitionMatrix(np.array([row0] + np.eye(K)[1:].tolist()))
        return draw_labels(T, np.zeros(n, dtype=np.int64), rng)

    def test_degenerate(self):
        assert self.draw([1.0, 0.0, 0.0], 20, Rng(0)).tolist() == [0] * 20

    def test_same_seed_same_sequence(self):
        p = [0.2, 0.3, 0.5]
        assert np.array_equal(self.draw(p, 200, Rng(11)),
                              self.draw(p, 200, Rng(11)))

    def test_binomial_frequency(self):
        # 3 sigma of Binomial(1e5, 0.5) is ~0.0047
        draws = self.draw([0.5, 0.5], 100_000, Rng(7))
        assert abs((draws == 0).mean() - 0.5) < 0.0047

    def test_invalid_vector(self):
        with pytest.raises(ValueError):
            check_prob_vector([0.5, 0.4])

    # a matrix is not a vector (TransitionMatrix checks its rows one by
    # one), and a NaN entry passed both checks and drew a class
    @pytest.mark.parametrize("p", [[[0.5, 0.5]], [np.nan, 1.0],
                                   [0.5, 0.5, np.nan]],
                             ids=["2-D", "nan-entry", "nan-sum"])
    def test_refuses_a_matrix_and_nan(self, p):
        with pytest.raises(ValueError, match="invalid probability vector"):
            check_prob_vector(p)


def johnk_beta(alpha, rng):
    """Reference: one symmetric Beta(alpha, alpha) draw by Johnk's rejection
    loop, two scalar uniforms per try."""
    inv = 1.0 / alpha
    while True:
        u, v = rng.uniform(), rng.uniform()
        x, y = u**inv, v**inv
        s = x + y
        if 0 < s <= 1.0:
            return x / s


class TestRngBeta:
    # For a, b <= 1 NumPy's Generator.beta runs Johnk's loop in C, one row
    # after another, with the same uniforms, pow and accept test. Below
    # alpha ~0.049 both powers can underflow to 0 and NumPy answers in log
    # space where the loop draws again, so the range starts at 0.05.
    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 64),
           alpha=st.floats(0.05, 1.0))
    def test_equals_johnk_draws_bitwise(self, seed, n, alpha):
        fast, ref = Rng(seed), Rng(seed)
        draws = fast.beta(alpha, alpha, n)
        expected = np.array([johnk_beta(alpha, ref) for _ in range(n)])
        assert draws.tobytes() == expected.tobytes()
        assert fast.uniform() == ref.uniform()  # same stream position

    def test_support(self):
        rng = Rng(2)
        for alpha in (0.2, 1.0, 5.0, 20.0):
            xs = rng.beta(alpha, alpha, 1000)
            assert np.all((xs >= 0.0) & (xs <= 1.0))

    @pytest.mark.parametrize("alpha", [0.2, 5.0])
    def test_moments_symmetric(self, alpha):
        xs = Rng(3).beta(alpha, alpha, 100_000)
        assert abs(xs.mean() - 0.5) < 0.01
        var_expected = 1.0 / (4.0 * (2 * alpha + 1))
        assert abs(xs.var() - var_expected) < 0.1 * var_expected

    def test_deterministic(self):
        assert np.array_equal(Rng(9).beta(0.2, 0.2, 50),
                              Rng(9).beta(0.2, 0.2, 50))
        assert not np.array_equal(Rng(9).beta(0.2, 0.2, 50),
                                  Rng(10).beta(0.2, 0.2, 50))


# --- argument checks ---------------------------------------------------------

NAN, INF = float("nan"), float("inf")


def _blobs():
    return gen_blobs(3, 4, 2, 8.0, 0)


def _clean_fraction(clean_fraction):
    cfg = {"seed": 1, "dataset": {"kind": "blobs", "k": 2, "n_per_class": 10,
                                  "d": 2, "separation": 8.0},
           "noise": {"kind": "symmetric", "rho": 0.2},
           "method": {"procedure": {"name": "iterative_clean",
                                    "clean_fraction": clean_fraction}}}
    try:
        run_experiment(cfg)
    except PipelineError as e:
        raise e.cause


# One call per checked site: the argument under test takes the value, every
# other argument is valid.
SITES = {
    "gen_blobs": lambda **kw: gen_blobs(
        **{"K": 3, "n_per_class": 4, "d": 2, "separation": 8.0, "seed": 0,
           **kw}),
    "gen_rings": lambda **kw: gen_rings(
        **{"K": 2, "n_per_class": 4, "noise_std": 0.1, "seed": 0, **kw}),
    "split": lambda **kw: split(_blobs(), seed=0, **kw),
    "symmetric_transition": lambda **kw: symmetric_transition(
        **{"K": 3, "rho": 0.2, **kw}),
    "feature_dependent_inject": lambda **kw: feature_dependent_inject(
        _blobs(), **{"rho_max": 0.2, "beta": 1.0, **kw}, rng=Rng(0)),
    "TransitionMatrix.from_json": lambda **kw: TransitionMatrix.from_json(
        {"rows": np.eye(2), **kw}),
    "LossSpec": lambda **kw: LossSpec("ce", **kw),
    "TrainConfig": lambda **kw: TrainConfig(**kw),
    "ModelParams": lambda **kw: ModelParams("mlp", 2, 3, **kw),
    "grad_check": lambda **kw: grad_check(init("linear", 2, 2, 0),
                                          np.zeros(2), 0, LossSpec("ce"),
                                          **kw),
    "RunningLossFilter": lambda **kw: RunningLossFilter(**kw),
    "rank_prune": lambda **kw: rank_prune(np.ones(4), np.zeros(4, int),
                                          **kw),
    "trimmed_filter": lambda **kw: trimmed_filter(np.ones(4), **kw),
    "pumpout": lambda **kw: make_reweighter(
        {"kind": "pumpout", "transition": symmetric_transition(2, 0.2),
         **kw}),
    "staple": lambda **kw: staple(np.zeros((3, 2), int), **{"K": 2, **kw}),
    "train_with_confusion": lambda **kw: train_with_confusion(
        replace(_blobs(), annotator_labels=np.zeros((12, 1), int)),
        TrainConfig(epochs=1), **kw),
    "mixup": lambda **kw: mixup(np.zeros((2, 2)), np.eye(2), rng=Rng(0),
                                **kw),
    "peer_rows": lambda **kw: peer_rows(
        stack([init("linear", 2, 2, 1), init("linear", 2, 2, 2)]),
        np.zeros((2, 2)), np.zeros(2, int), **kw),
    "train_co_teaching": lambda **kw: train_co_teaching(
        _blobs(), TrainConfig(epochs=1), **kw),
    "iterative_clean": lambda **kw: iterative_clean(
        _blobs(), _blobs(), TrainConfig(epochs=1), **kw),
    "harness": _clean_fraction,
    "sweep": lambda **kw: sweep({"seed": 1}, [kw["rhos[0]"]]),
}

# (site, message prefix, argument, type, interval): every argument that
# goes through _check_args, with the interval it must lie in
CHECKED = [
    ("gen_blobs", "gen_blobs", "K", int, "[2, inf)"),
    ("gen_blobs", "gen_blobs", "n_per_class", int, "[1, inf)"),
    ("gen_blobs", "gen_blobs", "d", int, "[1, inf)"),
    ("gen_blobs", "gen_blobs", "separation", float, "(0, inf)"),
    ("gen_rings", "gen_rings", "K", int, "[2, inf)"),
    ("gen_rings", "gen_rings", "n_per_class", int, "[1, inf)"),
    ("gen_rings", "gen_rings", "noise_std", float, "[0, inf)"),
    ("split", "split", "test_fraction", float, "(0, 1)"),
    ("symmetric_transition", "symmetric_transition", "K", int, "[2, inf)"),
    ("symmetric_transition", "symmetric_transition", "rho", float, "[0, 1)"),
    ("feature_dependent_inject", "feature_dependent_inject", "rho_max",
     float, "[0, 1)"),
    ("feature_dependent_inject", "feature_dependent_inject", "beta", float,
     "[0, inf)"),
    ("TransitionMatrix.from_json", None, "k", int, ">= 2"),
    ("LossSpec", "LossSpec", "tau", float, "(0, inf)"),
    ("LossSpec", "LossSpec", "epsilon", float, "[0, 1)"),
    ("TrainConfig", None, "epochs", int, ">= 1"),
    ("TrainConfig", None, "batch_size", int, ">= 1"),
    ("TrainConfig", None, "seed", int, ">= 0"),
    ("TrainConfig", None, "hidden", int, ">= 1"),
    ("TrainConfig", None, "learning_rate", float, ">= 0"),
    ("ModelParams", None, "hidden", int, ">= 1"),
    ("grad_check", "grad_check", "epsilon", float, "[1e-8, 1e-4]"),
    ("RunningLossFilter", "RunningLossFilter", "window", int, "[1, inf)"),
    ("RunningLossFilter", "RunningLossFilter", "multiplier", float,
     "(0, inf)"),
    ("RunningLossFilter", "RunningLossFilter", "warmup", float, "[0, inf)"),
    ("rank_prune", "rank_prune", "prune_fraction", float, "[0, 1)"),
    ("trimmed_filter", "trimmed_filter", "trim_fraction", float, "[0, 1)"),
    ("pumpout", "pumpout", "gamma", float, "(0, 1)"),
    ("staple", "staple", "K", int, "[1, inf)"),
    ("staple", "staple", "max_iters", int, "[0, inf)"),
    ("staple", "staple", "tol", float, "[0, inf)"),
    ("train_with_confusion", "train_with_confusion", "lambda_trace", float,
     "[0, inf)"),
    ("mixup", "mixup", "alpha", float, "(0, inf)"),
    ("peer_rows", "peer_rows", "keep_fraction", float, "(0, 1]"),
    ("train_co_teaching", "train_co_teaching", "noise_rate", float,
     "[0, 1)"),
    ("iterative_clean", "iterative_clean", "rounds", int, "[1, inf)"),
    ("iterative_clean", "iterative_clean", "threshold", float, "[0, 1]"),
    ("iterative_clean", "iterative_clean", "ensemble_size", int, "[1, inf)"),
    ("harness", "iterative_clean", "clean_fraction", float, "(0, 1]"),
    ("sweep", "sweep", "rhos[0]", float, "[0, 1)"),
]


def _outside(kind, interval):
    """(case, value, whether it fails the type) for values outside the
    interval: below it, above it (when it has a finite upper end), NaN,
    +-inf, a string and a bool."""
    ends = f"[{interval[3:]}, inf)" if interval.startswith(">= ") else interval
    lo, hi = (float(end) for end in ends[1:-1].split(","))
    if kind is int:  # every integer interval is closed below
        cases = [("below", int(lo) - 1, False)]
    else:
        cases = [("below", lo if ends[0] == "(" else np.nextafter(lo, -INF),
                  False)]
        if hi < INF:
            cases.append(("above", hi if ends[-1] == ")"
                          else np.nextafter(hi, INF), False))
    cases += [(case, v, kind is int) for case, v in
              (("nan", NAN), ("inf", INF), ("-inf", -INF))]
    return cases + [("string", "0.5", True), ("bool", True, True)]


CASES = [(site, fn, name, kind, interval, value, bad_type)
         for site, fn, name, kind, interval in CHECKED
         for _, value, bad_type in _outside(kind, interval)]


@pytest.mark.parametrize(
    "site, fn, name, kind, interval, value, bad_type", CASES,
    ids=[f"{site}-{name}-{case}" for site, _, name, kind, interval in CHECKED
         for case, _, _ in _outside(kind, interval)])
def test_every_checked_argument_refuses_what_is_outside_its_interval(
        deadline, site, fn, name, kind, interval, value, bad_type):
    noun = "an integer" if kind is int else "a real number"
    if interval.startswith(">= "):  # type and bound named in one phrase
        must = f"{noun} {interval}"
    else:
        must = noun if bad_type else f"in {interval}"
    prefix = f"{fn}: " if fn else ""
    with pytest.raises(ValueError) as info:
        SITES[site](**{name: value})
    assert str(info.value) == f"{prefix}{name} must be {must}, got {value!r}"


@pytest.mark.parametrize("interval, inside, outside", [
    ("[0, 1)", [0, 0.0, 0.5, np.nextafter(1.0, 0.0)], [1.0, -5e-324]),
    ("(0, 1]", [5e-324, 1, 1.0], [0.0, np.nextafter(1.0, 2.0)]),
    ("(0, inf)", [5e-324, 1e308, np.float32(2.0)], [0.0, INF, NAN]),
    ("[1e-8, 1e-4]", [1e-8, 1e-4], [np.nextafter(1e-8, 0.0), 1.0001e-4]),
    (">= 0", [0, 1e308], [-5e-324, INF, NAN]),
    ("[0, inf]", [0, 1e308], [INF, NAN]),  # an infinite end is open
])
def test_interval_ends(interval, inside, outside):
    for value in inside:
        _check_args("f", reals={"x": (value, interval)})
    for value in outside:
        with pytest.raises(ValueError, match="^f: x must be"):
            _check_args("f", reals={"x": (value, interval)})


def test_integers_of_any_size_and_numpy_scalars():
    _check_args("f", {"n": (10**400, "[1, inf)"),
                      "m": (np.int64(2), "[2, inf)")},
                {"x": (np.float64(0.5), "(0, 1)")})
    with pytest.raises(ValueError, match=r"^f: n must be an integer, got "):
        _check_args("f", {"n": (np.float64(2.0), "[1, inf)")})
    with pytest.raises(ValueError, match=r"^f: b must be a real number"):
        _check_args("f", reals={"b": (np.bool_(True), "[0, 1]")})

import numpy as np
import pytest

from geometry_oracles import expr_fn, fd_partial, fd_partial2
import walkergeo.expressions as ex
import walkergeo.jets as jets
from walkergeo.errors import EvaluationError
from walkergeo.expressions import diff, evaluate_with_scale, parse
from walkergeo.jets import eval_jet

RNG = np.random.default_rng(7)

FIELDS = ["x^2", "x^2/y^2", "x/z", "exp(z - 2*y)", "1/sqrt(x/z)",
          "x*y*z + x^3", "(1 - 2*x*exp(2*z - 4*y))/(2*exp(z - 2*y))"]


def pts(n):
    return 0.5 + 1.2 * RNG.random((n, 3))


def ones(n):
    """n random points, each as its batch of one."""
    return pts(n)[:, None]


@pytest.mark.parametrize("source", FIELDS)
def test_jet_value_matches_evaluator(source):
    e = parse(source)
    for p in ones(6):
        jet = eval_jet(e, p)
        direct, _ = evaluate_with_scale(e, p)
        assert abs(jet.value[0] - direct[0]) <= 1e-12 * (1 + abs(direct[0]))


@pytest.mark.parametrize("source", FIELDS)
def test_first_partials_match_symbolic(source):
    # jet propagation and symbolic differentiation are separate code paths
    e = parse(source)
    exact = [diff(e, v) for v in ("x", "y", "z")]
    alpha = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    for p in ones(6):
        jet = eval_jet(e, p)
        for axis in range(3):
            want = evaluate_with_scale(exact[axis], p)[0][0]
            got = jet.derivative(alpha[axis])[0]
            assert abs(got - want) <= 1e-12 * (1 + abs(want))


@pytest.mark.parametrize("source", FIELDS)
def test_partials_match_finite_differences(source):
    e = parse(source)
    fn = expr_fn(e)
    p = np.array([1.1, 0.9, 1.3])
    jet = eval_jet(e, np.array([p]))
    for axis, alpha in ((0, (1, 0, 0)), (1, (0, 1, 0)), (2, (0, 0, 1))):
        fd = fd_partial(fn, p, axis)
        assert abs(jet.derivative(alpha)[0] - fd) <= 1e-6 * (1 + abs(fd))
    second = {(0, 0): (2, 0, 0), (0, 1): (1, 1, 0), (0, 2): (1, 0, 1),
              (1, 1): (0, 2, 0), (1, 2): (0, 1, 1), (2, 2): (0, 0, 2)}
    for (a, b), alpha in second.items():
        fd = fd_partial2(fn, p, a, b)
        assert abs(jet.derivative(alpha)[0] - fd) <= 1e-6 * (1 + abs(fd))


def test_third_order_mixed_partial():
    # f = x^2 y z has d^3 f / dx dy dz = 2 exactly
    jet = eval_jet(parse("x^2*y*z"), np.array([[1.0, 1.0, 1.0]]))
    assert abs(jet.derivative((1, 1, 1))[0] - 2.0) <= 1e-12
    jet = eval_jet(parse("exp(z - 2*y)"), np.array([[0.7, 0.6, 0.9]]))
    want = -2.0 * np.exp(0.9 - 1.2)
    assert abs(jet.derivative((0, 1, 1))[0] - want) <= 1e-4 * (1 + abs(want))


def test_lower_order_jets_still_differentiate():
    e = parse("x^2/y^2")
    p = np.array([[1.5, 1.2, 0.8]])
    j1 = eval_jet(e, p, order=1)
    j3 = eval_jet(e, p, order=3)
    assert abs(j1.value[0] - j3.value[0]) <= 1e-15
    assert abs(j1.derivative((0, 1, 0))[0]
               - j3.derivative((0, 1, 0))[0]) <= 1e-15


def test_jet_respects_domain_guards():
    with pytest.raises(EvaluationError):
        eval_jet(parse("1/x"), np.array([[0.0, 1.0, 1.0]]))
    with pytest.raises(EvaluationError):
        eval_jet(parse("sqrt(x - 5)"), np.array([[1.0, 1.0, 1.0]]))


# --- the column-sum product, and the jets an analysis keeps ------------------

def identical(a, b) -> bool:
    """Equal bits, signs of zero included, and nan where the other has nan.
    The sign of a nan is not compared: IEEE 754 leaves it open for a sum of
    two nans, and numpy's add loops return either operand's."""
    nan = np.isnan(a)
    return (a.shape == b.shape and np.array_equal(nan, np.isnan(b))
            and np.array_equal(a[~nan], b[~nan])
            and np.array_equal(np.signbit(a[~nan]), np.signbit(b[~nan])))


def add_at_product(a, b, order):
    """a * b as np.add.at forms it: each gamma's terms added one by one, in
    split order, to 0.0."""
    row = jets._ROW[order]
    table = [(g, row[ai, aj, ak], row[gi - ai, gj - aj, gk - ak])
             for g, (gi, gj, gk) in enumerate(jets._INDICES[order])
             for ai, aj, ak in np.ndindex(gi + 1, gj + 1, gk + 1)]
    gamma, left, right = (np.array(column) for column in zip(*table))
    out = np.zeros_like(a)
    np.add.at(out, gamma, a[left] * b[right])
    return out


def awkward(rng, shape):
    """Coefficients mixing +-0.0, +-1e200, +-inf and nan into ordinary ones."""
    special = np.array([0.0, -0.0, 1e200, -1e200, np.inf, -np.inf, np.nan])
    a = rng.normal(size=shape) * 10.0 ** rng.integers(-3, 4, size=shape)
    mask = rng.random(shape) < 0.4
    a[mask] = rng.choice(special, size=int(mask.sum()))
    return a


@pytest.mark.parametrize("order", range(4))
@pytest.mark.parametrize("points", [(), (1,), (64,)])
def test_the_column_product_is_the_add_at_product(order, points):
    rng = np.random.default_rng(100 * order + len(points))
    rows = len(jets._INDICES[order])
    with np.errstate(all="ignore"):
        for _ in range(20):
            a, b = awkward(rng, (rows,) + points), awkward(rng, (rows,) + points)
            got = (jets.Jet3(order, a) * jets.Jet3(order, b)).coeffs
            assert identical(got, add_at_product(a, b, order))


def computations(monkeypatch):
    """Record (field, order) of every jet computed afresh."""
    calls, compute = [], jets._propagate

    def counting(e, pts, order, table):
        calls.append((e, order))
        return compute(e, pts, order, table)

    monkeypatch.setattr(jets, "_propagate", counting)
    return calls


def read_only(a):
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


def test_kept_jets_are_read_only_and_returned_again(monkeypatch):
    e, batch = parse("x*y/(1 + z^2)"), read_only(pts(5))
    calls = computations(monkeypatch)
    with ex.analysis():
        one = ex.batch_of_one(batch[0])
        for points in (batch, one):   # a batch, and a point's batch of one
            jet = eval_jet(e, points, 2)
            assert not jet.coeffs.flags.writeable
            with pytest.raises(ValueError):
                jet.coeffs[...] = 0.0
            assert eval_jet(e, points, 2) is jet
        # an equal point, as a tuple, gets the same batch of one
        assert eval_jet(e, ex.batch_of_one(tuple(batch[0])), 2) is jet
    assert calls == [(e, 2), (e, 2)]


def test_a_lower_order_is_the_leading_rows_of_a_kept_jet(monkeypatch):
    e, batch = parse("(1 - 2*x*exp(2*z - 4*y))/(2*exp(z - 2*y))"), read_only(pts(7))
    fresh = {order: eval_jet(e, batch, order) for order in range(4)}
    calls = computations(monkeypatch)
    with ex.analysis():
        top = eval_jet(e, batch, 3)
        for order in range(3):
            low = eval_jet(e, batch, order)
            assert low.order == order and np.shares_memory(low.coeffs, top.coeffs)
            assert identical(low.coeffs, fresh[order].coeffs)
        assert eval_jet(e, batch, 1).coeffs.shape == fresh[1].coeffs.shape
    assert calls == [(e, 3)]


def test_a_non_finite_kept_jet_is_never_truncated(monkeypatch):
    # sqrt at 1e-200: the third derivative overflows, and order 3 turns its
    # value into nan through the Horner steps, so the sqrt node refuses the
    # point, as any node but a negation would; order 2 is finite
    e, point = parse("sqrt(x)"), read_only([[1e-200, 1.0, 1.0]])
    fresh = eval_jet(e, point, 2)
    assert np.isfinite(fresh.coeffs).all()
    calls = computations(monkeypatch)
    with ex.analysis():
        with pytest.raises(EvaluationError) as caught:
            eval_jet(e, point, 3)
        assert str(caught.value) == (
            "non-finite value in 'sqrt(x)' at point (1e-200, 1.0, 1.0)")
        assert caught.value.rows.tolist() == [True]
        assert e not in ex.once(point, "jets", (), dict)
        assert identical(eval_jet(e, point, 2).coeffs, fresh.coeffs)
    assert calls == [(e, 3), (e, 2)]


def test_a_field_that_raised_leaves_no_entry(monkeypatch):
    good, bad, batch = parse("x - 1"), parse("1/(x - x)"), read_only(pts(4))
    calls = computations(monkeypatch)
    with ex.analysis() as analysis:
        eval_jet(good, batch, 1)
        for point in (batch, batch[:1], batch):
            with pytest.raises(EvaluationError, match="division by zero"):
                eval_jet(bad, point, 1)
        assert good in ex.once(batch, "jets", (), dict)
        assert all(bad not in entry[2] for key, entry in analysis.items()
                   if key[1] == "jets")
    assert calls == [(good, 1), (bad, 1), (bad, 1), (bad, 1)]


def test_outside_an_analysis_no_jet_is_kept(monkeypatch):
    e, batch = parse("x*y + z"), read_only(pts(3))
    calls = computations(monkeypatch)
    first, second = eval_jet(e, batch, 1), eval_jet(e, batch, 1)
    assert first is not second
    eval_jet(e, batch[:1], 1)
    eval_jet(e, batch[:1], 1)
    with ex.analysis():    # a writable batch is never found again either
        eval_jet(e, np.array(batch), 1)
        eval_jet(e, np.array(batch), 1)
    assert len(calls) == 6


# --- the fold: children left to right before their parent, each node once ---

def test_a_quotient_names_a_failing_numerator_first():
    # the numerator is reached before the zero denominator is checked, as in
    # evaluate_with_scale
    e, p = parse("sqrt(x - 5)/(y - y)"), np.array([[1.0, 1.0, 1.0]])
    message = r"sqrt of a non-positive argument in 'sqrt\(x - 5\)'"
    with pytest.raises(EvaluationError, match=message):
        evaluate_with_scale(e, p)
    with pytest.raises(EvaluationError, match=message):
        eval_jet(e, p, 2)


def counting_products(monkeypatch) -> list:
    products, multiply = [], jets.Jet3.__mul__

    def counting(a, b):
        products.append(a.order)
        return multiply(a, b)

    monkeypatch.setattr(jets.Jet3, "__mul__", counting)
    return products


def test_a_shared_subtree_is_propagated_once(monkeypatch):
    shared = parse("x*y")
    e = shared * shared          # interned: both operands are one node
    batch = pts(4)
    products = counting_products(monkeypatch)
    jet = eval_jet(e, batch, 2)
    assert len(products) == 2    # x*y once, then the square
    want = eval_jet(shared, batch, 2).coeffs
    assert identical(jet.coeffs, (jets.Jet3(2, want) * jets.Jet3(2, want)).coeffs)


def test_a_kept_jet_is_a_leaf_of_a_larger_field(monkeypatch):
    inner, batch = parse("x*y/(1 + z^2)"), read_only(pts(5))
    outer, one = ex.exp_of(inner), batch[:1]
    fresh = {order: eval_jet(outer, batch, order) for order in (1, 3)}
    point_fresh = eval_jet(outer, one, 1)
    with ex.analysis():
        eval_jet(inner, batch, 3)
        eval_jet(inner, one, 3)
        calls = computations(monkeypatch)
        products = counting_products(monkeypatch)
        for order in (1, 3):     # rows cut from the kept jet, and all of it
            assert identical(eval_jet(outer, batch, order).coeffs,
                             fresh[order].coeffs)
        assert identical(eval_jet(outer, one, 1).coeffs,
                         point_fresh.coeffs)
    assert calls == [(outer, 1), (outer, 3), (outer, 1)]
    # only the exp's Horner steps: 1 at each order 1, 3 at order 3
    assert len(products) == 5

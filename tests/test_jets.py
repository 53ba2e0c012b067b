import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from pytest import approx

from warpcheck import geometry, jets
from warpcheck.checks import EXAMPLE_CONFIGS, RunConfig, build_context
from warpcheck.jets import JetDomainError, JetShapeError, JetTensor, jet_space, jt_einsum


def test_coefficient_count_is_binomial():
    for m, k in [(1, 4), (2, 3), (3, 3), (5, 4)]:
        j = JetTensor.variable(0, 0.0, m, k)
        assert len(j.data) == math.comb(m + k, k)


def _reference_tables(space):
    """mul_table, partials_table and an embed_table built by the Python loops that first built them."""
    triples = []
    for p, alpha in enumerate(space.multi_indices):
        for q, beta in enumerate(space.multi_indices):
            if sum(alpha) + sum(beta) <= space.order:
                triples.append((space.index[tuple(x + y for x, y in zip(alpha, beta))], p, q))
    triples.sort()
    g_idx, a_idx, b_idx = (np.array([t[k] for t in triples]) for k in range(3))
    tables = [a_idx, b_idx, np.searchsorted(g_idx, np.arange(space.n_coeffs))]
    if space.order >= 1:
        lower = jet_space(space.num_vars, space.order - 1)
        src = np.empty((space.num_vars, lower.n_coeffs), dtype=int)
        fac = np.empty((space.num_vars, lower.n_coeffs), dtype=float)
        for i in range(space.num_vars):
            for j, beta in enumerate(lower.multi_indices):
                src[i, j] = space.index[tuple(b + (1 if a == i else 0) for a, b in enumerate(beta))]
                fac[i, j] = beta[i] + 1
        tables += [src, fac]
    sub, positions = jet_space(1, space.order), (space.num_vars - 1,)
    tgt = np.empty(sub.n_coeffs, dtype=int)
    for j, alpha in enumerate(sub.multi_indices):
        full = [0] * space.num_vars
        for a, pos in zip(alpha, positions):
            full[pos] = a
        tgt[j] = space.index[tuple(full)]
    return tables + [tgt]


@pytest.mark.parametrize("order", range(6))
@pytest.mark.parametrize("num_vars", range(1, 8))
def test_jet_tables_equal_the_python_loops(num_vars, order):
    """Values, dtype, shape and memory order of every table, against the loops that first built them."""
    space = jets.JetSpace(num_vars, order)
    got = list(space.mul_table) + (list(space.partials_table) if order else [])
    got.append(space.embed_table(jet_space(1, order), (num_vars - 1,)))
    for table, want in zip(got, _reference_tables(space), strict=True):
        assert (table.dtype, table.shape, table.flags.c_contiguous) == (want.dtype, want.shape, True)
        assert table.tobytes() == want.tobytes()


def test_jet_tables_of_twelve_variables_stay_small():
    """No step allocates an array sized (order + 1)^num_vars (5^12 slots, 1.9 GB of int64 here)."""
    tracemalloc.start()
    try:
        space = jets.JetSpace(12, 4)
        space.mul_table, space.partials_table, space.embed_table(jet_space(2, 4), (3, 7))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(space.mul_table[0]) == math.comb(24 + 4, 4)
    assert peak < 100e6


def test_embed_tables_are_keyed_on_the_sub_space_not_its_id():
    """A space built directly is freed after use, and a new space of another size may take its id: the slot
    table must follow the sub-space's (num_vars, order)."""
    target = jets.JetSpace(3, 2)
    first = target.embed_table(jets.JetSpace(1, 2), (1,))
    for num_vars, order in [(1, 1), (2, 2), (1, 2)]:
        sub = jets.JetSpace(num_vars, order)
        got = target.embed_table(sub, (1, 2)[:num_vars])
        assert [target.multi_indices[i][1 : 1 + num_vars] for i in got] == sub.multi_indices
        del sub
    assert target.embed_table(jets.JetSpace(1, 2), (1,)) is first
    assert set(target._embed_tables) == {(1, 2, (1,)), (1, 1, (1,)), (2, 2, (1, 2))}


def test_square_of_coordinate():
    t = JetTensor.variable(0, 3.0, 1, 4)
    sq = t * t
    assert sq.value == approx(9.0)
    assert sq.partial((1,)) == approx(6.0)
    # normalized second coefficient f''/2! = 1
    assert sq.data[2] == approx(1.0)


def test_variable_jet_at_zero():
    t = JetTensor.variable(0, 0.0, 1, 2)
    assert list(t.data) == [0.0, 1.0, 0.0]


def test_variable_jet_multivariate():
    j = JetTensor.variable(2, 1.5, 3, 3)
    assert j.value == approx(1.5)
    assert j.space.index[(0, 0, 1)] is not None
    assert j.data[j.space.index[(0, 0, 1)]] == approx(1.0)
    assert np.count_nonzero(j.data) == 2


def test_variable_index_out_of_range():
    with pytest.raises(IndexError):
        JetTensor.variable(3, 0.0, 3, 2)


def test_geometric_series():
    t = JetTensor.variable(0, 0.0, 1, 3)
    inv = JetTensor.const(jet_space(1, 3), 1.0) / (1.0 + t)
    assert list(inv.data) == approx([1.0, -1.0, 1.0, -1.0])


def test_second_derivative_of_product_against_fd(fd):
    t0 = 0.7
    t = JetTensor.variable(0, t0, 1, 2)
    base = 2.0 + t.elem("sin")
    prod = base * base

    def fn(x):
        return (2.0 + math.sin(x)) ** 2

    assert prod.partial((2,)) == approx(fd(fn, t0, 2, 1e-4), abs=1e-6)


def test_sqrt_jet_values(fd):
    t = JetTensor.variable(0, 0.0, 1, 1)
    j = (2.0 + t.elem("sin")).elem("sqrt")
    assert j.value == approx(math.sqrt(2.0))
    assert j.partial((1,)) == approx(1.0 / (2.0 * math.sqrt(2.0)))

    def fn(x):
        return math.sqrt(2.0 + math.sin(x))

    assert j.partial((1,)) == approx(fd(fn, 0.0, 1, 1e-5), abs=1e-8)


def test_cosh_series():
    j = JetTensor.variable(0, 0.0, 1, 4).elem("cosh")
    assert list(j.data) == approx([1.0, 0.0, 0.5, 0.0, 1.0 / 24.0])


def test_log_domain_error():
    with pytest.raises(JetDomainError):
        JetTensor.const(jet_space(1, 3), 0.0).elem("log")
    with pytest.raises(JetDomainError):
        JetTensor.const(jet_space(1, 3), -2.0).elem("sqrt")


@pytest.mark.parametrize("values", [-0.1375, [0.5, -0.1375, -2.0]], ids=["0-d", "batched"])
@pytest.mark.parametrize("fn", ["log", "sqrt"])
def test_domain_error_names_the_first_bad_value_as_a_float(values, fn):
    with pytest.raises(JetDomainError) as err:
        JetTensor.const(jet_space(2, 2), values).elem(fn)
    assert str(err.value) == f"{fn} requires a positive value part, got -0.1375"


def test_extract_partial_t4():
    t = JetTensor.variable(0, 0.0, 1, 4)
    j = t * t * t * t
    assert j.partial((4,)) == approx(24.0)


def test_extract_partial_sin_third():
    j = JetTensor.variable(0, 0.0, 1, 4).elem("sin")
    assert j.partial((3,)) == approx(-1.0)


def test_extract_partial_sqrt_fd(fd):
    t0 = 1.2
    j = (2.0 + JetTensor.variable(0, t0, 1, 2).elem("sin")).elem("sqrt")

    def fn(x):
        return math.sqrt(2.0 + math.sin(x))

    assert j.partial((2,)) == approx(fd(fn, t0, 2, 1e-3), abs=1e-5)


def test_extract_partial_order_overflow():
    j = JetTensor.variable(0, 0.0, 1, 2)
    with pytest.raises(JetShapeError):
        j.partial((3,))


def test_arithmetic_shape_mismatch():
    a = JetTensor.variable(0, 0.0, 1, 2)
    b = JetTensor.variable(0, 0.0, 1, 3)
    # different orders: the result lives at the lower order
    total = a + b
    assert total.space is a.space
    assert np.array_equal(total.data, a.data + b.data[: a.space.n_coeffs])
    c = JetTensor.variable(0, 0.0, 2, 2)
    with pytest.raises(JetShapeError):
        a * c


def test_division_by_zero_value():
    a = JetTensor.variable(0, 1.0, 1, 2)
    b = JetTensor.variable(0, 0.0, 1, 2)
    with pytest.raises(JetDomainError):
        a / b


def test_tan_is_sin_over_cos():
    t0 = 0.4
    t = JetTensor.variable(0, t0, 1, 3)
    tan = t.elem("tan")
    quotient = t.elem("sin") / t.elem("cos")
    assert tan.data == approx(quotient.data)


def test_pow_const_matches_exp_log():
    t = JetTensor.variable(0, 2.0, 1, 4)
    base = 1.0 + t * t
    direct = base.elem("pow_const", exponent=-1.7)
    via_exp = (base.elem("log") * (-1.7)).elem("exp")
    assert direct.data == approx(via_exp.data)


def test_integer_power():
    t = JetTensor.variable(0, 1.3, 1, 3)
    assert (t**3).data == approx((t * t * t).data)
    assert (t ** (-2)).data == approx((1.0 / (t * t)).data)


# -- scalar methods against the arithmetic they stand for ---------------------


def _bits(j: JetTensor) -> bytes:
    """Exact coefficient bits, so 0.0 and -0.0 differ."""
    return j.data.tobytes()


def _scalar(num_vars: int, order: int) -> JetTensor:
    x = JetTensor.variable(0, 0.7, num_vars, order)
    y = JetTensor.variable(num_vars - 1, -0.4, num_vars, order)
    return 1.5 + x.elem("sin") * y


@pytest.mark.parametrize("num_vars, order", [(1, 4), (3, 3)])
def test_integer_power_is_repeated_product_bitwise(num_vars, order):
    j = _scalar(num_vars, order)
    assert _bits(j**3) == _bits(j * j * j)
    assert _bits(j**3.0) == _bits(j * j * j)
    assert _bits(j**0) == _bits(JetTensor.const(j.space, 1.0))
    assert _bits(j**-2) == _bits(j.elem("pow_const", exponent=-2.0))
    assert _bits(j**9) == _bits(j.elem("pow_const", exponent=9.0))
    assert _bits(j**0.5) == _bits(j.elem("pow_const", exponent=0.5))


@pytest.mark.parametrize("c", [1.0, -2.5, 0.0])
def test_const_over_jet_bitwise(c):
    j = _scalar(2, 4)
    assert _bits(c / j) == _bits(JetTensor.const(j.space, c) / j)


def test_const_minus_jet_bitwise():
    """c - j subtracts coefficient-wise: zero coefficients stay +0.0."""
    j = JetTensor.variable(0, 0.5, 2, 3)
    assert _bits(1.0 - j) == _bits(JetTensor.const(j.space, 1.0) - j)
    degrees = np.array([sum(alpha) for alpha in j.space.multi_indices])
    assert not np.any(np.signbit((1.0 - j).data[degrees > 1]))


@pytest.mark.parametrize("order", [2, 3, 4])
def test_partial_is_coefficient_times_factorial(order):
    x, y = JetTensor.variable(0, 0.4, 2, order), JetTensor.variable(1, -0.9, 2, order)
    j = (x * y).elem("exp") + y.elem("sin")
    for slot, alpha in enumerate(j.space.multi_indices):
        factorial = math.prod(math.factorial(a) for a in alpha)
        assert j.partial(alpha) == j.data[slot] * float(factorial)
    with pytest.raises(JetShapeError):
        j.partial((1,))


# -- properties -------------------------------------------------------------

finite = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)


@given(a0=finite, a1=finite, b0=finite, b1=finite)
def test_leibniz_rule(a0, a1, b0, b1):
    """First partials of a product obey the product rule exactly."""
    space_args = (2, 3)
    a = a0 + a1 * JetTensor.variable(0, 0.5, *space_args) * JetTensor.variable(1, -0.2, *space_args)
    b = b0 + b1 * JetTensor.variable(1, -0.2, *space_args)
    prod = a * b
    for i, alpha in enumerate([(1, 0), (0, 1)]):
        expected = a.partial(alpha) * b.value + a.value * b.partial(alpha)
        assert prod.partial(alpha) == approx(expected, rel=1e-13, abs=1e-13)


@given(
    b0=st.floats(min_value=0.2, max_value=3.0),
    b1=finite,
    a0=finite,
    a1=finite,
)
@settings(max_examples=60)
def test_div_mul_roundtrip(b0, b1, a0, a1):
    """(a/b)*b == a to 1e-13 relative when |b| is bounded away from zero."""
    a = a0 + a1 * JetTensor.variable(0, 0.3, 1, 4) + JetTensor.variable(0, 0.3, 1, 4).elem("sin")
    b = b0 + b1 * 0.05 * JetTensor.variable(0, 0.3, 1, 4)
    back = (a / b) * b
    scale = np.max(np.abs(a.data)) + 1.0
    assert np.max(np.abs(back.data - a.data)) <= 1e-13 * scale


def _random_expression(rng, depth):
    """Random composite expression builder for the chain-rule oracle."""
    import warpcheck.dsl as dsl

    if depth == 0:
        return rng.choice(["t", "t", str(round(rng.uniform(0.3, 2.0), 3))])
    kind = rng.randrange(6)
    left = _random_expression(rng, depth - 1)
    right = _random_expression(rng, depth - 1)
    if kind == 0:
        return f"({left})+({right})"
    if kind == 1:
        return f"({left})*({right})"
    if kind == 2:
        return f"({left})-({right})"
    if kind == 3:
        return f"sin({left})"
    if kind == 4:
        return f"cos({left})"
    if kind == 5:
        return f"exp(0.3*({left}))"
    raise AssertionError


def test_chain_rule_against_finite_differences(fd):
    """50 random composites: partials up to order 3 match central differences.

    Points where some derivative up to order 5 exceeds 30 in magnitude are
    redrawn: there the finite-difference oracle itself loses the tolerance.
    """
    import random

    import warpcheck.dsl as dsl

    rng = random.Random(20240817)
    steps = {1: 1e-5, 2: 1e-4, 3: 1e-3}
    checked = 0
    attempts = 0
    while checked < 50 and attempts < 500:
        attempts += 1
        src = _random_expression(rng, rng.choice([2, 2, 3]))
        ast = dsl.parse(src)
        t0 = rng.uniform(-1.0, 1.0)
        probe = dsl.eval_expr(ast, JetTensor.variable(0, t0, 1, 5))
        if not isinstance(probe, JetTensor):
            continue
        if max(abs(probe.partial((k,))) for k in range(6)) > 30.0:
            continue
        jet = dsl.eval_expr(ast, JetTensor.variable(0, t0, 1, 3))

        def fn(x, _ast=ast):
            return dsl.eval_expr(_ast, x)

        for order in (1, 2, 3):
            got = jet.partial((order,))
            want = fd(fn, t0, order, steps[order])
            assert got == approx(want, abs=max(1e-5, 1e-5 * abs(want)))
        checked += 1
    assert checked >= 50


# -- the zero rule of jt_einsum against the dense product ----------------------


def _dense_einsum(spec: str, a: JetTensor, b: JetTensor) -> np.ndarray:
    """jt_einsum's dense path: every coefficient pair of every entry."""
    a, b = a._align(b)
    a_idx, b_idx, starts = a.space.mul_table
    prod = np.einsum(jets._jet_spec(spec), a.data[..., a_idx], b.data[..., b_idx])
    return np.add.reduceat(prod, starts, axis=-1)


def _same(got: JetTensor, want: np.ndarray) -> bool:
    return got.data.tobytes() == want.tobytes() and got.data.strides == want.strides


@pytest.fixture
def zero_rule_always(monkeypatch):
    """The zero rule on every eligible product, at every jet order; tests take fresh JetSpaces, whose plan caches
    are empty."""
    monkeypatch.setattr(jets, "_ZERO_MIN_WORK", 0)
    monkeypatch.setattr(jets, "_ZERO_MIN_SKIP", ((0.0, 0.0), (0.0, 0.0)))


def _jets(rng, space, shape, keep, layout=None, negative_zeros=False) -> JetTensor:
    """Random jets of ``space`` with all-zero jets where ``keep`` is False.

    ``layout`` permutes the tensor axes in memory, so the operand is a
    transposed view; ``negative_zeros`` writes -0.0 into some coefficients.
    """
    data = rng.standard_normal(shape + (space.n_coeffs,))
    if negative_zeros:
        data[rng.random(data.shape) < 0.3] = -0.0
    data[~keep] = -0.0 if negative_zeros else 0.0
    if layout is not None:
        perm = tuple(layout) + (len(shape),)
        data = np.ascontiguousarray(data.transpose(perm)).transpose(np.argsort(perm))
    return JetTensor(space, data)


def _per_point(spec: str) -> str:
    """``spec`` with the point letter p leading both operands and the output, as every product of a chunk."""
    lhs, out = spec.split("->")
    return "p" + lhs.replace(",", ",p") + "->p" + out


def _point_jets(rng, space, points, keep, layout=None, negative_zeros=False) -> JetTensor:
    """``_jets`` of shape (points, *keep.shape), each point with the zero jets of ``keep``; ``layout`` permutes
    the per-point axes in memory, and p stays outermost."""
    shape = (points,) + keep.shape
    layout = None if layout is None else (0, *(1 + np.asarray(layout)))
    return _jets(rng, space, shape, np.broadcast_to(keep, shape), layout, negative_zeros)


@st.composite
def _products(draw):
    """A binary spec with zero to two contracted letters and a shared leading point letter p, its per-point
    extents and operand layouts (p stays outermost in memory)."""
    letters = iter("abcdefg")
    only_a = [next(letters) for _ in range(draw(st.integers(0, 2)))]
    only_b = [next(letters) for _ in range(draw(st.integers(0, 2)))]
    shared = [next(letters) for _ in range(draw(st.integers(0, 1)))]
    summed = [next(letters) for _ in range(draw(st.integers(0, 2)))]
    sa = draw(st.permutations(only_a + shared + summed))
    sb = draw(st.permutations(only_b + shared + summed))
    so = draw(st.permutations(only_a + only_b + shared))
    extent = {x: draw(st.integers(1, 4)) for x in sa + sb}
    spec = _per_point(f"{''.join(sa)},{''.join(sb)}->{''.join(so)}")
    layouts = [draw(st.permutations(range(len(ls)))) for ls in (sa, sb)]
    return spec, tuple(extent[x] for x in sa), tuple(extent[x] for x in sb), *layouts


@given(
    product=_products(),
    points=st.tuples(st.integers(1, 3), st.integers(1, 3)),
    share_a=st.sampled_from([0.0, 0.3, 0.8, 1.0]),
    share_b=st.sampled_from([0.0, 0.3, 0.8, 1.0]),
    space=st.sampled_from([(1, 2), (2, 1), (2, 3), (3, 1), (3, 2)]),
    extra_order=st.integers(0, 1),
    transposed=st.booleans(),
    negative_zeros=st.booleans(),
    cut_off=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=150, deadline=None)
def test_zero_rule_is_the_dense_product_bit_for_bit(
    product, points, share_a, share_b, space, extra_order, transposed, negative_zeros, cut_off, seed
):
    """A plan built on one draw gives the dense path's bytes and strides on a second draw with the same zeros, at
    every point and at another point count.  With ``cut_off`` the skip cut-offs are the module's own, so order-1
    products over two contracted letters meet theirs."""
    spec, shape_a, shape_b, layout_a, layout_b = product
    rng = np.random.default_rng(seed)
    keep_a, keep_b = rng.random(shape_a) >= share_a, rng.random(shape_b) >= share_b
    space_a, space_b = jets.JetSpace(*space), jet_space(space[0], space[1] + extra_order)
    views = (layout_a, layout_b) if transposed else (None, None)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(jets, "_ZERO_MIN_WORK", 0)
        skip = jets._ZERO_MIN_SKIP if cut_off else ((0.0, 0.0), (0.0, 0.0))
        mp.setattr(jets, "_ZERO_MIN_SKIP", skip)
        layouts = set()
        for count in points:
            a = _point_jets(rng, space_a, count, keep_a, views[0], negative_zeros)
            b = _point_jets(rng, space_b, count, keep_b, views[1], negative_zeros)
            assert _same(jt_einsum(spec, a, b), _dense_einsum(spec, a, b))
            masks = (t.data.any(axis=-1).any(axis=0) for t in a._align(b))
            layouts.add((*(t.data.strides[1:] for t in a._align(b)), *(m.tobytes() for m in masks)))
    plans = list(space_a._zero_plans.values())
    # one plan per pair of per-point layouts (a copy may keep another stride on an axis of length 1) and of
    # unions of zero masks (-0.0s may zero a whole jet)
    assert len(plans) == len(layouts)
    lhs, out = spec.replace("p", "").split("->")
    sa, sb = lhs.split(",")
    summed = "".join(x for x in sa if x in sb and x not in out)
    terms = np.einsum(f"{lhs}->{out}{summed}", keep_a, keep_b)
    most = terms.reshape(terms.shape[: len(out)] + (-1,)).sum(axis=-1).max(initial=0)  # terms to an entry
    point_a, point_b = (t.data[0] for t in a._align(b))
    fast_a, fast_b = _fastest_first(sa, point_a), _fastest_first(sb, point_b)
    lane = set(fast_a[:1]) & set(fast_b[:1]) & set(summed)
    # a plan stays dense only where einsum may sum in SIMD lanes: a contracted letter that is the fastest axis
    # of both operands, with more than two terms to an entry; or, for two contracted letters, where an entry
    # has two terms or more, the operands order their shared axes unlike in memory, or einsum may coalesce
    # the two letters, the fastest two axes of both operands, into one lane axis
    unlike = [x for x in fast_a if x in fast_b] != [x for x in fast_b if x in fast_a]
    coalesced = lane and set(fast_a[:2]) == set(fast_b[:2]) == set(summed)
    dense = (lane and most > 2) if len(summed) < 2 else (most > 1 or unlike or coalesced)
    # or where it skips too few terms (a -0.0 that zeros a whole jet only skips more)
    few = np.count_nonzero(terms) > (1.0 - skip[min(space_a.order, 2) - 1][len(summed) == 2]) * terms.size
    assert all(plans) or dense or few


def _fastest_first(letters: str, data: np.ndarray) -> list[str]:
    """The letters of an operand's axes longer than 1, fastest in memory first."""
    return [x for _, x in sorted((s, x) for x, s, e in zip(letters, data.strides, data.shape) if e > 1)]


@pytest.mark.parametrize("spec", ["kl,ijl->kij", "mki,ljm->lijk", "is,sjkl->ijkl", "ij,jk->ik", "ij,j->i", ",ij->ij"])
def test_zero_rule_takes_the_plan_on_a_diagonal_chart(zero_rule_always, spec):
    """Sparse curvature-like operands of a chunk run through a plan, which holds on new values and other point
    counts."""
    rng = np.random.default_rng(7)
    space = jets.JetSpace(4, 2)
    sa, sb = spec.split("->")[0].split(",")
    masks = [rng.random((4,) * len(letters)) < 0.2 for letters in (sa, sb)]
    spec = _per_point(spec)
    for points in (1, 2, 3):
        a, b = (_point_jets(rng, space, points, m) for m in masks)
        assert _same(jt_einsum(spec, a, b), _dense_einsum(spec, a, b))
    assert [bool(plan) for plan in space._zero_plans.values()] == [True]


def test_zero_rule_runs_a_product_through_its_plan_from_its_first_call(zero_rule_always, monkeypatch):
    """The plan is built from the zero masks before the product: the first call forms no dense gathered product,
    only a probe on two coefficient pairs for the output layout, and gives the dense bytes and strides."""
    rng = np.random.default_rng(17)
    space = jets.JetSpace(3, 2)
    g = _jets(rng, space, (4, 5, 5), np.broadcast_to(np.eye(5, dtype=bool), (4, 5, 5)))
    r = _jets(rng, space, (4, 5, 5, 5), rng.random((4, 5, 5, 5)) < 0.5)
    want = _dense_einsum("pkl,pijl->pkij", g, r)
    pairs = []
    einsum = np.einsum
    monkeypatch.setattr(np, "einsum", lambda *args, **kw: pairs.append(args[-1].shape[-1]) or einsum(*args, **kw))
    got = jt_einsum("pkl,pijl->pkij", g, r)
    assert _same(got, want)
    assert all(space._zero_plans.values()) and len(space._zero_plans) == 1
    assert len(space.mul_table[0]) not in pairs and 2 in pairs


@pytest.mark.parametrize(
    "spec, layout", [("ij,jk->ik", None), ("pij,jk->pik", None), ("pij,pjk->pik", (1, 0, 2))],
    ids=["no-point-axis", "one-operand-per-point", "p-not-outermost"],
)
def test_zero_rule_plans_only_products_that_lead_with_the_point_axis(zero_rule_always, monkeypatch, spec, layout):
    """A product whose operands and output do not all lead with p, or whose p is not outermost in memory, builds
    no plan and runs dense, byte for byte, however sparse its operands."""
    rng = np.random.default_rng(23)
    space = jets.JetSpace(3, 2)
    planned = []
    monkeypatch.setattr(jets, "_zero_product", lambda *args: planned.append(1))
    sa, sb = spec.split("->")[0].split(",")
    a = _jets(rng, space, (3,) * len(sa), np.broadcast_to(np.eye(3, dtype=bool), (3,) * len(sa)), layout)
    b = _jets(rng, space, (3,) * len(sb), np.broadcast_to(np.eye(3, dtype=bool), (3,) * len(sb)))
    assert _same(jt_einsum(spec, a, b), _dense_einsum(spec, a, b))
    assert space._zero_plans == {} and planned == []


def test_a_twenty_point_batch_builds_one_plan_per_chain_product(monkeypatch):
    """ejiri's chain on 20 points cut into chunks of 8, 8 and 4 points: the chunks share one plan per product."""
    ctx = build_context(RunConfig.from_dict(dict(EXAMPLE_CONFIGS["ejiri"])))
    batch = geometry.ChartBatch(ctx.chart, ctx.chart.sample_points(20), 4)
    spaces = [jet_space(ctx.chart.dim, order) for order in range(5)]
    for space in spaces:
        monkeypatch.setattr(space, "_zero_plans", {})
    chunks = batch.chunks(8)
    assert [len(range(20)[c.rows]) for c in chunks] == [8, 8, 4]
    for chunk in chunks:
        chunk.cotton_divergence, chunk.weyl, chunk.efield
    specs = [(space.order, key[0]) for space in spaces for key in space._zero_plans]
    assert specs and len(specs) == len(set(specs))
    assert sum(bool(plan) for space in spaces for plan in space._zero_plans.values()) >= 4


def _block_entries(key, plan, space) -> list[np.ndarray]:
    """The output entry (its output-letter indices, one row a term) of each rank block's terms, block by block."""
    ia, ib, bounds = plan[:3]
    lhs, so = key[0].split("->")
    sa, sb = (s[1:] for s in lhs.split(","))
    at = {}
    for letters, idx, shape in ((sa, ia, key[1][:-1]), (sb, ib, key[3][:-1])):
        at.update(zip(letters, np.unravel_index(idx[:, 0] // space.n_coeffs, shape) if shape else ()))
    # a zero column keeps the entries of a scalar output two-dimensional
    entries = np.stack([at[x] for x in so[1:]] + [np.zeros(len(ia), dtype=np.intp)], axis=1)
    return [entries[lo:hi] for lo, hi in zip([0, *bounds[:-1]], bounds)]


@pytest.mark.parametrize("suite", ["ejiri-20", "sphere-s6"])
def test_zero_rule_adds_each_rank_block_into_a_prefix_of_its_accumulator(suite, monkeypatch):
    """Plans number their entries by term count, most first: the terms of rank r belong, in order, to the first
    entries of the rank-0 block, so each rank block adds into a prefix of the accumulator.  On ejiri's chain on
    one 20-point chunk, and on Riemann's quadratic term 'pmki,pljm->plijk' of an 8-point chunk of S^6 at metric
    order 4 (jet order 2, where a plan gathered all its terms at once and set the dim-6 suite's peak)."""
    raw = dict(EXAMPLE_CONFIGS["ejiri"]) if suite == "ejiri-20" else {
        "space": {"kind": "sphere", "dim": 6, "radius": 1.0}, "field": {"builtin": "sphere_gradient", "axis": 1},
        "checks": ["firstthm", "cxi_div"]}
    ctx = build_context(RunConfig.from_dict(raw))
    points = 20 if suite == "ejiri-20" else 8
    (chunk,) = geometry.ChartBatch(ctx.chart, ctx.chart.sample_points(points), 4).chunks(points)
    spaces = [jet_space(ctx.chart.dim, order) for order in range(5)]
    for space in spaces:
        monkeypatch.setattr(space, "_zero_plans", {})
    chunk.cotton_divergence, chunk.weyl, chunk.efield
    plans = [(space, key, plan) for space in spaces for key, plan in space._zero_plans.items() if plan]
    if suite == "sphere-s6":
        plans = [(space, key, plan) for space, key, plan in plans if key[0] == "pmki,pljm->plijk"]
        assert [space.order for space, _, _ in plans] == [2]
    assert plans
    proper = 0
    for space, key, plan in plans:
        blocks = _block_entries(key, plan, space)
        first = blocks[0]
        assert len(np.unique(first, axis=0)) == len(first)  # one rank-0 term an entry
        for block in blocks[1:]:
            np.testing.assert_array_equal(block, first[: len(block)])
            proper += len(block) < len(first)
    assert proper  # some block is a proper prefix, where the fancy-indexed add was needed


@pytest.mark.parametrize("transposed", [False, True])
def test_zero_rule_stays_dense_where_einsum_sums_in_lanes(zero_rule_always, transposed):
    """j is the fastest axis of both C-ordered operands of 'pij,pj->pi', so einsum sums it in SIMD lanes:
    with four terms to an entry no ordered sum matches it.  In a transposed view of g it is not."""
    rng = np.random.default_rng(13)
    space = jets.JetSpace(3, 2)
    keep = ~np.eye(5, dtype=bool)
    for points in (1, 2, 3):
        g = _point_jets(rng, space, points, keep, (1, 0) if transposed else None)
        v = _point_jets(rng, space, points, np.ones(5, dtype=bool))
        assert _same(jt_einsum("pij,pj->pi", g, v), _dense_einsum("pij,pj->pi", g, v))
    assert [bool(plan) for plan in space._zero_plans.values()] == [transposed]


def test_zero_rule_plans_a_jet_nonzero_only_past_its_value_on_its_own(zero_rule_always):
    """Plans are keyed on the masks of all-zero jets, not of value parts: a jet that is nonzero only past
    its value gets a plan of its own (dense, as the first is), and the product keeps the dense bits."""
    rng = np.random.default_rng(13)
    space = jets.JetSpace(3, 2)
    g = _point_jets(rng, space, 2, ~np.eye(5, dtype=bool))
    v = _point_jets(rng, space, 2, np.ones(5, dtype=bool))
    jt_einsum("pij,pj->pi", g, v)
    g.data[1, 0, 0, 1:] = 1.0
    assert _same(jt_einsum("pij,pj->pi", g, v), _dense_einsum("pij,pj->pi", g, v))
    assert list(space._zero_plans.values()) == [False, False]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_zero_rule_leaves_a_non_finite_operand_to_the_dense_path(zero_rule_always, bad):
    """0 * inf is NaN in the dense product; skipping it would hide a FAIL."""
    rng = np.random.default_rng(3)
    space = jets.JetSpace(3, 2)
    a = _point_jets(rng, space, 3, np.eye(4, dtype=bool))
    b = _point_jets(rng, space, 3, np.ones((4, 4), dtype=bool))
    jt_einsum("pij,pjk->pik", a, b)
    assert any(space._zero_plans.values())
    b.data[2, 1, 2, 3] = bad  # meets a's zero jets a[2, 0, 1], a[2, 2, 1], a[2, 3, 1]
    got = jt_einsum("pij,pjk->pik", a, b)
    want = _dense_einsum("pij,pjk->pik", a, b)
    assert _same(got, want)
    assert np.isnan(got.data[2, 0, 2, 3]) and np.isfinite(got.data[:2]).all()


def test_zero_rule_masks_a_chunk_by_its_union_over_the_points(zero_rule_always):
    """With p leading and outermost, a plan is keyed on each operand's mask ``any(-1).any(0)``: a jet that is
    nonzero at one point alone, by a NaN or a last coefficient, counts, and -0.0s count as zeros; in a
    transposed view too."""
    rng = np.random.default_rng(21)
    space = jets.JetSpace(3, 2)
    a = _jets(rng, space, (3, 4, 4), np.broadcast_to(np.eye(4, dtype=bool), (3, 4, 4)), (0, 2, 1), True)
    keep_b = rng.random((4, 4)) < 0.3
    keep_b[0, 1] = False
    b = _jets(rng, space, (3, 4, 4), np.broadcast_to(keep_b, (3, 4, 4)), negative_zeros=True)
    a.data[2, 0, 1, 4] = np.nan
    a.data[0, 3, 0, -1] = 1.0
    b.data[1, 0, 1, -1] = 2.0
    jt_einsum("pij,pjk->pik", a, b)
    (key,) = space._zero_plans
    assert key[-2:] == (a.data.any(-1).any(0).tobytes(), b.data.any(-1).any(0).tobytes())
    assert key[-2] != a.data[0].any(-1).tobytes() and key[-1] != b.data[0].any(-1).tobytes()


@pytest.mark.parametrize("operand", [0, 1])
def test_zero_rule_leaves_finite_operands_whose_sum_overflows_to_the_dense_path(zero_rule_always, monkeypatch, operand):
    """Entries near 1e308 are finite, but their sum is inf: the product runs dense and keeps its bytes."""
    rng = np.random.default_rng(3)
    space = jets.JetSpace(3, 2)
    a = _point_jets(rng, space, 2, np.eye(4, dtype=bool))
    b = _point_jets(rng, space, 2, np.ones((4, 4), dtype=bool))
    planned = []
    product = jets._zero_product
    monkeypatch.setattr(jets, "_zero_product", lambda *args: planned.append(1) or product(*args))
    jt_einsum("pij,pjk->pik", a, b)
    assert planned == [1]
    big = (a, b)[operand].data
    big[big != 0] = 1e308 * rng.uniform(0.5, 1.0, np.count_nonzero(big))
    with np.errstate(over="ignore", invalid="ignore"):
        assert np.isfinite(big).all() and not np.isfinite(big.sum())
        got = jt_einsum("pij,pjk->pik", a, b)
        want = _dense_einsum("pij,pjk->pik", a, b)
    assert _same(got, want) and planned == [1]


def test_zero_rule_plans_are_keyed_on_the_jet_space(zero_rule_always):
    """JetSpace(4, 2) and JetSpace(2, 4) both have 15 coefficients but different pair tables."""
    wide, deep = jets.JetSpace(4, 2), jets.JetSpace(2, 4)
    assert wide.n_coeffs == deep.n_coeffs == 15
    rng = np.random.default_rng(11)
    keep = np.eye(3, dtype=bool)
    for space, points in zip((wide, deep, wide, deep), (1, 2, 3, 1)):
        a, b = _point_jets(rng, space, points, keep), _point_jets(rng, space, points, keep)
        assert _same(jt_einsum("pij,pjk->pik", a, b), _dense_einsum("pij,pjk->pik", a, b))
    assert all(len(space._zero_plans) == 1 and all(space._zero_plans.values()) for space in (wide, deep))


@pytest.mark.parametrize(
    "spec, keep_a, transposed, planned",
    [
        ("pkl,pikjl->pij", np.eye(3, dtype=bool), False, True),
        ("pkl,pikjl->pij", np.eye(3, dtype=bool) | np.eye(3, k=1, dtype=bool), False, False),
        ("pkl,pikjl->pij", np.eye(3, dtype=bool), True, False),
        ("pij,pij->p", np.eye(3, dtype=bool), False, False),
    ],
    ids=["diagonal-g", "two-terms-to-a-k", "unlike-layouts", "coalesced"],
)
def test_zero_rule_takes_two_contracted_letters_where_einsum_sums_in_order(
    zero_rule_always, spec, keep_a, transposed, planned
):
    """Ricci's g^kl R_ikjl: einsum sums l, the fastest axis of both operands, in SIMD lanes for each k, in order.
    A diagonal g^-1 leaves one term to each lane sum and takes a plan; g^00 and g^01 leave two.  A transposed
    g^-1 orders k and l unlike R, and einsum may then sum both in lanes; in 'pij,pij->p' it coalesces i and j."""
    rng = np.random.default_rng(5)
    space = jets.JetSpace(3, 2)
    sb = spec.split("->")[0].split(",")[1][1:]
    for points in (1, 3):
        a = _point_jets(rng, space, points, keep_a, (1, 0) if transposed else None)
        b = _point_jets(rng, space, points, np.ones((3,) * len(sb), dtype=bool))
        assert _same(jt_einsum(spec, a, b), _dense_einsum(spec, a, b))
    assert [bool(plan) for plan in space._zero_plans.values()] == [planned]


@pytest.mark.parametrize(
    "spec, cells",
    [("kl,ikjl->ij", [(0, 0), (1, 1), (2, 2)]), ("kl,kli->i", [(0, 0), (1, 1), (1, 2)])],
    ids=["lane-per-k", "term-by-term"],
)
@pytest.mark.parametrize("terms", [(1.0, 1e16, -1e16), (1e16, -1e16, 1.0)])
def test_einsum_sums_two_contracted_letters_as_the_zero_rule_reads_it(spec, cells, terms):
    """numpy's order over two contracted letters, pinned on the dense path's layout (pair axis z outermost).

    With l in lanes, einsum adds one lane sum for each k, k ascending; with an output letter fastest, it adds
    term by term, and a k with two terms is not summed on its own first.  Each set of terms sums to one value
    in that order and to another where the last two are added first.  A numpy that sums otherwise fails here,
    not in a digest.
    """
    sb = spec.split("->")[0].split(",")[1]
    a = np.zeros((3, 3, 1))
    b = np.zeros((3,) * len(sb) + (1,))
    for (k, l), t in zip(cells, terms):
        a[k, l] = 1.0
        b[tuple({"k": k, "l": l}.get(x, 0) for x in sb)] = t
    pairs = [0, 0]  # a gather, as the dense path's, puts the pair axis outermost in memory
    out = np.einsum(jets._jet_spec(spec), a[..., pairs], b[..., pairs])
    ordered = (terms[0] + terms[1]) + terms[2]
    assert ordered != terms[0] + (terms[1] + terms[2])
    assert out[(0,) * (out.ndim - 1)].tolist() == [ordered, ordered]


def test_zero_rule_plan_cache_is_bounded(zero_rule_always, monkeypatch):
    monkeypatch.setattr(jets, "_ZERO_PLANS_MAX", 2)
    rng = np.random.default_rng(9)
    space = jets.JetSpace(2, 2)
    for k in range(5):
        keep = np.zeros((3, 3), dtype=bool)
        keep[k % 3, (k + 1) % 3] = keep[(k + 2) % 3, k % 3] = True
        keep[0, 0] = k > 2
        a, b = _point_jets(rng, space, 2, keep), _point_jets(rng, space, 2, keep)
        jt_einsum("pij,pjk->pik", a, b)
        assert 1 <= len(space._zero_plans) <= 2

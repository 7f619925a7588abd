import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from projsum.errors import InvalidFamilyError, InvalidStrategyError, SerializationError
from projsum.families import ProjectionFamily, four_family, validate_family
from projsum.selftest import extract_dilation
from projsum.serialize import (
    certificate_to_dict,
    correlation_from_dict,
    correlation_to_dict,
    family_from_dict,
    family_to_dict,
    from_pairs,
    lists_to_matrix,
    lists_to_vector,
    load_json,
    save_json,
    strategy_from_dict,
    strategy_to_dict,
    to_pairs,
)
from projsum.strategies import (
    Correlation,
    canonical_strategy,
    correlation_distance,
    induced_correlation,
    perturb,
)


def entry_pairs(a):
    """The per-entry writer: one [real, imag] pair per complex entry."""
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim == 0:
        z = complex(a)
        return [z.real, z.imag]
    return [entry_pairs(row) for row in a]


def entry_reader(raw, rank):
    """The per-entry reader: one complex(real, imag) per pair."""
    if rank == 0:
        return complex(raw[0], raw[1])
    return [entry_reader(row, rank - 1) for row in raw]


def assert_same_bytes(decoded, array):
    array = np.asarray(array, dtype=np.complex128)
    assert decoded.dtype == array.dtype and decoded.shape == array.shape
    assert decoded.tobytes() == array.tobytes()


@given(
    arrays(
        np.float64,
        array_shapes(min_dims=1, max_dims=4, max_side=3).map(lambda shape: shape + (2,)),
        elements=st.floats(allow_nan=False, allow_infinity=False),
    )
)
@example(
    np.array(
        [
            [-0.0, -0.0],
            [0.0, -0.0],
            [5e-324, -2.2250738585072014e-308],
            [1.7976931348623157e308, -1.7976931348623157e308],
        ]
    )
)
def test_from_pairs_inverts_to_pairs_bit_for_bit(pairs):
    a = pairs.view(np.complex128)[..., 0]
    raw = json.loads(json.dumps(to_pairs(a)))
    assert_same_bytes(from_pairs(raw, a.ndim, "a"), a)
    assert_same_bytes(from_pairs(raw, a.ndim, "a"), entry_reader(raw, a.ndim))


def test_readers_match_the_per_entry_reader_on_written_documents():
    fam = four_family(2)
    strat = perturb(canonical_strategy(fam), "state-mixing", 1e-3, seed=5)
    cert = certificate_to_dict(extract_dilation(strat, fam))
    doc = json.loads(json.dumps(family_to_dict(fam)))
    assert_same_bytes(family_from_dict(doc).projections, entry_reader(doc["projections"], 3))
    doc = json.loads(json.dumps(strategy_to_dict(strat)))
    back = strategy_from_dict(doc)
    for key, rank in (("state", 1), ("alice", 4), ("bob", 4)):
        assert_same_bytes(getattr(back, key), entry_reader(doc[key], rank))
    assert_same_bytes(lists_to_matrix(cert["VA"]), entry_reader(cert["VA"], 2))
    assert_same_bytes(lists_to_vector(cert["junk"]), entry_reader(cert["junk"], 1))


def test_complex_encoding_round_trip():
    assert to_pairs(1.5 - 2j) == [1.5, -2.0]
    m = np.array([[1 + 2j, 0], [0.5j, -1]])
    back = lists_to_matrix(to_pairs(m))
    assert np.array_equal(back, m)


def test_matrix_decoding_errors_carry_context():
    with pytest.raises(SerializationError, match="projections"):
        lists_to_matrix([[1, 2]], where="family.projections[0]")
    with pytest.raises(SerializationError, match=r"^matrix\[1\]: length 2, expected 1$"):
        lists_to_matrix([[[1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]])
    with pytest.raises(SerializationError):
        lists_to_vector([], where="state")


def test_family_round_trip(tmp_path):
    fam = four_family(2)
    path = tmp_path / "family.json"
    save_json(family_to_dict(fam), path)
    back = family_from_dict(load_json(path))
    assert back.n == fam.n and back.x == fam.x and back.d == fam.d
    for p, q in zip(back.projections, fam.projections):
        assert np.allclose(p, q, atol=0)
    assert validate_family(back).passed


def test_family_dict_rejects_bad_scalar():
    fam = four_family(1)
    data = family_to_dict(fam)
    data["x"] = [4, 0]
    with pytest.raises(SerializationError, match="denominator"):
        family_from_dict(data)
    data2 = family_to_dict(fam)
    del data2["d"]
    with pytest.raises(SerializationError, match="missing field 'd'"):
        family_from_dict(data2)


def test_a_declared_dimension_is_not_allocated_before_it_is_checked():
    data = dict(family_to_dict(four_family(1)), d=4000)
    tracemalloc.start()
    try:
        message = r"^family: projection of shape \(3, 3\) does not match d=4000$"
        with pytest.raises(SerializationError, match=message):
            family_from_dict(data)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # a stack of the declared size would take 4 * 4000^2 complex entries, 1 GB
    assert peak < 4_000_000


@pytest.mark.parametrize(
    "path, value, message",
    [
        (("n",), 4.5, "correlation.n: not an integer: 4.5"),
        (("k",), True, "correlation.k: not an integer: True"),
        (("table", 0, 1, 1, 0), "0.3", "correlation.table[0][1][1][0]: not a number: '0.3'"),
        (("table", 2, 2, 0, 1), True, "correlation.table[2][2][0][1]: not a number: True"),
        (("table", 3, 0, 1), [0.5], "correlation.table[3][0][1]: length 1, expected 2"),
        (("table", 1), "ab", "correlation.table[1]: expected a list, got 'ab'"),
    ],
)
def test_correlation_fields_of_the_wrong_kind_are_rejected(path, value, message):
    data = correlation_to_dict(induced_correlation(canonical_strategy(four_family(1))))
    node = data
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    with pytest.raises(SerializationError) as info:
        correlation_from_dict(data)
    assert str(info.value) == message


def test_non_finite_families_and_correlations_are_rejected():
    fam = four_family(1)
    corr = induced_correlation(canonical_strategy(fam))
    for value in (float("nan"), float("inf"), float("-inf")):
        data = family_to_dict(fam)
        data["projections"][1][0][2] = [value, 0.0]
        with pytest.raises(SerializationError, match=r"^family: projection 1\[0\]\[2\]: non-finite entry$"):
            family_from_dict(data)
        projections = tuple(p.copy() for p in fam.projections)
        projections[3][1, 1] = value
        with pytest.raises(InvalidFamilyError, match="projection 3"):
            ProjectionFamily(n=4, x=fam.x, d=3, projections=projections)
        data = correlation_to_dict(corr)
        data["table"][0][1][1][0] = value
        with pytest.raises(SerializationError, match=r"^correlation: table\[0\]\[1\]\[1\]\[0\]: non-finite entry$"):
            correlation_from_dict(data)
        table = corr.table.copy()
        table[2, 2, 0, 0] = value
        with pytest.raises(InvalidStrategyError, match="non-finite"):
            Correlation(n=4, k=2, table=table)


def test_huge_json_integers_raise_serialization_error(tmp_path):
    fam = four_family(1)
    data = family_to_dict(fam)
    data["projections"][2][0][1] = [0, 10**400]
    overflow = "int too large to convert to float"
    with pytest.raises(
        SerializationError, match=rf"^family.projections\[2\]\[0\]\[1\]: {overflow}$"
    ):
        family_from_dict(data)
    data = strategy_to_dict(canonical_strategy(fam))
    data["state"][0] = [10**400, 0]
    with pytest.raises(SerializationError, match=r"^strategy.state\[0\]: "):
        strategy_from_dict(data)
    data = correlation_to_dict(induced_correlation(canonical_strategy(fam)))
    data["table"][1][0][1][1] = -(10**400)
    with pytest.raises(
        SerializationError, match=rf"^correlation.table\[1\]\[0\]\[1\]\[1\]: {overflow}$"
    ):
        correlation_from_dict(data)
    path = tmp_path / "digits.json"
    path.write_text('{"n": ' + "9" * 5000 + "}")
    with pytest.raises(SerializationError, match="digits.json: "):
        load_json(path)


def test_strategy_from_dict_keeps_validation_errors_unwrapped():
    data = strategy_to_dict(canonical_strategy(four_family(1)))
    data["alice"][0][0][0][0] = [1.5, 0.0]
    with pytest.raises(InvalidStrategyError) as info:
        strategy_from_dict(data)
    assert not isinstance(info.value, SerializationError)
    assert str(info.value) == "alice question 0: POVM does not sum to identity"
    data = strategy_to_dict(canonical_strategy(four_family(1)))
    data["dimA"] = "x"
    with pytest.raises(SerializationError, match="^strategy.dimA: not an integer: 'x'$"):
        strategy_from_dict(data)


def test_strategy_round_trip(tmp_path):
    strat = canonical_strategy(four_family(1))
    path = tmp_path / "strategy.json"
    save_json(strategy_to_dict(strat), path)
    back = strategy_from_dict(load_json(path))
    back.validate()
    assert np.array_equal(back.state, strat.state)
    for pa, pb in zip(back.alice, strat.alice):
        for ma, mb in zip(pa, pb):
            assert np.array_equal(ma, mb)


def test_correlation_round_trip():
    corr = induced_correlation(canonical_strategy(four_family(1)))
    back = correlation_from_dict(correlation_to_dict(corr))
    assert back.n == corr.n and back.k == corr.k
    assert np.array_equal(back.table, corr.table)
    with pytest.raises(SerializationError):
        correlation_from_dict({"n": 4, "k": 2, "table": "zzz"})
    # a nested list is stored as the array it was checked as
    nested = Correlation(n=1, k=2, table=[[[[0.5, 0.0], [0.0, 0.5]]]])
    assert isinstance(nested.table, np.ndarray)
    assert correlation_distance(nested, nested) == 0.0


def test_save_json_is_deterministic(tmp_path):
    fam = four_family(1)
    p1, p2 = tmp_path / "one.json", tmp_path / "two.json"
    save_json(family_to_dict(fam), p1)
    save_json(family_to_dict(fam), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_load_json_reports_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"a": 1,\n "b": }\n')
    with pytest.raises(SerializationError, match="line 2"):
        load_json(path)


def test_certificate_to_dict_shape():
    fam = four_family(1)
    strat = canonical_strategy(fam)
    cert = extract_dilation(strat, fam)
    doc = certificate_to_dict(cert)
    assert set(doc) >= {"epsilon", "alpha", "beta", "gap", "VA", "VB", "junk", "dims"}
    assert doc["dims"] == {"refA": 3, "refB": 3, "ancA": 1, "ancB": 1}
    assert doc["epsilon"] < 1e-10
    va = lists_to_matrix(doc["VA"])
    assert np.array_equal(va, cert.v_a)
    assert "state" in doc["residuals"]


def test_writers_match_the_per_entry_writer_byte_for_byte(tmp_path):
    fam = four_family(2)
    strat = perturb(canonical_strategy(fam), "povm-jitter", 1e-3, seed=5)
    cert = extract_dilation(strat, fam)
    cert_doc = certificate_to_dict(cert)
    fits = {"fitA": cert.fit_residuals_a, "fitB": cert.fit_residuals_b}
    cases = (
        (family_to_dict(fam), {"projections": entry_pairs(fam.projections)}),
        (
            strategy_to_dict(strat),
            {key: entry_pairs(getattr(strat, key)) for key in ("state", "alice", "bob")},
        ),
        (
            cert_doc,
            {
                "VA": entry_pairs(cert.v_a),
                "VB": entry_pairs(cert.v_b),
                "junk": entry_pairs(cert.junk),
                "residuals": dict(
                    cert_doc["residuals"],
                    **{key: [float(r) for r in fit] for key, fit in fits.items()},
                ),
            },
        ),
    )
    new, old = tmp_path / "new.json", tmp_path / "old.json"
    for doc, oracle_fields in cases:
        save_json(doc, new)
        save_json(dict(doc, **oracle_fields), old)
        assert new.read_bytes() == old.read_bytes()

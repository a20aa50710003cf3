"""The frozen-record contract shared by every record type of the package."""

import pytest

from anticirculant import classifier, combinatorics, oracle, polyeval, tensor
from anticirculant.classifier import Certificate, CertificateKind, Verdict
from anticirculant.tensor import CirculantSpec, GeneratingVector, WitnessVector, _Record

GEN = GeneratingVector(4, 2, (1, 0.5, 1, 0.5, 1))
CERT = Certificate(CertificateKind.POWER_SUM, v0=1.0, t=0.75)


def _psd_verdict():
    return classifier.classify(CirculantSpec(4, 4, 2, (1, 0.5)))


SAMPLES = {
    "GeneratingVector": lambda: GeneratingVector(2, 2, (1, 0, 1)),
    "CirculantSpec": lambda: CirculantSpec(4, 4, 2, (1, 0.5)),
    "WitnessVector": lambda: WitnessVector((1, 0), "a"),
    "Certificate": lambda: CERT,
    "StrongHankelResult": lambda: classifier.strong_hankel_check(GEN, CERT),
    "Verdict": _psd_verdict,
    "SphereMinResult": lambda: oracle.sphere_min(GEN, starts=2),
    "MatrixPsdResult": lambda: oracle.matrix_psd(tensor.hankel_matrix(GEN)),
    "PeriodicSequence": lambda: combinatorics.PeriodicSequence((1, 2)),
    "SignFactRow": lambda: combinatorics.SignFactRow(6, 3, (1, -1), (-18, 9, 9), "S0 < 0", True),
}


def test_every_record_type_has_a_sample():
    assert {cls.__name__ for cls in _Record.__subclasses__()} == set(SAMPLES)


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_fields_cannot_be_assigned_or_deleted(name):
    record = SAMPLES[name]()
    assert type(record).__name__ == name
    for field in record._fields:
        before = getattr(record, field)
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            delattr(record, field)
        assert getattr(record, field) is before
    with pytest.raises(AttributeError):
        record.no_such_field = 1


@pytest.mark.parametrize("make, fields", [
    (lambda: CirculantSpec(4, 4, 2, [1, 0.5]), (4, 4, 2, (1, 0.5))),
    (lambda: GeneratingVector(2, 2, [1, 0, 1]), (2, 2, (1, 0, 1))),
    (lambda: WitnessVector([1, -1], "u"), ((1, -1), "u")),
])
def test_equal_fields_compare_and_hash_equal(make, fields):
    a, b = make(), make()
    assert a is not b and a == b and not a != b
    # the hash of the field tuple, as for a frozen dataclass
    assert hash(a) == hash(b) == hash(fields)
    assert a != fields


def test_equal_verdicts_compare_and_hash_equal():
    a, b = _psd_verdict(), _psd_verdict()
    assert a == b and hash(a) == hash(b)
    assert a != classifier.classify(CirculantSpec(4, 4, 2, (1, 0.25)))


def test_records_of_different_types_differ():
    assert GeneratingVector(2, 2, (1, 0, 1)) != CirculantSpec(2, 2, 1, (1,))
    assert WitnessVector((1, 0), "a") != WitnessVector((1, 0), "b")


def test_repr_is_field_wise():
    assert repr(WitnessVector((1, 0), "a")) == "WitnessVector(x=(1, 0), label='a')"
    assert repr(_psd_verdict()) == (
        "Verdict(status=<Status.PSD: 'PSD'>, case=<Case.INDEX_TWO: 'index-2'>, "
        "tolerance=1e-12, certificate=Certificate(kind=<CertificateKind.POWER_SUM: "
        "'PowerSum'>, v0=1.0, t=0.75, matrix_eigen_floor=None), "
        "strong_hankel=Certificate(kind=<CertificateKind.STRONG_HANKEL: 'StrongHankel'>, "
        "v0=1.0, t=None, matrix_eigen_floor=0.0), witness=None, witness_value=None, "
        "evidence=None, notes=())"
    )


@pytest.mark.parametrize("make, message", [
    (lambda: WitnessVector((0, 0.0), "zero"), "witness vector must be nonzero"),
    (lambda: combinatorics.PeriodicSequence((1,)), "at least two entries"),
    (lambda: GeneratingVector(4, 2, (1, 2, 3, 4)), r"needs \(n-1\)\*m\+1 = 5 entries, got 4"),
])
def test_validation_raises_value_error(make, message):
    with pytest.raises(ValueError, match=message):
        make()


def test_int_form_caches_on_the_instance():
    gen = GeneratingVector(4, 2, (1, 0.5, 1, 0.5, 1))
    assert "_int_form" not in vars(gen)
    form = polyeval._int_form(gen)
    assert vars(gen)["_int_form"] is form
    assert polyeval._int_form(gen) is form
    # the cache is no field: equality, hash and repr ignore it
    assert gen == GEN and hash(gen) == hash(GEN) and repr(gen) == repr(GEN)


def test_matrix_psd_result_fields():
    # LAPACK's eigenvalues come with no iteration count
    result = SAMPLES["MatrixPsdResult"]()
    assert result._fields == ("passed", "min_eigenvalue", "eigenvalues")
    assert result.passed and result.min_eigenvalue == result.eigenvalues[0]
    assert list(result.eigenvalues) == sorted(result.eigenvalues) and len(result.eigenvalues) == 3


def test_to_dict_keeps_fields_in_order():
    assert CERT.to_dict() == {"kind": "PowerSum", "v0": 1.0, "t": 0.75}
    result = SAMPLES["SphereMinResult"]()
    assert list(result.to_dict()) == list(result._fields)
    assert result.to_dict()["argmin"] == list(result.argmin)

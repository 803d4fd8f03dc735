"""Exception hierarchy contracts: one base class per API boundary."""

import pytest

from repro import errors


class TestHierarchy:
    def test_everything_is_reproerror(self):
        for name in dir(errors):
            obj = getattr(errors, name)
            if isinstance(obj, type) and issubclass(obj, Exception):
                assert issubclass(obj, errors.ReproError), name

    def test_crypto_family(self):
        assert issubclass(errors.IntegrityError, errors.DecryptionError)
        assert issubclass(errors.DecryptionError, errors.CryptoError)
        assert issubclass(errors.NotOnCurveError, errors.CryptoError)
        assert issubclass(errors.SerializationError, errors.CryptoError)

    def test_scheme_failures_are_decryption_errors(self):
        # callers catch DecryptionError to handle "could not decrypt" uniformly
        assert issubclass(errors.PolicyNotSatisfiedError, errors.DecryptionError)

    def test_p3s_family(self):
        assert issubclass(errors.RetrievalError, errors.P3SError)
        assert issubclass(errors.TokenRequestError, errors.P3SError)
        assert issubclass(errors.CertificateError, errors.P3SError)

    def test_network_family(self):
        assert issubclass(errors.RoutingError, errors.NetworkError)

    def test_one_catch_all_at_boundary(self):
        """A caller can wrap any repro call in `except ReproError`."""
        with pytest.raises(errors.ReproError):
            raise errors.PolicyNotSatisfiedError("demo")
        with pytest.raises(errors.ReproError):
            raise errors.BrokerError("demo")

"""The package's public name list."""

import quantcord


class TestPublicNames:

    def test_all_has_no_duplicates(self):
        assert len(quantcord.__all__) == len(set(quantcord.__all__))

    def test_every_name_resolves(self):
        assert [n for n in quantcord.__all__ if not hasattr(quantcord, n)] == []
        namespace = {}
        exec("from quantcord import *", namespace)
        assert set(quantcord.__all__) <= set(namespace)

"""The package's public names: every entry of ``__all__`` must exist."""

import krcubic


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from krcubic import *", namespace)
    assert len(set(krcubic.__all__)) == len(krcubic.__all__)
    missing = [name for name in krcubic.__all__ if name not in namespace]
    assert not missing, missing

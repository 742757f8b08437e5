"""The package's public names."""

import fedsample


def test_all_names_resolve_without_duplicates():
    names = fedsample.__all__
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(fedsample, n)] == []

import types

import kdom


def test_all_lists_each_public_name_once():
    assert len(kdom.__all__) == len(set(kdom.__all__))
    for name in kdom.__all__:
        getattr(kdom, name)
    public = {
        name
        for name, value in vars(kdom).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(kdom.__all__) == public

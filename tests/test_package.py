"""The package surface: `import rotpolariton` re-exports each module's __all__."""

import inspect

import rotpolariton as rp
from rotpolariton import control, dynamics, errors, model, observables, pulse

MODULES = (control, dynamics, errors, model, observables, pulse)


def test_the_package_exports_exactly_the_modules_all_lists():
    public = {name for name, obj in vars(rp).items()
              if not name.startswith("_") and not inspect.ismodule(obj)}
    assert public == {name for mod in MODULES for name in mod.__all__}


def test_no_name_is_listed_by_two_modules():
    names = [name for mod in MODULES for name in mod.__all__]
    assert len(names) == len(set(names))


def test_every_listed_function_and_class_is_defined_in_its_module():
    for mod in MODULES:
        for name in mod.__all__:
            obj = getattr(mod, name)
            if inspect.isfunction(obj) or inspect.isclass(obj):
                assert obj.__module__ == mod.__name__, name

"""The package API: qfdiv exports exactly its modules' __all__ lists, plus
__version__, and each public name is declared in one module only."""

import importlib

import qfdiv

MODULES = ("classical", "errors", "generators", "harness", "hermitian", "quantum")


def owners() -> dict:
    """Each name of a module's __all__, with the modules that list it."""
    out = {}
    for name in MODULES:
        module = importlib.import_module(f"qfdiv.{name}")
        for public in module.__all__:
            out.setdefault(public, []).append(module)
    return out


def test_no_duplicates():
    assert len(qfdiv.__all__) == len(set(qfdiv.__all__))


def test_no_name_in_two_modules():
    # generators.tsallis (the factory) and quantum.tsallis (the closed form)
    # were once both listed.
    assert {name: [m.__name__ for m in mods] for name, mods in owners().items() if len(mods) > 1} == {}


def test_each_name_is_its_module_object():
    listed = owners()
    assert set(qfdiv.__all__) == {"__version__", *listed}
    for name, (module,) in listed.items():
        assert getattr(qfdiv, name) is getattr(module, name), name


def test_star_import_binds_exactly_all():
    names = {}
    exec("from qfdiv import *", names)
    assert set(names) - {"__builtins__"} == set(qfdiv.__all__)

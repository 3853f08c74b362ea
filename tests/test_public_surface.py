"""The package's public surface is declared once, by its library modules'
``__all__`` lists, and ``tensorcalc`` re-exports every name in them."""

import importlib
import pkgutil

import tensorcalc

# every module of the package but the command line, which is not re-exported
LIBRARY = [importlib.import_module(f"tensorcalc.{info.name}")
           for info in pkgutil.iter_modules(tensorcalc.__path__) if info.name != "cli"]


def test_the_package_exports_the_module_lists_concatenated():
    assert len(tensorcalc.__all__) == len(set(tensorcalc.__all__))
    rest = list(tensorcalc.__all__)
    for module in sorted(LIBRARY, key=lambda m: tensorcalc.__all__.index(m.__all__[0])):
        assert rest[:len(module.__all__)] == module.__all__, module.__name__
        rest = rest[len(module.__all__):]
    assert rest == []
    for module in LIBRARY:
        for name in module.__all__:
            assert getattr(tensorcalc, name) is getattr(module, name), (module.__name__, name)

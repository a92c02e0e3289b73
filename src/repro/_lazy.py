"""Lazy package exports (PEP 562): the one mechanism every lazy package uses.

A package lists each public name with the submodule that defines it and
installs the returned hook as its module ``__getattr__``.  Importing the
package then loads none of its submodules; a name resolves from its
submodule on first access (attribute access or ``from package import
name``) and is cached in the package namespace, so the hook runs once per
name.  ``__all__`` stays the public list, so star imports and the API
reference still see every name.
"""

import importlib
import sys
from typing import Any, Callable, Dict

__all__ = ["lazy_exports"]


def lazy_exports(package: str, exports: Dict[str, str]
                 ) -> Callable[[str], Any]:
    """A module ``__getattr__`` for ``package`` that resolves ``exports``.

    Args:
        package: The package's ``__name__``.
        exports: Public name -> defining submodule, relative to
            ``package``.  A name equal to its submodule's name exports the
            submodule itself (``repro.nn.functional``).  No other name may
            equal a submodule's name: once that submodule is imported, the
            import system binds the module under that name and the hook is
            never asked.
    """
    namespace = vars(sys.modules[package])

    def __getattr__(name: str) -> Any:
        submodule = exports.get(name)
        if submodule is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        module = importlib.import_module(f".{submodule}", package)
        value = module if submodule == name else getattr(module, name)
        namespace[name] = value
        return value

    return __getattr__

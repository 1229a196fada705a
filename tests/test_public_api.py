"""The package's public surface is the union of its modules' __all__.

Every library module (all but the command-line front end) declares its
public names in __all__, and lic_hw_kit re-exports exactly those plus
__version__. The set itself is pinned by digest, so adding or dropping a
public name is a deliberate change here rather than a silent one.
"""

import hashlib
import importlib
import os
import pkgutil
import subprocess
import sys
import types

import lic_hw_kit

PUBLIC_NAMES_SHA256 = "b28d9be6c2083fb29c29c253fac73013aac14d02cc5058261c17c8314574ff18"
LIBRARY_MODULES = sorted(
    m.name for m in pkgutil.iter_modules(lic_hw_kit.__path__) if m.name != "cli")


def test_package_all_is_the_modules_all_plus_version():
    assert len(LIBRARY_MODULES) == 13
    joined = [name for module in LIBRARY_MODULES
              for name in importlib.import_module(f"lic_hw_kit.{module}").__all__]
    assert len(lic_hw_kit.__all__) == len(set(lic_hw_kit.__all__))
    assert sorted(lic_hw_kit.__all__) == sorted(joined + ["__version__"])


def test_every_public_name_resolves():
    for module in LIBRARY_MODULES:
        mod = importlib.import_module(f"lic_hw_kit.{module}")
        for name in mod.__all__:
            assert getattr(lic_hw_kit, name) is getattr(mod, name), (module, name)
    assert isinstance(lic_hw_kit.__version__, str)


def test_public_names_are_pinned():
    digest = hashlib.sha256("\n".join(sorted(lic_hw_kit.__all__)).encode())
    assert digest.hexdigest() == PUBLIC_NAMES_SHA256


def test_functions_named_like_their_modules_win():
    assert isinstance(lic_hw_kit.bd_metrics, types.FunctionType)
    assert isinstance(lic_hw_kit.kd_loss, types.FunctionType)


def test_import_leaves_the_cli_and_jsonschema_unloaded():
    src = os.path.dirname(os.path.dirname(lic_hw_kit.__file__))
    probe = ("import sys, lic_hw_kit; "
             "print(sorted({'lic_hw_kit.cli', 'jsonschema'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "[]"

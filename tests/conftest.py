import os
import sys
import warnings

sys.path.insert(0, os.path.dirname(__file__))

pytest_plugins = ["pytester"]

# For a failing @given test, hypothesis's pytest plugin writes a patch of the falsifying
# examples with libcst, imported on first use. That import warns (mypy_extensions.TypedDict
# is deprecated), which pyproject.toml's filterwarnings makes an error, and the session ends
# in an INTERNALERROR instead of reporting the failure and running the tests after it.
# Import libcst here, with only that message ignored, so the plugin finds it loaded.
with warnings.catch_warnings():
    warnings.filterwarnings("ignore", "mypy_extensions.TypedDict is deprecated", DeprecationWarning)
    try:
        import libcst  # noqa: F401
    except ImportError:  # without libcst the plugin writes no patch
        pass

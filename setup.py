"""Build script: compiles the optional polynomial kernel extension.

The extension is a speedup only; if Cython or a C toolchain is missing the
package installs pure-Python and selects the fallback kernel at import.
"""

from setuptools import setup

ext_modules = []
try:
    from Cython.Build import cythonize

    ext_modules = cythonize(
        ["src/weilcalc/_kernel.pyx"],
        compiler_directives={"language_level": "3"},
    )
except ImportError:
    print("Cython not available; building without the compiled kernel")

setup(ext_modules=ext_modules)

"""Shared fixtures and external denoiser stubs for the test suite."""

import sys
import textwrap

import numpy as np
import pytest

import pcsmri


def pytest_terminal_summary(terminalreporter):
    """Echo acceptance verdicts after the run, outside output capture."""
    module = sys.modules.get("test_acceptance")
    lines = getattr(module, "VERDICTS", None)
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)


def make_stub(directory, name, body):
    """Write a small python script and return the command string to run it."""
    path = directory / name
    path.write_text("import sys\n" + textwrap.dedent(body))
    return f"{sys.executable} {path}"


# copies input container to output verbatim (prox = identity)
IDENTITY_STUB = """
    import shutil
    src, dst = sys.argv[1], sys.argv[2]
    shutil.copyfile(src, dst)
    shutil.copyfile(src + ".hdr", dst + ".hdr")
"""

# halves the image, exercising a denoiser that actually changes data
HALVE_STUB = """
    import shutil
    import numpy as np
    src, dst = sys.argv[1], sys.argv[2]
    (np.fromfile(src, dtype="<c16") * 0.5).tofile(dst)
    shutil.copyfile(src + ".hdr", dst + ".hdr")
"""

# poisons the iterate so the solver's finiteness check must fire
NAN_STUB = """
    import shutil
    import numpy as np
    src, dst = sys.argv[1], sys.argv[2]
    data = np.fromfile(src, dtype="<c16")
    np.full(data.shape, np.nan + 1j * np.nan, dtype="<c16").tofile(dst)
    shutil.copyfile(src + ".hdr", dst + ".hdr")
"""

# a finite image too large for the <c8 recon that the CLI writes (at most
# about 3.4e38), but not for the float64 arithmetic that scores it
HUGE_STUB = """
    import shutil
    import numpy as np
    src, dst = sys.argv[1], sys.argv[2]
    data = np.fromfile(src, dtype="<c16")
    np.full(data.shape, 1e40, dtype="<c16").tofile(dst)
    shutil.copyfile(src + ".hdr", dst + ".hdr")
"""

FAIL_STUB = """
    sys.stderr.write("denoiser exploded\\n")
    sys.exit(3)
"""

# exits cleanly without producing any output file
NOOP_STUB = """
    sys.exit(0)
"""

# records its argv next to the script, then acts as identity
ARGV_STUB = """
    import shutil
    from pathlib import Path
    Path(sys.argv[0] + ".argv").write_text("\\n".join(sys.argv[1:]))
    src, dst = sys.argv[1], sys.argv[2]
    shutil.copyfile(src, dst)
    shutil.copyfile(src + ".hdr", dst + ".hdr")
"""


@pytest.fixture
def small_case():
    """Deterministic noiseless 32x32 2-coil R=2 case."""
    return pcsmri.simulate_case(32, 32, n_coils=2, r=2.0, acs_width=8, seed=1)


def random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def assert_read_only(arr):
    with pytest.raises(ValueError):
        arr[(0,) * arr.ndim] = 1.0

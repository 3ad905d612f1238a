"""The small-n floor: what a verify op pays beyond its arithmetic.

At n <= 2 an op costs its count of Python-level calls, not its flops, so the
count is the load-independent figure of that floor: cProfile's count after
one warm-up op, with the per-size constants built.  The guarded figures were
taken with Python 3.11 and numpy 2.4; a guard allows 5% above them.  The
per-size constants those figures rely on are shared read-only, and a kernel
is assembled in place, with no np.kron or np.block once its size is warm.
"""
import contextlib
import cProfile
import io
import pstats

import numpy as np
import pytest

from qsemi.cli import EXIT_OK, main
from qsemi.matfun import identity
from qsemi.mehler import _leading_minors, _synthesis
from qsemi.quadform import standard_J

#: Python-level calls of one op (cProfile's total) after a warm-up op, as
#: this suite counts them: a plain process counts 2445 and 2389
FLOOR = {
    ("verify", "--fixture", "heat", "--t", "0.01"): 2454,
    ("decompose", "--fixture", "kolmogorov", "--t", "0.02"): 2398,
}


def run(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return main(list(argv))


@pytest.mark.parametrize("argv", list(FLOOR), ids=lambda argv: " ".join(argv))
def test_an_op_stays_at_its_call_count(argv):
    assert run(argv) == EXIT_OK  # warm-up: the per-size constants are built
    profile = cProfile.Profile()
    profile.enable()
    code = run(argv)
    profile.disable()
    assert code == EXIT_OK
    calls = pstats.Stats(profile).total_calls
    assert calls <= 1.05 * FLOOR[argv], f"{calls} calls, floor {FLOOR[argv]}"


def shared_constants():
    """Every per-size constant of the library, at the sizes a bench op reads."""
    for n in (1, 2):
        yield f"standard_J({n})", standard_J(n)
        for m in (n, 2 * n, 4 * n):
            yield f"identity({m})", identity(m)
            yield f"_leading_minors({m})", _leading_minors(m)
        for name, a in zip(("rows", "cols", "weights", "phase"), _synthesis(n)):
            yield f"_synthesis({n}).{name}", a


@pytest.mark.parametrize("name, constant", list(shared_constants()),
                         ids=[name for name, _ in shared_constants()])
def test_a_shared_constant_is_read_only(name, constant):
    # a caller that writes into one fails here, not in the next op
    assert not constant.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        constant.flat[0] = constant.flat[0]


def test_a_shared_constant_is_built_once_per_size():
    assert identity(3) is identity(3) and np.array_equal(identity(3), np.eye(3))
    assert _synthesis(2) is _synthesis(2)
    assert _leading_minors(4) is _leading_minors(4)


@pytest.mark.parametrize("fixture", ["heat", "kolmogorov"])
def test_a_second_verify_op_calls_no_kron_or_block(monkeypatch, fixture):
    argv = ["verify", "--fixture", fixture, "--t", "0.01"]
    assert run(argv) == EXIT_OK

    def refuse(*args, **kwargs):
        raise AssertionError("a warm verify op assembles with np.kron or np.block")
    monkeypatch.setattr(np, "kron", refuse)
    monkeypatch.setattr(np, "block", refuse)
    assert run(argv) == EXIT_OK

"""One validation rule: a caller's argument is checked at most once while it
passes, and its verdict lives in its memo (``fincat._verdict``).

A failing report is never kept; a pickle or a deep copy of an argument
starts with an empty memo, while ``copy.copy`` shares it.  Every CLI smoke
call of the CI workflow runs each validator at most once on one object,
across the parse and the run.
"""

import contextlib
import copy
import dataclasses
import io
import pickle
import random
import shlex
import sys
from collections import Counter
from pathlib import Path

import pytest

from fibsite import cli, fibred
from fibsite.cohom import ZZ, cochain_complex, constant_abelian_presheaf
from fibsite.errors import InputError, ValidationFailure
from fibsite.fibred import (
    constant_presheaf_of_categories,
    grothendieck_construct,
    validate_presheaf_of_categories,
)
from fibsite.fincat import cyclic_groupoid, poset_chain
from fibsite.hocopb import hocolim, validate_diagram
from fibsite.sampling import random_diagram

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"


# ---------------------------------------------------------------------------
# copies and the memo


def _built_from():
    """A presheaf of categories that passed and has its total site built."""
    a = constant_presheaf_of_categories(poset_chain(["V", "U"]), cyclic_groupoid(2))
    fs = grothendieck_construct(a)
    assert vars(a)["_memo"] == {
        (validate_presheaf_of_categories,): [],
        (fibred._grothendieck_construct,): fs,
    }
    return a


@pytest.mark.parametrize("copied", [
    lambda a: pickle.loads(pickle.dumps(a)),
    copy.deepcopy,
    dataclasses.replace,
], ids=["pickle", "deepcopy", "replace"])
def test_a_copy_carries_no_memo(copied):
    a = _built_from()
    b = copied(a)
    assert b == a
    assert not vars(b).get("_memo")


@pytest.mark.parametrize("copied", [
    lambda a: pickle.loads(pickle.dumps(a)),
    copy.deepcopy,
], ids=["pickle", "deepcopy"])
def test_a_deep_copy_carries_no_memo_in_its_parts(copied):
    a = _built_from()
    assert vars(a.site)["_memo"]
    b = copied(a)
    assert vars(b.site)["_memo"] == {}
    assert all(not vars(fib).get("_memo") for fib in b.value.values())


def test_a_shallow_copy_shares_the_memo():
    a = _built_from()
    b = copy.copy(a)
    assert vars(b)["_memo"] is vars(a)["_memo"]
    assert grothendieck_construct(b) is grothendieck_construct(a)


def test_a_corrupted_deep_copy_is_refused_by_grothendieck_construct():
    a = _built_from()
    b = copy.deepcopy(a)
    del b.restriction["a_V_U"]
    with pytest.raises(ValidationFailure, match="no restriction functor for a_V_U"):
        grothendieck_construct(b)


def test_a_corrupted_deep_copy_is_refused_by_hocolim():
    a = random_diagram(random.Random(8), cyclic_groupoid(2), 3)
    hocolim(a, 3)
    b = copy.deepcopy(a)
    del b.action["r1"]
    with pytest.raises(ValidationFailure, match="no action for r1"):
        hocolim(b, 3)


def test_a_corrupted_deep_copy_is_refused_by_cochain_complex():
    c = poset_chain(["V", "U"])
    f = constant_abelian_presheaf(c, ZZ)
    cochain_complex(c, f, 2)
    g = copy.deepcopy(f)
    del g.restriction["a_V_U"]
    with pytest.raises(ValidationFailure, match="no restriction matrix for a_V_U"):
        cochain_complex(c, g, 2)


def test_a_failing_report_is_not_kept():
    a = random_diagram(random.Random(8), cyclic_groupoid(2), 3)
    bad = dataclasses.replace(a, action={})
    for _ in range(2):
        with pytest.raises(ValidationFailure, match="no action for r1"):
            hocolim(bad, 3)
    assert vars(bad)["_memo"] == {}
    hocolim(a, 3)
    assert vars(a)["_memo"][(validate_diagram,)] == []


def test_a_validation_failure_is_an_input_error():
    assert issubclass(ValidationFailure, InputError)


# ---------------------------------------------------------------------------
# validator runs per object on the CI smoke calls


def _smoke_calls() -> list[tuple[int, list[str]]]:
    """(expected exit code, argv) of each CLI smoke call in the CI workflow,
    with its loop over bundles unrolled."""
    calls, names = [], []
    for line in WORKFLOW.read_text().splitlines():
        s = line.strip()
        if s.startswith("for b in "):
            names = s[len("for b in "):].split(";")[0].split()
        elif s == "done":
            names = []
        elif s.startswith("expect "):
            want, *argv = shlex.split(s)[1:]
            for b in names if any("$b" in w for w in argv) else [None]:
                calls.append((int(want), [w.replace("$b", b) if b else w for w in argv]))
    return calls


SMOKE = [(want, argv) for want, argv in _smoke_calls() if want in (0, 1)]


def test_the_smoke_calls_are_read():
    # the seven-bundle validate loop, the help call and the checks that fail
    assert len(SMOKE) >= 30
    assert (0, ["validate", "bundles/idempotent_cover.bundle"]) in SMOKE
    assert (1, ["sheaf-check", "bundles/chain_cover.bundle", "--presheaf", "P"]) in SMOKE


def _count_validator_runs(monkeypatch) -> list:
    """(validator name, its arguments) of every validator run, with every
    ``validate_*`` of every fibsite module wrapped by one shared wrapper per
    function.  The arguments are held, so no id is reused while counting."""
    seen: list = []
    wrappers: dict = {}

    def wrap(fn):
        def counted(*args):
            seen.append((fn.__name__, args))
            return fn(*args)
        return counted

    for name, module in list(sys.modules.items()):
        if name != "fibsite" and not name.startswith("fibsite."):
            continue
        for attr, fn in list(vars(module).items()):
            if attr.startswith("validate_") and callable(fn):
                if fn not in wrappers:
                    wrappers[fn] = wrap(fn)
                monkeypatch.setattr(module, attr, wrappers[fn])
    return seen


@pytest.mark.parametrize("want,argv", SMOKE, ids=[" ".join(a) for _w, a in SMOKE])
def test_no_validator_runs_twice_on_one_object(want, argv, monkeypatch):
    monkeypatch.chdir(ROOT)
    seen = _count_validator_runs(monkeypatch)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert cli.run(argv, stdout=io.StringIO()) == want
    runs = Counter((name, tuple(map(id, args))) for name, args in seen)
    twice = sorted({(name, n) for (name, _ids), n in runs.items() if n > 1})
    assert not twice, f"(validator, runs on one object): {twice}"

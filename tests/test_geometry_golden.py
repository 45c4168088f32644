"""Golden quadratic-form outputs: exact vectors and transforms, pinned by sha256.

Any change to how ``chowkit.geometry`` searches or splits must reproduce the
same ``find_isotropic`` and ``represent`` vectors, the same ``witt_split``
planes, residuals and transforms, and the same ``congruence_between``
transforms.  The forms are drawn from a fixed ``random.Random`` string; each
function's outputs are hashed over canonical JSON of ``str(Fraction)``
values, so a failing case names the function that changed.

These are the vectors the bounded height search finds first.  Deciding
isotropy by Hasse-Minkowski and constructing the vectors (ROADMAP.md, the
item on deciding rational quadratic forms) will change them on purpose and
re-pin these digests.  The inputs stay cheap: ``represent`` and
``congruence_between`` run on binary forms only, because an exhausted search
on a ternary form takes seconds.
"""

import hashlib
import json
import random
from fractions import Fraction

import pytest

from chowkit.geometry import WittDecomposition, congruence_between, find_isotropic, represent, \
    witt_split


def _entry(rng):
    value = rng.choice([v for v in range(-12, 13) if v])
    return Fraction(value, rng.choice((1, 1, 1, 2, 3, 4)))


def _form(rng, dim):
    return [_entry(rng) for _ in range(dim)]


def _split_form(rng, dim):
    """A form with a hyperbolic pair <a, -a> in it, so the first search ends
    at height 1 and the rest runs on a form of dimension at most 3."""
    a = _entry(rng)
    form = [a, -a] + _form(rng, dim - 2)
    rng.shuffle(form)
    return form


def _isotropic_form(rng):
    """A ternary form <a, b, c> with a zero (x, y, z) of height at most 3, or
    a random ternary form when that zero would force c = 0."""
    a, b = _entry(rng), _entry(rng)
    x, y, z = rng.randint(-3, 3), rng.randint(-3, 3), rng.randint(1, 3)
    c = -(a * x * x + b * y * y) / (z * z)
    return [a, b, c] if c else [a, b, _entry(rng)]


def _represented(rng, form):
    """A value the binary form takes at a point of height at most 3."""
    x, y = rng.randint(-3, 3), rng.randint(1, 3)
    return form[0] * x * x + form[1] * y * y


def _binary_pair(rng):
    """A binary form <a, b> and either a random one or <t, abt>, which is
    equivalent to it when t is a value of the form."""
    f = _form(rng, 2)
    t = _represented(rng, f)
    if rng.random() < 0.5 or t == 0:
        return f, _form(rng, 2)
    return f, [t, f[0] * f[1] * t]


def _represent_case(rng):
    diag = _form(rng, 2)
    roll = rng.random()
    if roll < 0.1:
        return diag, Fraction(0)
    return diag, _entry(rng) if roll < 0.5 else _represented(rng, diag)


def golden_cases():
    """{function name: [argument tuple]}."""
    rng = random.Random("chowkit-forms-golden-v1")
    return {
        "find_isotropic": [(_form(rng, dim),) for dim in (1, 2, 3) for _ in range(8)]
        + [(_isotropic_form(rng),) for _ in range(12)],
        "witt_split": [(_form(rng, dim),) for dim in (1, 2, 3) for _ in range(8)]
        + [(_split_form(rng, dim),) for dim in (4, 5) for _ in range(6)],
        "represent": [_represent_case(rng) for _ in range(24)],
        "congruence_between": [_binary_pair(rng) for _ in range(16)],
    }


FUNCTIONS = {"find_isotropic": find_isotropic, "witt_split": witt_split,
             "represent": represent, "congruence_between": congruence_between}


def _text(value):
    """str(Fraction) of a value, recursively through lists and tuples."""
    if value is None:
        return None
    if isinstance(value, (list, tuple)):
        return [_text(v) for v in value]
    return str(Fraction(value))


def _canonical(result):
    if not isinstance(result, WittDecomposition):
        return _text(result)
    return {"planes": result.planes, "residual": _text(result.residual),
            "transform": _text(result.transform), "exhausted": result.search_exhausted}


def digest(cases, results) -> str:
    out = [{"input": _text(case), "output": _canonical(result)}
           for case, result in zip(cases, results)]
    text = json.dumps(out, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


GOLDEN_SHA256 = {
    "congruence_between": "09eda7bbb4db8fd80f954e3cdfd57adb541a77cd05b325ff7fee826147ca1a07",
    "find_isotropic": "0f32b2d97d4b54c5e07062ff1aa76f9a407c496c999670d99c079aae5982dc76",
    "represent": "586e79669572be602750d6e6df2a5121975e4a85617c1c48420736c8d69341d1",
    "witt_split": "6fc6762c6c92ebdc058dea7339d27e8373447f969c047b0558093921ba1efb93",
}

CASES = golden_cases()


def _value(form, vector):
    return sum(d * c * c for d, c in zip(form, vector))


@pytest.mark.parametrize("function", sorted(CASES))
def test_form_outputs_match_golden(function):
    cases = CASES[function]
    results = [FUNCTIONS[function](*case) for case in cases]
    # witt_split and congruence_between check their own congruence certificates.
    for case, v in zip(cases, results):
        if function == "find_isotropic":
            assert v is None or (any(v) and _value(case[0], v) == 0)
        if function == "represent":
            assert v is None or _value(case[0], v) == case[1]
    assert digest(cases, results) == GOLDEN_SHA256[function]

import json
import math

import numpy as np
import pytest

from msd import expr as ex
from msd import model
from msd.model import (
    LinearSde,
    ModelError,
    PerturbationSpec,
    PerturbedSde,
    adjoint,
    from_dict,
    gallery,
    make_projector,
    to_dict,
)


def test_projector_matrices():
    p = make_projector(4, 2)
    assert np.array_equal(p.matrix, np.diag([1.0, 1.0, 0.0, 0.0]))
    assert np.array_equal(p.complement_matrix, np.diag([0.0, 0.0, 1.0, 1.0]))
    with pytest.raises(ModelError):
        make_projector(3, 4)


def test_construction_validates_shapes_and_params():
    with pytest.raises(ModelError, match="drift must be 2x2"):
        LinearSde.from_strings(2, [["1"]], [["0", "0"], ["0", "0"]])
    with pytest.raises(ModelError, match="unbound"):
        LinearSde.from_strings(1, [["a + c"]], [["0"]], {"a": 1.0})
    with pytest.raises(ModelError, match="finite"):
        LinearSde.from_strings(1, [["a"]], [["0"]], {"a": float("nan")})


def test_drift_eval_scalar_and_vector():
    sys_ = gallery("gbm")
    assert sys_.drift_at(0.3).tolist() == [[-1.0]]
    ts = np.array([0.1, 1.0, 10.0])
    out = sys_.diffusion_at(ts)
    assert out.shape == (3, 1, 1)
    assert np.all(out == 0.5)


def test_perron_drift_values_at_log_quarter_turn():
    # At t = e^(pi/2), sin(log t) = 1 and cos(log t) = 0.
    sys_ = gallery("perron-ode")
    t = math.exp(math.pi / 2)
    a = sys_.drift_at(t)
    assert a[0, 0] == pytest.approx(-2.05, abs=1e-12)
    assert a[1, 1] == pytest.approx(-0.05, abs=1e-12)
    assert a[0, 1] == a[1, 0] == 0.0


GALLERY_STRINGS = {
    "gbm": {"A": [["a"]], "G": [["b"]]},
    "perron-ode": {
        "A": [
            ["-a - b*(sin(log(t)) + cos(log(t)))", "0"],
            ["0", "-a + b*(sin(log(t)) + cos(log(t)))"],
        ],
        "G": [["0", "0"], ["0", "0"]],
    },
    "perron-sde": {
        "A": [
            ["-a - b*(sin(log(t)) + cos(log(t)))", "0"],
            ["0", "-a + b*(sin(log(t)) + cos(log(t)))"],
        ],
        "G": [["1/(lambda + 1)", "0"], ["0", "1"]],
    },
    "triangular-2x2": {"A": [["-1", "1"], ["0", "-2"]], "G": [["0.5", "0"], ["0", "0.5"]]},
    "diag-2x2": {"A": [["a1", "0"], ["0", "a2"]], "G": [["g1", "0"], ["0", "g2"]]},
}


@pytest.mark.parametrize("name", sorted(GALLERY_STRINGS))
def test_gallery_serializes_to_frozen_strings(name):
    sys_ = gallery(name)
    got = to_dict(sys_)
    assert got["A"] == GALLERY_STRINGS[name]["A"]
    assert got["G"] == GALLERY_STRINGS[name]["G"]


def test_gallery_default_params():
    assert gallery("gbm").params == {"a": -1.0, "b": 0.5}
    assert gallery("perron-sde").params == {"a": 1.05, "b": 1.0, "lambda": 1.0}
    assert gallery("diag-2x2").params == {"a1": -1.0, "a2": -2.0, "g1": 0.2, "g2": 0.3}


def test_gallery_overrides():
    sys_ = gallery("gbm", b=1.0)
    assert sys_.params == {"a": -1.0, "b": 1.0}
    with pytest.raises(ModelError, match="unknown parameter"):
        gallery("gbm", sigma=1.0)
    with pytest.raises(ModelError, match="unknown gallery"):
        gallery("heat-equation")


def test_gallery_perturbed_entry():
    per = gallery("perron-sde-perturbed")
    assert isinstance(per, PerturbedSde)
    assert per.q == 1.5 and per.c == 1.0
    assert [ex.serialize(e) for e in per.f.entries] == ["0", "u1^(lambda + 1)"]
    assert per.h.kind == "zero"
    assert per.base.params["lambda"] == 1.0


def test_adjoint_scalar_symbolic():
    tilde = adjoint(gallery("gbm"))
    assert ex.serialize(tilde.drift[0][0]) == "b*b - a"
    assert ex.serialize(tilde.diffusion[0][0]) == "-b"
    # a = -1, b = 0.5: adjoint drift 0.25 + 1 = 1.25, diffusion -0.5
    assert tilde.drift_at(0.0)[0, 0] == pytest.approx(1.25)
    assert tilde.diffusion_at(0.0)[0, 0] == pytest.approx(-0.5)


def test_adjoint_matches_matrix_identity():
    for name in ("perron-sde", "triangular-2x2", "diag-2x2"):
        sys_ = gallery(name)
        tilde = adjoint(sys_)
        for t in (0.07, 1.0, 31.4):
            a, g = sys_.drift_at(t), sys_.diffusion_at(t)
            np.testing.assert_allclose(tilde.drift_at(t), (-a + g @ g).T, atol=1e-12)
            np.testing.assert_allclose(tilde.diffusion_at(t), -g.T, atol=1e-12)


def test_adjoint_of_adjoint_restores_drift():
    sys_ = gallery("diag-2x2")
    back = adjoint(adjoint(sys_))
    for t in (0.5, 5.0):
        np.testing.assert_allclose(back.drift_at(t), sys_.drift_at(t), atol=1e-12)
        np.testing.assert_allclose(back.diffusion_at(t), sys_.diffusion_at(t), atol=1e-12)


def test_block_diagonal_detection():
    assert gallery("diag-2x2").is_block_diagonal(1)
    assert gallery("perron-sde").is_block_diagonal(1)
    assert not gallery("triangular-2x2").is_block_diagonal(1)
    # full and empty projectors are always conformal
    assert gallery("triangular-2x2").is_block_diagonal(0)
    assert gallery("triangular-2x2").is_block_diagonal(2)


def test_upper_triangular_detection():
    assert gallery("triangular-2x2").is_upper_triangular()
    almost = LinearSde.from_strings(2, [["-1", "0"], ["t - t", "-2"]], GALLERY_STRINGS["perron-ode"]["G"])
    assert almost.is_upper_triangular()  # samples to exact zero
    lower = LinearSde.from_strings(2, [["-1", "0"], ["0.001*t", "-2"]], GALLERY_STRINGS["perron-ode"]["G"])
    assert not lower.is_upper_triangular()


def test_json_round_trip():
    sys_ = gallery("perron-sde")
    blob = json.dumps(to_dict(sys_), sort_keys=True)
    again = from_dict(json.loads(blob))
    assert to_dict(again) == to_dict(sys_)
    assert again.params == sys_.params


def test_from_dict_accepts_spaced_variants():
    loaded = from_dict({"dim": 1, "A": [["a+0"]], "G": [["0"]], "params": {"a": -1}})
    assert ex.serialize(loaded.drift[0][0]) == "a + 0"
    with pytest.raises(ModelError, match="dim/A/G"):
        from_dict({"dim": 1, "A": [["1"]]})


def test_from_dict_keeps_loading_numbers_written_as_strings_or_floats():
    # Only malformed values are refused: a dim of 2.0 or "2", numeric
    # entries and numeric parameter strings all load as before.
    loaded = from_dict({"dim": "2", "A": [[-1, "a"], [0.0, "-2"]],
                        "G": [["0", "0"], ["0", "0"]], "params": {"a": "1.5"}})
    assert loaded.dim == 2 and loaded.params == {"a": 1.5}
    assert loaded.drift_at(0.0).tolist() == [[-1.0, 1.5], [0.0, -2.0]]
    assert from_dict({"dim": 1.0, "A": [["-1"]], "G": [["0"]]}).dim == 1

def test_perturbation_validation():
    base = gallery("diag-2x2")
    with pytest.raises(ModelError, match="q must exceed 1"):
        PerturbedSde(base, PerturbationSpec.zero(), PerturbationSpec.zero(), c=1.0, q=1.0)
    with pytest.raises(ModelError, match="c must be positive"):
        PerturbedSde(base, PerturbationSpec.zero(), PerturbationSpec.zero(), c=0.0, q=2.0)
    with pytest.raises(ModelError, match="one expression per component"):
        PerturbedSde(base, PerturbationSpec.exprs(["u1"]), PerturbationSpec.zero(), c=1.0, q=2.0)
    with pytest.raises(ModelError, match="vanish at u = 0"):
        PerturbedSde(base, PerturbationSpec.exprs(["u1 + 1", "0"]), PerturbationSpec.zero(),
                     c=1.0, q=2.0)
    with pytest.raises(ModelError, match="exponent must be >= 2"):
        PerturbationSpec.power_clipped(1.0, 1.5, 1.0)
    with pytest.raises(ModelError, match="clip radius"):
        PerturbationSpec.power_clipped(1.0, 3.0, 0.0)


@pytest.mark.parametrize("name", model.GALLERY_NAMES)
def test_every_gallery_system_round_trips(name):
    blob = json.dumps(to_dict(gallery(name)), sort_keys=True)
    again = from_dict(json.loads(blob))
    assert type(again) is type(gallery(name))
    assert json.dumps(to_dict(again), sort_keys=True) == blob


def test_a_perturbed_object_loads_every_perturbation_kind():
    data = {"base": to_dict(gallery("diag-2x2")), "c": 2.0, "q": 1.5,
            "f": {"kind": "power_clipped", "coef": 0.5, "power": 3, "clip": 2},
            "h": {"kind": "expr", "entries": ["u1*u2", 0]}}
    loaded = from_dict(data)
    assert loaded.f == PerturbationSpec.power_clipped(0.5, 3.0, 2.0)
    assert loaded.h == PerturbationSpec.exprs(["u1*u2", "0"])
    assert (loaded.c, loaded.q) == (2.0, 1.5)
    assert to_dict(loaded)["h"] == {"kind": "expr", "entries": ["u1*u2", "0"]}


@pytest.mark.parametrize("change, message", [
    ({"c": 0.0}, "c must be positive"),
    ({"c": "x"}, "c must be a finite number"),
    ({"q": None}, "q must be a finite number"),
    ({"f": {"kind": "expr", "entries": ["u1 + 1", "0"]}}, "vanish at u = 0"),
    ({"f": {"kind": "expr", "entries": ["u1"]}}, "one expression per component"),
    ({"f": {"kind": "expr", "entries": "u1"}}, "entries must be a list"),
    ({"f": {"kind": "power_clipped", "coef": 1.0}}, "needs kind and its fields: 'power'"),
    ({"f": {"kind": "cubic"}}, "unknown perturbation kind 'cubic'"),
    ({"h": [1]}, "perturbation h needs kind"),
    ({"base": {"A": [["-1"]]}}, "needs dim/A/G"),
    ({"base": to_dict(gallery("perron-sde-perturbed"))}, "needs dim/A/G"),
])
def test_a_malformed_perturbed_object_is_refused(change, message):
    with pytest.raises(ModelError, match=message):
        from_dict({**to_dict(gallery("perron-sde-perturbed")), **change})


@pytest.mark.parametrize("data, message", [
    ({"dim": 1, "A": [["-1"]], "G": [["0.5"]], "parms": {"a": 3}, "B": [["9"]]},
     r"system object has unknown key\(s\) \['B', 'parms'\]; known: dim/params/A/G"),
    ({**to_dict(gallery("perron-sde-perturbed")), "Q": 2},
     r"perturbed system object has unknown key\(s\) \['Q'\]; known: base/c/q/f/h"),
    ({**to_dict(gallery("perron-sde-perturbed")),
      "base": {**to_dict(gallery("perron-sde")), "a": [["0"]]}},
     r"system object has unknown key\(s\) \['a'\]"),
    ({**to_dict(gallery("perron-sde-perturbed")), "h": {"kind": "zero", "coeff": 1}},
     r"perturbation h has unknown key\(s\) \['coeff'\]; known: kind/coef/power/clip/entries"),
])
def test_an_unknown_key_is_refused(data, message):
    # system.schema.json allows no other key; a misspelt one was once dropped.
    with pytest.raises(ModelError, match=message):
        from_dict(data)


def test_a_perturbed_object_needs_every_key():
    data = to_dict(gallery("perron-sde-perturbed"))
    del data["q"]
    with pytest.raises(ModelError, match="needs base/c/q/f/h: 'q'"):
        from_dict(data)

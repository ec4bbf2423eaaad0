import json

import numpy as np
import pytest

from rnn_sysid import teacher
from rnn_sysid.linalg import DimensionError
from rnn_sysid.teacher import (ParameterError, generate_dataset,
                               impulse_response, load_dataset,
                               random_stable_system, save_dataset, simulate,
                               stability_certificate)


def _sys(seed=0, rho_C=0.8):
    return random_stable_system(4, 3, 2, rho_C, seed)


def test_spectral_radius_is_exact():
    sys = _sys()
    eigs = np.abs(np.linalg.eigvals(sys.C))
    # C is rho_C times an orthogonal matrix, so every eigenvalue has
    # magnitude exactly rho_C
    np.testing.assert_allclose(eigs, 0.8, atol=1e-12)


def test_certificate_holds():
    sys = _sys(seed=5)
    c_est, ok = stability_certificate(sys, horizon=100)
    assert ok
    for k in range(0, 40, 7):
        Ck = np.linalg.matrix_power(sys.C, k)
        assert np.linalg.svd(Ck @ sys.D, compute_uv=False)[0] <= \
            c_est * sys.rho_C**k * (1 + 1e-9)


@pytest.mark.parametrize("seed, dims", [(0, (4, 2, 2)), (3, (6, 3, 2)),
                                        (7, (3, 5, 1))])
def test_certificate_is_the_exact_maximum(seed, dims):
    # c_rho against C^k D formed one product at a time, each norm the top
    # singular value of a full SVD: equal up to roundoff, so never a lower
    # estimate of the maximum
    sys = random_stable_system(*dims, 0.8, seed)
    M, ref = sys.D, 0.0
    for k in range(201):
        ref = max(ref, np.linalg.svd(M, compute_uv=False)[0] / 0.8**k)
        M = sys.C @ M
    assert abs(sys.c_rho - ref) <= 1e-14 * ref
    assert stability_certificate(sys, 200) == (sys.c_rho, True)


def test_invalid_rho_rejected():
    with pytest.raises(ParameterError):
        random_stable_system(4, 3, 2, 1.5, 0)


def test_simulate_matches_convolution():
    sys = _sys(seed=1)
    rng = np.random.default_rng(10)
    T = 12
    x = rng.normal(size=(T, sys.d))
    _, y = simulate(sys, x)
    H = impulse_response(sys, T)  # H[k] = G C^k D
    for t in range(T):
        expect = sum(H[k] @ x[t - k] for k in range(t + 1))
        np.testing.assert_allclose(y[t], expect, atol=1e-12)


def test_zero_input_zero_output():
    sys = _sys()
    P, Y = simulate(sys, np.zeros((8, sys.d)))
    np.testing.assert_allclose(P, 0.0)
    np.testing.assert_allclose(Y, 0.0)


def test_dataset_inputs_inside_unit_ball():
    sys = _sys()
    ds = generate_dataset(sys, "iid_gaussian_unit", 0.0, 15, 6, seed=2)
    for i in range(ds.K):
        assert np.max(np.linalg.norm(ds.inputs[i], axis=1)) <= 1.0 + 1e-12


def test_noiseless_dataset_observed_equals_clean():
    sys = _sys()
    ds = generate_dataset(sys, "iid_gaussian_unit", 0.0, 10, 4, seed=3)
    np.testing.assert_array_equal(ds.observed_outputs, ds.clean_outputs)


def test_noise_sigma_shifts_only_observed():
    sys = _sys()
    clean = generate_dataset(sys, "iid_gaussian_unit", 0.0, 10, 4, seed=3)
    noisy = generate_dataset(sys, "iid_gaussian_unit", 0.5, 10, 4, seed=3)
    np.testing.assert_array_equal(clean.clean_outputs, noisy.clean_outputs)
    np.testing.assert_array_equal(clean.inputs, noisy.inputs)
    assert not np.array_equal(clean.observed_outputs, noisy.observed_outputs)


def test_simulate_takes_one_sequence_only():
    with pytest.raises(DimensionError, match="inputs must be T x 3"):
        simulate(_sys(), np.zeros((5, 2, 3)))


def test_unknown_input_spec_rejected():
    with pytest.raises(ParameterError):
        generate_dataset(_sys(), "white_noise", 0.0, 5, 2, seed=0)


def test_dataset_roundtrip_bit_exact(tmp_path):
    sys = _sys(seed=9)
    ds = generate_dataset(sys, "iid_gaussian_unit", 0.1, 9, 5, seed=4)
    save_dataset(ds, sys, tmp_path / "ds")
    ds2, sys2 = load_dataset(tmp_path / "ds")
    np.testing.assert_array_equal(ds.inputs, ds2.inputs)
    np.testing.assert_array_equal(ds.observed_outputs, ds2.observed_outputs)
    np.testing.assert_array_equal(ds.clean_outputs, ds2.clean_outputs)
    np.testing.assert_array_equal(sys.C, sys2.C)
    assert ds.system_hash == ds2.system_hash == sys2.system_hash()


def _saved_dataset(path):
    sys = _sys(seed=9)
    ds = generate_dataset(sys, "iid_gaussian_unit", 0.1, 9, 5, seed=4)
    save_dataset(ds, sys, path)
    return path


def test_load_dataset_rejects_truncated_blob(tmp_path):
    path = _saved_dataset(tmp_path / "ds")
    blob = path / "observed_outputs.bin"
    data = blob.read_bytes()
    # K=5, T=9, d_y=2: one value short, one value over, then 3 stray bytes
    blob.write_bytes(data[:-8])
    with pytest.raises(IOError, match="blob observed_outputs has 89 values, "
                                      "expected 90"):
        load_dataset(path)
    blob.write_bytes(data + data[:8])
    with pytest.raises(IOError, match="has 91 values"):
        load_dataset(path)
    blob.write_bytes(data + data[:3])
    with pytest.raises(IOError, match="has 90.375 values, expected 90"):
        load_dataset(path)


def test_load_dataset_rejects_edited_system(tmp_path):
    path = _saved_dataset(tmp_path / "ds")
    C = np.fromfile(path / "C.bin", dtype="<f8")
    C[0] += 1e-3
    C.tofile(path / "C.bin")
    with pytest.raises(IOError, match="system_hash"):
        load_dataset(path)


def _negative_K_T(meta):
    # K * T stays 45, so every blob still holds as many values as it says
    meta.update(K=-5, T=-9)
    for name in ("inputs", "observed_outputs", "clean_outputs"):
        meta["blobs"][name]["shape"][:2] = [-5, -9]


def test_load_dataset_rejects_malformed_meta(tmp_path):
    edits = [
        (lambda h: h.pop("rho_C"), "lacks key 'rho_C'"),
        (lambda h: h.update(rho_C="abc"), "rho_C must be a number in text"),
        (lambda h: h.update(c_rho=0.5), "c_rho must be a number in text, got 0.5"),
        (lambda h: h.update(noise_sigma=""), "noise_sigma must be a number in text"),
        (lambda h: h.update(seed="4x"), "seed must be an integer"),
        (lambda h: h.update(input_spec=3), "input_spec must be a string, got 3"),
        (lambda h: h.pop("system_hash"), "lacks key 'system_hash'"),
        (lambda h: h.update(T=9.0), "T must be an integer, got 9.0"),
        (_negative_K_T, "negative dimension K, T"),
        (lambda h: h.update(blobs="C.bin"), "blobs must be an object, got 'C.bin'"),
        (lambda h: h["blobs"]["C"].update(length=7), "blob C has length 7, expected 16"),
    ]
    path = tmp_path / "ds"
    for edit, message in edits:
        _saved_dataset(path)
        meta = json.loads((path / "meta.json").read_text())
        edit(meta)
        (path / "meta.json").write_text(json.dumps(meta))
        with pytest.raises(IOError, match=message):
            load_dataset(path)


def test_load_dataset_refuses_format_1(tmp_path):
    # format 1 kept the system in meta.json and the sequences in data.csv
    path = tmp_path / "ds"
    path.mkdir()
    (path / "meta.json").write_text(json.dumps({"format_version": 1}))
    (path / "data.csv").write_text("i,t,x0,y0,ytilde0\n0,0,1,2,2\n")
    with pytest.raises(IOError, match=r"format_version 1, expected 2"):
        load_dataset(path)


def test_random_stable_system_raises_when_certificate_fails(monkeypatch):
    monkeypatch.setattr(teacher, "stability_certificate",
                        lambda sys, horizon: (1.0, False))
    with pytest.raises(ParameterError):
        random_stable_system(4, 3, 2, 0.8, 0)

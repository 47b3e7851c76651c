import numpy as np
import pytest

from driftcast import (build_adapter, build_model, load_adapter, load_model,
                       save_adapter, save_model)
from driftcast.checkpoint import MAGIC, read_blocks, write_blocks


def test_round_trip_preserves_bits_and_order(tmp_path):
    rng = np.random.default_rng(0)
    params = [("alpha.weight", rng.standard_normal((3, 4))),
              ("alpha.bias", rng.standard_normal(3)),
              ("beta.weight", np.array([[1e-300, -0.0], [np.pi, 2.0 / 3.0]]))]
    path = str(tmp_path / "blocks.ckpt")
    write_blocks(path, {"kind": "test", "note": "x"}, params)
    meta, loaded = read_blocks(path)
    assert meta == {"kind": "test", "note": "x"}
    assert list(loaded) == ["alpha.weight", "alpha.bias", "beta.weight"]
    np.testing.assert_array_equal(loaded["alpha.weight"], params[0][1])
    np.testing.assert_array_equal(loaded["alpha.bias"].reshape(-1), params[1][1])
    np.testing.assert_array_equal(loaded["beta.weight"], params[2][1])


def test_file_is_textual_with_magic_and_shapes(tmp_path):
    path = str(tmp_path / "b.ckpt")
    write_blocks(path, {"kind": "t"}, [("w", np.zeros((2, 3)))])
    lines = open(path).read().splitlines()
    assert lines[0] == MAGIC
    assert "meta kind t" in lines
    assert any(l.startswith("param w 2 3") for l in lines)


def test_foreign_file_rejected(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_text("something else\n")
    with pytest.raises(ValueError, match="checkpoint"):
        read_blocks(str(path))


def write_two_params(tmp_path):
    path = tmp_path / "two.ckpt"
    write_blocks(str(path), {"kind": "t"}, [("w", np.ones((2, 3))),
                                            ("b", np.ones((2, 2)))])
    return path


def test_truncated_param_block_names_path_and_param(tmp_path):
    path = write_two_params(tmp_path)
    path.write_text("\n".join(path.read_text().splitlines()[:-1]) + "\n")
    with pytest.raises(ValueError, match=r"two\.ckpt: param 'b' is cut short"):
        read_blocks(str(path))


def test_short_row_names_path_and_param(tmp_path):
    path = write_two_params(tmp_path)
    lines = path.read_text().splitlines()
    lines[3] = lines[3].rsplit(" ", 1)[0]          # first row of w
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=r"two\.ckpt: param 'w' row 0 holds 2"):
        read_blocks(str(path))


def saved_lines(tmp_path, kind):
    path = tmp_path / f"{kind}.ckpt"
    if kind == "model":
        save_model(build_model(L=6, k=2, d=3, n_blocks=3, seed=0), str(path))
    else:
        save_adapter(build_adapter(3, seed=0), str(path))
    return path, path.read_text().splitlines()


@pytest.mark.parametrize("kind", ["model", "adapter"])
def test_missing_param_names_path_and_param(tmp_path, kind):
    path, lines = saved_lines(tmp_path, kind)
    load = load_model if kind == "model" else load_adapter
    # drop the last param: its header and its one bias row
    path.write_text("\n".join(lines[:-2]) + "\n")
    name = lines[-2].split()[1]
    with pytest.raises(ValueError, match=rf"{kind}\.ckpt: no param '{name}'"):
        load(str(path))


def first_weight_row(lines):
    return lines.index("param blocks.0.weight 3 6") + 1


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_non_finite_value_names_path_and_param(tmp_path, bad):
    path, lines = saved_lines(tmp_path, "model")
    r = first_weight_row(lines)
    lines[r] = " ".join([bad] + lines[r].split()[1:])
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=r"model\.ckpt: param 'blocks\.0\.weight' "
                                         r"row 0 holds a non-finite value"):
        load_model(str(path))


def test_non_number_names_path_param_and_row(tmp_path):
    path = write_two_params(tmp_path)
    lines = path.read_text().splitlines()
    lines[4] = "abc " + lines[4].split(" ", 1)[1]      # second row of w
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=r"two\.ckpt: param 'w' row 1: .*'abc'"):
        read_blocks(str(path))


def test_missing_meta_key_names_path_and_key(tmp_path):
    path, lines = saved_lines(tmp_path, "model")
    lines.remove("meta blocks 3")
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=r"model\.ckpt: no meta key 'blocks'"):
        load_model(str(path))


@pytest.mark.parametrize("index, text, message", [
    (2, "param w -1 3", r"line 3: 'param w -1 3' is not 'param <name>"),
    (2, "param w 2", r"line 3: 'param w 2' is not 'param <name>"),
    (2, "param w x 3", r"line 3: 'param w x 3' is not 'param <name>"),
    (1, "meta kind", r"line 2: meta line 'meta kind' has no value"),
    (5, "param w 2 2", r"line 6: param 'w' repeated"),
    (1, "meta kind t\nmeta kind u", r"line 3: meta key 'kind' repeated"),
], ids=["negative-rows", "no-cols", "non-int-rows", "meta-no-value",
        "param-repeated", "meta-repeated"])
def test_damaged_header_line_names_path_and_line(tmp_path, index, text, message):
    path = write_two_params(tmp_path)
    lines = path.read_text().splitlines()
    lines[index] = text
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=r"two\.ckpt: " + message):
        read_blocks(str(path))


@pytest.mark.parametrize("kind, key, bad, want", [
    ("model", "L", "eight", "an integer"),
    ("model", "k", "2.0", "an integer"),
    ("model", "blocks", "", "an integer"),
    ("model", "tap_index", "x", "an integer"),
    ("adapter", "use_feat", "yes", "0 or 1"),
    ("adapter", "use_grad", "5", "0 or 1"),
    ("adapter", "use_feat", "-1", "0 or 1"),
    ("adapter", "use_grad", "01", "0 or 1"),
])
def test_bad_meta_value_names_path_and_key(tmp_path, kind, key, bad, want):
    path, lines = saved_lines(tmp_path, kind)
    i = next(i for i, line in enumerate(lines) if line.startswith(f"meta {key} "))
    lines[i] = f"meta {key} {bad}"
    path.write_text("\n".join(lines) + "\n")
    load = load_model if kind == "model" else load_adapter
    with pytest.raises(ValueError, match=rf"{kind}\.ckpt: meta key '{key}' "
                                         rf"is '{bad}', not {want}"):
        load(str(path))



@pytest.mark.parametrize("key, bad, message", [
    ("blocks", "2", r"param 'blocks\.2\.weight' is not in the 2 blocks of "
                    r"meta key 'blocks'"),
    ("blocks", "4", r"no param 'blocks\.3\.weight'"),
    ("blocks", "0", r"meta key 'blocks' is 0, need at least 1"),
    ("blocks", "-1", r"meta key 'blocks' is -1, need at least 1"),
    ("L", "5", r"meta key 'L' is '5', but the params give 6"),
    ("k", "3", r"meta key 'k' is '3', but the params give 2"),
    ("d", "4", r"meta key 'd' is '4', but the params give 3"),
    ("tap_index", "7", r"meta key 'tap_index' is 7, outside \[0, 3\)"),
    ("tap_index", "-1", r"meta key 'tap_index' is -1, outside \[0, 3\)"),
], ids=["blocks-fewer", "blocks-more", "blocks-zero", "blocks-negative",
        "L", "k", "d", "tap-past", "tap-negative"])
def test_meta_that_disagrees_with_params_names_path_and_key(tmp_path, key, bad,
                                                             message):
    path, lines = saved_lines(tmp_path, "model")
    i = next(i for i, line in enumerate(lines) if line.startswith(f"meta {key} "))
    lines[i] = f"meta {key} {bad}"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=r"model\.ckpt: " + message):
        load_model(str(path))


def test_layer_reads_one_layer(tmp_path):
    path = str(tmp_path / "layers.ckpt")
    write_blocks(path, {"kind": "t"}, [("x.weight", np.ones((2, 3))),
                                       ("x.bias", np.zeros(2)),
                                       ("y.weight", np.zeros((1, 1))),
                                       ("y.bias", np.zeros(1))])
    _, params = read_blocks(path)
    layer = params.layer("x")
    np.testing.assert_array_equal(layer.weight, np.ones((2, 3)))
    assert layer.bias.shape == (2,)


@pytest.mark.parametrize("kind, name", [("model", "head"), ("adapter", "hidden")])
def test_bias_longer_than_weight_names_path_and_param(tmp_path, kind, name):
    path, lines = saved_lines(tmp_path, kind)
    i = next(i for i, line in enumerate(lines)
             if line.startswith(f"param {name}.bias 1 "))
    rows = int(lines[i].split()[-1])
    lines[i] = f"param {name}.bias 1 {rows + 1}"
    lines[i + 1] += " 0.5"
    path.write_text("\n".join(lines) + "\n")
    load = load_model if kind == "model" else load_adapter
    with pytest.raises(ValueError, match=rf"{kind}\.ckpt: param '{name}\.bias': "
                                         rf"bias length {rows + 1} != weight rows {rows}"):
        load(str(path))


def test_adapter_widths_that_disagree_name_the_path(tmp_path):
    a = build_adapter(3, seed=0)
    params = dict(a.named_params())
    params["hidden.weight"] = np.ones((a.h + 1, a.h))   # path_feat gives a.h rows
    params["hidden.bias"] = np.zeros(a.h + 1)
    path = tmp_path / "adapter.ckpt"
    write_blocks(str(path), {"kind": "adapter", "d": "3", "h": str(a.h),
                             "use_feat": "1", "use_grad": "1"}, list(params.items()))
    with pytest.raises(ValueError, match=r"adapter\.ckpt: path/hidden widths disagree"):
        load_adapter(str(path))


def test_params_that_do_not_chain_name_the_path(tmp_path):
    model = build_model(L=6, k=2, d=3, n_blocks=3, seed=0)
    params = dict(model.named_params())
    params["blocks.1.weight"] = np.ones((3, 4))     # block 0 gives 3 columns
    path = tmp_path / "model.ckpt"
    write_blocks(str(path), {"kind": "forecaster", "L": "6", "k": "2", "d": "3",
                             "blocks": "3", "tap_index": "1"}, list(params.items()))
    with pytest.raises(ValueError, match=r"model\.ckpt: block 1 in_dim != block 0"):
        load_model(str(path))

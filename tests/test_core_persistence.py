"""Persistence round trips and corrupt-input rejection for model bundles."""

import pickle

import numpy as np
import pytest

from repro.core import LiteForm, generate_training_data
from repro.core.persistence import MAGIC, load_liteform, save_liteform
from repro.matrices import SuiteSparseLikeCollection, power_law_graph


@pytest.fixture(scope="module")
def fitted():
    coll = SuiteSparseLikeCollection(size=6, max_rows=2500, seed=123)
    return LiteForm(block_multiple=4, bcsr_occupancy_threshold=0.4).fit(
        generate_training_data(coll, J_values=(32,))
    )


class TestRoundTrip:
    def test_round_trip_preserves_plans_and_config(self, tmp_path, fitted):
        path = tmp_path / "models.pkl"
        save_liteform(fitted, path)
        loaded = load_liteform(path)
        assert loaded._fitted
        assert loaded.block_multiple == 4
        assert loaded.bcsr_occupancy_threshold == 0.4
        for seed in (1, 2):
            A = power_law_graph(600, 7, seed=seed)
            a = fitted.compose(A, 32)
            b = loaded.compose(A, 32)
            assert a.use_cell == b.use_cell
            assert a.num_partitions == b.num_partitions
            assert a.max_widths == b.max_widths

    def test_loaded_models_execute(self, tmp_path, fitted):
        path = tmp_path / "models.pkl"
        save_liteform(fitted, path)
        loaded = load_liteform(path)
        A = power_law_graph(400, 6, seed=3)
        B = np.random.default_rng(0).standard_normal((A.shape[1], 32)).astype(np.float32)
        plan = loaded.compose(A, 32)
        C, m = loaded.run(plan, B)
        assert C.shape == (A.shape[0], 32) and m.time_s > 0

    def test_unfitted_save_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unfitted"):
            save_liteform(LiteForm(), tmp_path / "x.pkl")


class _Stale:
    """Stands in for a class a v1 bundle pickled and this version removed."""


class TestCorruptInputs:
    def test_non_bundle_pickle_rejected(self, tmp_path):
        path = tmp_path / "junk.pkl"
        with path.open("wb") as fh:
            pickle.dump({"surprise": 42}, fh)
        with pytest.raises(ValueError, match="not a saved LiteForm model bundle"):
            load_liteform(path)

    def test_non_dict_pickle_rejected(self, tmp_path):
        path = tmp_path / "list.pkl"
        with path.open("wb") as fh:
            pickle.dump(["nothing", "useful"], fh)
        with pytest.raises(ValueError, match="not a saved LiteForm model bundle"):
            load_liteform(path)

    def test_wrong_magic_names_both_tags(self, tmp_path, fitted):
        path = tmp_path / "old.pkl"
        save_liteform(fitted, path)
        with path.open("rb") as fh:
            payload = pickle.load(fh)
        payload["magic"] = "repro-liteform-v0"
        with path.open("wb") as fh:
            pickle.dump(payload, fh)
        with pytest.raises(ValueError) as exc:
            load_liteform(path)
        message = str(exc.value)
        assert "repro-liteform-v0" in message  # what was found
        assert MAGIC in message  # what was expected

    def test_v1_bundle_naming_removed_node_class_rejected(self, tmp_path):
        # v1 bundles pickled the trees' `repro.ml.tree._Node` objects.
        blob = pickle.dumps({"magic": "repro-liteform-v1", "selector": _Stale()}, protocol=0)
        stale = f"{_Stale.__module__}\n{_Stale.__qualname__}\n".encode()
        assert stale in blob
        path = tmp_path / "v1.pkl"
        path.write_bytes(blob.replace(stale, b"repro.ml.tree\n_Node\n"))
        with pytest.raises(ValueError, match="re-save") as exc:
            load_liteform(path)
        assert MAGIC == "repro-liteform-v2" and MAGIC in str(exc.value)
        assert "_Node" in str(exc.value)

    def test_truncated_bundle_rejected(self, tmp_path, fitted):
        path = tmp_path / "cut.pkl"
        save_liteform(fitted, path)
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        with pytest.raises(ValueError, match="re-save") as exc:
            load_liteform(path)
        assert MAGIC in str(exc.value)

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_liteform(tmp_path / "nope.pkl")

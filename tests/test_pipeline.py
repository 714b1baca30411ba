"""ExperimentConfig refuses what run_generation_classification cannot run."""

import numpy as np
import pytest

from gmmcloud.pipeline import GENERATED_COUNTS, ExperimentConfig


def test_experiment_config_takes_numpy_integers():
    config = ExperimentConfig(base_shapes_per_class=np.int64(2), n_points=np.int32(120),
                              generated_counts={"demented": np.int64(3), "nondemented": 4},
                              seed=np.uint8(1), probe_seeds=(np.int64(0), -1))
    assert config.base_shapes_per_class == 2


# field -> (bad values, the message each must get)
BAD_FIELDS = {
    "base_shapes_per_class": ([0, 1.5, True], r"^base_shapes_per_class must be "),
    "generated_counts": ([{**GENERATED_COUNTS, "demented": 0},
                          {**GENERATED_COUNTS, "nondemented": 2.5},
                          {"healthy": 2, "demented": 2}, {"demented": 2}],
                         r"^generated_counts(\['(demented|nondemented)'\] must be "
                         r"| must count the classes \['demented', 'nondemented'\], got )"),
    "candidate_ks": ([(), (2.5,), (0,), (700,)], r"^candidate_ks(\[0\])? must "),
    "n_points": ([0, 600.0], r"^n_points must be "),
    "seed": ([1.5, None], r"^seed must be an integer"),
    "probe_seeds": ([(), (0, 1.5)], r"^probe_seeds(\[1\])? must "),
}


@pytest.mark.parametrize("field", BAD_FIELDS)
def test_experiment_config_refuses_a_bad_field_by_name(field):
    values, message = BAD_FIELDS[field]
    for value in values:
        with pytest.raises(ValueError, match=message):
            ExperimentConfig(**{field: value})


def test_experiment_config_refuses_a_k_above_n_points():
    assert ExperimentConfig(n_points=100, candidate_ks=(2, 100)).candidate_ks == (2, 100)
    with pytest.raises(ValueError, match=r"^candidate_ks\[1\] must be <= n_points \(100\), got 700$"):
        ExperimentConfig(n_points=100, candidate_ks=(2, 700))

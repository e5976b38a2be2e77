import numpy as np
import pytest

from isingmarket import IsingModel
from isingmarket.errors import FormatError


@pytest.mark.parametrize("make, message", [
    (lambda: IsingModel(J=np.zeros(4), h=np.zeros(2)), "square"),
    (lambda: IsingModel(J=np.zeros((2, 2)), h=np.zeros(3)), "length"),
    (lambda: IsingModel(J=np.array([[0.0, np.inf], [np.inf, 0.0]]), h=np.zeros(2)), "finite"),
    (lambda: IsingModel(J=np.array([[0.0, 1.0], [0.5, 0.0]]), h=np.zeros(2)), "symmetric"),
    (lambda: IsingModel(J=np.eye(2), h=np.zeros(2)), "diagonal"),
    (lambda: IsingModel.from_dict({"N": 2, "h": [0.0, 0.0], "J": [0.0, 0.0, 0.0]}), "entries"),
])
def test_malformed_models_are_format_errors(make, message):
    with pytest.raises(FormatError, match=message):
        make()

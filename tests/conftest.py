import numpy as np
import pytest

from hoferbilliards import FourierSupportSpec, build_fourier_table, disc_table


@pytest.fixture(scope="session")
def disc():
    return disc_table()


@pytest.fixture(scope="session")
def mild_ellipse():
    # support bulge along the x-axis: major axis endpoints at q = 0, 1/2
    return build_fourier_table(FourierSupportSpec(1.0, cos=[0.0, 0.03]))


def random_support_spec(rng, harmonics=4, amplitude=0.03):
    """Admissible random support spec; rejection-samples until convex."""
    for _ in range(100):
        spec = FourierSupportSpec(
            1.0,
            cos=rng.uniform(-amplitude, amplitude, harmonics),
            sin=rng.uniform(-amplitude, amplitude, harmonics),
        )
        theta = np.linspace(0, 2 * np.pi, 512, endpoint=False)
        if spec.rho(theta).min() > 0.02:
            return spec
    raise AssertionError("could not sample a convex support spec")


@pytest.fixture
def spec_factory():
    return random_support_spec


@pytest.fixture(scope="session")
def native_tables(disc, mild_ellipse):
    """One table per native parametrization: identity, theta, u and the two wrappers."""
    from hoferbilliards import SampledCurve, rigid_motion, shift_mark

    oval = build_fourier_table(
        FourierSupportSpec(1.0, cos=[0.0, 0.03, 0.01, -0.008], sin=[0.0, 0.0, 0.012])
    )

    def bumpy(u):
        return mild_ellipse.position(u) + 0.002 * np.cos(6 * np.pi * u)[:, None] * mild_ellipse.normal(u)

    return {
        "disc": disc,
        "mild_ellipse": mild_ellipse,
        "sampled": SampledCurve.from_function(bumpy, samples=129),
        "mark_shifted": shift_mark(oval, 0.37),
        "rigid": rigid_motion(oval, 1.1, (0.4, -0.2)),
    }

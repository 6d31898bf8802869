"""The paper's simulation design, as the benchmark's workloads use it.

T=7 periods, G=2 groups with scales (0.219, 0.086) and shares
(0.64, 0.36), a lagged outcome plus one AR(1) covariate (p=2), the effect
paths of the README's process description.
"""

import numpy as np

N_PERIODS = 7
N_GROUPS = 2
THETA = [0.554, 0.062]
ALPHA = [
    [0.0, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3],
    [0.25, 0.3, 0.35, 0.4, 0.45, 0.5, 0.55],
]
SIGMA = [0.219, 0.086]
SHARES = [0.64, 0.36]
AR1 = {"kind": "ar1", "rho": 0.9, "innovation_sd": 0.5}


def spec_dict(n_units):
    """The design as a ``wgfe simulate`` process description."""
    return {
        "n_units": int(n_units),
        "n_periods": N_PERIODS,
        "n_groups": N_GROUPS,
        "theta_true": THETA,
        "alpha_true": ALPHA,
        "sigma_true": SIGMA,
        "group_probs": SHARES,
        "covariate_law": AR1,
        "dynamic": True,
    }


def spec(n_units):
    """The design as a :class:`wgfe.simlab.SimulationSpec`."""
    from wgfe.simlab import AR1Covariates, SimulationSpec

    return SimulationSpec(
        n_units=n_units,
        n_periods=N_PERIODS,
        n_groups=N_GROUPS,
        theta_true=np.array(THETA),
        alpha_true=np.array(ALPHA),
        sigma_true=np.array(SIGMA),
        group_probs=np.array(SHARES),
        covariate_law=AR1Covariates(AR1["rho"], AR1["innovation_sd"]),
        dynamic=True,
    )


def study_panel(n_units, cli_seed):
    """The first replication's panel of ``wgfe simulate --seed cli_seed``.

    ``run_study`` draws replication k from child k of the root generator.
    """
    from wgfe.simlab import generate

    rng = np.random.default_rng(cli_seed).spawn(1)[0]
    return generate(spec(n_units), rng)

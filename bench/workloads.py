"""The benchmark's workloads: a synth scenario plus an analyze config.

Every input is made by ``quantcord synth`` from the benchmark seed, so the
same seed gives the same CSV files.  A run analyses ``datasets`` independent
draws (scenario seeds ``seed * 1000 + i``) and reports a typical one,
because the cost of one draw depends on it: at the n = 1e3 tails about one
draw in four has replicates whose step-2 Newton fit runs to its 100-iteration
cap, each such replicate costing about 20 ordinary ones.
"""

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Workload:
    """One named input family, analysed with the bootstrap on.

    ``phi_tol`` bounds ``|phi_hat - oracle phi|`` over taus and grid rows
    at 1.5 times the largest sampling error seen over ten seeds (0.40 and
    0.59), so an unlucky draw does not trip it.  At these sample sizes the
    grid ends carry little information, so it catches gross errors only.
    """

    name: str
    n: int
    taus: list
    covariates: list
    coefficients: dict
    step1_terms: list
    step2_terms: list
    replicates: int
    workers: int
    datasets: int
    phi_tol: float
    rho: float = None
    rho_by_group: dict = None
    merged: bool = False
    binary: list = field(default_factory=list)
    grid_points: int = None

    def scenario(self, data_seed):
        """The ``quantcord synth`` config of one draw."""
        out = {
            "n": self.n,
            "seed": data_seed,
            "covariates": self.covariates,
            "coefficients": self.coefficients,
            "taus": self.taus,
        }
        if self.rho_by_group is not None:
            out["rho_by_group"] = self.rho_by_group
        else:
            out["rho"] = self.rho
        return out

    def run_config(self, csv_name, boot_seed):
        """The ``quantcord analyze`` config of one draw."""
        out = {
            "input": csv_name,
            "responses": ["y1", "y2"],
            "taus": self.taus,
            "merged": self.merged,
            "binary": self.binary,
            "step1_terms": self.step1_terms,
            "step2_terms": self.step2_terms,
            "bootstrap": {
                "enabled": True,
                "replicates": self.replicates,
                "seed": boot_seed,
                "workers": self.workers,
            },
        }
        if self.grid_points is not None:
            out["grid"] = {"points": self.grid_points}
        return out

    def attempts(self):
        """Fits attempted by one analyze: per tau, the full-sample fit plus
        every bootstrap replicate."""
        return len(self.taus) * (1 + self.replicates)


WORKLOADS = {
    w.name: w
    for w in (
        # The paper's headline use: group-dependent tail coupling with bands.
        # Time is spent in replicates (quantreg ~83%, multinomial ~15%).
        Workload(
            name="boot-n5k-groups",
            n=5000,
            taus=[0.1, 0.5, 0.9],
            rho_by_group={"column": "g", "values": [0.2, 0.8]},
            covariates=[
                {"name": "x", "kind": "uniform", "low": 0.0, "high": 1.0},
                {"name": "g", "kind": "binary", "p": 0.5},
            ],
            coefficients={
                "y1": {"intercept": 0.5, "x": 1.0, "g": 0.5},
                "y2": {"intercept": -0.5, "x": 2.0, "g": -0.5},
            },
            binary=["g"],
            step1_terms=[{"column": "x"}, {"column": "g"}],
            step2_terms=[{"column": "g"}, {"column": "x", "transform": "spline"}],
            grid_points=50,
            replicates=5,
            workers=1,
            datasets=8,
            phi_tol=0.6,
        ),
        # Many cheap replicates in a process pool at rare-cell tails, through
        # the pooled K = 2 multinomial: per-replicate fixed cost, pool
        # start-up, pickling and chunking dominate.
        Workload(
            name="boot-n1k-tails-merged",
            n=1000,
            taus=[0.05, 0.95],
            rho=0.6,
            covariates=[{"name": "x", "kind": "uniform", "low": 0.0, "high": 1.0}],
            coefficients={
                "y1": {"intercept": 0.5, "x": 1.0},
                "y2": {"intercept": -0.5, "x": 2.0},
            },
            merged=True,
            step1_terms=[{"column": "x"}],
            step2_terms=[{"column": "x"}],
            replicates=10,
            workers=2,
            datasets=24,
            phi_tol=0.9,
        ),
    )
}


"""Chlorine-like dataset: propagation through a simulated water network.

The paper's Chlorine dataset comes from an EPANET simulation of a drinking
water distribution system: the chlorine concentration at 166 junctions over
4310 time points at a 5-minute sample rate.  Its defining property — the
reason the paper uses it — is that the propagation of the chlorine front
through the network introduces *phase shifts* between junctions, which breaks
the linear-correlation assumption of SVD/PCA-style methods.

We reproduce that mechanism directly: a random water network is built with
``networkx``, a daily demand-driven injection pattern is applied at one or
more source nodes, and the concentration at every junction is the delayed and
attenuated mixture of the concentrations of its upstream neighbours.  The
per-edge travel delays produce exactly the phase shifts of the original data;
the mixing at junctions produces the smooth, correlated-but-shifted behaviour
visible in the paper's Fig. 9d.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional

import numpy as np

from ..exceptions import DatasetError
from ..streams.series import TimeSeries
from .base import Dataset

if TYPE_CHECKING:  # networkx is imported where a network is built
    import networkx as nx

__all__ = ["generate_chlorine", "build_water_network"]

#: Sample period of the Chlorine series (minutes).
CHLORINE_SAMPLE_PERIOD_MINUTES = 5.0

#: Length of the original dataset (points); kept as the default.
CHLORINE_DEFAULT_LENGTH = 4310


def build_water_network(
    num_junctions: int,
    seed: Optional[int] = None,
    branching: int = 2,
) -> "nx.DiGraph":
    """Build a random tree-shaped water distribution network.

    The network is a directed tree rooted at the source node ``0``: water (and
    the chlorine dissolved in it) flows from the root towards the leaves.
    Each edge carries a travel delay (in samples) and a decay factor.

    Parameters
    ----------
    num_junctions:
        Total number of junctions including the source.
    seed:
        Seed for the random topology, delays and decay factors.
    branching:
        Average number of downstream junctions per junction.
    """
    if num_junctions < 2:
        raise DatasetError(f"num_junctions must be >= 2, got {num_junctions}")
    import networkx as nx

    rng = np.random.default_rng(seed)
    graph = nx.DiGraph()
    graph.add_node(0)
    for node in range(1, num_junctions):
        # Attach each new junction to a random existing one, preferring
        # recently added nodes to get realistic pipe chains.
        window = max(1, branching * 3)
        low = max(0, node - window)
        parent = int(rng.integers(low, node))
        delay = int(rng.integers(3, 30))           # 15 minutes .. 2.5 hours
        decay = float(rng.uniform(0.90, 0.99))     # chlorine decays along the pipe
        graph.add_edge(parent, node, delay=delay, decay=decay)
    return graph


def _injection_pattern(
    num_points: int, rng: np.random.Generator, base_level: float
) -> np.ndarray:
    """Daily demand-driven chlorine injection at the source node."""
    minutes = np.arange(num_points) * CHLORINE_SAMPLE_PERIOD_MINUTES
    minutes_of_day = minutes % 1440.0
    # Two demand peaks (morning, evening) modulate the dosing, as in the
    # EPANET scenario behind the original dataset.
    morning = np.exp(-0.5 * ((minutes_of_day - 8 * 60.0) / 120.0) ** 2)
    evening = np.exp(-0.5 * ((minutes_of_day - 19 * 60.0) / 150.0) ** 2)
    day_index = (minutes // 1440.0).astype(int)
    num_days = int(day_index.max()) + 1
    day_factors = rng.uniform(0.9, 1.1, size=num_days)
    pattern = base_level * (0.35 + 0.65 * (morning + 0.8 * evening)) * day_factors[day_index]
    return pattern


def generate_chlorine(
    num_series: int = 20,
    num_points: int = CHLORINE_DEFAULT_LENGTH,
    seed: Optional[int] = 2017,
    base_level: float = 0.2,
    noise_std: float = 0.002,
    num_junctions: Optional[int] = None,
) -> Dataset:
    """Generate a Chlorine-like dataset by simulating propagation in a network.

    Parameters
    ----------
    num_series:
        Number of junction series returned (the original dataset has 166;
        the evaluation only ever uses a handful of reference series, so a
        smaller default keeps the experiments fast).
    num_points:
        Number of 5-minute samples (original: 4310 ≈ 15 days).
    seed:
        Random seed for the network topology and noise.
    base_level:
        Peak chlorine concentration at the source (mg/L); the original data
        ranges roughly within [0, 0.2].
    noise_std:
        Standard deviation of the per-sample sensor noise.
    num_junctions:
        Size of the simulated network; defaults to ``max(2 * num_series, 40)``
        so the returned junctions sit at varied network depths.

    Returns
    -------
    Dataset
        Series named ``"junction000"`` ... with values clipped to be
        non-negative.
    """
    if num_series < 2:
        raise DatasetError(f"num_series must be >= 2, got {num_series}")
    if num_points < 2:
        raise DatasetError(f"num_points must be >= 2, got {num_points}")

    import networkx as nx

    rng = np.random.default_rng(seed)
    total_junctions = num_junctions or max(2 * num_series, 40)
    network = build_water_network(total_junctions, seed=seed)
    injection = _injection_pattern(num_points, rng, base_level)

    # Propagate concentrations from the source down the tree in topological
    # order; each junction receives the delayed, decayed value of its parent.
    concentrations: Dict[int, np.ndarray] = {0: injection}
    for node in nx.topological_sort(network):
        if node == 0:
            continue
        parents = list(network.predecessors(node))
        mixed = np.zeros(num_points)
        for parent in parents:
            edge = network.edges[parent, node]
            delayed = np.roll(concentrations[parent], edge["delay"])
            # The first `delay` samples have no upstream history yet; hold the
            # initial concentration instead of wrapping around the roll.
            delayed[: edge["delay"]] = concentrations[parent][0] * edge["decay"]
            mixed += edge["decay"] * delayed
        concentrations[node] = mixed / max(len(parents), 1)

    # Return junctions spread over the network (including deep ones, which
    # carry the largest phase shifts relative to the source).
    ordered_nodes = list(nx.topological_sort(network))
    step = max(1, len(ordered_nodes) // num_series)
    selected = ordered_nodes[::step][:num_series]
    if len(selected) < num_series:
        selected = ordered_nodes[:num_series]

    series: List[TimeSeries] = []
    for idx, node in enumerate(selected):
        noisy = concentrations[node] + rng.normal(0.0, noise_std, size=num_points)
        values = np.clip(noisy, 0.0, None)
        depth = nx.shortest_path_length(network.to_undirected(), 0, node)
        series.append(
            TimeSeries(
                name=f"junction{idx:03d}",
                values=values,
                sample_period_minutes=CHLORINE_SAMPLE_PERIOD_MINUTES,
                metadata={"network_node": int(node), "depth": int(depth)},
            )
        )
    return Dataset(
        name="chlorine",
        series=series,
        metadata={
            "description": "synthetic Chlorine-like water-network concentrations",
            "num_points": num_points,
            "num_junctions": total_junctions,
            "seed": seed,
        },
    )

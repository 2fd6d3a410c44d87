"""Table 2 parameter grid (defaults in bold in the paper)."""
from __future__ import annotations

from dataclasses import dataclass, field

FLOORS = (3, 5, 7, 9)
OBJECTS = (300, 600, 900, 1200, 1500)
TI = (5.0, 10.0, 15.0, 20.0)
S2T = (900.0, 1100.0, 1300.0, 1500.0, 1700.0)


@dataclass(frozen=True)
class Settings:
    """One experiment configuration (defaults = the paper's bold values)."""

    floors: int = 5
    obj_max: int = 600          # |o|: per-partition initial population bound
    ti: float = 10.0            # unit update interval (s)
    s2t: float = 1300.0         # source-target distance (m)
    n_instances: int = 100      # query instances per configuration
    t_q: float = 300.0          # query time (s past counter alignment)
    history_window: int = 30    # ticks of flow history kept for Strategy NT
    space_seed: int = 7
    sim_seed: int = 23
    query_seed: int = 17

    @property
    def tick_l(self) -> int:
        """Latest update tick at/just before t_q (doors align at tick 0)."""
        return int(self.t_q // self.ti)

"""SLA-governed transition strategies (paper §VII future work).

The paper's closing sketch: in a cloud setting, cores would be "accessed
as needed, like meeting service level agreements (e.g., energy or data
traffic)".  :class:`SlaGovernor` implements that idea as a *wrapper*
around any base strategy: the base strategy drives the PrT model as
usual, but when the governed quantity exceeds its budget the governor
overrides the metric to the Idle region — the model then fires
``t0-Idle-t4`` and sheds a core, which is the lever that reduces both
interconnect traffic (fewer remote threads) and power (fewer busy
cores).  While the budget holds, allocation proceeds on demand.

Two governed quantities are provided:

* **traffic** — the interconnect byte rate over the monitoring window;
* **power** — the instantaneous machine power estimated from busy time
  and HT bytes with the same model as Fig 20.
"""

from __future__ import annotations

from ..config import MachineConfig
from ..errors import ConfigError
from ..units import left_sum
from .monitor import MonitorSample
from .strategies import TransitionStrategy


class SlaGovernor(TransitionStrategy):
    """Wrap a base strategy with traffic and/or power budgets."""

    name = "sla"

    def __init__(self, base: TransitionStrategy,
                 machine: MachineConfig | None = None,
                 traffic_budget: float | None = None,
                 power_budget: float | None = None,
                 headroom: float = 0.9):
        if traffic_budget is None and power_budget is None:
            raise ConfigError("an SLA governor needs at least one budget")
        if traffic_budget is not None and traffic_budget <= 0:
            raise ConfigError("traffic budget must be positive (bytes/s)")
        if power_budget is not None and power_budget <= 0:
            raise ConfigError("power budget must be positive (watts)")
        if power_budget is not None and machine is None:
            raise ConfigError("a power budget needs the machine config")
        if not 0.0 < headroom <= 1.0:
            raise ConfigError("headroom must be in (0, 1]")
        self.base = base
        self.machine = machine
        self.traffic_budget = traffic_budget
        self.power_budget = power_budget
        self.headroom = headroom
        self.th_min = base.th_min
        self.th_max = base.th_max
        self.violations = 0
        self.clamps = 0

    # ------------------------------------------------------------------

    def traffic_rate(self, sample: MonitorSample) -> float:
        """Interconnect bytes/s over the monitoring window."""
        if sample.window <= 0:
            return 0.0
        return sample.ht_bytes / sample.window

    def power_estimate(self, sample: MonitorSample) -> float:
        """Instantaneous machine power (W) from the Fig 20 model."""
        assert self.machine is not None
        config = self.machine
        idle = config.acp_watts * config.idle_power_fraction
        dynamic = config.acp_watts - idle
        if sample.window <= 0:
            busy_fraction = 0.0
        else:
            busy = left_sum(sample.load.per_core_busy.values())
            busy_fraction = busy / 100.0 / max(config.n_cores, 1)
        cpu_watts = config.n_sockets * (idle + dynamic * busy_fraction)
        ht_watts = (self.traffic_rate(sample) * 8.0
                    * config.ht_joules_per_bit)
        return cpu_watts + ht_watts

    def _utilisation(self, sample: MonitorSample) -> float:
        """Worst governed quantity as a fraction of its budget."""
        worst = 0.0
        if self.traffic_budget is not None:
            worst = max(worst,
                        self.traffic_rate(sample) / self.traffic_budget)
        if self.power_budget is not None:
            worst = max(worst,
                        self.power_estimate(sample) / self.power_budget)
        return worst

    # ------------------------------------------------------------------

    def metric(self, sample: MonitorSample) -> float:
        """Base metric, clamped by the SLA state.

        * over budget — force the Idle region (release a core);
        * within ``headroom`` of the budget — clamp Overload down to the
          Stable region (hold, do not grow);
        * otherwise — defer to the base strategy.
        """
        utilisation = self._utilisation(sample)
        base_metric = self.base.metric(sample)
        if utilisation >= 1.0:
            self.violations += 1
            return self.th_min
        if utilisation >= self.headroom and base_metric >= self.th_max:
            self.clamps += 1
            return (self.th_min + self.th_max) / 2.0
        return base_metric

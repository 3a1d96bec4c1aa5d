package steward

import (
	"lonviz/internal/obs"
	"lonviz/internal/obs/slo"
)

// AlertTrigger adapts a Steward into an SLO-alert subscriber
// (slo.Engine.Subscribe / slo.Stack.Subscribe): a firing alert that
// names a depot (the per-depot latency rules label instances with
// depot=host:port) queues an immediate targeted audit of that depot's
// replicas; a firing critical alert with no depot queues an early full
// cycle. Resolved alerts are ignored — the repair already ran. The
// callback never blocks: triggers coalesce into the steward's Run loop.
func AlertTrigger(s *Steward) func(slo.Alert) {
	return func(a slo.Alert) {
		if s == nil || a.State != slo.StateFiring {
			return
		}
		if depot := a.Labels["depot"]; depot != "" {
			obs.DefaultLogger().Info(obs.EvStewardAlertTrigger, "rule", a.Rule, "depot", depot)
			s.TriggerDepotAudit(depot)
			return
		}
		if a.Severity == slo.SeverityCritical {
			obs.DefaultLogger().Info(obs.EvStewardAlertTrigger, "rule", a.Rule, "depot", "")
			s.TriggerCycle()
		}
	}
}

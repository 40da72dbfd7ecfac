// Package soak is the chaos soak behind cmd/caladriussoak: a check,
// not a measurement. It assembles the shipped daemon in-process, drives
// it with a seeded closed-loop request mix while a chaos fault plan
// takes the metrics backend away, and asserts at exit that the
// self-monitoring SLOs fired and resolved, every response was
// accounted for by status class, and teardown returned the process to
// its goroutine and heap baseline. What the service costs per request
// is measured elsewhere, by benchmark/, against a subprocess daemon;
// nothing here times a request.
package soak

// Operations the soak can issue. Each maps to one API route; see
// Runner.
const (
	OpPredict    = "predict"     // POST /api/v1/model/topology/{t}/performance?sync=true
	OpPlan       = "plan"        // POST /api/v1/model/topology/{t}/suggest?sync=true
	OpQueryRange = "query_range" // GET  /api/v1/query_range
	OpAudit      = "audit"       // GET  /api/v1/audit
	OpUsage      = "usage"       // GET  /api/v1/usage
)

// OpWeight is one operation's integer share of a Mix.
type OpWeight struct {
	Op     string
	Weight int
}

// Mix is a weighted operation mix, written as a literal. Weights are
// positive; the order of the entries is the order pick walks, so it is
// part of what a seed reproduces.
type Mix []OpWeight

// DefaultMix is the mix RunSoak drives: model-heavy with a steady read
// side, shaped like a dashboard-plus-planner tenant population. Half
// of it needs the metrics backend, so a metrics outage fails half the
// traffic.
var DefaultMix = Mix{{OpPredict, 40}, {OpPlan, 10}, {OpQueryRange, 30}, {OpAudit, 10}, {OpUsage, 10}}

// Weight returns op's weight (0 when absent).
func (m Mix) Weight(op string) int {
	for _, e := range m {
		if e.Op == op {
			return e.Weight
		}
	}
	return 0
}

// pick maps a value in [0, Total) to an operation — the schedule
// generator feeds it deterministic variates.
func (m Mix) pick(v int) string {
	for _, e := range m {
		if v < e.Weight {
			return e.Op
		}
		v -= e.Weight
	}
	return m[len(m)-1].Op
}

// Total returns the sum of weights.
func (m Mix) Total() int {
	total := 0
	for _, e := range m {
		total += e.Weight
	}
	return total
}

package main

import (
	"time"

	"repro/internal/netsim"
	"repro/internal/sim"
)

// tracer records the traced run's spans. It is nil in untraced runs, and
// every method is a no-op on a nil tracer, so the workloads call it
// unconditionally.
//
// Engine dispatches are timed by the tracer itself as a sim.Observer: each
// interval between two dispatches is charged to the event that spent it,
// the earlier one. (prof.Attribution charges the interval to the event
// that ends it, which makes its time shares follow event counts.)
type tracer struct {
	running  bool
	last     time.Time
	lastTag  sim.Tag
	events   [sim.NumTags]int64
	dispatch [sim.NumTags]time.Duration
	spans    map[string]time.Duration
}

func newTracer() *tracer { return &tracer{spans: make(map[string]time.Duration)} }

// attach installs the tracer as n's dispatch observer, teed with the
// network's own profiler and audit ledger when it has them.
func (t *tracer) attach(n *netsim.Network) {
	if t == nil {
		return
	}
	obs := []sim.Observer{t}
	if n.Prof != nil {
		obs = append(obs, n.Prof)
	}
	if n.Audit != nil {
		obs = append(obs, n.Audit)
	}
	n.Eng.SetObserver(sim.TeeObservers(obs...))
	t.running = false
}

// OnEvent implements sim.Observer.
func (t *tracer) OnEvent(_ time.Duration, tag sim.Tag, _ int32) {
	now := time.Now()
	if t.running {
		t.dispatch[t.lastTag] += now.Sub(t.last)
	}
	t.running, t.last, t.lastTag = true, now, tag
	t.events[tag]++
}

// detach charges the last dispatch of a run, which ends when Run returns.
func (t *tracer) detach() {
	if t == nil || !t.running {
		return
	}
	t.dispatch[t.lastTag] += time.Since(t.last)
	t.running = false
}

// add adds d to the named span's total.
func (t *tracer) add(name string, d time.Duration) {
	if t == nil {
		return
	}
	t.spans[name] += d
}

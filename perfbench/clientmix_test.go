package main

import (
	"math"
	"math/rand"
	"net/http"
	"testing"
	"time"

	"repro/internal/mapsvc"
	"repro/internal/netsim"
	"repro/internal/topology"
)

// The mapsvc-churn mix is the traffic the repository's own client sends:
// run city-n300 with the control plane remote for two simulated seconds
// and read the client's and the service's counters over the second one,
// when the service's cache is warm.
func TestChurnMixMatchesClient(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a 300-station city for two simulated seconds")
	}
	top, err := topology.CityScale(topology.DefaultCityConfig(300, cityTopologySeed))
	if err != nil {
		t.Fatal(err)
	}
	opts := netsim.CityOptions()
	opts.Protocol = netsim.ProtocolComap
	opts.ComapRemote = true
	opts.Seed = 7
	opts.Duration = 2 * time.Second
	moves := topology.SynthesizeCityTrace(top, rand.New(rand.NewSource(opts.Seed)), topology.CityTraceConfig{Duration: opts.Duration})
	n, err := netsim.Build(top, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.ScheduleLocTrace(moves); err != nil {
		t.Fatal(err)
	}
	var c1 mapsvc.ClientStatus
	var s1 mapsvc.ServiceStatus
	n.Eng.Schedule(time.Second, func() { c1, s1 = n.MapClient.Status(), n.MapService.Status() })
	n.Run()
	c2, s2 := n.MapClient.Status(), n.MapService.Status()

	stations := float64(len(top.Nodes))
	churn := 0
	for _, e := range moves.Events {
		if e.At >= time.Second && e.Op != topology.LocMove {
			churn++
		}
	}
	got := map[string]float64{
		"churnEventRate": float64(s2.Invalidations-s1.Invalidations) / stations,
		"moveIngestRate": float64(c2.IngestCalls-c1.IngestCalls-int64(churn)) / stations,
		"verdictRate":    float64(s2.VerdictsServed-s1.VerdictsServed) / stations,
		"cachedPerNode":  float64(s2.CacheEntries) / stations,
	}
	want := map[string]float64{
		"churnEventRate": churnEventRate,
		"moveIngestRate": moveIngestRate,
		"verdictRate":    verdictRate,
		"cachedPerNode":  cachedPerNode,
	}
	for k, g := range got {
		t.Logf("%s: measured %.4g, mapsvc-churn uses %.4g", k, g, want[k])
		if math.Abs(g-want[k]) > 0.1*want[k] {
			t.Errorf("%s: the client sends %.4g, mapsvc-churn uses %.4g", k, g, want[k])
		}
	}
	t.Logf("service hit fraction over the second second: %.4f",
		1-float64(s2.VerdictsComputed-s1.VerdictsComputed)/float64(s2.VerdictsServed-s1.VerdictsServed))
}

// ignoreInvalidate answers /v1/invalidate without passing it on, so the
// service keeps verdicts the client asked it to drop.
type ignoreInvalidate struct{ h http.Handler }

func (f ignoreInvalidate) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/v1/invalidate" {
		w.WriteHeader(http.StatusOK)
		return
	}
	f.h.ServeHTTP(w, r)
}

// A service that keeps verdicts past their invalidation fails the check.
func TestChurnCheckRejectsIgnoredInvalidations(t *testing.T) {
	inst, err := setupChurn(1, fullScale)
	if err != nil {
		t.Fatal(err)
	}
	in := inst.(*churnInstance)
	in.h = ignoreInvalidate{in.h}
	failed := 0
	for pass := 0; pass < 3; pass++ {
		seg, err := in.run(nil)
		if err != nil {
			t.Fatal(err)
		}
		failed += len(seg.failures)
	}
	if failed == 0 {
		t.Error("a service that ignores invalidations passed every check")
	}
}

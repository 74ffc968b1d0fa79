package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"os"
	"sort"
	"strings"
	"testing"
	"time"
)

// tinyScale keeps every workload to a fraction of a second.
var tinyScale = scale{
	floors: 2, officeDur: 100 * time.Millisecond,
	cityStations: 40, cityDur: 100 * time.Millisecond,
	churnStations: 264, churnRounds: 4,
	setups: 1, minSegments: 2,
}

type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchSpec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// checkMetrics asserts that got holds exactly the named metrics, with the
// declared units and finite values.
func checkMetrics(t *testing.T, got map[string]metric, names, units []string) {
	t.Helper()
	if len(got) != len(names) {
		var have []string
		for k := range got {
			have = append(have, k)
		}
		sort.Strings(have)
		t.Errorf("got %d metrics %v, BENCHMARK.json declares %d", len(got), have, len(names))
	}
	for i, name := range names {
		m, ok := got[name]
		switch {
		case !ok:
			t.Errorf("metric %s missing", name)
		case m.Unit != units[i]:
			t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", name, m.Unit, units[i])
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("metric %s = %v", name, m.Value)
		}
	}
}

// Every workload runs at tiny scale, passes its output checks and prints
// every end-to-end metric, none of them zero.
func TestSmokeAllWorkloads(t *testing.T) {
	spec := loadSpec(t)
	var names, units []string
	for _, m := range spec.EndToEnd {
		names, units = append(names, m.Name), append(units, m.Unit)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	for _, ws := range spec.Workloads {
		w, ok := lookup(ws.Name)
		if !ok {
			t.Errorf("workload %s of BENCHMARK.json is unknown", ws.Name)
			continue
		}
		t.Run(w.name, func(t *testing.T) {
			var log bytes.Buffer
			res, err := measure(w, 1, 200*time.Millisecond, false, tinyScale, &log)
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, res.Metrics, names, units)
			for name, m := range res.Metrics {
				if m.Value <= 0 {
					t.Errorf("metric %s = %v, want > 0", name, m.Value)
				}
			}
			if !res.Correct || res.Attempted == 0 {
				t.Errorf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, firstLines(log.String(), 8))
			}
		})
	}
}

func firstLines(s string, n int) string {
	lines := strings.SplitN(s, "\n", n+1)
	return strings.Join(lines[:min(n, len(lines))], "\n")
}

// The traced run prints exactly the per-layer metrics BENCHMARK.json
// declares.
func TestTracedRunPrintsPerLayerMetrics(t *testing.T) {
	spec := loadSpec(t)
	var names, units []string
	for _, m := range spec.PerLayer {
		names, units = append(names, m.Name), append(units, m.Unit)
	}
	w, _ := lookup("office-comap")
	res, err := measure(w, 1, 400*time.Millisecond, true, tinyScale, &bytes.Buffer{})
	if err != nil {
		t.Fatal(err)
	}
	checkMetrics(t, res.Metrics, names, units)
	if v := res.Metrics["mac.events_per_sim_s"].Value; v <= 0 {
		t.Errorf("mac.events_per_sim_s = %v, want > 0", v)
	}
	if v := res.Metrics["bench.attributed_frac"].Value; v < 0.5 || v > 1.5 {
		t.Errorf("bench.attributed_frac = %v, want near 1", v)
	}
}

// forceAllowed rewrites every verdict response to one fixed answer.
type forceAllowed struct {
	h     http.Handler
	allow bool
}

func (f forceAllowed) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/v1/verdict" {
		f.h.ServeHTTP(w, r)
		return
	}
	rec := &recorder{hdr: make(http.Header)}
	f.h.ServeHTTP(rec, r)
	body := rec.body.Bytes()
	if i := bytes.Index(body, allowedField); i >= 0 {
		rest := body[i+len(allowedField):]
		end := bytes.IndexByte(rest, ',')
		answer := []byte("false")
		if f.allow {
			answer = []byte("true")
		}
		body = append(append(append([]byte(nil), body[:i+len(allowedField)]...), answer...), rest[end:]...)
	}
	w.WriteHeader(rec.code)
	w.Write(body)
}

// A corrupted verdict must fail the mapsvc check. Forcing every answer to
// "allowed" fails exactly the reads that accept only a denial, and forcing
// "denied" those that accept only an allowance, whatever the service itself
// answered.
func TestChurnCheckRejectsCorruptedVerdicts(t *testing.T) {
	inst, err := setupChurn(1, tinyScale)
	if err != nil {
		t.Fatal(err)
	}
	in := inst.(*churnInstance)
	honest := in.h
	for pass, allow := range []bool{true, false, true} {
		want := 0
		for _, r := range in.rounds {
			for _, v := range r.reads {
				accept := v.accept
				if pass == 0 {
					accept = v.acceptFirst
				}
				if !accept[b2i(allow)] {
					want++
				}
			}
		}
		in.h = forceAllowed{honest, allow}
		seg, err := in.run(nil)
		if err != nil {
			t.Fatal(err)
		}
		if want == 0 {
			t.Errorf("pass %d: no read expects allowed=%v; the check is not exercised", pass, !allow)
		}
		if len(seg.failures) != want {
			t.Errorf("pass %d: forcing allowed=%v failed %d checks, want %d", pass, allow, len(seg.failures), want)
		}
		for _, f := range seg.failures {
			if !strings.Contains(f, "since the last invalidation") {
				t.Errorf("unexpected failure: %s", f)
			}
		}
	}

	// A non-200 answer fails the check too.
	in.h = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "down", http.StatusServiceUnavailable)
	})
	seg, err := in.run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(seg.failures) != seg.checks {
		t.Errorf("an unavailable service failed %d of %d checks", len(seg.failures), seg.checks)
	}
}

// failing is a workload whose segments fail.
type failing struct{}

func (failing) run(*tracer) (*segment, error) { return nil, errors.New("segment failed") }

func (failing) verify(*segment) { panic("verify called after a failed segment") }

// A segment that fails under the tracer returns its own error, and its
// outputs are not checked, however the profiler stops.
func TestRunTimedReportsFailureUnderTracer(t *testing.T) {
	for _, tr := range []*tracer{nil, newTracer()} {
		if _, err := runTimed(failing{}, tr); err == nil || err.Error() != "segment failed" {
			t.Errorf("traced=%v: runTimed error %v, want the segment's", tr != nil, err)
		}
	}
}

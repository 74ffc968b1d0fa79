package main

import (
	"bytes"
	"fmt"
	"math"
	"runtime/pprof"
	"time"

	"repro/internal/sim"
)

// modules are the repository modules whose CPU self time the traced run
// reports, plus the benchmark itself ("bench"), samples with no repository
// frame (noModule) and repository packages not listed here ("unlisted").
var modules = []string{
	"sim", "mac", "arq", "radio", "channel", "comap", "trace", "audit", "prof",
	"metrics", "slo", "mapsvc", "netsim", "topology", "loc", "faults", "phy",
	"frame", "geom", "stats", "bench", noModule, "unlisted",
}

// tags are the engine tags the workloads dispatch events under.
var tags = []sim.Tag{sim.TagMAC, sim.TagChannel, sim.TagComap, sim.TagFaults, sim.TagOther}

// observability lists the modules that are observability planes.
var observability = []string{"trace", "audit", "prof", "metrics", "slo"}

// attributionTolerance bounds how far the modules' summed self time may
// stray from the traced segments' CPU time before the run counts it as a
// failed check.
const attributionTolerance = 0.10

// cpuProfile is a running pprof CPU profile.
type cpuProfile struct{ buf bytes.Buffer }

func startProfile() (*cpuProfile, error) {
	p := &cpuProfile{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	return p, nil
}

// stop ends the profile and returns CPU self time per module.
func (p *cpuProfile) stop() (map[string]time.Duration, error) {
	pprof.StopCPUProfile()
	byModule, err := attribute(p.buf.Bytes())
	if err != nil {
		return nil, err
	}
	known := make(map[string]bool, len(modules))
	for _, m := range modules {
		known[m] = true
	}
	out := make(map[string]time.Duration)
	for m, d := range byModule {
		if !known[m] {
			m = "unlisted"
		}
		out[m] += d
	}
	return out, nil
}

// perLayer computes the traced run's per-layer metrics. plain is the
// untraced phase run first, traced the one run under the tracer and the
// profiler. The returned segment carries the check that the modules' self
// times add up to the traced CPU total.
func perLayer(plain, traced *phase, tr *tracer) (map[string]metric, *segment) {
	cpu, simSec, requests, _ := traced.totals()
	var alloc, gcs float64
	counts := make(map[string]float64)
	self := make(map[string]float64)
	for _, t := range traced.segs {
		alloc += float64(t.alloc)
		gcs += float64(t.gcs)
		for k, v := range t.seg.counts {
			counts[k] += v
		}
		for m, d := range t.modules {
			self[m] += d.Seconds()
		}
	}
	per := func(v float64) float64 { return v / simSec }
	frac := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	out := make(map[string]metric)
	put := func(name, unit string, v float64) { out[name] = metric{v, unit} }

	put("sim.events_per_sim_s", "1/s", per(counts["sim.events"]))
	for _, tag := range tags {
		put(tag.String()+".events_per_sim_s", "1/s", per(float64(tr.events[tag])))
		put(tag.String()+".dispatch_s_per_sim_s", "s/s", per(tr.dispatch[tag].Seconds()))
	}
	put("netsim.build_s_per_sim_s", "s/s", per(tr.spans["netsim.Build"].Seconds()))
	put("netsim.run_s_per_sim_s", "s/s", per(tr.spans["netsim.Run"].Seconds()))
	for _, op := range []string{"ingest", "invalidate", "verdict"} {
		put("mapsvc."+op+"_s_per_sim_s", "s/s", per(tr.spans["mapsvc."+op].Seconds()))
	}

	put("channel.collisions_per_tx", "count", frac(counts["channel.collisions"], counts["channel.tx_starts"]))
	put("comap.map_hit_frac", "frac", frac(counts["comap.map_hits"], counts["comap.map_hits"]+counts["comap.map_misses"]))
	put("rpc.attempts_per_call", "count", frac(counts["rpc.calls"], counts["rpc.calls"]-counts["rpc.retries"]))
	put("rpc.nonfresh_rung_frac", "frac", frac(counts["rpc.nonfresh"], counts["rpc.decisions"]))
	put("trace.bytes_per_sim_s", "B/s", per(counts["trace.bytes"]))
	put("mapsvc.verdict_hit_frac", "frac", frac(counts["mapsvc.verdict_hits"], counts["mapsvc.verdicts"]))
	put("mapsvc.stale_verdict_frac", "frac", frac(counts["mapsvc.stale_verdicts"], counts["mapsvc.verdicts"]))
	put("mapsvc.cache_entries", "count", counts["mapsvc.cache_entries"]/float64(len(traced.segs)))
	check := newSegment()
	for _, op := range []string{"ingest", "invalidate"} {
		h := traced.ops["mapsvc."+op]
		for _, p := range []float64{50, 99} {
			var v float64
			if h != nil { // zero when the workload makes no such request
				var err error
				if v, err = h.percentile(p); err != nil {
					check.checks++
					check.fail("mapsvc.%s latency: %v", op, err)
				}
			}
			put(fmt.Sprintf("mapsvc.%s_us_p%g", op, p), "us", v)
		}
	}
	put("mapsvc.self_us_per_req", "us", 1e6*frac(self["mapsvc"], requests))
	put("runtime.alloc_mb_per_sim_s", "MB/s", per(alloc/1e6))
	put("runtime.gc_cycles_per_sim_s", "1/s", per(gcs))

	var total, obs float64
	for _, m := range modules {
		put(m+".self_s_per_sim_s", "s/s", per(self[m]))
		total += self[m]
	}
	for _, m := range observability {
		obs += self[m]
	}
	put("obs.overhead_frac", "frac", frac(obs, total))

	plainCPU, plainSim, _, _ := plain.totals()
	put("bench.traced_cpu_per_sim_s", "s/s", per(cpu))
	put("bench.trace_overhead_frac", "frac", per(cpu)/(plainCPU/plainSim)-1)
	attributed := frac(total, cpu)
	put("bench.attributed_frac", "frac", attributed)

	check.checks++
	if math.Abs(attributed-1) > attributionTolerance {
		check.fail("module self times sum to %.4g s, %.1f%% of the traced CPU time %.4g s", total, 100*attributed, cpu)
	}
	return out, check
}

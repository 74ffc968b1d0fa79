package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"
	"time"

	"repro/internal/audit"
	"repro/internal/bianchi"
	"repro/internal/comap"
	"repro/internal/faults"
	"repro/internal/frame"
	"repro/internal/netsim"
	"repro/internal/phy"
	"repro/internal/prof"
	"repro/internal/topology"
	"repro/internal/trace"
)

// simNet is one network of a simulation workload's fixed input set.
type simNet struct {
	top   topology.Topology
	opts  netsim.Options
	moves *topology.LocTrace // nil for a static floor
	keys  []mapKey           // verdict probes over this network's links
}

// mapKey is one CO-MAP verdict question: observer hears ongoing while it
// wants to send to myDst.
type mapKey struct {
	observer frame.NodeID
	ongoing  comap.Link
	myDst    frame.NodeID
}

// simInstance runs a simulation workload. A segment builds and runs every
// network of the input set once; netsim.Build is inside the segment since
// every user run pays it.
type simInstance struct {
	nets []simNet
	// observed attaches the trace writer, audit ledger and profiler.
	observed bool
	// ref holds each network's digest from the first segment; every later
	// segment must match it.
	ref []string
}

// verdictAsks is how often the in-process verdict replay asks each probe
// key: the first ask misses the cleared map and runs the judge, the others
// hit.
const verdictAsks = 4

// officeNets builds the Fig. 10 office floors: 3 APs and 9 clients with
// two-way 3 Mbps CBR traffic, CO-MAP with hidden-terminal adaptation, as
// the paper's large-scale evaluation runs it.
func officeNets(seed int64, floors int, dur time.Duration) []simNet {
	opts := netsim.NS2Options()
	opts.Protocol = netsim.ProtocolComap
	opts.CBRBitsPerSec = 3e6
	opts.AdaptTable = bianchi.NewAdaptationTable(bianchi.FromPHY(phy.NS2Table1(), phy.RateOFDM6), 5, 8, []int{15, 31, 63, 127, 255}, nil)
	opts.ComapModel.HTImpactPRR = 0.5
	opts.Duration = dur
	nets := make([]simNet, floors)
	for i := range nets {
		o := opts
		o.Seed = seed*1000 + int64(i)
		top := topology.LargeScale(rand.New(rand.NewSource(o.Seed)))
		nets[i] = simNet{top: top, opts: o, keys: probeKeys(top, 8)}
	}
	return nets
}

func setupOffice(seed int64, sc scale) (instance, error) {
	return &simInstance{nets: officeNets(seed, sc.floors, sc.officeDur)}, nil
}

// remoteFaults is the control-plane fault mix of office-remote-observed:
// steady request loss, a recurring delay window and a recurring service
// restart, so retries, the breaker and every ladder rung are exercised.
const remoteFaults = "rpcloss:p=0.05;rpcdelay:d=3ms,at=100ms,dur=150ms,every=500ms;rpcrestart:at=300ms,dur=60ms,every=500ms"

func setupRemoteObserved(seed int64, sc scale) (instance, error) {
	spec, err := faults.Parse(remoteFaults)
	if err != nil {
		return nil, err
	}
	nets := officeNets(seed, sc.floors, sc.officeDur)
	for i := range nets {
		nets[i].opts.ComapRemote = true
		nets[i].opts.RPCFaults = spec
	}
	return &simInstance{nets: nets, observed: true}, nil
}

// cityTopologySeed fixes the city's station layout to the one the
// repository's city-scale scenarios use. Layouts differ in aggregate goodput
// by over 20% from seed to seed, which would swamp any change under test;
// the run seed still drives the mobility trace and every random stream of
// the simulation, static shadowing included.
const cityTopologySeed = 42

func setupCity(seed int64, sc scale) (instance, error) {
	top, err := topology.CityScale(topology.DefaultCityConfig(sc.cityStations, cityTopologySeed))
	if err != nil {
		return nil, err
	}
	opts := netsim.CityOptions()
	opts.Protocol = netsim.ProtocolComap
	opts.Seed = seed
	opts.Duration = sc.cityDur
	moves := topology.SynthesizeCityTrace(top, rand.New(rand.NewSource(seed)), topology.CityTraceConfig{Duration: sc.cityDur})
	return &simInstance{nets: []simNet{{top: top, opts: opts, moves: moves, keys: probeKeys(top, 4)}}}, nil
}

// probeKeys lists the verdicts a station of top could be asked: for every
// sender and each of its destinations, the perNear nearest flows that share
// no node with that link, as the ongoing link.
func probeKeys(top topology.Topology, perNear int) []mapKey {
	pos := make(map[frame.NodeID]topology.Node, len(top.Nodes))
	for _, n := range top.Nodes {
		pos[n.ID] = n
	}
	dsts := make(map[frame.NodeID][]frame.NodeID)
	for _, f := range top.Flows {
		dsts[f.Src] = append(dsts[f.Src], f.Dst)
	}
	var keys []mapKey
	for _, obs := range top.Senders() {
		at := pos[obs].Pos
		for _, d := range dsts[obs] {
			var foreign []topology.Flow
			for _, f := range top.Flows {
				if f.Src != obs && f.Dst != obs && f.Src != d && f.Dst != d {
					foreign = append(foreign, f)
				}
			}
			sort.SliceStable(foreign, func(i, j int) bool {
				return at.DistanceTo(pos[foreign[i].Src].Pos) < at.DistanceTo(pos[foreign[j].Src].Pos)
			})
			for _, f := range foreign[:min(perNear, len(foreign))] {
				keys = append(keys, mapKey{observer: obs, ongoing: comap.Link{Src: f.Src, Dst: f.Dst}, myDst: d})
			}
		}
	}
	return keys
}

// byteCounter is an io.Writer that discards what it is given and counts it.
type byteCounter struct{ n int64 }

func (b *byteCounter) Write(p []byte) (int, error) {
	b.n += int64(len(p))
	return len(p), nil
}

// timedRemote sits between a remote-mode agent and its control-plane
// client and times every verdict on the path the run takes: the agent's
// map lookup and, on a miss, the client's ladder and the call over the
// simulated transport.
type timedRemote struct {
	c   comap.RemoteVerdicts
	lat []float64 // microseconds
}

func (t *timedRemote) Verdict(observer frame.NodeID, ongoing comap.Link, myDst frame.NodeID, cached func() (bool, bool)) comap.RemoteVerdict {
	t0 := time.Now()
	v := t.c.Verdict(observer, ongoing, myDst, cached)
	t.lat = append(t.lat, float64(time.Since(t0).Nanoseconds())/1e3)
	return v
}

// simRun is what a segment keeps of one network for checking.
type simRun struct {
	net    *netsim.Network
	keys   []mapKey
	digest string
}

func (in *simInstance) run(tr *tracer) (*segment, error) {
	seg := newSegment()
	runs := make([]simRun, 0, len(in.nets))
	remote := &timedRemote{}
	defer func() { seg.latencyUs = remote.lat }()
	for i, sn := range in.nets {
		opts := sn.opts
		var sink *byteCounter
		if in.observed {
			sink = &byteCounter{}
			opts.Trace = trace.NewWriter(sink)
			opts.Audit = &netsim.AuditConfig{Config: audit.Config{Sink: sink}, Scenario: fmt.Sprintf("perfbench-%d", i)}
			opts.Profile = &prof.Config{FlightEvents: -1}
		}
		t0 := time.Now()
		n, err := netsim.Build(sn.top, opts)
		if err != nil {
			return nil, err
		}
		if sn.moves != nil {
			if err := n.ScheduleLocTrace(sn.moves); err != nil {
				return nil, err
			}
		}
		tr.add("netsim.Build", time.Since(t0))
		if n.MapClient != nil {
			remote.c = n.MapClient
			for _, st := range n.Stations {
				if st.Agent != nil {
					st.Agent.SetRemote(remote)
				}
			}
		}
		tr.attach(n)
		t1 := time.Now()
		res := n.Run()
		tr.detach()
		tr.add("netsim.Run", time.Since(t1))
		if w, ok := opts.Trace.(*trace.Writer); ok && w.Err() != nil {
			return nil, fmt.Errorf("trace writer: %w", w.Err())
		}
		if n.Audit != nil && n.Audit.Err() != nil {
			return nil, fmt.Errorf("audit ledger: %w", n.Audit.Err())
		}

		dur := opts.Duration.Seconds()
		seg.simSec += dur
		seg.goodputBits += res.Total() * dur
		seg.count("sim.events", float64(n.Eng.EventsFired()))
		seg.count("channel.collisions", float64(n.MediumMetrics.Counter("collisions").Value()))
		seg.count("channel.tx_starts", float64(n.MediumMetrics.Counter("tx_starts").Value()))
		var hits, misses int
		for _, st := range n.Stations {
			if st.Agent != nil {
				hits += st.Agent.Map().Hits()
				misses += st.Agent.Map().Misses()
			}
		}
		seg.count("comap.map_hits", float64(hits))
		seg.count("comap.map_misses", float64(misses))
		if n.MapClient != nil {
			cs := n.MapClient.Status()
			seg.count("rpc.calls", float64(cs.Calls))
			seg.count("rpc.retries", float64(cs.Retries))
			var all int64
			for _, v := range cs.RungDecisions {
				all += v
			}
			seg.count("rpc.decisions", float64(all))
			seg.count("rpc.nonfresh", float64(all-cs.RungDecisions["fresh"]))
			seg.requests += all
		} else {
			seg.requests += int64(hits + misses)
		}
		if sink != nil {
			seg.count("trace.bytes", float64(sink.n))
		}
		runs = append(runs, simRun{net: n, keys: sn.keys, digest: runDigest(n, res)})
	}
	seg.keep = runs
	return seg, nil
}

// runDigest fingerprints a run's outcome: per-flow delivered payload and the
// number of events fired. Segments replay identical inputs, so any change
// between them is nondeterminism.
func runDigest(n *netsim.Network, res *netsim.Results) string {
	h := fnv.New64a()
	for _, f := range res.Flows {
		fmt.Fprintf(h, "%d>%d:%x;", f.Flow.Src, f.Flow.Dst, math.Float64bits(f.GoodputBps))
	}
	fmt.Fprintf(h, "events:%d", n.Eng.EventsFired())
	return fmt.Sprintf("%016x", h.Sum64())
}

// verdictSink keeps probe results observable so the calls are not elided.
var verdictSink int

// verify checks a segment's outputs and times the verdict probes. Each
// run's digest must equal the same run's digest in the first segment, and
// a verdict an agent cached must equal comap.Judge.Decide over the final
// fixes. It runs outside the segment's CPU window.
func (in *simInstance) verify(seg *segment) {
	runs := seg.keep.([]simRun)
	if in.ref == nil {
		for _, r := range runs {
			in.ref = append(in.ref, r.digest)
		}
	}
	for i, r := range runs {
		seg.checks++
		if r.digest != in.ref[i] {
			seg.fail("network %d: digest %s, first segment had %s", i, r.digest, in.ref[i])
		}
	}

	// With health gating off, a verdict an agent cached must equal the
	// judge the network's deployment runs, over the registry's final fixes.
	type probe struct {
		agent *comap.Agent
		key   mapKey
	}
	var probes []probe
	for _, r := range runs {
		n := r.net
		j := comap.Judge{Model: n.Opts.ComapModel, Rates: n.Opts.PHY.Rates}
		health := n.Opts.Faults != nil || n.Opts.RPCFaults != nil
		fixes := comap.FixFunc(n.Locs.Fix)
		for _, k := range r.keys {
			agent := n.Stations[k.observer].Agent
			probes = append(probes, probe{agent, k})
			if health {
				continue
			}
			if cached, found := agent.Map().Lookup(k.ongoing, k.myDst); found {
				seg.checks++
				if want := j.Decide(fixes, k.observer, k.ongoing, k.myDst); cached != want {
					seg.fail("node %d cached verdict %v for %d>%d to %d, judge says %v",
						k.observer, cached, k.ongoing.Src, k.ongoing.Dst, k.myDst, want)
				}
			}
		}
	}
	if len(probes) == 0 || len(seg.latencyUs) > 0 {
		return // no probes, or the run timed its own verdicts
	}
	// In-process agents are the MAC's concurrency policy, out of the
	// benchmark's reach during the run. So their verdicts are timed after
	// it, one by one, on the same entry point (Agent.Allowed: health gate,
	// map lookup, and on a miss the judge and the insert) over the final
	// fixes: every agent's map is cleared, then each probe key is asked
	// verdictAsks times in shuffled order. Passes repeat until the segment
	// holds a window of samples (see windows), so that every segment gives
	// its own p99 and a run's median is taken over as many windows as it
	// has segments: the city's keys fill a third of a window a pass.
	rand.New(rand.NewSource(int64(len(probes)))).Shuffle(len(probes), func(i, j int) { probes[i], probes[j] = probes[j], probes[i] })
	clearMaps := func() {
		for _, r := range runs {
			for _, st := range r.net.Stations {
				if st.Agent != nil {
					st.Agent.Map().Invalidate()
				}
			}
		}
	}
	// An untimed pass first brings the fixes, the judge and the agents
	// back into the caches the segment and the collection before verify
	// evicted. Timed cold, the p99 was mostly the first pass's misses
	// waiting on memory.
	clearMaps()
	for _, p := range probes {
		if p.agent.Allowed(p.key.ongoing.Src, p.key.ongoing.Dst, p.key.myDst) {
			verdictSink++
		}
	}
	for len(seg.latencyUs) < verdictWindow {
		clearMaps()
		for ask := 0; ask < verdictAsks; ask++ {
			for _, p := range probes {
				t0 := time.Now()
				if p.agent.Allowed(p.key.ongoing.Src, p.key.ongoing.Dst, p.key.myDst) {
					verdictSink++
				}
				seg.latencyUs = append(seg.latencyUs, float64(time.Since(t0).Nanoseconds())/1e3)
			}
		}
	}
}

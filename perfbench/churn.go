package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"time"

	"repro/internal/comap"
	"repro/internal/frame"
	"repro/internal/geom"
	"repro/internal/loc"
	"repro/internal/mapsvc"
	"repro/internal/netsim"
	"repro/internal/topology"
)

// churnTick is the simulated time one churn round stands for.
const churnTick = 100 * time.Millisecond

// The traffic the repository's own control-plane client sends, per
// registered station and simulated second (cachedPerNode per station). It was read from
// MapClient.Status and MapService.Status over the second simulated second
// of a city-n300 run with ComapRemote, no faults and the synthesised .loc
// trace (TestChurnMixMatchesClient measures it again). The client streams
// each registry commit as an ingest call of one record, and calls
// /v1/invalidate only when a station leaves or rejoins, never on a move.
const (
	moveIngestRate = 0.0824 // ingest calls carrying a moved station's new fix
	churnEventRate = 0.0275 // leaves and rejoins; each is one ingest and one invalidate
	verdictRate    = 2.86   // verdict calls; the service answered 93% from its cache
	cachedPerNode  = 2.81   // verdicts the service holds at the end: the working set
)

// perRound is how many of a per-station rate's calls one round makes.
func perRound(rate float64, stations int) int {
	return max(1, int(math.Round(rate*float64(stations)*churnTick.Seconds())))
}

// churnInstance drives mapsvc through its HTTP handler, in process, from a
// single closed-loop client. Each round replays one trace tick with the
// client's traffic mix: single-fix ingests of moved stations, an ingest
// and an invalidate per station that leaves or rejoins, then verdict reads,
// mostly cache hits. Every request is built during set-up, so the timed
// calls do no client-side encoding.
type churnInstance struct {
	svc    *mapsvc.Service
	h      http.Handler
	rounds []churnRound
	now    time.Duration // service clock, advanced one tick per round
	nodes  int64         // registered stations at every segment boundary
	passes int           // segments run so far
	rec    recorder
	gc     collector
}

// collector runs the garbage collector between churn rounds, with
// automatic collection off for the segment. It paces the collections as
// the default GOGC=100 does: once the bytes allocated since the last
// collection reach the heap that collection left live. So the collector's
// CPU time stays in the segment and grows with allocation as it would in
// the service, but no verdict is timed while it marks.
//
// When it ran concurrently, the verdict p99 measured the host more than
// the handler. On a 2-vCPU VM, with the collector's worker free to run on
// the second CPU the p99 was 20 µs; with both of the process's threads
// held to one CPU it was 60 µs, in thread CPU time as in wall time (the
// handler assists with the marking the worker cannot keep up with), while
// the median did not move. How free the second CPU is on a shared host
// changes from run to run.
type collector struct {
	samples [2]metrics.Sample
	atGC    uint64 // bytes allocated when the last collection ended
}

func (c *collector) read() (allocated, live uint64) {
	if c.samples[0].Name == "" {
		c.samples[0].Name, c.samples[1].Name = "/gc/heap/allocs:bytes", "/gc/heap/live:bytes"
	}
	metrics.Read(c.samples[:])
	return c.samples[0].Value.Uint64(), c.samples[1].Value.Uint64()
}

// start begins a segment's count of allocated bytes. A timed segment
// starts right after the collection runTimed makes to read the live heap.
func (c *collector) start() { c.atGC, _ = c.read() }

// pace collects if a GOGC=100 heap goal would have been reached.
func (c *collector) pace() {
	if allocated, live := c.read(); allocated-c.atGC >= live {
		runtime.GC()
		c.atGC, _ = c.read()
	}
}

type churnRound struct {
	ingest     []bodyRequest
	invalidate []*http.Request
	reads      []verdictRead
}

// bodyRequest is a POST whose body is replayed on every call.
type bodyRequest struct {
	req  *http.Request
	body []byte
	rd   *bytes.Reader
	// fixBits is the fix payload the body carries: position, report time
	// and error radius of each reported fix, without record framing.
	fixBits float64
}

// fixPayloadBytes is the size of one fix without record framing: two
// coordinates, a report time and an error radius.
const fixPayloadBytes = 32

// verdictRead is one verdict request with the answers the client accepts.
//
// The service computes a verdict when it is read and may cache it until
// /v1/invalidate names one of the verdict's link nodes or its destination;
// a move invalidates nothing. So an answer is correct if it is
// comap.Judge.Decide over the fixes the client had sent at some read of
// the same key since that key was last invalidated, this read included. A
// service that drops cached verdicts more often passes the same check.
// accept[a] holds whether answer a is correct: acceptFirst in the first
// segment, which starts from an empty cache, accept in every later one,
// which starts from the cache the previous segment left. fresh is Decide
// over the fixes sent so far; a correct answer that differs from it is
// stale, which is counted and reported, not failed.
type verdictRead struct {
	req                 *http.Request
	key                 mapsvc.Key
	acceptFirst, accept [2]bool
	fresh               bool
}

// recorder is a minimal, reusable http.ResponseWriter.
type recorder struct {
	hdr  http.Header
	code int
	body bytes.Buffer
}

func (r *recorder) Header() http.Header { return r.hdr }

func (r *recorder) WriteHeader(code int) {
	if r.code == 0 {
		r.code = code
	}
}

func (r *recorder) Write(b []byte) (int, error) {
	r.WriteHeader(http.StatusOK)
	return r.body.Write(b)
}

func (r *recorder) reset() {
	r.code = 0
	r.body.Reset()
	clear(r.hdr)
}

// setupChurn generates the station population, the mobility rounds and the
// verdict reads, registers every station with a fresh service, and works
// out the expected answer to every read.
func setupChurn(seed int64, sc scale) (instance, error) {
	top, err := topology.CityScale(topology.DefaultCityConfig(sc.churnStations-64, seed))
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	opts := netsim.NS2Options()
	judge := comap.Judge{Model: opts.ComapModel, Rates: opts.PHY.Rates}
	in := &churnInstance{rec: recorder{hdr: make(http.Header)}}
	in.svc = mapsvc.NewService(mapsvc.ServiceConfig{
		Judge: judge,
		Store: mapsvc.NewMemStore(),
		Now:   func() time.Duration { return in.now },
	})
	in.h = mapsvc.NewHTTPHandler(in.svc, 0, nil)

	home := make(map[frame.NodeID]geom.Point, len(top.Nodes))
	apOf := make(map[frame.NodeID]frame.NodeID)
	var clients []frame.NodeID
	for _, n := range top.Nodes {
		home[n.ID] = n.Pos
	}
	for _, f := range top.Flows {
		apOf[f.Src] = f.Dst
		clients = append(clients, f.Src)
	}
	stations := len(top.Nodes)

	// ingest builds one single-record ingest request, as the client sends
	// them.
	ingest := func(r mapsvc.IngestRecord) bodyRequest {
		body := mapsvc.EncodeRecords([]mapsvc.IngestRecord{r})
		rd := bytes.NewReader(body)
		req := newRequest(http.MethodPost, "http://mapsvc/v1/ingest", io.NopCloser(rd))
		b := bodyRequest{req: req, body: body, rd: rd}
		if r.Op == mapsvc.RecReport {
			b.fixBits = 8 * fixPayloadBytes
		}
		return b
	}
	for _, n := range top.Nodes {
		b := ingest(mapsvc.IngestRecord{Op: mapsvc.RecReport, Node: n.ID, Fix: loc.Fix{Pos: n.Pos}})
		if err := in.do(b.req, b.rd, b.body); err != nil {
			return nil, fmt.Errorf("initial ingest: %w", err)
		}
	}
	in.nodes = int64(stations)

	// Mobility: walkers move a step along a circle every round and are home
	// again at the segment's last round; churners leave and rejoin within
	// the segment. Every segment therefore starts from the same fix table.
	perm := rng.Perm(len(clients))
	nWalk := perRound(moveIngestRate, stations)
	nChurn := max(1, int(math.Round(churnEventRate*float64(stations)*churnTick.Seconds()*float64(sc.churnRounds)/2)))
	if nWalk+nChurn > len(clients) {
		return nil, fmt.Errorf("%d walkers and %d churners among %d clients", nWalk, nChurn, len(clients))
	}
	type walker struct {
		id     frame.NodeID
		r, phi float64
	}
	walkers := make([]walker, nWalk)
	for i := range walkers {
		walkers[i] = walker{id: clients[perm[i]], r: 5 + 35*rng.Float64(), phi: 2 * math.Pi * rng.Float64()}
	}
	type churner struct {
		id          frame.NodeID
		leave, back int
	}
	churners := make([]churner, nChurn)
	for i := range churners {
		leave := rng.Intn(sc.churnRounds - 1)
		churners[i] = churner{id: clients[perm[nWalk+i]], leave: leave, back: leave + 1 + rng.Intn(sc.churnRounds-1-leave)}
	}

	// The verdict working set: an observer, an ongoing uplink near it and
	// the observer's own uplink.
	var keys []mapsvc.Key
	for _, obs := range clients {
		for _, src := range clients {
			if src != obs && home[src].DistanceTo(home[obs]) <= 300 {
				keys = append(keys, mapsvc.Key{Observer: obs, Ongoing: comap.Link{Src: src, Dst: apOf[src]}, MyDst: apOf[obs]})
			}
		}
	}
	nKeys := int(math.Round(cachedPerNode * float64(stations)))
	if len(keys) < nKeys {
		return nil, fmt.Errorf("only %d verdict keys found, want %d", len(keys), nKeys)
	}
	rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	keys = keys[:nKeys]

	// moves holds each round's mobility records, applied in order.
	moves := make([][]mapsvc.IngestRecord, sc.churnRounds)
	invalidated := make([][]frame.NodeID, sc.churnRounds)
	nReads := perRound(verdictRate, stations)
	for k := 1; k <= sc.churnRounds; k++ {
		var recs []mapsvc.IngestRecord
		at := time.Duration(k) * churnTick
		for _, w := range walkers {
			theta := w.phi + 2*math.Pi*float64(k%sc.churnRounds)/float64(sc.churnRounds)
			off := geom.Vec(w.r*(math.Cos(theta)-math.Cos(w.phi)), w.r*(math.Sin(theta)-math.Sin(w.phi)))
			recs = append(recs, mapsvc.IngestRecord{Op: mapsvc.RecReport, Node: w.id, Fix: loc.Fix{Pos: home[w.id].Add(off), ReportedAt: at}})
		}
		var inval []frame.NodeID
		for _, c := range churners {
			switch k - 1 {
			case c.leave:
				recs = append(recs, mapsvc.IngestRecord{Op: mapsvc.RecDeregister, Node: c.id})
				inval = append(inval, c.id)
			case c.back:
				recs = append(recs, mapsvc.IngestRecord{Op: mapsvc.RecReport, Node: c.id, Fix: loc.Fix{Pos: home[c.id], ReportedAt: at}})
				inval = append(inval, c.id)
			}
		}
		round := churnRound{}
		for _, r := range recs {
			round.ingest = append(round.ingest, ingest(r))
		}
		for _, id := range inval {
			req := newRequest(http.MethodPost, fmt.Sprintf("http://mapsvc/v1/invalidate?node=%d", id), nil)
			round.invalidate = append(round.invalidate, req)
		}
		for r := 0; r < nReads; r++ {
			key := keys[rng.Intn(len(keys))]
			req := newRequest(http.MethodGet, fmt.Sprintf("http://mapsvc/v1/verdict?obs=%d&src=%d&dst=%d&mydst=%d",
				key.Observer, key.Ongoing.Src, key.Ongoing.Dst, key.MyDst), nil)
			round.reads = append(round.reads, verdictRead{req: req, key: key})
		}
		moves[k-1], invalidated[k-1] = recs, inval
		in.rounds = append(in.rounds, round)
	}
	if err := in.expect(judge, home, moves, invalidated); err != nil {
		return nil, err
	}
	return in, nil
}

// expect works out the answers each read accepts by replaying the rounds
// against the fixes the client sends and the invalidations it makes: three
// passes from an empty cache, of which the third must repeat the second.
func (in *churnInstance) expect(judge comap.Judge, home map[frame.NodeID]geom.Point, moves [][]mapsvc.IngestRecord, invalidated [][]frame.NodeID) error {
	fixes := make(map[frame.NodeID]loc.Fix, len(home))
	for id, p := range home {
		fixes[id] = loc.Fix{Pos: p}
	}
	fixFn := func(id frame.NodeID) (loc.Fix, bool) {
		f, ok := fixes[id]
		return f, ok
	}
	// seen holds, per key, the answers Decide gave at its reads since the
	// key was last invalidated.
	seen := make(map[mapsvc.Key][2]bool)
	for pass := 0; pass < 3; pass++ {
		for k, r := range in.rounds {
			for _, rec := range moves[k] {
				if rec.Op == mapsvc.RecReport {
					fixes[rec.Node] = rec.Fix
				} else {
					delete(fixes, rec.Node)
				}
			}
			for _, id := range invalidated[k] {
				for key := range seen {
					if key.Ongoing.Src == id || key.Ongoing.Dst == id || key.MyDst == id {
						delete(seen, key)
					}
				}
			}
			for i := range r.reads {
				v := &r.reads[i]
				fresh := judge.Decide(fixFn, v.key.Observer, v.key.Ongoing, v.key.MyDst)
				accept := seen[v.key]
				accept[b2i(fresh)] = true
				seen[v.key] = accept
				switch pass {
				case 0:
					v.acceptFirst = accept
				case 1:
					v.accept, v.fresh = accept, fresh
				case 2:
					if v.accept != accept || v.fresh != fresh {
						return fmt.Errorf("churn model: read %d of round %d differs between the second and third segments", i, k)
					}
				}
			}
		}
	}
	return nil
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// newRequest builds a request to the in-process handler. The URLs are
// formatted here from node IDs, so a failure is a bug.
func newRequest(method, url string, body io.Reader) *http.Request {
	req, err := http.NewRequest(method, url, body)
	if err != nil {
		panic(err)
	}
	return req
}

// do serves one ingest or invalidate request and checks it returned 200.
func (in *churnInstance) do(req *http.Request, rd *bytes.Reader, body []byte) error {
	if rd != nil {
		rd.Reset(body)
	}
	in.rec.reset()
	in.h.ServeHTTP(&in.rec, req)
	if in.rec.code != http.StatusOK {
		return fmt.Errorf("%s %s: status %d: %s", req.Method, req.URL, in.rec.code, bytes.TrimSpace(in.rec.body.Bytes()))
	}
	return nil
}

var allowedField = []byte(`"allowed": `)

// run replays every round once. The garbage collector runs between
// rounds (see collector), not beside the handler calls.
func (in *churnInstance) run(tr *tracer) (*segment, error) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	in.gc.start()
	seg := newSegment()
	seg.latencyUs = make([]float64, 0, len(in.rounds)*len(in.rounds[0].reads))
	st0 := in.svc.Status()
	first := in.passes == 0
	in.passes++
	call := func(op string, req *http.Request, rd *bytes.Reader, body []byte) bool {
		t0 := time.Now()
		err := in.do(req, rd, body)
		d := time.Since(t0)
		tr.add(op, d)
		seg.opLatencyUs[op] = append(seg.opLatencyUs[op], float64(d.Nanoseconds())/1e3)
		seg.checks++
		if err != nil {
			seg.fail("%v", err)
		}
		return err == nil
	}
	stale := 0
	for _, r := range in.rounds {
		in.now += churnTick
		for _, b := range r.ingest {
			if call("mapsvc.ingest", b.req, b.rd, b.body) {
				seg.goodputBits += b.fixBits
			}
		}
		for _, req := range r.invalidate {
			call("mapsvc.invalidate", req, nil, nil)
		}
		for _, v := range r.reads {
			in.rec.reset()
			t0 := time.Now()
			in.h.ServeHTTP(&in.rec, v.req)
			d := time.Since(t0)
			tr.add("mapsvc.verdict", d)
			seg.latencyUs = append(seg.latencyUs, float64(d.Nanoseconds())/1e3)
			seg.checks++
			accept := v.accept
			if first {
				accept = v.acceptFirst
			}
			body := in.rec.body.Bytes()
			i := bytes.Index(body, allowedField)
			if in.rec.code != http.StatusOK {
				seg.fail("verdict %+v: status %d", v.key, in.rec.code)
				continue
			}
			if i < 0 {
				seg.fail("verdict %+v: no verdict in %q", v.key, body)
				continue
			}
			got := bytes.HasPrefix(body[i+len(allowedField):], []byte("true"))
			if !accept[b2i(got)] {
				seg.fail("verdict %+v: got %q, but the judge gave allowed=%v over the fixes sent at every read since the last invalidation", v.key, body, !got)
			}
			if got != v.fresh {
				stale++
			}
		}
		seg.requests += int64(len(r.ingest) + len(r.invalidate) + len(r.reads))
		in.gc.pace()
	}
	seg.simSec = float64(len(in.rounds)) * churnTick.Seconds()
	st := in.svc.Status()
	served, computed := st.VerdictsServed-st0.VerdictsServed, st.VerdictsComputed-st0.VerdictsComputed
	seg.count("mapsvc.verdicts", float64(served))
	seg.count("mapsvc.verdict_hits", float64(served-computed))
	seg.count("mapsvc.stale_verdicts", float64(stale))
	seg.count("mapsvc.cache_entries", float64(st.CacheEntries))
	seg.count("mapsvc.fixes", float64(st.Fixes))
	return seg, nil
}

// verify checks that the segment left every station registered: the
// rounds rejoin each station that left.
func (in *churnInstance) verify(seg *segment) {
	seg.checks++
	if got := seg.counts["mapsvc.fixes"]; int64(got) != in.nodes {
		seg.fail("service holds %v fixes after the segment, want %d", got, in.nodes)
	}
}

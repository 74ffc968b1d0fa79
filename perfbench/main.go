// Command perfbench is the repository's end-to-end benchmark. It runs one
// of four workloads against the repository's packages, checks every output,
// and prints its metrics as the last line of standard output:
//
//	go build -o perfbench . && ./perfbench --workload office-comap --seed 1 --seconds 20 --trace 0
//
// (run.sh does the same from the repository root.) With --trace 0 it prints
// the end-to-end metrics, measured with tracing off. With --trace 1 it first
// runs half the time untraced, then half traced, and prints the per-layer
// metrics: dispatch spans from an engine observer, CPU self time per module
// from a pprof profile, and the layers' own counters.
//
// Timings are CPU time of this process (getrusage), not wall time: every
// simulation is single-threaded, so off-CPU time belongs to the host.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"time"
)

// segment is the outcome of one pass over a workload's fixed input set.
type segment struct {
	simSec      float64 // simulated seconds covered
	goodputBits float64 // application payload delivered, in bits
	requests    int64   // requests answered: verdicts, or HTTP calls on mapsvc-churn
	checks      int     // output checks made
	failures    []string
	latencyUs   []float64            // verdict latencies
	opLatencyUs map[string][]float64 // other timed requests, by op
	counts      map[string]float64   // layer counters
	keep        any                  // state kept reachable until the live heap is read
}

func newSegment() *segment {
	return &segment{counts: make(map[string]float64), opLatencyUs: make(map[string][]float64)}
}

func (s *segment) count(name string, v float64) { s.counts[name] += v }

func (s *segment) fail(format string, args ...any) {
	s.failures = append(s.failures, fmt.Sprintf(format, args...))
}

// instance is a workload with its inputs generated.
type instance interface {
	// run executes one segment; it is what the CPU clock times.
	run(tr *tracer) (*segment, error)
	// verify checks the segment's outputs and takes any untimed probes.
	verify(seg *segment)
}

// scale sets the size of every workload's input set.
type scale struct {
	floors        int           // office floors per segment
	officeDur     time.Duration // simulated time per office floor
	cityStations  int
	cityDur       time.Duration // simulated time per city segment
	churnStations int           // stations registered with mapsvc
	churnRounds   int           // 100 ms trace ticks per churn segment
	setups        int           // set-ups per run; setup_s is their median
	minSegments   int           // timed segments per phase, at least
}

var fullScale = scale{
	floors: 32, officeDur: 250 * time.Millisecond,
	cityStations: 300, cityDur: 200 * time.Millisecond,
	churnStations: 1000, churnRounds: 50,
	setups: 3, minSegments: 5,
}

// workload is one named benchmark input family.
type workload struct {
	name  string
	setup func(seed int64, sc scale) (instance, error)
}

var workloads = []workload{
	{"office-comap", setupOffice},
	{"city-n300", setupCity},
	{"office-remote-observed", setupRemoteObserved},
	{"mapsvc-churn", setupChurn},
}

func lookup(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: office-comap, city-n300, office-remote-observed or mapsvc-churn")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "measuring time, in seconds")
	traced := flag.Int("trace", 0, "1 prints the per-layer metrics of a traced run")
	flag.Parse()
	w, ok := lookup(*name)
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad flags (workload %q, seconds %v, trace %d)\n", *name, *seconds, *traced)
		os.Exit(2)
	}
	res, err := measure(w, *seed, time.Duration(*seconds*float64(time.Second)), *traced == 1, fullScale, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// maxPrintedFailures caps the failed checks printed one per line.
const maxPrintedFailures = 20

// tally counts a run's output checks and keeps the first failures, so a
// long run holds no growing list.
type tally struct {
	checks, failed int
	shown          []string
}

func (t *tally) add(s *segment) {
	t.checks += s.checks
	t.failed += len(s.failures)
	for _, f := range s.failures {
		if len(t.shown) < maxPrintedFailures {
			t.shown = append(t.shown, f)
		}
	}
	s.failures = nil
}

// phase is a run of timed segments. Latency samples are pooled into
// histograms and dropped from the segments as they finish.
type phase struct {
	segs     []timed
	verdicts windows
	ops      map[string]*histogram
}

func (ph *phase) add(t timed) {
	ph.verdicts.add(t.seg.latencyUs)
	for op, l := range t.seg.opLatencyUs {
		if ph.ops[op] == nil {
			ph.ops[op] = &histogram{}
		}
		ph.ops[op].add(l...)
	}
	t.seg.latencyUs, t.seg.opLatencyUs = nil, nil
	ph.segs = append(ph.segs, t)
}

// totals sums the phase's CPU time, simulated time, requests and goodput.
func (ph *phase) totals() (cpu, simSec, requests, goodputBits float64) {
	for _, t := range ph.segs {
		cpu += t.cpu.Seconds()
		simSec += t.seg.simSec
		requests += float64(t.seg.requests)
		goodputBits += t.seg.goodputBits
	}
	return
}

// timed is one measured segment.
type timed struct {
	seg       *segment
	cpu, wall time.Duration
	liveHeap  uint64 // bytes, after a GC with the segment's state reachable
	alloc     uint64 // bytes allocated during the segment
	gcs       uint32 // GC cycles during the segment
	modules   map[string]time.Duration
}

// measure sets the workload up, runs it for the given time and returns its
// metrics. Progress and diagnostics go to log.
func measure(w workload, seed int64, seconds time.Duration, tracedRun bool, sc scale, log io.Writer) (*result, error) {
	var (
		inst   instance
		setups []float64
		checks tally
	)
	for i := 0; i < sc.setups; i++ {
		inst = nil
		runtime.GC() // free the previous set-up before timing the next
		c0 := cpuNow()
		in, err := w.setup(seed, sc)
		if err != nil {
			return nil, fmt.Errorf("%s setup: %w", w.name, err)
		}
		warm, err := in.run(nil)
		if err != nil {
			return nil, fmt.Errorf("%s warm-up: %w", w.name, err)
		}
		in.verify(warm)
		setups = append(setups, (cpuNow() - c0).Seconds())
		warm.keep = nil
		checks.add(warm)
		inst = in
	}

	runPhase := func(d time.Duration, tr *tracer) (*phase, error) {
		ph := &phase{ops: make(map[string]*histogram)}
		end := time.Now().Add(d)
		for len(ph.segs) < sc.minSegments || time.Now().Before(end) {
			t, err := runTimed(inst, tr)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", w.name, err)
			}
			checks.add(t.seg)
			ph.add(t)
		}
		return ph, nil
	}

	res := &result{}
	var plain, traced *phase
	var err error
	if !tracedRun {
		if plain, err = runPhase(seconds, nil); err != nil {
			return nil, err
		}
		if res.Metrics, err = endToEnd(setups, plain, checks); err != nil {
			return nil, err
		}
	} else {
		if plain, err = runPhase(seconds/2, nil); err != nil {
			return nil, err
		}
		tr := newTracer()
		if traced, err = runPhase(seconds/2, tr); err != nil {
			return nil, err
		}
		var check *segment
		res.Metrics, check = perLayer(plain, traced, tr)
		checks.add(check)
	}

	for _, f := range checks.shown {
		fmt.Fprintln(log, "check failed:", f)
	}
	if more := checks.failed - len(checks.shown); more > 0 {
		fmt.Fprintf(log, "check failed: %d more\n", more)
	}
	res.Attempted, res.Failed = checks.checks, checks.failed
	res.Correct = res.Failed == 0 && res.Attempted > 0
	diagnostics(log, w.name, setups, plain, traced)
	for k, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return nil, fmt.Errorf("%s: metric %s is %v", w.name, k, m.Value)
		}
	}
	return res, nil
}

// runTimed runs one segment under the CPU clock (and, when traced, the
// CPU profiler), then reads the live heap and checks the segment outside
// the clock.
func runTimed(inst instance, tr *tracer) (timed, error) {
	var t timed
	var ms0, ms1 runtime.MemStats
	var prof *cpuProfile
	if tr != nil {
		var err error
		if prof, err = startProfile(); err != nil {
			return t, err
		}
	}
	runtime.ReadMemStats(&ms0)
	c0, w0 := cpuNow(), time.Now()
	seg, err := inst.run(tr)
	t.cpu, t.wall = cpuNow()-c0, time.Since(w0)
	runtime.ReadMemStats(&ms1)
	if prof != nil {
		// A failed segment's error wins over the profiler's.
		mods, perr := prof.stop()
		if err == nil {
			err = perr
		}
		t.modules = mods
	}
	if err != nil {
		return t, err
	}
	// The collection also finishes any cycle the segment left running, so
	// the verdict probes in verify do not run beside garbage collection.
	runtime.GC()
	var ms2 runtime.MemStats
	runtime.ReadMemStats(&ms2)
	inst.verify(seg)
	t.seg, t.liveHeap = seg, ms2.HeapAlloc
	t.alloc, t.gcs = ms1.TotalAlloc-ms0.TotalAlloc, ms1.NumGC-ms0.NumGC
	seg.keep = nil
	return t, nil
}

// endToEnd computes the end-to-end metrics of an untraced run.
//
// CPU time per simulated second is the ratio of the phase's totals, not a
// median over segments: the host alternates between faster and slower
// phases lasting seconds, and the median snaps to whichever covered more of
// the run, while the ratio weighs each by its length. Over 20-second
// windows of one run this halved the spread between windows.
func endToEnd(setups []float64, ph *phase, checks tally) (map[string]metric, error) {
	cpu, simSec, requests, goodputBits := ph.totals()
	p50, p99, err := ph.verdicts.medians()
	if err != nil {
		return nil, fmt.Errorf("verdict latency: %w", err)
	}
	var heap uint64
	for _, t := range ph.segs {
		heap = max(heap, t.liveHeap)
	}
	okFrac := 0.0
	if checks.checks > 0 {
		okFrac = float64(checks.checks-checks.failed) / float64(checks.checks)
	}
	return map[string]metric{
		"setup_s":          {median(setups), "s"},
		"cpu_per_sim_s":    {cpu / simSec, "s/s"},
		"sim_goodput_mbps": {goodputBits / simSec / 1e6, "Mb/s"},
		"live_heap_mb":     {float64(heap) / 1e6, "MB"},
		"ok_frac":          {okFrac, "frac"},
		"req_per_cpu_s":    {requests / cpu, "1/s"},
		"verdict_p50_us":   {p50, "us"},
		"verdict_p99_us":   {p99, "us"},
	}, nil
}

// diagnostics prints the run's noise indicators. They gate nothing; they
// show whether the host disturbed a run.
func diagnostics(log io.Writer, name string, setups []float64, phases ...*phase) {
	var cpuPerSim, wallPerSim []float64
	var cpu, wall time.Duration
	var segs int
	for _, ph := range phases {
		if ph == nil {
			continue
		}
		for _, t := range ph.segs {
			cpuPerSim = append(cpuPerSim, t.cpu.Seconds()/t.seg.simSec)
			wallPerSim = append(wallPerSim, t.wall.Seconds()/t.seg.simSec)
			cpu += t.cpu
			wall += t.wall
		}
		segs += len(ph.segs)
	}
	q1, q3 := quartiles(cpuPerSim)
	sortedSetups := sortedCopy(setups)
	vw := &phases[0].verdicts
	p99q1, p99q3 := quartiles(vw.p99)
	d := map[string]float64{
		"segments":             float64(segs),
		"verdict_samples":      float64(vw.n),
		"verdict_windows":      float64(len(vw.p99)),
		"verdict_p99_us.q1":    p99q1,
		"verdict_p99_us.q3":    p99q3,
		"cpu_per_sim_s.min":    sortedCopy(cpuPerSim)[0],
		"cpu_per_sim_s.median": median(cpuPerSim),
		"cpu_per_sim_s.q1":     q1,
		"cpu_per_sim_s.q3":     q3,
		"host.wall_per_sim_s":  median(wallPerSim),
		"host.offcpu_frac":     1 - cpu.Seconds()/wall.Seconds(),
		"setup_s.min":          sortedSetups[0],
		"setup_s.max":          sortedSetups[len(sortedSetups)-1],
	}
	keys := make([]string, 0, len(d))
	for k := range d {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintf(log, "# %s diagnostics (not gated)\n", name)
	for _, k := range keys {
		fmt.Fprintf(log, "#   %-22s %.6g\n", k, d[k])
	}
}

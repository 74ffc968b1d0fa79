package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"runtime/pprof"
	"testing"
	"time"
)

func TestModuleOf(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/mac.(*MAC).onSlot":           "mac",
		"repro/internal/netsim.Build.func3":          "netsim",
		"repro/internal/trace/rpcspan.Stitch":        "trace",
		"main.(*simInstance).run":                    "bench",
		"repro/perfbench.(*churnInstance).run":       "bench",
		"runtime.mallocgc":                           "",
		"net/http.(*ServeMux).ServeHTTP":             "",
		"repro/internal/mapsvc.NewHTTPHandler.func2": "mapsvc",
	} {
		if got := moduleOf(fn); got != want {
			t.Errorf("moduleOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// protoBuf encodes the few protobuf shapes a synthetic profile needs.
type protoBuf []byte

func (b *protoBuf) varint(num int, v uint64) {
	*b = binary.AppendUvarint(*b, uint64(num)<<3)
	*b = binary.AppendUvarint(*b, v)
}

func (b *protoBuf) bytes(num int, p []byte) {
	*b = binary.AppendUvarint(*b, uint64(num)<<3|2)
	*b = binary.AppendUvarint(*b, uint64(len(p)))
	*b = append(*b, p...)
}

func (b *protoBuf) packed(num int, vs ...uint64) {
	var p []byte
	for _, v := range vs {
		p = binary.AppendUvarint(p, v)
	}
	b.bytes(num, p)
}

// syntheticProfile builds a gzipped CPU profile from stacks given as
// function names, leaf first. A stack element holding several names
// separated by "|" is one location with inlined frames, innermost first.
// Even-numbered samples encode location ids packed, odd ones unpacked.
func syntheticProfile(stacks [][]string, nanos []int64) []byte {
	strs := []string{"", "samples", "count", "cpu", "nanoseconds"}
	strIdx := func(s string) uint64 {
		for i, x := range strs {
			if x == s {
				return uint64(i)
			}
		}
		strs = append(strs, s)
		return uint64(len(strs) - 1)
	}
	var prof protoBuf
	for _, st := range [][2]string{{"samples", "count"}, {"cpu", "nanoseconds"}} {
		var vt protoBuf
		vt.varint(1, strIdx(st[0]))
		vt.varint(2, strIdx(st[1]))
		prof.bytes(1, vt)
	}
	funcs := map[string]uint64{}
	var nextLoc uint64
	for i, stack := range stacks {
		var locIDs []uint64
		for _, frame := range stack {
			nextLoc++
			var loc protoBuf
			loc.varint(1, nextLoc)
			for _, name := range bytes.Split([]byte(frame), []byte("|")) {
				id, ok := funcs[string(name)]
				if !ok {
					id = uint64(len(funcs) + 1)
					funcs[string(name)] = id
					var fn protoBuf
					fn.varint(1, id)
					fn.varint(2, strIdx(string(name)))
					prof.bytes(5, fn)
				}
				var line protoBuf
				line.varint(1, id)
				loc.bytes(4, line)
			}
			prof.bytes(4, loc)
			locIDs = append(locIDs, nextLoc)
		}
		var s protoBuf
		if i%2 == 0 {
			s.packed(1, locIDs...)
		} else {
			for _, id := range locIDs {
				s.varint(1, id)
			}
		}
		s.packed(2, 1, uint64(nanos[i]))
		prof.bytes(2, s)
	}
	for _, s := range strs {
		prof.bytes(6, []byte(s))
	}
	var gz bytes.Buffer
	w := gzip.NewWriter(&gz)
	w.Write(prof)
	w.Close()
	return gz.Bytes()
}

func TestAttributeChargesInnermostRepoFrame(t *testing.T) {
	gz := syntheticProfile([][]string{
		// Allocation inside the MAC: the runtime leaf is charged to mac.
		{"runtime.mallocgc", "repro/internal/mac.(*MAC).onSlot", "repro/internal/sim.(*Engine).Step", "main.main"},
		// Radio code inlined into the MAC: the inlined radio frame is innermost.
		{"repro/internal/radio.LogNormal.PathLossDB|repro/internal/mac.(*MAC).onSlot", "repro/internal/sim.(*Engine).Step"},
		// No repository frame at all.
		{"runtime.scanobject", "runtime.gcBgMarkWorker"},
		// The benchmark's own code.
		{"main.(*churnInstance).run", "main.main"},
		// A sub-package is charged to its module.
		{"repro/internal/trace/rpcspan.Stitch", "repro/internal/sim.(*Engine).Step"},
		{"repro/internal/mac.(*MAC).onSlot", "repro/internal/sim.(*Engine).Step"},
	}, []int64{10, 20, 30, 40, 50, 60})
	got, err := attribute(gz)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]time.Duration{"mac": 70, "radio": 20, noModule: 30, "bench": 40, "trace": 50}
	if len(got) != len(want) {
		t.Errorf("attribute = %v, want %v", got, want)
	}
	for m, d := range want {
		if got[m] != d {
			t.Errorf("%s: %v, want %v (all: %v)", m, got[m], d, got)
		}
	}
}

func TestAttributeRejectsCorruptProfile(t *testing.T) {
	var gz bytes.Buffer
	w := gzip.NewWriter(&gz)
	w.Write([]byte{0x12, 0x7f, 0x01}) // a length running past the end
	w.Close()
	if _, err := attribute(gz.Bytes()); err == nil {
		t.Fatal("corrupt profile accepted")
	}
}

var spinSink uint64

// spin burns CPU in this package; its state stays in a register, so the
// race detector does not instrument the loop.
func spin(d time.Duration) {
	var x uint64
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	spinSink = x
}

// A real runtime/pprof profile parses, and a spin in this package is
// charged to the benchmark's own module.
func TestAttributeRealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	got, err := attribute(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total time.Duration
	for _, d := range got {
		total += d
	}
	if total == 0 || got["bench"] < total/2 {
		t.Fatalf("spin charged %v of %v to bench: %v", got["bench"], total, got)
	}
}

package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"softpipe/internal/lang"
	"softpipe/internal/machine"
	"softpipe/internal/trace"
	"softpipe/internal/workloads"
)

// TestInputsDeterministic: the same seed yields byte-identical
// large-body programs (source and data) and service requests; another
// seed yields other inputs.
func TestInputsDeterministic(t *testing.T) {
	render := func(seed int64) []byte {
		var b bytes.Buffer
		for _, p := range largeBodyPrograms(seed) {
			irp, err := lang.Compile(p.Source)
			if err != nil {
				t.Fatalf("%s: %v", p.Name, err)
			}
			p.Init(irp)
			data, err := json.Marshal(irp.Array("x").InitF)
			if err != nil {
				t.Fatal(err)
			}
			b.WriteString(p.Name + "\n" + p.Source)
			b.Write(data)
		}
		hot := hotSources()
		for i := int64(0); i < 500; i++ {
			r := makeServiceRequest(seed, i, hot, false)
			b.WriteString(r.Path + "\n")
			b.Write(r.Body)
		}
		return b.Bytes()
	}
	a, b := render(7), render(7)
	if !bytes.Equal(a, b) {
		t.Fatal("seed 7 generated different inputs twice")
	}
	if bytes.Equal(a, render(8)) {
		t.Fatal("seeds 7 and 8 generated the same inputs")
	}
}

// TestLargeBodySeedInvariant: the seed changes the large-body data and
// which coefficient goes where, not the compiled code: the same
// programs compile to the same size and register use and run the same
// cycles under every seed.
func TestLargeBodySeedInvariant(t *testing.T) {
	shape := func(seed int64) []string {
		var out []string
		for _, p := range largeBodyPrograms(seed) {
			if p.Stmts > 32 {
				continue
			}
			o := runSource(p, machine.Warp(), nil)
			if o.err != nil {
				t.Fatalf("seed %d %s: %v", seed, p.Name, o.err)
			}
			out = append(out, fmt.Sprintf("%s: %d words, %d fregs, %d cycles", p.Name, len(o.bin.Instrs), o.bin.NumFRegs, o.cycles))
		}
		return out
	}
	if a, b := shape(7), shape(8); !reflect.DeepEqual(a, b) {
		t.Fatalf("seed 7: %v\nseed 8: %v", a, b)
	}
}

// TestServiceMix: the request mix is half /compile and about four in
// five hot, and every cold source is distinct.
func TestServiceMix(t *testing.T) {
	hot := hotSources()
	const n = 4000
	compiles, hots := 0, 0
	cold := map[string]bool{}
	for i := int64(0); i < n; i++ {
		r := makeServiceRequest(3, i, hot, false)
		if r.Path == "/compile" {
			compiles++
		}
		if r.Hot >= 0 {
			hots++
		} else {
			if cold[r.Source] {
				t.Fatalf("request %d repeats a cold source", i)
			}
			cold[r.Source] = true
		}
	}
	if compiles < n*45/100 || compiles > n*55/100 || hots < n*75/100 || hots > n*85/100 {
		t.Fatalf("mix: %d/%d /compile, %d/%d hot", compiles, n, hots, n)
	}
}

// hotSources are the service workload's hot sources.
func hotSources() []string {
	var hot []string
	for _, k := range workloads.Livermore() {
		hot = append(hot, k.Source)
	}
	return hot
}

// passCounts are the deterministic numbers of one pass.
type passCounts struct {
	Attempted, Failed int
	Failures          []string
	Cycles, Words     int64
	Counters          map[string]int64
}

func tracedPass(progs []program) passCounts {
	m := machine.Warp()
	c := newCollector()
	var failures []string
	for _, p := range progs {
		tr := trace.New("op")
		o := runSource(p, m, tr)
		if o.err != nil {
			failures = append(failures, p.Name)
		}
		c.record(p.Name, o, tr.Events())
	}
	counters := map[string]int64{}
	for _, k := range []string{"depgraph.nodes", "depgraph.edges", "depgraph.sccs", "schedule.attempts", "schedule.backtracks"} {
		counters[k] = c.counters[k]
	}
	return passCounts{c.attempted, c.failed, failures, c.cycles, c.words, counters}
}

// TestPassesRepeat: two passes of a workload give identical simulated
// cycles, dependence-graph and scheduler counts, code size and failures.
func TestPassesRepeat(t *testing.T) {
	for _, w := range []struct {
		name  string
		progs []program
	}{
		{"livermore", livermorePrograms()},
		{"large-body", largeBodyPrograms(1)},
	} {
		a, b := tracedPass(w.progs), tracedPass(w.progs)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: passes differ:\n%+v\n%+v", w.name, a, b)
		}
		if a.Cycles == 0 || a.Words == 0 || a.Counters["depgraph.nodes"] == 0 {
			t.Errorf("%s: empty pass %+v", w.name, a)
		}
		if w.name == "livermore" && a.Failed != 0 {
			t.Errorf("livermore: failures %v", a.Failures)
		}
		// The recurrence bodies of 64 and 128 statements need more
		// float registers than the cell has: reported, not skipped.
		if w.name == "large-body" && (a.Attempted != 2*len(largeBodySizes) || !reflect.DeepEqual(a.Failures, []string{"rec64", "rec128"})) {
			t.Errorf("large-body: %d attempted, failures %v; want %d attempted, failures [rec64 rec128]",
				a.Attempted, a.Failures, 2*len(largeBodySizes))
		}
	}
}

// TestSelfTimes: exclusive time is duration minus child coverage, and
// the self times add up to the root.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{name: "lang", ts: 0, dur: 10, seq: 0},
		{name: "depgraph.analyze", ts: 12, dur: 30, seq: 1},
		{name: "schedule.search", ts: 45, dur: 5, seq: 2},
		{name: "codegen.emit", ts: 11, dur: 40, seq: 3},
		{name: "codegen", ts: 10, dur: 50, seq: 4},
		{name: "verify.ref", ts: 60, dur: 0, seq: 5}, // empty, at the end
		{name: "op", ts: 0, dur: 60, seq: 6},
	}
	got := map[string]int64{}
	covered, err := addSelfTimes(spans, "unattributed_ms", got)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{
		"lang.ms": 10, "depgraph.analyze_ms": 30, "schedule.search_ms": 5,
		"codegen.self_ms": 15, "verify.ref_ms": 0, "unattributed_ms": 0,
	}
	if covered != 60 || !reflect.DeepEqual(got, want) {
		t.Fatalf("covered %d, self %v; want 60, %v", covered, got, want)
	}

	// A child that exactly covers its parent was recorded first.
	got = map[string]int64{}
	if _, err := addSelfTimes([]span{{name: "verify", ts: 0, dur: 9, seq: 0}, {name: "op", ts: 0, dur: 9, seq: 1}}, "unattributed_ms", got); err != nil {
		t.Fatal(err)
	}
	if got["verify.ms"] != 9 || got["unattributed_ms"] != 0 {
		t.Fatalf("equal spans: %v", got)
	}

	// Unknown names inherit the parent's layer.
	got = map[string]int64{}
	if _, err := addSelfTimes([]span{{name: "ir.interp", ts: 0, dur: 9}, {name: "ir.interp.block", ts: 1, dur: 4}}, "unattributed_ms", got); err != nil {
		t.Fatal(err)
	}
	if got["ir.interp_ms"] != 9 {
		t.Fatalf("inherited layer: %v", got)
	}

	if _, err := addSelfTimes([]span{{name: "op", ts: 0, dur: 10}, {name: "lang", ts: 5, dur: 10}}, "unattributed_ms", map[string]int64{}); err == nil {
		t.Fatal("a span overlapping its parent's end was accepted")
	}
}

// TestEndToEndFastest: library latencies are percentiles over the
// successful ops, each at its program's fastest, and ops_per_s costs
// every op, failed ones too, at its program's fastest.
func TestEndToEndFastest(t *testing.T) {
	c := newCollector()
	op := func(name string, total, compile float64, failed bool) {
		o := outcome{total: time.Duration(total * 1e6), compile: time.Duration(compile * 1e6),
			interp: time.Duration(total * 1e5), compiled: time.Duration(total * 2e5), cycles: 1000}
		if failed {
			o.fail(false, "refused")
		}
		c.record(name, o, nil)
	}
	op("a", 3, 1, false)
	op("a", 2, 0.5, false)
	op("a", 4, 2, false)
	op("b", 12, 6, false)
	op("b", 10, 5, false)
	op("c", 9, 0, true)
	op("c", 7, 0, true)
	m := c.endToEnd(1, 0)
	want := map[string]float64{
		"op_ms.p50": 2, "op_ms.p90": 10, // ops at 2, 2, 2, 10, 10
		"compile_ms.p50": 0.5, "compile_ms.p90": 5,
		"ops_per_s":                5 / (3*2 + 2*10 + 2*7.0) * 1e3,
		"sim_interp_mcycles_per_s": 5000 / (3*0.2 + 2*1.0) / 1e3,
		"simulated_kcycles":        5,
	}
	for k, w := range want {
		if d := m[k] - w; d > 1e-9 || d < -1e-9 {
			t.Errorf("%s = %v, want %v", k, m[k], w)
		}
	}
}

// TestBenchmarkJSON: BENCHMARK.json lists the workloads and metrics this
// program reports, with the same units.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if want := sortedKeys(workloadRunners); !reflect.DeepEqual(names, want) {
		t.Errorf("workloads %v, program runs %v", names, want)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics, program reports %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: %s %s, program reports %s %s", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd)
	check("per_layer", doc.PerLayer, perLayer)
}

// TestWorkloadsReport runs the cheaper workloads briefly in both modes:
// every metric is reported, nothing fails, end-to-end metrics are never
// zero, and compile-side layers read zero on simulate.
func TestWorkloadsReport(t *testing.T) {
	for _, name := range []string{"livermore", "simulate", "service"} {
		for _, traced := range []bool{false, true} {
			res, err := workloadRunners[name](config{seed: 5, budget: time.Second, traced: traced})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if res.failed != 0 || len(res.wrong) != 0 || res.attempted == 0 {
				t.Errorf("%s traced=%v: %d attempted, %d failed, wrong %v", name, traced, res.attempted, res.failed, res.wrong)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			var buf bytes.Buffer
			if err := report(&buf, name, config{traced: traced}, res); err != nil {
				t.Fatal(err)
			}
			for _, d := range defs {
				v := res.metrics[d.name]
				if !traced && !(v > 0) {
					t.Errorf("%s: end-to-end %s = %v", name, d.name, v)
				}
				if traced && name == "simulate" && (strings.HasPrefix(d.name, "depgraph.") || strings.HasPrefix(d.name, "schedule.") ||
					strings.HasPrefix(d.name, "codegen.") || strings.HasPrefix(d.name, "lang.") || strings.HasPrefix(d.name, "verify.")) && v != 0 {
					t.Errorf("simulate: compile-side %s = %v", d.name, v)
				}
			}
		}
	}
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

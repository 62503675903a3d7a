package main

import (
	"fmt"
	"sort"
	"strings"

	"softpipe/internal/trace"
)

// Layer keys of the exclusive-time accounting; each is also the name of
// the per-layer metric that reports it as mean milliseconds per op.
// Every microsecond of a traced op lands in exactly one of them, so they
// add up to the traced op time.
var layerKeys = []string{
	"lang.ms",
	"depgraph.analyze_ms",
	"schedule.search_ms",
	"codegen.self_ms",
	"verify.ms",
	"verify.ref_ms",
	"verify.shadow_ms",
	"verify.compare_ms",
	"ir.interp_ms",
	"sim.interp_ms",
	"sim.compiled.build_ms",
	"sim.compiled.run_ms",
	"service.self_ms",
	"unattributed_ms",
}

// layerOf maps a span name to the layer its self time is charged to.
// The benchmark's own spans name the layer calls (lang, codegen, verify,
// ir.interp, sim.*); the program's spans inside codegen.Compile and
// verify.ProgramOpts are grouped by package prefix.  A name the table
// does not know inherits its parent's layer, so a span added inside a
// layer later stays charged to that layer.
func layerOf(name, parent string) string {
	switch {
	case name == "op":
		return "unattributed_ms"
	case name == "lang" || strings.HasPrefix(name, "lang."):
		return "lang.ms"
	case strings.HasPrefix(name, "depgraph."):
		return "depgraph.analyze_ms"
	case strings.HasPrefix(name, "schedule."):
		return "schedule.search_ms"
	case name == "codegen" || name == "compile" ||
		strings.HasPrefix(name, "codegen.") || strings.HasPrefix(name, "pipeline.") || strings.HasPrefix(name, "mve."):
		return "codegen.self_ms"
	case name == "verify.ref" || name == "verify.shadow" || name == "verify.compare":
		return name + "_ms"
	case name == "verify" || strings.HasPrefix(name, "verify."):
		return "verify.ms"
	case name == "ir.interp" || name == "sim.interp" || name == "sim.compiled.build" || name == "sim.compiled.run":
		return name + "_ms"
	}
	return parent
}

// span is one closed trace interval in microseconds; seq is its position
// in recording order (a span is recorded when it ends, so a child that
// exactly covers its parent is recorded first).
type span struct {
	name    string
	ts, dur int64
	seq     int
}

// spansOf returns the complete-span events of a trace.
func spansOf(evs []trace.Event) []span {
	var out []span
	for i, e := range evs {
		if e.Ph == 'X' {
			out = append(out, span{name: e.Name, ts: e.TS, dur: e.Dur, seq: i})
		}
	}
	return out
}

// addSelfTimes charges every span's self time — its duration minus the
// time its child spans cover — to its layer in into (microseconds).  The
// tree is rebuilt from the intervals: a span is the child of the
// innermost earlier span that contains it.  root names the layer charged
// for top-level spans whose name maps to no layer.  It returns the summed
// duration of the top-level spans, which equals the sum of the self times
// it charged; a span that starts inside another but ends after it is an
// error.
func addSelfTimes(spans []span, root string, into map[string]int64) (covered int64, err error) {
	sort.SliceStable(spans, func(i, j int) bool {
		a, b := spans[i], spans[j]
		if a.ts != b.ts {
			return a.ts < b.ts
		}
		if a.dur != b.dur {
			return a.dur > b.dur
		}
		return a.seq > b.seq
	})
	type frame struct {
		span
		layer    string
		children int64
	}
	var stack []frame
	pop := func() {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		into[f.layer] += f.dur - f.children
	}
	for _, s := range spans {
		// A span starting exactly where the top one ends is its sibling,
		// unless it is empty (then it may close the top span's interval).
		for len(stack) > 0 {
			top := stack[len(stack)-1]
			end := top.ts + top.dur
			if end < s.ts || (end == s.ts && s.dur > 0) {
				pop()
				continue
			}
			break
		}
		parent := root
		if len(stack) > 0 {
			top := &stack[len(stack)-1]
			if s.ts+s.dur > top.ts+top.dur {
				return 0, fmt.Errorf("span %s [%d,+%d] overlaps the end of %s [%d,+%d]",
					s.name, s.ts, s.dur, top.name, top.ts, top.dur)
			}
			top.children += s.dur
			parent = top.layer
		} else {
			covered += s.dur
		}
		stack = append(stack, frame{span: s, layer: layerOf(s.name, parent)})
	}
	for len(stack) > 0 {
		pop()
	}
	return covered, nil
}

// addCounters sums the trace's counter samples by name into into.
func addCounters(evs []trace.Event, into map[string]int64) {
	for _, e := range evs {
		if e.Ph == 'C' && len(e.Args) > 0 {
			into[e.Name] += e.Args[0].Val
		}
	}
}

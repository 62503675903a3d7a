package main

import (
	"fmt"
	"math"
	"os"
	"slices"
	"sort"
	"time"

	"softpipe/internal/codegen"
	"softpipe/internal/trace"
)

// collector accumulates the ops of one measured phase.
type collector struct {
	attempted, failed int
	wrong             []string // wrong results, each with its program name

	progs                 map[string]*progTimes
	cycles                int64 // simulated cycles of successful ops (one engine)
	objects, words, fregs int64 // compiled objects and their sizes
	loops, pipelined      int64
	atMII, unroll         int64
	tracedOps             int64
	opUS                  int64 // traced op time
	analyzeUS, usefulUS   int64
	selfUS, counters      map[string]int64
	accountErr            error
}

// progTimes are the thread CPU times, in ms, of one program's ops.
type progTimes struct {
	op                        []float64 // every op, failed ones too
	okOp                      []float64 // successful ops
	compile, interp, compiled []float64 // layer calls of successful ops
}

func newCollector() *collector {
	return &collector{
		progs:  map[string]*progTimes{},
		selfUS: map[string]int64{}, counters: map[string]int64{},
	}
}

// program returns the times of the named program's ops.
func (c *collector) program(name string) *progTimes {
	p := c.progs[name]
	if p == nil {
		p = &progTimes{}
		c.progs[name] = p
	}
	return p
}

// record adds one op.  evs is the op's trace (nil when untraced).
func (c *collector) record(name string, o outcome, evs []trace.Event) {
	c.attempted++
	p := c.program(name)
	p.op = append(p.op, ms(o.total))
	if o.err != nil {
		c.failed++
		fmt.Fprintf(os.Stderr, "FAIL %s: %v\n", name, o.err)
		if o.wrong {
			c.wrong = append(c.wrong, name+": "+o.err.Error())
		}
	} else {
		p.okOp = append(p.okOp, ms(o.total))
		if o.compile > 0 {
			p.compile = append(p.compile, ms(o.compile))
		}
		p.interp = append(p.interp, ms(o.interp))
		p.compiled = append(p.compiled, ms(o.compiled))
		c.cycles += o.cycles
	}
	if o.bin != nil {
		c.objects++
		c.words += int64(len(o.bin.Instrs))
		c.fregs += int64(o.bin.NumFRegs)
		c.addLoops(o.report)
	}
	if evs == nil {
		return
	}
	self := map[string]int64{}
	covered, err := addSelfTimes(spansOf(evs), "unattributed_ms", self)
	if err == nil && !rootIsOp(evs, covered) {
		err = fmt.Errorf("the op span does not cover every other span")
	}
	if err != nil && c.accountErr == nil {
		c.accountErr = fmt.Errorf("%s: %w", name, err)
	}
	c.addTraced(covered, self, o.err == nil && allPipelined(o.report))
	addCounters(evs, c.counters)
}

// rootIsOp reports whether the trace's top-level spans are exactly one
// span named "op" of duration covered.
func rootIsOp(evs []trace.Event, covered int64) bool {
	for _, e := range evs {
		if e.Ph == 'X' && e.Name == "op" {
			return e.Dur == covered
		}
	}
	return false
}

// addTraced adds one traced op of duration opUS whose self times are
// self; useful says whether its dependence analysis fed loops that all
// ended up pipelined.
func (c *collector) addTraced(opUS int64, self map[string]int64, useful bool) {
	c.tracedOps++
	c.opUS += opUS
	for k, v := range self {
		c.selfUS[k] += v
	}
	a := self["depgraph.analyze_ms"]
	c.analyzeUS += a
	if useful {
		c.usefulUS += a
	}
}

func (c *collector) addLoops(rep *codegen.Report) {
	if rep == nil {
		return
	}
	for _, l := range rep.Loops {
		c.loops++
		if l.Pipelined {
			c.pipelined++
			c.unroll += int64(l.Unroll)
			if l.MetLower {
				c.atMII++
			}
		}
	}
}

// allPipelined reports whether rep has loops and all were pipelined.
func allPipelined(rep *codegen.Report) bool {
	if rep == nil || len(rep.Loops) == 0 {
		return false
	}
	for _, l := range rep.Loops {
		if !l.Pipelined {
			return false
		}
	}
	return true
}

// The end-to-end metrics of a library workload rest on each program's
// fastest op in the run.  The work of an op is deterministic, but on a
// shared host its CPU time moves by up to 25% from op to op, and the
// host has slower spells lasting seconds to minutes,
// so a program's median moves with the share of its ops that fell in
// slow spells.  Its fastest op is the one the neighbours slowed least,
// and moves much less between runs.

// opsPerS is successful ops per second of CPU time, each op, failed ones
// too, costed at its program's fastest op.
func (c *collector) opsPerS() float64 {
	var costMS float64
	for _, p := range c.progs {
		costMS += float64(len(p.op)) * slices.Min(p.op)
	}
	return float64(c.attempted-c.failed) / costMS * 1e3
}

// endToEnd returns the untraced phase's end-to-end metrics over passes
// whole passes.  Latency percentiles are taken over the successful ops
// and simulation rates over their simulations, each taken at its
// program's fastest; compile latency too, even where the compiles were
// made outside the ops (simulate).  Runs are whole passes, so every percentile falls
// at the same rank in every run.
func (c *collector) endToEnd(passes int, allocBytes uint64) map[string]float64 {
	var (
		opMS, compileMS      []float64
		interpMS, compiledMS float64
	)
	for _, p := range c.progs {
		for range p.okOp {
			opMS = append(opMS, slices.Min(p.okOp))
			if len(p.compile) > 0 {
				compileMS = append(compileMS, slices.Min(p.compile))
			}
			interpMS += slices.Min(p.interp)
			compiledMS += slices.Min(p.compiled)
		}
	}
	return map[string]float64{
		"ops_per_s":                  c.opsPerS(),
		"op_ms.p50":                  percentile(opMS, 0.5),
		"op_ms.p90":                  percentile(opMS, 0.9),
		"compile_ms.p50":             percentile(compileMS, 0.5),
		"compile_ms.p90":             percentile(compileMS, 0.9),
		"sim_interp_mcycles_per_s":   float64(c.cycles) / interpMS / 1e3,
		"sim_compiled_mcycles_per_s": float64(c.cycles) / compiledMS / 1e3,
		"ok_frac":                    1 - frac(int64(c.failed), int64(c.attempted)),
		"alloc_kb_per_op":            float64(allocBytes) / 1024 / float64(c.attempted),
		"simulated_kcycles":          float64(c.cycles) / float64(passes) / 1e3,
	}
}

// sampleCounts returns the number of samples behind the end-to-end
// metrics: ops, compiles and programs.
func (c *collector) sampleCounts() map[string]int {
	out := map[string]int{"programs": len(c.progs)}
	for _, p := range c.progs {
		out["op"] += len(p.op)
		out["compile"] += len(p.compile)
	}
	return out
}

// perLayer returns the traced phase's per-layer metrics.  Times are mean
// milliseconds per traced op; counts are means per op.  A layer the
// workload does not reach reads 0.
func (c *collector) perLayer() map[string]float64 {
	out := map[string]float64{}
	for _, d := range perLayer {
		out[d.name] = 0
	}
	n := float64(c.tracedOps)
	for _, k := range layerKeys {
		out[k] = float64(c.selfUS[k]) / 1e3 / n
	}
	out["op_ms.traced"] = float64(c.opUS) / 1e3 / n
	for _, k := range []string{"depgraph.nodes", "depgraph.edges", "depgraph.sccs", "schedule.attempts", "schedule.backtracks", "verify.terms"} {
		out[k] = float64(c.counters[k]) / n
	}
	out["depgraph.useful_frac"] = frac(c.usefulUS, c.analyzeUS)
	out["schedule.loops_at_mii_frac"] = frac(c.atMII, c.pipelined)
	out["pipeline.pipelined_frac"] = frac(c.pipelined, c.loops)
	out["pipeline.mve_unroll"] = frac(c.unroll, c.pipelined)
	out["codegen.words"] = frac(c.words, c.objects)
	out["codegen.fregs"] = frac(c.fregs, c.objects)
	out["sim.interp_ns_per_cycle"] = frac(c.selfUS["sim.interp_ms"]*1e3, c.cycles)
	out["sim.compiled.ns_per_cycle"] = frac(c.selfUS["sim.compiled.run_ms"]*1e3, c.cycles)
	out["failed_frac"] = frac(int64(c.failed), int64(c.attempted))
	return out
}

// checkAccounting verifies that the layer self times add up to the
// traced op time (the sum is exact in microseconds, so any difference is
// a nesting error the accounting could not place).
func (c *collector) checkAccounting() error {
	if c.accountErr != nil {
		return c.accountErr
	}
	var sum int64
	for _, k := range layerKeys {
		sum += c.selfUS[k]
	}
	if sum != c.opUS {
		return fmt.Errorf("layer self times add up to %d us, traced ops took %d us", sum, c.opUS)
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// frac is a/b, or 0 when b is 0.
func frac(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// percentile returns the q-quantile of xs by linear interpolation
// between closest ranks (0 for no samples).
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

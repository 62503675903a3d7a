// Command perfbench is the repository's end-to-end benchmark: it takes
// W2 programs from source to a checked result through every layer of
// the compiler and both simulator engines, and drives an in-process
// compile service, reporting end-to-end metrics from an untraced run and
// exclusive per-layer time from a traced one.  See README.md.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload livermore|large-body|simulate|service \
//	    --seed N --seconds S --trace 0|1
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strings"
	"time"

	"softpipe/internal/codegen"
	"softpipe/internal/ir"
	"softpipe/internal/machine"
	"softpipe/internal/trace"
	"softpipe/internal/workloads"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run (--trace 0), in the order
// BENCHMARK.json lists them.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "ops/cpu-s"},
	{"op_ms.p50", "ms"},
	{"op_ms.p90", "ms"},
	{"compile_ms.p50", "ms"},
	{"compile_ms.p90", "ms"},
	{"sim_interp_mcycles_per_s", "Mcycles/s"},
	{"sim_compiled_mcycles_per_s", "Mcycles/s"},
	{"simulated_kcycles", "kcycles"},
	{"ok_frac", "frac"},
	{"alloc_kb_per_op", "kB/op"},
}

// perLayer are the metrics of a traced run (--trace 1).
var perLayer = []metricDef{
	{"lang.ms", "ms"},
	{"depgraph.analyze_ms", "ms"},
	{"depgraph.nodes", "count"},
	{"depgraph.edges", "count"},
	{"depgraph.sccs", "count"},
	{"depgraph.useful_frac", "frac"},
	{"schedule.search_ms", "ms"},
	{"schedule.attempts", "count"},
	{"schedule.backtracks", "count"},
	{"schedule.loops_at_mii_frac", "frac"},
	{"pipeline.pipelined_frac", "frac"},
	{"pipeline.mve_unroll", "count"},
	{"codegen.self_ms", "ms"},
	{"codegen.words", "count"},
	{"codegen.fregs", "count"},
	{"verify.ms", "ms"},
	{"verify.ref_ms", "ms"},
	{"verify.shadow_ms", "ms"},
	{"verify.compare_ms", "ms"},
	{"verify.terms", "count"},
	{"ir.interp_ms", "ms"},
	{"sim.interp_ms", "ms"},
	{"sim.interp_ns_per_cycle", "ns/cycle"},
	{"sim.compiled.build_ms", "ms"},
	{"sim.compiled.run_ms", "ms"},
	{"sim.compiled.ns_per_cycle", "ns/cycle"},
	{"service.self_ms", "ms"},
	{"service.server_ms.p50", "ms"},
	{"service.overhead_ms.p50", "ms"},
	{"service.compile_ms.p50", "ms"},
	{"service.run_ms.p50", "ms"},
	{"cache.hit_rate", "frac"},
	{"cache.computes", "count"},
	{"cache.coalesced", "count"},
	{"unattributed_ms", "ms"},
	{"op_ms.traced", "ms"},
	{"trace_overhead_frac", "frac"},
	{"failed_frac", "frac"},
}

// config is one invocation.
type config struct {
	seed   int64
	budget time.Duration
	traced bool
}

// result is what a workload run reports.
type result struct {
	attempted, failed int
	wrong             []string // wrong results; any makes the run incorrect
	metrics           map[string]float64
	samples           map[string]int // sample counts behind the percentiles
	phase             phaseTime      // the measured phase
}

// workloadRunners maps --workload names to their runners.
var workloadRunners = map[string]func(config) (*result, error){
	"livermore":  runLivermore,
	"large-body": runLargeBody,
	"simulate":   runSimulate,
	"service":    runService,
}

// setupReps is how many times each run repeats its set-up; setup_s is
// the median.
const setupReps = 5

// heapLimit is the heap size at which the garbage collector runs.  The
// workloads keep a few MB live but allocate several MB an op, so under
// the default GOGC=100 a Livermore run collected 70 times a second, every
// op overlapped a mark phase, and the fastest op of a program moved by
// 10-15% between runs with how its ops fell against the collections.
// Collecting only at this limit makes that once every few dozen ops.
// Allocation still shows in alloc_kb_per_op.
const heapLimit = 256 << 20

// prefaultHeap makes most of heapLimit resident before anything is
// timed: it touches every page of a block of 7/8 of the limit and drops
// it.  The runtime returns free pages to the OS only above 95% of the
// limit, so later allocations reuse these.  Otherwise every allocation
// up to the first collection page-faults fresh memory (13,000 faults in
// a simulate set-up), and the faults' cost, which moves with the host's
// load, moved setup_s by up to 2x between runs.
func prefaultHeap() {
	b := make([]byte, heapLimit*7/8)
	for i := 0; i < len(b); i += os.Getpagesize() {
		b[i] = 1
	}
	runtime.GC()
}

func main() {
	name := flag.String("workload", "", "workload: livermore, large-body, simulate or service")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Int("seconds", 10, "measured time of the run")
	traced := flag.Int("trace", 0, "1: traced run reporting per-layer metrics; 0: untraced run reporting end-to-end metrics")
	flag.Parse()
	run, ok := workloadRunners[*name]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) || flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload livermore|large-body|simulate|service --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	debug.SetGCPercent(-1)
	debug.SetMemoryLimit(heapLimit)
	prefaultHeap()
	cfg := config{seed: *seed, budget: time.Duration(*seconds) * time.Second, traced: *traced == 1}
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	if err := report(os.Stdout, *name, cfg, res); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	if len(res.wrong) > 0 {
		os.Exit(1)
	}
}

// report prints the host fingerprint line and then, as the last line,
// the result object.
func report(w io.Writer, name string, cfg config, res *result) error {
	defs := endToEnd
	if cfg.traced {
		defs = perLayer
	}
	metrics := map[string]map[string]any{}
	for _, d := range defs {
		v, ok := res.metrics[d.name]
		if !ok {
			return fmt.Errorf("%s: metric %s was not measured", name, d.name)
		}
		metrics[d.name] = map[string]any{"value": v, "unit": d.unit}
	}
	for _, msg := range res.wrong {
		fmt.Fprintf(w, "WRONG %s\n", msg)
	}
	host, err := json.Marshal(map[string]any{
		"workload": name, "seed": cfg.seed, "trace": cfg.traced, "samples": res.samples,
		"wall_s": res.phase.wall.Seconds(), "cpu_s": res.phase.cpu.Seconds(),
		"host": hostFingerprint(),
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\n", host)
	out, err := json.Marshal(map[string]any{
		"correct":   len(res.wrong) == 0,
		"attempted": res.attempted,
		"failed":    res.failed,
		"metrics":   metrics,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", out)
	return err
}

// timeSetup runs setup setupReps times back to back and returns the
// last state and the median process CPU time it took, in seconds.
func timeSetup[T any](setup func() (T, error)) (T, float64, error) {
	var (
		st   T
		err  error
		durs []float64
	)
	for i := 0; i < setupReps; i++ {
		t := processCPU()
		st, err = setup()
		if err != nil {
			return st, 0, err
		}
		durs = append(durs, (processCPU() - t).Seconds())
	}
	return st, percentile(durs, 0.5), nil
}

// libWorkload is a workload run on the in-process library: n ops per
// pass, op i taken by op(i, tracer).
type libWorkload struct {
	n         int
	name      func(i int) string
	op        func(i int, tr *trace.Tracer) outcome
	compileMS map[string][]float64 // compile latencies measured outside the ops, by program
	// compile, when set, is called before every pass of an untraced run,
	// outside any op.  It compiles the next few programs in turn and adds
	// their latencies to compileMS, so that compile latency is sampled
	// across the whole run, not only in set-up.
	compile func()
}

// runLibrary measures a library workload.  Untraced, the whole budget
// feeds the end-to-end metrics.  Traced, the first half runs untraced
// (the baseline for trace_overhead_frac) and the second half traced.
//
// Set-up runs once before the measured phase, for the state the run
// uses.  Untraced, its other setupReps-1 repetitions are spread over the
// phase, one each time another 1/setupReps of the budget has passed.
// The host's speed moves in spells of seconds: in back-to-back runs
// whose repetitions ran together, the simulate set-up took from 0.15 to
// 0.30 s, each run's repetitions within a few percent of each other.
func runLibrary(cfg config, setup func() (*libWorkload, error)) (*result, error) {
	runtime.LockOSThread() // ops are timed in the CPU time of this thread
	defer runtime.UnlockOSThread()
	var (
		setupS     []float64
		asideAlloc uint64 // allocated in the phase outside the ops
		setupErr   error
	)
	timedSetup := func() (*libWorkload, error) {
		t := processCPU()
		lw, err := setup()
		setupS = append(setupS, (processCPU() - t).Seconds())
		return lw, err
	}
	lw, err := timedSetup()
	if err != nil {
		return nil, err
	}
	measure := func(budget time.Duration, traced bool) (*collector, int, phaseTime, uint64) {
		c := newCollector()
		runtime.GC()
		start, before := time.Now(), totalAlloc()
		ops := 0
		passes, pt := passLoop(budget, lw.n, cfg.seed, func(i int) {
			if !cfg.traced && len(setupS) < setupReps && time.Since(start) >= budget*time.Duration(len(setupS))/setupReps {
				a := totalAlloc()
				if _, err := timedSetup(); err != nil && setupErr == nil {
					setupErr = err
				}
				asideAlloc += totalAlloc() - a
			}
			if !cfg.traced && lw.compile != nil && ops%lw.n == 0 {
				a := totalAlloc()
				lw.compile()
				asideAlloc += totalAlloc() - a
			}
			ops++
			if !traced {
				c.record(lw.name(i), lw.op(i, nil), nil)
				return
			}
			tr := trace.New("op")
			o := lw.op(i, tr)
			c.record(lw.name(i), o, tr.Events())
		})
		return c, passes, pt, totalAlloc() - before - asideAlloc
	}
	if !cfg.traced {
		c, passes, pt, alloc := measure(cfg.budget, false)
		for len(setupS) < setupReps && setupErr == nil {
			_, setupErr = timedSetup()
		}
		if setupErr != nil {
			return nil, fmt.Errorf("set-up repetition: %w", setupErr)
		}
		for name, xs := range lw.compileMS {
			c.program(name).compile = xs
		}
		m := c.endToEnd(passes, alloc)
		m["setup_s"] = percentile(setupS, 0.5)
		samples := c.sampleCounts()
		samples["passes"], samples["setup"] = passes, setupReps
		return &result{
			attempted: c.attempted, failed: c.failed, wrong: c.wrong, metrics: m,
			samples: samples, phase: pt,
		}, nil
	}
	u, _, _, _ := measure(cfg.budget/2, false)
	c, passes, pt, _ := measure(cfg.budget/2, true)
	if err := c.checkAccounting(); err != nil {
		return nil, fmt.Errorf("exclusive-time accounting: %w", err)
	}
	m := c.perLayer()
	m["trace_overhead_frac"] = 1 - c.opsPerS()/u.opsPerS()
	return &result{
		attempted: u.attempted + c.attempted, failed: u.failed + c.failed,
		wrong: append(u.wrong, c.wrong...), metrics: m,
		samples: map[string]int{"traced_ops": int(c.tracedOps), "passes": passes},
		phase:   pt,
	}, nil
}

// sourceWorkload is a library workload over W2 sources.
func sourceWorkload(progs []program, warm func(p program) bool) func() (*libWorkload, error) {
	m := machine.Warp()
	return func() (*libWorkload, error) {
		// Warm-up: the same ops the run measures, once per program, so
		// lazily grown heap and code paths are in place before timing.
		warmed := map[string]bool{}
		for _, p := range progs {
			if warm(p) && !warmed[p.Name] {
				warmed[p.Name] = true
				runSource(p, m, nil)
			}
		}
		return &libWorkload{
			n:    len(progs),
			name: func(i int) string { return progs[i].Name },
			op:   func(i int, tr *trace.Tracer) outcome { return runSource(progs[i], m, tr) },
		}, nil
	}
}

// runLivermore: the 19 Livermore kernels, source to checked result.
func runLivermore(cfg config) (*result, error) {
	return runLibrary(cfg, sourceWorkload(livermorePrograms(), func(program) bool { return true }))
}

// runLargeBody: generated loops of 8..128 chained statements.  A pass
// runs each program largeBodyReps times.  Set-up warms the path on each
// program of up to 64 statements.
func runLargeBody(cfg config) (*result, error) {
	var pass []program
	for _, p := range largeBodyPrograms(cfg.seed) {
		for r := 0; r < largeBodyReps(p); r++ {
			pass = append(pass, p)
		}
	}
	return runLibrary(cfg, sourceWorkload(pass, func(p program) bool { return p.Stmts <= 64 }))
}

// largeBodyReps is how many times a pass runs a large-body program.  Only
// two or three passes fit in a run, and a single op's time moves by up to
// 25% with the load on a shared host, so each program that compiles is
// repeated often enough for its fastest op to be picked from six or more
// samples: the acyclic body of 128 statements, at about 0.5 s an op, 3
// times, the others more.  The recurrences of 64 and 128 statements fail
// on registers after about 5 s of compiling between them and give no
// latency sample, so they run once a pass.
func largeBodyReps(p program) int {
	switch {
	case p.Stmts <= 16:
		return 16
	case p.Stmts <= 32:
		return 8
	case strings.HasPrefix(p.Name, "rec"):
		return 1
	case p.Stmts <= 64:
		return 8
	default:
		return 3
	}
}

// runSimulate: the Livermore kernels and the 72-program §4.1 suite,
// compiled and checked during set-up; each op only simulates one object
// on both engines.  Compile latency is sampled in set-up and before
// every pass (libWorkload.compile), outside the ops.
func runSimulate(cfg config) (*result, error) {
	m := machine.Warp()
	compileMS := map[string][]float64{} // over the whole run
	return runLibrary(cfg, func() (*libWorkload, error) {
		var (
			progs []*ir.Program
			names []string
		)
		for _, k := range workloads.Livermore() {
			p, err := k.Build()
			if err != nil {
				return nil, err
			}
			progs, names = append(progs, p), append(names, k.Name)
		}
		for _, sp := range workloads.Suite() {
			progs, names = append(progs, sp.Prog), append(names, sp.Name)
		}
		objs := make([]*object, len(progs))
		next := 0 // the program compile takes next
		for i, p := range progs {
			ob, el, err := prepareObject(names[i], p, m)
			if err != nil {
				return nil, err
			}
			objs[i] = ob
			compileMS[names[i]] = append(compileMS[names[i]], ms(el))
		}
		return &libWorkload{
			n:         len(objs),
			name:      func(i int) string { return objs[i].name },
			op:        func(i int, tr *trace.Tracer) outcome { return runObject(objs[i], m, tr) },
			compileMS: compileMS,
			compile: func() {
				// Four a pass give each program about a dozen samples
				// in a 25 s run, set-up's included.
				for k := 0; k < 4; k++ {
					i := next % len(progs)
					next++
					t := threadCPU()
					// It compiled in set-up, and compiling is deterministic.
					if _, _, err := codegen.Compile(progs[i], m, codegen.Options{}); err == nil {
						compileMS[names[i]] = append(compileMS[names[i]], ms(threadCPU()-t))
					}
				}
			},
		}, nil
	})
}

// totalAlloc is the number of heap bytes allocated so far.  Unlike
// runtime.ReadMemStats it does not stop the world, so it is cheap enough
// to read around every pass.
func totalAlloc() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

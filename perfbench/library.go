package main

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"syscall"
	"time"
	"unsafe"

	"softpipe/internal/codegen"
	"softpipe/internal/ir"
	"softpipe/internal/lang"
	"softpipe/internal/machine"
	"softpipe/internal/sim"
	"softpipe/internal/sim/compiled"
	"softpipe/internal/trace"
	"softpipe/internal/verify"
	"softpipe/internal/vliw"
)

// outcome is what one op of a library workload produced.
type outcome struct {
	err error
	// wrong marks a failure where the program produced a wrong result
	// (the verifier rejected the object code, or a simulated state or
	// cycle count disagreed with its reference), as opposed to refusing
	// to compile.
	wrong bool
	// Thread CPU times of the layer calls the end-to-end metrics need.
	total, compile, interp, compiled time.Duration
	cycles                           int64
	bin                              *vliw.Program
	report                           *codegen.Report
}

func (o *outcome) fail(wrong bool, format string, args ...any) {
	o.err = fmt.Errorf(format, args...)
	o.wrong = wrong
}

// runSource takes one W2 program down the path `w2c -verify -run` takes,
// calling each layer's public function separately: lang.Parse +
// lang.Lower, codegen.Compile, verify.ProgramOpts, the ir.Run oracle,
// then both simulator engines, whose states must equal the oracle's and
// whose cycle counts must agree.  tr, when non-nil, receives the
// benchmark's span around each call and the program's own spans.
func runSource(p program, m *machine.Machine, tr *trace.Tracer) (o outcome) {
	t0 := threadCPU()
	op := tr.Begin("op")
	defer func() {
		op.End()
		o.total = threadCPU() - t0
	}()

	sp := tr.Begin("lang")
	ast, err := lang.Parse(p.Source)
	var irp *ir.Program
	if err == nil {
		irp, err = lang.Lower(ast)
	}
	sp.End()
	if err != nil {
		o.fail(false, "lang: %v", err)
		return o
	}
	if p.Init != nil {
		p.Init(irp)
	}
	sp = tr.Begin("codegen")
	o.bin, o.report, err = codegen.Compile(irp, m, codegen.Options{Tracer: tr})
	sp.End()
	o.compile = threadCPU() - t0
	if err != nil {
		o.fail(false, "compile: %v", err)
		return o
	}
	sp = tr.Begin("verify")
	err = verify.ProgramOpts(irp, o.bin, m, verify.Options{Tracer: tr})
	sp.End()
	if err != nil {
		o.fail(true, "%v", err)
		return o
	}
	sp = tr.Begin("ir.interp")
	want, err := ir.Run(irp)
	sp.End()
	if err != nil {
		o.fail(false, "interpreter: %v", err)
		return o
	}
	simulateBoth(o.bin, m, want, -1, tr, &o)
	return o
}

// simulateBoth runs bin on the interpreter and on the compiled engine
// (compiled.Build + NewCell.Run, the cost RunEngine pays) and checks
// both final states against want and the cycle counts against each
// other and, when wantCycles >= 0, against wantCycles.
func simulateBoth(bin *vliw.Program, m *machine.Machine, want *ir.State, wantCycles int64, tr *trace.Tracer, o *outcome) {
	t := threadCPU()
	sp := tr.Begin("sim.interp")
	st1, s1, err := sim.Run(bin, m)
	sp.End()
	o.interp = threadCPU() - t
	if err != nil {
		o.fail(false, "sim: %v", err)
		return
	}
	t = threadCPU()
	sp = tr.Begin("sim.compiled.build")
	cp, err := compiled.Build(bin, m)
	sp.End()
	if err != nil {
		o.fail(false, "compiled build: %v", err)
		return
	}
	sp = tr.Begin("sim.compiled.run")
	cell := compiled.NewCell(cp)
	st2, err := cell.Run()
	sp.End()
	o.compiled = threadCPU() - t
	if err != nil {
		o.fail(false, "compiled run: %v", err)
		return
	}
	s2 := cell.Stats()
	o.cycles = s1.Cycles
	switch {
	case stateDiff(want, st1) != "":
		o.fail(true, "interp state differs from ir.Run: %s", stateDiff(want, st1))
	case stateDiff(want, st2) != "":
		o.fail(true, "compiled state differs from ir.Run: %s", stateDiff(want, st2))
	case s1.Cycles != s2.Cycles || s1.Flops != s2.Flops:
		o.fail(true, "engines disagree: interp %d cycles %d flops, compiled %d cycles %d flops",
			s1.Cycles, s1.Flops, s2.Cycles, s2.Flops)
	case wantCycles >= 0 && s1.Cycles != wantCycles:
		o.fail(true, "%d cycles, setup reference has %d", s1.Cycles, wantCycles)
	}
}

// object is a program compiled during the simulate workload's setup,
// with its oracle state and reference cycle count.
type object struct {
	name   string
	bin    *vliw.Program
	want   *ir.State
	cycles int64
}

// runObject is one op of the simulate workload: both engines on a
// precompiled object, checked against the setup references.
func runObject(ob *object, m *machine.Machine, tr *trace.Tracer) (o outcome) {
	t0 := threadCPU()
	op := tr.Begin("op")
	simulateBoth(ob.bin, m, ob.want, ob.cycles, tr, &o)
	op.End()
	o.total = threadCPU() - t0
	return o
}

// prepareObject compiles irp, runs the ir.Run oracle and the interpreter
// once, and checks they agree: the simulate workload's setup for one
// program.  It returns the compile latency too.
func prepareObject(name string, irp *ir.Program, m *machine.Machine) (*object, time.Duration, error) {
	t := threadCPU()
	bin, _, err := codegen.Compile(irp, m, codegen.Options{})
	el := threadCPU() - t
	if err != nil {
		return nil, 0, fmt.Errorf("%s: compile: %w", name, err)
	}
	want, err := ir.Run(irp)
	if err != nil {
		return nil, 0, fmt.Errorf("%s: interpreter: %w", name, err)
	}
	st, stats, err := sim.Run(bin, m)
	if err != nil {
		return nil, 0, fmt.Errorf("%s: sim: %w", name, err)
	}
	if d := stateDiff(want, st); d != "" {
		return nil, 0, fmt.Errorf("%s: simulation differs from ir.Run: %s", name, d)
	}
	return &object{name: name, bin: bin, want: want, cycles: stats.Cycles}, el, nil
}

// stateDiff describes the first difference between two final states, or
// returns "" when they agree bit for bit.  Unlike ir.State.Diff it takes
// NaN to equal NaN: kernels run on zero-filled arrays (the service's hot
// sources) legitimately compute 0/0.
func stateDiff(want, got *ir.State) string {
	if len(want.FloatArrays) != len(got.FloatArrays) || len(want.IntArrays) != len(got.IntArrays) || len(want.Scalars) != len(got.Scalars) {
		return "states differ in key sets"
	}
	for k, w := range want.FloatArrays {
		g := got.FloatArrays[k]
		if len(g) != len(w) {
			return fmt.Sprintf("array %s: length %d, want %d", k, len(g), len(w))
		}
		for i := range w {
			if !sameFloat(g[i], w[i]) {
				return fmt.Sprintf("array %s[%d] = %v, want %v", k, i, g[i], w[i])
			}
		}
	}
	for k, w := range want.IntArrays {
		if !slices.Equal(got.IntArrays[k], w) {
			return fmt.Sprintf("int array %s differs", k)
		}
	}
	for k, w := range want.Scalars {
		if g, ok := got.Scalars[k]; !ok || !sameFloat(g, w) {
			return fmt.Sprintf("scalar %s = %v, want %v", k, g, w)
		}
	}
	return ""
}

// sameFloat is bit equality, with every NaN equal to every NaN.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
}

// phaseTime is the time of a measured phase: wall time, and the CPU
// time the process spent in it.
type phaseTime struct{ wall, cpu time.Duration }

// passLoop runs whole passes over n items while at least half a pass of
// budget (wall time) is left, and at least one pass.  Whole passes keep
// the per-pass counts (cycles, failures) exact.  Each pass takes the
// items in its own order drawn from seed, so on a host whose speed
// drifts within a run no item is always measured at the same point of a
// pass.  It returns the number of passes run.
func passLoop(budget time.Duration, n int, seed int64, each func(i int)) (passes int, pt phaseTime) {
	start, cpu0 := time.Now(), processCPU()
	for {
		ps := time.Now()
		for _, i := range rand.New(rand.NewSource(seed + int64(passes))).Perm(n) {
			each(i)
		}
		passes++
		pt = phaseTime{wall: time.Since(start), cpu: processCPU() - cpu0}
		if pt.wall+time.Since(ps)/2 > budget {
			return passes, pt
		}
	}
}

// The benchmark times its work in CPU time, not wall time: on a shared
// host the wall time of the same work moves by 10-20% between runs with
// the load other tenants put on the machine.  CPU time moves too, as
// neighbours compete for caches and cores, so library metrics rest on
// each program's fastest op (see collector.endToEnd).
//
// threadCPU times one op or layer call: the CPU time of the calling
// thread, exact to the nanosecond.  Library ops run one at a time on a
// goroutine locked to its thread, so on an idle host their thread CPU
// time is their latency.  processCPU times set-up and the service's
// window: all threads, so it includes the garbage collector's background
// work.  Its other threads are accounted at scheduler ticks, so it is
// only used on long intervals.

func threadCPU() time.Duration { return clock(clockThreadCPUTimeID) }

func processCPU() time.Duration { return clock(clockProcessCPUTimeID) }

// CPU-time clock ids of clock_gettime(2).
const (
	clockProcessCPUTimeID = 2
	clockThreadCPUTimeID  = 3
)

func clock(id uintptr) time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic(errno) // both clocks exist on every Linux the benchmark runs on
	}
	return time.Duration(ts.Nano())
}

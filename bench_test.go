// Benchmark harness: one benchmark per table and figure of Lam (PLDI
// 1988), plus ablations for the design choices DESIGN.md calls out.
// Benchmarks report reproduction metrics (MFLOPS, speedup, initiation
// intervals, code growth) via b.ReportMetric, so
//
//	go test -bench=. -benchmem
//
// regenerates the paper's evaluation (see EXPERIMENTS.md for the
// paper-vs-measured record).
package softpipe_test

import (
	"fmt"
	"strings"
	"testing"

	"softpipe"
	"softpipe/internal/bench"
	"softpipe/internal/codegen"
	"softpipe/internal/depgraph"
	"softpipe/internal/hier"
	"softpipe/internal/ir"
	"softpipe/internal/lang"
	"softpipe/internal/machine"
	"softpipe/internal/pipeline"
	"softpipe/internal/sim"
	"softpipe/internal/workloads"
)

// --- Table 4-1: application kernels on the 10-cell array ---------------

func BenchmarkTable41(b *testing.B) {
	m := machine.Warp()
	for _, app := range workloads.Apps() {
		app := app
		b.Run(app.Name, func(b *testing.B) {
			var last bench.RunResult
			for i := 0; i < b.N; i++ {
				p, err := app.Build()
				if err != nil {
					b.Fatal(err)
				}
				r, err := bench.Run(p, m, codegen.ModePipelined)
				if err != nil {
					b.Fatal(err)
				}
				last = *r
			}
			b.ReportMetric(last.ArrayMFLOPS, "MFLOPS")
			b.ReportMetric(app.PaperMFLOPS, "paperMFLOPS")
			b.ReportMetric(float64(last.Cycles), "cellCycles")
		})
	}
}

// BenchmarkTable41Systolic measures the paper's real matmul setup: the
// product streamed through the full 10-cell array (Table 4-1's 79.4
// MFLOPS entry).
func BenchmarkTable41Systolic(b *testing.B) {
	m := machine.Warp()
	var row bench.Table41Row
	for i := 0; i < b.N; i++ {
		var err error
		row, err = bench.SystolicMatmulRow(m, 100, m.Cells)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(row.ArrayMFLOPS, "MFLOPS")
	b.ReportMetric(row.PaperMFLOPS, "paperMFLOPS")
	b.ReportMetric(float64(row.Cycles), "arrayCycles")
}

// --- Table 4-2: Livermore loops on one cell ----------------------------

func BenchmarkTable42(b *testing.B) {
	m := machine.Warp()
	for _, k := range workloads.Livermore() {
		k := k
		b.Run(k.Name, func(b *testing.B) {
			var mflops, eff, speedup float64
			for i := 0; i < b.N; i++ {
				p, err := k.Build()
				if err != nil {
					b.Fatal(err)
				}
				pipe, err := bench.Run(p, m, codegen.ModePipelined)
				if err != nil {
					b.Fatal(err)
				}
				p2, _ := k.Build()
				base, err := bench.Run(p2, m, codegen.ModeUnpipelined)
				if err != nil {
					b.Fatal(err)
				}
				mflops = pipe.CellMFLOPS
				eff = bench.WeightedEfficiency(pipe.Report)
				speedup = float64(base.Cycles) / float64(pipe.Cycles)
			}
			b.ReportMetric(mflops, "MFLOPS")
			b.ReportMetric(eff, "efficiencyLB")
			b.ReportMetric(speedup, "speedup")
		})
	}
}

// --- Figures 4-1 and 4-2: the 72-program population --------------------

func BenchmarkFig41_MFLOPS(b *testing.B) {
	m := machine.Warp()
	var meanMF float64
	for i := 0; i < b.N; i++ {
		res, err := bench.RunSuite(m, false, 0)
		if err != nil {
			b.Fatal(err)
		}
		s := 0.0
		for _, r := range res {
			s += r.ArrayMFLOPS
		}
		meanMF = s / float64(len(res))
	}
	b.ReportMetric(meanMF, "meanMFLOPS")
}

func BenchmarkFig42_Speedup(b *testing.B) {
	m := machine.Warp()
	var mean, condMean, noCondMean, metPct float64
	for i := 0; i < b.N; i++ {
		res, err := bench.RunSuite(m, false, 0)
		if err != nil {
			b.Fatal(err)
		}
		var s, sc, sn float64
		var nc, nn int
		for _, r := range res {
			s += r.Speedup
			if r.HasCond {
				sc += r.Speedup
				nc++
			} else {
				sn += r.Speedup
				nn++
			}
		}
		mean = s / float64(len(res))
		condMean = sc / float64(nc)
		noCondMean = sn / float64(nn)
		st := bench.Stats(res)
		metPct = 100 * float64(st.MetBound) / float64(st.Loops)
	}
	b.ReportMetric(mean, "meanSpeedup")
	b.ReportMetric(condMean, "condSpeedup")
	b.ReportMetric(noCondMean, "nocondSpeedup")
	b.ReportMetric(metPct, "pctMetBound")
}

// --- Ablation: linear vs binary II search (§2.2) ------------------------

func benchIISearch(b *testing.B, binary bool) {
	m := machine.Warp()
	var sumII, attempts float64
	for i := 0; i < b.N; i++ {
		sumII, attempts = 0, 0
		for _, k := range workloads.Livermore() {
			p, err := k.Build()
			if err != nil {
				b.Fatal(err)
			}
			_, rep, err := codegen.Compile(p, m, codegen.Options{
				Pipeline: pipeline.Options{BinarySearch: binary},
			})
			if err != nil {
				b.Fatal(err)
			}
			for _, lr := range rep.Loops {
				if lr.Pipelined {
					sumII += float64(lr.II)
					attempts++
				}
			}
		}
	}
	b.ReportMetric(sumII, "totalII")
	b.ReportMetric(attempts, "pipelinedLoops")
}

func BenchmarkAblationIISearch_Linear(b *testing.B) { benchIISearch(b, false) }
func BenchmarkAblationIISearch_Binary(b *testing.B) { benchIISearch(b, true) }

// --- Ablation: modulo variable expansion on/off (§2.3) ------------------

func benchMVE(b *testing.B, disable bool) {
	m := machine.Warp()
	var mflops float64
	for i := 0; i < b.N; i++ {
		var k *workloads.Kernel
		for _, kk := range workloads.Livermore() {
			if kk.ID == 1 {
				k = kk
			}
		}
		p, err := k.Build()
		if err != nil {
			b.Fatal(err)
		}
		prog, _, err := codegen.Compile(p, m, codegen.Options{
			Pipeline: pipeline.Options{DisableMVE: disable},
		})
		if err != nil {
			b.Fatal(err)
		}
		_, st, err := sim.Run(prog, m)
		if err != nil {
			b.Fatal(err)
		}
		mflops = st.MFLOPS(m, 1)
	}
	b.ReportMetric(mflops, "k1MFLOPS")
}

func BenchmarkAblationMVE_On(b *testing.B)  { benchMVE(b, false) }
func BenchmarkAblationMVE_Off(b *testing.B) { benchMVE(b, true) }

// --- Ablation: MVE unroll policy (min-unroll vs lcm, §2.3) --------------

func benchPolicy(b *testing.B, pol pipeline.Policy) {
	m := machine.Warp()
	var instrs, fregs float64
	for i := 0; i < b.N; i++ {
		instrs, fregs = 0, 0
		for _, k := range workloads.Livermore() {
			p, err := k.Build()
			if err != nil {
				b.Fatal(err)
			}
			prog, rep, err := codegen.Compile(p, m, codegen.Options{
				Pipeline: pipeline.Options{Policy: pol},
			})
			if err != nil {
				b.Fatal(err)
			}
			instrs += float64(len(prog.Instrs))
			fregs += float64(rep.FRegsUsed)
		}
	}
	b.ReportMetric(instrs, "totalInstrs")
	b.ReportMetric(fregs, "totalFRegs")
}

func BenchmarkAblationPolicy_MinUnroll(b *testing.B) { benchPolicy(b, pipeline.PolicyMinUnroll) }
func BenchmarkAblationPolicy_LCM(b *testing.B)       { benchPolicy(b, pipeline.PolicyLCM) }

// --- Ablation: hierarchical reduction on/off (§3) -----------------------

func benchHier(b *testing.B, disable bool) {
	m := machine.Warp()
	var cycles float64
	for i := 0; i < b.N; i++ {
		cycles = 0
		for _, sp := range workloads.Suite()[:workloads.SuiteCondSize] {
			prog, _, err := codegen.Compile(sp.Prog, m, codegen.Options{DisableHier: disable})
			if err != nil {
				b.Fatal(err)
			}
			_, st, err := sim.Run(prog, m)
			if err != nil {
				b.Fatal(err)
			}
			cycles += float64(st.Cycles)
		}
	}
	b.ReportMetric(cycles, "condSuiteCycles")
}

func BenchmarkAblationHier_On(b *testing.B)  { benchHier(b, false) }
func BenchmarkAblationHier_Off(b *testing.B) { benchHier(b, true) }

// --- Ablation: loop reduction on/off (§3.2) ------------------------------

func benchLoopReduction(b *testing.B, disable bool) {
	m := machine.Warp()
	var cycles float64
	for i := 0; i < b.N; i++ {
		cycles = 0
		for _, kid := range []int{18, 21} {
			var k *workloads.Kernel
			for _, kk := range workloads.Livermore() {
				if kk.ID == kid {
					k = kk
				}
			}
			p, err := k.Build()
			if err != nil {
				b.Fatal(err)
			}
			prog, _, err := codegen.Compile(p, m, codegen.Options{DisableLoopReduction: disable})
			if err != nil {
				b.Fatal(err)
			}
			_, st, err := sim.Run(prog, m)
			if err != nil {
				b.Fatal(err)
			}
			cycles += float64(st.Cycles)
		}
	}
	b.ReportMetric(cycles, "nestCycles")
}

func BenchmarkAblationLoopReduction_On(b *testing.B)  { benchLoopReduction(b, false) }
func BenchmarkAblationLoopReduction_Off(b *testing.B) { benchLoopReduction(b, true) }

// --- Ablation: inner-loop full unrolling (outer-loop pipelining) ---------
//
// A 4-tap FIR filter: the inner accumulation is a 7-cycle recurrence, so
// loop reduction can at best run the inner loop at II = 7 and pay its
// prolog/epilog once per output sample.  Unrolling the 4 taps makes the
// outer loop innermost; the accumulator re-initializes every iteration,
// and the loop pipelines at its resource bound instead.
const firSrc = `
program fir;
const n = 256;
var a: array [0..259] of real;
    w: array [0..3] of real;
    c: array [0..255] of real;
    s: real;
    i, j: int;
begin
  for i := 0 to n-1 do begin
    s := 0.0;
    for j := 0 to 3 do
      s := s + a[i+j]*w[j];
    c[i] := s;
  end;
end.
`

func benchUnrollInner(b *testing.B, trip int) {
	var cycles float64
	for i := 0; i < b.N; i++ {
		obj, err := softpipe.CompileSource(firSrc, softpipe.Warp(), softpipe.Options{UnrollInnerTrip: trip})
		if err != nil {
			b.Fatal(err)
		}
		res, err := obj.Run()
		if err != nil {
			b.Fatal(err)
		}
		cycles = float64(res.Cycles)
	}
	b.ReportMetric(cycles, "firCycles")
}

func BenchmarkAblationUnrollInner_On(b *testing.B)  { benchUnrollInner(b, 4) }
func BenchmarkAblationUnrollInner_Off(b *testing.B) { benchUnrollInner(b, 0) }

// --- Ablation: symbolic closure vs per-II recomputation (§2.2.2) --------

func closureGraph() *depgraph.Graph {
	bld := ir.NewBuilder("closure")
	bld.Array("a", ir.KindFloat, 64)
	acc := bld.FConst(0)
	bld.ForN(64, func(l *ir.LoopCtx) {
		p := l.Pointer(0, 1)
		v := bld.Load("a", p, ir.Aff(l.ID, 1, 0))
		w := bld.FMul(v, v)
		bld.FAddTo(acc, acc, w)
		bld.Store("a", p, w, ir.Aff(l.ID, 1, 0))
	})
	var loop *ir.LoopStmt
	for _, s := range bld.P.Body.Stmts {
		if l, ok := s.(*ir.LoopStmt); ok {
			loop = l
		}
	}
	ops, _ := loop.Body.Ops()
	m := machine.Warp()
	nodes := make([]*depgraph.Node, len(ops))
	for i, op := range ops {
		nodes[i] = depgraph.MustNodeFromOp(m, op)
	}
	return depgraph.Build(nodes, loop.ID)
}

// BenchmarkAblationClosure_Symbolic prices the paper's preprocessing:
// compute the symbolic all-points closure once, then evaluate it at 16
// candidate intervals.
func BenchmarkAblationClosure_Symbolic(b *testing.B) {
	g := closureGraph()
	scc := depgraph.TarjanSCC(g)
	var comp []int
	for ci, c := range scc.Components {
		if !scc.IsTrivial(g, ci) && len(c) > len(comp) {
			comp = c
		}
	}
	floor, err := depgraph.RecurrenceMIIOracle(g, depgraph.TarjanSCC(g))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cl, err := depgraph.NewClosure(g, comp, 1)
		if err != nil {
			b.Fatal(err)
		}
		for ii := floor; ii < floor+16; ii++ {
			for _, u := range comp {
				for _, v := range comp {
					_ = cl.DistAt(u, v, ii)
				}
			}
		}
	}
}

// BenchmarkAblationClosure_Recompute prices the alternative the paper
// avoids: recompute all longest paths from scratch at each candidate
// interval.
func BenchmarkAblationClosure_Recompute(b *testing.B) {
	g := closureGraph()
	floor, err := depgraph.RecurrenceMIIOracle(g, depgraph.TarjanSCC(g))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for ii := floor; ii < floor+16; ii++ {
			if _, ok := depgraph.LongestPathsAt(g, ii); !ok {
				b.Fatal("infeasible")
			}
		}
	}
}

// --- Scaling: wider data paths (Lam §6) ---------------------------------

func BenchmarkScalingWide(b *testing.B) {
	for _, factor := range []int{1, 2, 4} {
		factor := factor
		b.Run(fmt.Sprintf("parallel-loop-wide%d", factor), func(b *testing.B) {
			m := machine.Wide(factor)
			var mflops float64
			for i := 0; i < b.N; i++ {
				var k *workloads.Kernel
				for _, kk := range workloads.Livermore() {
					if kk.ID == 7 {
						k = kk
					}
				}
				p, err := k.Build()
				if err != nil {
					b.Fatal(err)
				}
				r, err := bench.Run(p, m, codegen.ModePipelined)
				if err != nil {
					b.Fatal(err)
				}
				mflops = r.CellMFLOPS
			}
			b.ReportMetric(mflops, "MFLOPS")
		})
		b.Run(fmt.Sprintf("recurrence-loop-wide%d", factor), func(b *testing.B) {
			m := machine.Wide(factor)
			var mflops float64
			for i := 0; i < b.N; i++ {
				var k *workloads.Kernel
				for _, kk := range workloads.Livermore() {
					if kk.ID == 5 {
						k = kk
					}
				}
				p, err := k.Build()
				if err != nil {
					b.Fatal(err)
				}
				r, err := bench.Run(p, m, codegen.ModePipelined)
				if err != nil {
					b.Fatal(err)
				}
				mflops = r.CellMFLOPS
			}
			b.ReportMetric(mflops, "MFLOPS")
		})
	}
}

// --- Compile-time benchmarks --------------------------------------------

func BenchmarkCompileLivermore(b *testing.B) {
	m := machine.Warp()
	kernels := workloads.Livermore()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, k := range kernels {
			p, err := k.Build()
			if err != nil {
				b.Fatal(err)
			}
			if _, _, err := codegen.Compile(p, m, codegen.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkAnalyzeBodySize prices the depgraph preprocessing (Build
// plus Analyze: components, recurrence bound, closures) of one loop of n
// chained statements all folding into the loop-carried scalar s, so a
// single component spans the body.  It shows how analysis time grows
// with body size.
func BenchmarkAnalyzeBodySize(b *testing.B) {
	m := machine.Warp()
	for _, n := range []int{8, 16, 32, 64, 128} {
		n := n
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var src strings.Builder
			fmt.Fprintf(&src, "program rec%d;\nvar x: array [0..%d] of real;\n    s: real;\n    k: int;\nbegin\n  s := 0.0;\n  for k := 0 to 99 do begin\n", n, 99+n)
			for i := 0; i < n; i++ {
				fmt.Fprintf(&src, "    s := s * %s + x[k+%d];\n", []string{"0.5", "0.25", "0.75", "1.5"}[i%4], i)
			}
			src.WriteString("  end;\nend.\n")
			p, err := lang.Compile(src.String())
			if err != nil {
				b.Fatal(err)
			}
			var loop *ir.LoopStmt
			for _, st := range p.Body.Stmts {
				if l, ok := st.(*ir.LoopStmt); ok {
					loop = l
				}
			}
			ops, _ := loop.Body.Ops()
			nodes := make([]*depgraph.Node, len(ops))
			for i, op := range ops {
				nodes[i] = depgraph.MustNodeFromOp(m, op)
			}
			var a *depgraph.Analysis
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if a, err = depgraph.Analyze(depgraph.Build(nodes, loop.ID), m); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(a.Graph.Nodes)), "nodes")
			b.ReportMetric(float64(len(a.Graph.Edges)), "edges")
			b.ReportMetric(float64(a.RecMII), "RecMII")
		})
	}
}

func BenchmarkReduceConditional(b *testing.B) {
	bld := softpipe.NewBuilder("hier")
	bld.Array("a", ir.KindFloat, 64)
	zero := bld.FConst(0)
	bld.ForN(64, func(l *ir.LoopCtx) {
		p := l.Pointer(0, 1)
		v := bld.Load("a", p, ir.Aff(l.ID, 1, 0))
		c := bld.FCmp(ir.PredGT, v, zero)
		bld.If(c, func() {
			bld.Store("a", p, bld.FMul(v, v), ir.Aff(l.ID, 1, 0))
		}, func() {
			bld.Store("a", p, zero, ir.Aff(l.ID, 1, 0))
		})
	})
	var loop *ir.LoopStmt
	for _, s := range bld.P.Body.Stmts {
		if l, ok := s.(*ir.LoopStmt); ok {
			loop = l
		}
	}
	m := machine.Warp()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := hier.BuildNodes(bld.P, m, loop.ID, loop.Body); err != nil {
			b.Fatal(err)
		}
	}
}

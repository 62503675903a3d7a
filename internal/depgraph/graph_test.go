package depgraph

import (
	"math/rand"
	"testing"

	"softpipe/internal/ir"
	"softpipe/internal/machine"
)

// bodyNodes builds scheduling nodes for the single innermost loop of a
// builder-constructed program.
func bodyNodes(t *testing.T, p *ir.Program, m *machine.Machine) ([]*Node, int) {
	t.Helper()
	var loop *ir.LoopStmt
	var find func(b *ir.Block)
	find = func(b *ir.Block) {
		for _, s := range b.Stmts {
			if l, ok := s.(*ir.LoopStmt); ok {
				loop = l
				find(l.Body)
			}
		}
	}
	find(p.Body)
	if loop == nil {
		t.Fatal("no loop in program")
	}
	ops, ok := loop.Body.Ops()
	if !ok {
		t.Fatal("loop body is not straight-line")
	}
	nodes := make([]*Node, len(ops))
	for i, op := range ops {
		nodes[i] = MustNodeFromOp(m, op)
	}
	return nodes, loop.ID
}

// vectorAdd builds the paper's §2 example: a[i] = a[i] + c.
func vectorAdd() (*ir.Program, *ir.Builder) {
	b := ir.NewBuilder("vadd")
	b.Array("a", ir.KindFloat, 64)
	c := b.FConst(1.0)
	b.ForN(64, func(l *ir.LoopCtx) {
		p := l.Pointer(0, 1)
		v := b.Load("a", p, ir.Aff(l.ID, 1, 0))
		sum := b.FAdd(v, c)
		b.Store("a", p, sum, ir.Aff(l.ID, 1, 0))
	})
	return b.P, b
}

func TestVectorAddGraph(t *testing.T) {
	m := machine.Warp()
	p, _ := vectorAdd()
	if err := p.Validate(m); err != nil {
		t.Fatalf("validate: %v", err)
	}
	nodes, loopID := bodyNodes(t, p, m)
	// Body: load, fadd, store, iadd (pointer increment).
	if len(nodes) != 4 {
		t.Fatalf("got %d nodes, want 4", len(nodes))
	}
	g := Build(nodes, loopID)

	find := func(from, to int, kind DepKind, omega int) *Edge {
		for i := range g.Edges {
			e := &g.Edges[i]
			if e.From == from && e.To == to && e.Kind == kind && e.Omega == omega {
				return e
			}
		}
		return nil
	}
	if e := find(0, 1, DepFlow, 0); e == nil || e.Delay != 3 {
		t.Errorf("missing load->fadd flow d=3: %+v", e)
	}
	if e := find(1, 2, DepFlow, 0); e == nil || e.Delay != 7 {
		t.Errorf("missing fadd->store flow d=7: %+v", e)
	}
	// Same-address load/store: store -> next-iteration load would be
	// distance 1... here both touch a[i], so store(iter i) vs load(iter
	// i+k) with k = 0: program order load-before-store means only the
	// anti dep at omega 0.
	if e := find(0, 2, DepMemAnti, 0); e == nil {
		t.Errorf("missing load->store mem anti at omega 0")
	}
	if e := find(2, 0, DepMemFlow, 0); e != nil {
		t.Errorf("unexpected store->load flow at omega 0")
	}
	// Pointer increment self recurrence.
	if e := find(3, 3, DepFlow, 1); e == nil || e.Delay != 1 {
		t.Errorf("missing pointer self flow omega 1 d=1: %+v", e)
	}
	// The loaded value register should be expandable; the pointer not.
	vreg := nodes[0].Op.Dst
	preg := nodes[3].Op.Dst
	if !g.Expandable[vreg] {
		t.Errorf("loaded value register r%d should be expandable", vreg)
	}
	if g.Expandable[preg] {
		t.Errorf("pointer register r%d must not be expandable", preg)
	}
}

func TestAccumulatorRecurrence(t *testing.T) {
	m := machine.Warp()
	b := ir.NewBuilder("acc")
	b.Array("x", ir.KindFloat, 64)
	sum := b.FConst(0)
	b.ForN(64, func(l *ir.LoopCtx) {
		p := l.Pointer(0, 1)
		v := b.Load("x", p, ir.Aff(l.ID, 1, 0))
		b.FAddTo(sum, sum, v)
	})
	b.Result("sum", sum)
	nodes, loopID := bodyNodes(t, b.P, m)
	g := Build(nodes, loopID)
	a, err := Analyze(g, m)
	if err != nil {
		t.Fatal(err)
	}
	if a.RecMII != 7 {
		t.Errorf("RecMII = %d, want 7 (fadd latency)", a.RecMII)
	}
	oracle, err := RecurrenceMIIOracle(g, TarjanSCC(g))
	if err != nil {
		t.Fatal(err)
	}
	if oracle != a.RecMII {
		t.Errorf("closure RecMII %d != oracle %d", a.RecMII, oracle)
	}
	if g.Expandable[sum] {
		t.Errorf("accumulator must not be expandable")
	}
}

func TestMemoryCarriedDistance(t *testing.T) {
	m := machine.Warp()
	b := ir.NewBuilder("carry")
	b.Array("a", ir.KindFloat, 64)
	b.ForN(32, func(l *ir.LoopCtx) {
		pr := l.Pointer(0, 1) // reads a[i]
		pw := l.Pointer(2, 1) // writes a[i+2]
		v := b.Load("a", pr, ir.Aff(l.ID, 1, 0))
		w := b.FAdd(v, v)
		b.Store("a", pw, w, ir.Aff(l.ID, 1, 2))
	})
	nodes, loopID := bodyNodes(t, b.P, m)
	g := Build(nodes, loopID)
	// store a[i+2] (node 3) feeds load a[(i+2)] two iterations later.
	found := false
	for _, e := range g.Edges {
		if e.Kind == DepMemFlow && e.Omega == 2 {
			found = true
		}
		if e.Kind == DepMemFlow && e.Omega < 2 {
			t.Errorf("spurious mem flow at omega %d", e.Omega)
		}
	}
	if !found {
		t.Errorf("missing mem flow at distance 2")
	}
	a, err := Analyze(g, m)
	if err != nil {
		t.Fatal(err)
	}
	// Cycle: load -(3)-> fadd -(7)-> store -(1, w2)-> load: d=11, p=2 → ceil=6.
	// Plus pointer recurrences (II≥1).  Oracle must agree.
	oracle, err := RecurrenceMIIOracle(g, TarjanSCC(g))
	if err != nil {
		t.Fatal(err)
	}
	if a.RecMII != oracle {
		t.Errorf("closure RecMII %d != oracle %d", a.RecMII, oracle)
	}
	if a.RecMII != 6 {
		t.Errorf("RecMII = %d, want 6", a.RecMII)
	}
}

func TestDifferentArraysIndependent(t *testing.T) {
	m := machine.Warp()
	b := ir.NewBuilder("indep")
	b.Array("a", ir.KindFloat, 64)
	b.Array("c", ir.KindFloat, 64)
	b.ForN(32, func(l *ir.LoopCtx) {
		p := l.Pointer(0, 1)
		v := b.Load("a", p, ir.Aff(l.ID, 1, 0))
		b.Store("c", p, v, ir.Aff(l.ID, 1, 0))
	})
	nodes, loopID := bodyNodes(t, b.P, m)
	g := Build(nodes, loopID)
	for _, e := range g.Edges {
		if e.Kind == DepMemFlow || e.Kind == DepMemAnti || e.Kind == DepMemOutput {
			t.Errorf("unexpected memory dependence between distinct arrays: %+v", e)
		}
	}
}

func TestOpaqueAddressConservative(t *testing.T) {
	m := machine.Warp()
	b := ir.NewBuilder("opaque")
	b.Array("a", ir.KindFloat, 64)
	b.ForN(32, func(l *ir.LoopCtx) {
		p := l.Pointer(0, 1)
		v := b.Load("a", p, nil) // no annotation
		b.Store("a", p, v, nil)
	})
	nodes, loopID := bodyNodes(t, b.P, m)
	g := Build(nodes, loopID)
	var flow0, flowBack bool
	for _, e := range g.Edges {
		if e.Kind == DepMemAnti && e.Omega == 0 {
			flow0 = true // load before store, same iteration
		}
		if e.Kind == DepMemFlow && e.Omega == 1 {
			flowBack = true // store feeds next iteration's load
		}
	}
	if !flow0 || !flowBack {
		t.Errorf("opaque refs must be conservatively dependent both ways (anti0=%v flow1=%v)", flow0, flowBack)
	}
}

func TestZeroDistanceCycleRejected(t *testing.T) {
	m := machine.Warp()
	// Build an impossible graph by hand: two nodes that need each other
	// in the same iteration.
	p := ir.NewProgram("bad")
	x := p.NewReg(ir.KindFloat)
	y := p.NewReg(ir.KindFloat)
	o1 := p.NewOp(machine.ClassFAdd)
	o1.Dst = x
	o1.Src = []ir.VReg{y, y}
	o2 := p.NewOp(machine.ClassFAdd)
	o2.Dst = y
	o2.Src = []ir.VReg{x, x}
	n1 := MustNodeFromOp(m, o1)
	n2 := MustNodeFromOp(m, o2)
	g := &Graph{Nodes: []*Node{n1, n2}}
	n1.Index, n2.Index = 0, 1
	g.Edges = []Edge{
		{From: 0, To: 1, Delay: 7, Omega: 0, Kind: DepFlow, Reg: x},
		{From: 1, To: 0, Delay: 7, Omega: 0, Kind: DepFlow, Reg: y},
	}
	if _, err := Analyze(g, m); err == nil {
		t.Fatal("zero-distance cycle must be rejected")
	}
}

// TestClosureMatchesOracle cross-checks the symbolic closure against
// direct Bellman-Ford longest paths on random strongly connected graphs,
// after the three-way reference check (checkReferences) with the float
// adds' resource bound as the Analyze floor.
func TestClosureMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := machine.Warp()
	for trial := 0; trial < 500; trial++ {
		g := randomRingGraph(rng, m)
		res, err := ResourceMII(g, m)
		if err != nil {
			t.Fatal(err)
		}
		checkReferences(t, g, res, len(g.Nodes))
		scc := TarjanSCC(g)
		if len(scc.Components) != 1 {
			continue
		}
		cl, err := NewClosure(g, scc.Components[0], 1)
		if err != nil {
			// Zero-distance positive cycle generated; oracle must
			// agree that every II is infeasible.
			if _, orErr := RecurrenceMIIOracle(g, TarjanSCC(g)); orErr == nil {
				t.Fatalf("trial %d: closure rejected but oracle accepted", trial)
			}
			continue
		}
		recMII := cl.RecurrenceMII()
		oracle, err := RecurrenceMIIOracle(g, TarjanSCC(g))
		if err != nil {
			t.Fatalf("trial %d: oracle failed after closure succeeded: %v", trial, err)
		}
		if oracle < 1 {
			oracle = 1
		}
		want := recMII
		if want < 1 {
			want = 1
		}
		if want != oracle {
			t.Fatalf("trial %d: recMII closure=%d oracle=%d\n%v", trial, want, oracle, g)
		}
		// Compare distances at a few feasible IIs.
		for _, ii := range []int{oracle, oracle + 1, oracle + 3} {
			dist, ok := LongestPathsAt(g, ii)
			if !ok {
				t.Fatalf("trial %d: oracle says II=%d infeasible", trial, ii)
			}
			for _, u := range scc.Components[0] {
				for _, v := range scc.Components[0] {
					if u == v {
						continue
					}
					got := cl.DistAt(u, v, ii)
					want := dist[u][v]
					if got != want {
						t.Fatalf("trial %d: dist(%d,%d)@%d closure=%d oracle=%d\n%v", trial, u, v, ii, got, want, g)
					}
				}
			}
		}
	}
}

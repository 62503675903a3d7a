package depgraph

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"regexp"
	"strconv"
	"testing"

	"softpipe/internal/ir"
	"softpipe/internal/machine"
)

// recurrenceMIIAllPairs is the reference recurrence bound: binary search
// over all-pairs longest paths of the whole graph, the upper bound taken
// from every edge's delay.
func recurrenceMIIAllPairs(g *Graph) (int, error) {
	hi := 1
	for _, e := range g.Edges {
		if e.Delay > 0 {
			hi += e.Delay
		}
	}
	if _, ok := LongestPathsAt(g, hi); !ok {
		return 0, errors.New("depgraph: dependence cycle with zero iteration distance")
	}
	lo := 1
	for lo < hi {
		mid := (lo + hi) / 2
		if _, ok := LongestPathsAt(g, mid); ok {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo, nil
}

// closureFullFixpoint is the reference closure: Floyd–Warshall passes
// until a pass changes nothing, then the zero-distance cycle check.
func closureFullFixpoint(g *Graph, comp []int, sMin int) (*Closure, error) {
	c, wind, err := seedClosure(g, comp, sMin)
	if err != nil {
		return nil, err
	}
	for c.relax(wind) {
	}
	for i := range c.Dist {
		for _, p := range c.Dist[i][i] {
			if p.P == 0 && p.D > 0 {
				return nil, fmt.Errorf("zero-distance cycle through node %d", c.Members[i])
			}
		}
	}
	return c, nil
}

// checkReferences runs the three-way check on g: the recurrence oracle
// against the all-pairs reference (value and failure), and, for every
// nontrivial component, NewClosure against the full-fixpoint reference
// at Analyze's floor max(resMII, RecMII) and at sMin = 1.  The closures
// must fail exactly when the oracle does, and at sMin = 1 reproduce its
// bound.  Below the recurrence bound profitable cycles are iterated up
// to the winding cap, which costs seconds on components of a few dozen
// members, so the sMin = 1 check skips components larger than
// maxUnfloored.
func checkReferences(t *testing.T, g *Graph, resMII, maxUnfloored int) {
	t.Helper()
	scc := TarjanSCC(g)
	got, gotErr := RecurrenceMIIOracle(g, scc)
	want, wantErr := recurrenceMIIAllPairs(g)
	if (gotErr != nil) != (wantErr != nil) || got != want {
		t.Fatalf("oracle = %d, %v; all-pairs reference = %d, %v\n%v", got, gotErr, want, wantErr, g.Edges)
	}
	floor := resMII
	if got > floor {
		floor = got
	}
	closureMII := 1
	closureErr := false
	unfloored := true
	for ci, comp := range scc.Components {
		if scc.IsTrivial(g, ci) {
			continue
		}
		sMins := []int{floor, 1}
		if len(comp) > maxUnfloored {
			sMins, unfloored = sMins[:1], false
		}
		for _, sMin := range sMins {
			cl, err := NewClosure(g, comp, sMin)
			if err != nil {
				// The oracle judges this below; the reference would
				// only grow the zero-distance cycle until it overflows.
				closureErr = true
				continue
			}
			ref, err := closureFullFixpoint(g, comp, sMin)
			if err != nil {
				t.Fatalf("component %v at sMin %d: reference failed where the closure did not: %v\n%v", comp, sMin, err, g.Edges)
			}
			if !reflect.DeepEqual(cl.Dist, ref.Dist) {
				t.Fatalf("component %v at sMin %d: closure Dist differs from the full fixpoint\n%v", comp, sMin, g.Edges)
			}
			if sMin == 1 {
				if r := cl.RecurrenceMII(); r > closureMII {
					closureMII = r
				}
			}
		}
	}
	if closureErr != (gotErr != nil) {
		t.Fatalf("closure error %v, oracle error %v\n%v", closureErr, gotErr, g.Edges)
	}
	if gotErr == nil && unfloored && closureMII != got {
		t.Fatalf("closure RecurrenceMII %d, oracle %d\n%v", closureMII, got, g.Edges)
	}
}

// randomRingGraph draws a graph for the closure cross-checks: a ring of
// 2..6 float adds closed by one inter-iteration edge, which makes it
// strongly connected, plus up to three random chords (which may close
// zero-distance positive cycles).
func randomRingGraph(rng *rand.Rand, m *machine.Machine) *Graph {
	n := 2 + rng.Intn(5)
	g := &Graph{}
	p := ir.NewProgram("rnd")
	for i := 0; i < n; i++ {
		op := p.NewOp(machine.ClassFAdd)
		r := p.NewReg(ir.KindFloat)
		op.Dst = r
		op.Src = []ir.VReg{r, r}
		nd := MustNodeFromOp(m, op)
		nd.Index = i
		g.Nodes = append(g.Nodes, nd)
	}
	for i := 0; i < n; i++ {
		omega := 0
		if i == n-1 {
			omega = 1 + rng.Intn(2)
		}
		g.Edges = append(g.Edges, Edge{From: i, To: (i + 1) % n, Delay: 1 + rng.Intn(6), Omega: omega})
	}
	for k := 0; k < rng.Intn(4); k++ {
		g.Edges = append(g.Edges, Edge{
			From:  rng.Intn(n),
			To:    rng.Intn(n),
			Delay: rng.Intn(8) - 1,
			Omega: rng.Intn(3),
		})
	}
	return g
}

// graphFromBytes decodes a fuzz input: the first byte picks 1..12 nodes,
// each following triple one edge (from, to, and a byte holding delay
// −1..8 and omega 0..3).
func graphFromBytes(data []byte) *Graph {
	if len(data) == 0 {
		return &Graph{}
	}
	n := 1 + int(data[0])%12
	g := &Graph{Nodes: make([]*Node, n)}
	for i := range g.Nodes {
		g.Nodes[i] = &Node{Index: i}
	}
	for b := data[1:]; len(b) >= 3; b = b[3:] {
		g.Edges = append(g.Edges, Edge{
			From:  int(b[0]) % n,
			To:    int(b[1]) % n,
			Delay: int(b[2]%10) - 1,
			Omega: int(b[2]/10) % 4,
		})
	}
	return g
}

// graphBytes encodes edges for graphFromBytes.
func graphBytes(n int, edges []Edge) []byte {
	out := []byte{byte(n - 1)}
	for _, e := range edges {
		out = append(out, byte(e.From), byte(e.To), byte(e.Omega*10+e.Delay+1))
	}
	return out
}

// overflowEdges is a component with a zero-distance positive cycle
// (1→2→3→4→1, delay 20) that the closure used to keep relaxing until its
// delay overflowed.
var overflowEdges = []Edge{
	{From: 0, To: 1, Delay: 5}, {From: 1, To: 2, Delay: 5}, {From: 2, To: 3, Delay: 4},
	{From: 3, To: 4, Delay: 6}, {From: 4, To: 0, Delay: 5, Omega: 2}, {From: 4, To: 1, Delay: 5},
}

// TestReferencesOnRandomGraphs runs the three-way check on random
// byte-encoded graphs, which unlike the rings span several components.
func TestReferencesOnRandomGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 500; trial++ {
		data := make([]byte, 1+3*rng.Intn(24))
		rng.Read(data)
		g := graphFromBytes(data)
		checkReferences(t, g, 1, len(g.Nodes))
	}
}

// TestClosureZeroDistanceCycleStops checks the overflow regression: the
// zero-distance cycle is reported as soon as a pass exposes it, with a
// delay no larger than the component's total positive delay.
func TestClosureZeroDistanceCycleStops(t *testing.T) {
	g := graphFromBytes(graphBytes(5, overflowEdges))
	if !reflect.DeepEqual(g.Edges, overflowEdges) {
		t.Fatalf("encoding round trip: %v", g.Edges)
	}
	scc := TarjanSCC(g)
	if len(scc.Components) != 1 {
		t.Fatalf("components %v, want one", scc.Components)
	}
	total := 0
	for _, e := range g.Edges {
		if e.Delay > 0 {
			total += e.Delay
		}
	}
	_, err := NewClosure(g, scc.Components[0], 1)
	if err == nil {
		t.Fatal("closure accepted a zero-distance positive cycle")
	}
	sub := regexp.MustCompile(`zero-distance dependence cycle through node \d+ \(delay (\d+)\)`).FindStringSubmatch(err.Error())
	if sub == nil {
		t.Fatalf("unexpected error: %v", err)
	}
	if d, _ := strconv.Atoi(sub[1]); d > total {
		t.Errorf("reported delay %d exceeds the component's total positive delay %d", d, total)
	}
	if _, err := RecurrenceMIIOracle(g, scc); err == nil {
		t.Error("oracle accepted a zero-distance positive cycle")
	}
}

// TestSCCTrivialFlag pins IsTrivial on the three shapes: a lone node, a
// lone node with a self-loop, and a multi-node cycle.
func TestSCCTrivialFlag(t *testing.T) {
	g := graphFromBytes(graphBytes(4, []Edge{
		{From: 1, To: 1, Delay: 1, Omega: 1},
		{From: 2, To: 3, Delay: 1}, {From: 3, To: 2, Delay: 1, Omega: 1},
	}))
	scc := TarjanSCC(g)
	for v, want := range []bool{true, false, false, false} {
		if got := scc.IsTrivial(g, scc.Comp[v]); got != want {
			t.Errorf("IsTrivial(component of n%d) = %v, want %v", v, got, want)
		}
	}
}

// FuzzRecurrenceMII runs the three-way check on small byte-encoded
// graphs (see graphFromBytes):
//
//	go test -fuzz=FuzzRecurrenceMII ./internal/depgraph/
//
// Plain `go test` replays the checked-in corpus under testdata/fuzz.
func FuzzRecurrenceMII(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		g := graphFromBytes(data)
		checkReferences(t, g, 1, len(g.Nodes))
	})
}

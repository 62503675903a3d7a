package depgraph_test

import (
	"testing"

	"softpipe/internal/depgraph"
	"softpipe/internal/hier"
	"softpipe/internal/ir"
	"softpipe/internal/machine"
	"softpipe/internal/workloads"
)

// maxUnfloored is the largest component the suite checks at sMin = 1,
// where the closure iterates profitable cycles up to the winding cap.
// Components up to this size cost milliseconds there; the largest ones
// of the unfiltered graphs cost seconds each.
const maxUnfloored = 10

// checkLoops runs the oracle and closure cross-check on the dependence
// graph of every loop of p whose body reduces to scheduling nodes: the
// full graph and the graph with every expandable register's removable
// edges filtered out, as the pipeliner first analyzes it.  It returns the
// number of loops checked.
func checkLoops(t *testing.T, p *ir.Program, m *machine.Machine) int {
	t.Helper()
	loops := 0
	var walk func(b *ir.Block)
	walk = func(b *ir.Block) {
		for _, s := range b.Stmts {
			switch s := s.(type) {
			case *ir.IfStmt:
				walk(s.Then)
				walk(s.Else)
			case *ir.LoopStmt:
				walk(s.Body)
				nodes, err := hier.BuildNodes(p, m, s.ID, s.Body)
				if err != nil {
					continue
				}
				full := depgraph.BuildIndep(nodes, s.ID, s.Independent)
				for _, g := range []*depgraph.Graph{full, full.Filter(full.Expandable)} {
					res, err := depgraph.ResourceMII(g, m)
					if err != nil {
						t.Fatal(err)
					}
					depgraph.CheckReferences(t, g, res, maxUnfloored)
				}
				loops++
			}
		}
	}
	walk(p.Body)
	return loops
}

// TestReferencesOnLivermore cross-checks the recurrence oracle and the
// closures against their references on every Livermore loop graph.
func TestReferencesOnLivermore(t *testing.T) {
	m := machine.Warp()
	loops := 0
	for _, k := range workloads.Livermore() {
		p, err := k.Build()
		if err != nil {
			t.Fatal(err)
		}
		loops += checkLoops(t, p, m)
	}
	if loops == 0 {
		t.Fatal("no Livermore loop checked")
	}
}

// TestReferencesOnSuite does the same for the 72 programs of the §4.1
// suite.
func TestReferencesOnSuite(t *testing.T) {
	m := machine.Warp()
	loops := 0
	for _, sp := range workloads.Suite() {
		loops += checkLoops(t, sp.Prog, m)
	}
	if loops < workloads.SuiteSize {
		t.Fatalf("%d suite loops checked, want at least %d", loops, workloads.SuiteSize)
	}
}

package depgraph

import (
	"fmt"

	"softpipe/internal/machine"
)

// MissingResourceError reports that the target machine provides zero
// units of a resource some scheduled operation reserves: no initiation
// interval can host the loop.  It surfaces as a structured compile
// error (and in the II-search explain report) instead of the division
// by zero the naive resource-MII formula would hit.
type MissingResourceError struct {
	Resource machine.Resource
	Machine  string
	// Node renders one operation reserving the missing resource; empty
	// when only an implicit reservation (e.g. the loop-back branch)
	// needs it.
	Node string
}

func (e *MissingResourceError) Error() string {
	who := e.Node
	if who == "" {
		who = "an implicit reservation"
	}
	return fmt.Sprintf("depgraph: machine %s lacks resource %v required by %s", e.Machine, e.Resource, who)
}

// ResourceMII returns the lower bound on the initiation interval imposed
// by resource usage: the maximum over resources of
// ceil(total uses / available units) (Lam §2.2, resource constraints).
// It fails with a *MissingResourceError when some reserved resource has
// zero units on m.
func ResourceMII(g *Graph, m *machine.Machine) (int, error) {
	return ResourceMIIExtra(g, m, nil)
}

// ResourceMIIExtra is ResourceMII with additional reserved uses counted
// (the pipeliner reserves the sequencer's branch field for the loop-back
// branch in every steady-state window).
func ResourceMIIExtra(g *Graph, m *machine.Machine, extra []machine.ResUse) (int, error) {
	uses := make([]int, len(m.ResourceCount))
	firstUser := make([]string, len(m.ResourceCount))
	for _, n := range g.Nodes {
		for _, u := range n.Reservation {
			if int(u.Resource) >= len(uses) {
				return 0, &MissingResourceError{Resource: u.Resource, Machine: m.Name, Node: n.String()}
			}
			if uses[u.Resource] == 0 {
				firstUser[u.Resource] = n.String()
			}
			uses[u.Resource]++
		}
	}
	for _, u := range extra {
		if int(u.Resource) >= len(uses) {
			return 0, &MissingResourceError{Resource: u.Resource, Machine: m.Name}
		}
		uses[u.Resource]++
	}
	mii := 1
	for r, cnt := range uses {
		if cnt == 0 {
			continue
		}
		if m.ResourceCount[r] <= 0 {
			return 0, &MissingResourceError{Resource: machine.Resource(r), Machine: m.Name, Node: firstUser[r]}
		}
		if v := ceilDiv(cnt, m.ResourceCount[r]); v > mii {
			mii = v
		}
	}
	return mii, nil
}

// Analysis bundles the preprocessing results the iterative scheduler
// needs: the SCC decomposition and, for each nontrivial component, its
// symbolic longest-path closure.
type Analysis struct {
	Graph    *Graph
	SCC      *SCC
	Closures []*Closure // indexed by component; nil for trivial components
	ResMII   int
	// RecMII is the recurrence bound where it exceeds the resource bound
	// (cycles already covered by ResMII are pruned from the closures).
	RecMII int
	MII    int
	// HasRecurrence reports a nontrivial strongly connected component.
	HasRecurrence bool
}

// Analyze performs the paper's preprocessing step on an already-filtered
// graph: find components, build symbolic closures, derive the MII.
// Closures are pruned against the resource MII, which every candidate
// interval is known to meet or exceed.
func Analyze(g *Graph, m *machine.Machine) (*Analysis, error) {
	res, err := ResourceMII(g, m)
	if err != nil {
		return nil, err
	}
	a := &Analysis{Graph: g, SCC: TarjanSCC(g), ResMII: res}
	a.Closures = make([]*Closure, len(a.SCC.Components))
	a.RecMII = 0
	a.HasRecurrence = false
	for ci := range a.SCC.Components {
		if !a.SCC.IsTrivial(g, ci) {
			a.HasRecurrence = true
		}
	}
	if a.HasRecurrence {
		// The recurrence bound comes from the cheap concrete oracle
		// (binary search over positive-cycle feasibility); the symbolic
		// closures are then built once, pruned against the full MII
		// floor, which keeps their Pareto frontiers tiny.
		rec, err := RecurrenceMIIOracle(g, a.SCC)
		if err != nil {
			return nil, err
		}
		a.RecMII = rec
		floor := a.ResMII
		if rec > floor {
			floor = rec
		}
		for ci, comp := range a.SCC.Components {
			if a.SCC.IsTrivial(g, ci) {
				continue
			}
			cl, err := NewClosure(g, comp, floor)
			if err != nil {
				return nil, err
			}
			a.Closures[ci] = cl
		}
	}
	a.MII = a.ResMII
	if a.RecMII > a.MII {
		a.MII = a.RecMII
	}
	if a.MII < 1 {
		a.MII = 1
	}
	return a, nil
}

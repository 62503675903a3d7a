package depgraph

import (
	"fmt"
	"math"
)

// DistPair is one Pareto point of the parametric longest-path problem:
// a path with total delay D and total iteration difference P contributes
// the constraint σ(v) − σ(u) ≥ D − s·P.  Keeping the Pareto frontier over
// (maximize D, minimize P) lets the closure be computed once with the
// initiation interval s symbolic, exactly the preprocessing step of Lam
// §2.2.2, and evaluated for each candidate s during the linear search.
type DistPair struct {
	D int
	P int
}

// PairSet is a Pareto frontier sorted by increasing P with strictly
// increasing D (a pair with higher P must buy strictly more delay).
type PairSet []DistPair

// NegInf marks "no path" distances.
const NegInf = math.MinInt32

// insertPair merges p into the frontier, preserving the invariant.
// It reports whether the frontier changed.
func insertPair(s PairSet, p DistPair) (PairSet, bool) {
	// Find position by P.
	i := 0
	for i < len(s) && s[i].P < p.P {
		i++
	}
	if i < len(s) && s[i].P == p.P {
		if s[i].D >= p.D {
			return s, false
		}
		s[i].D = p.D
	} else {
		// Dominated by an earlier (smaller P) entry with >= D?
		if i > 0 && s[i-1].D >= p.D {
			return s, false
		}
		s = append(s, DistPair{})
		copy(s[i+1:], s[i:])
		s[i] = p
	}
	// The (possibly raised) entry may now dominate later ones or be
	// dominated by an earlier one.
	if i > 0 && s[i-1].D >= s[i].D {
		copy(s[i:], s[i+1:])
		return s[:len(s)-1], false
	}
	// Remove later entries dominated by the new one.
	j := i + 1
	for j < len(s) && s[j].D <= s[i].D {
		j++
	}
	if j > i+1 {
		copy(s[i+1:], s[j:])
		s = s[:len(s)-(j-i-1)]
	}
	return s, true
}

// Eval returns the longest distance at a concrete initiation interval,
// or NegInf if the set is empty.
func (s PairSet) Eval(ii int) int {
	best := NegInf
	for _, p := range s {
		if d := p.D - ii*p.P; d > best {
			best = d
		}
	}
	return best
}

// Closure holds the all-points symbolic longest-path closure of one
// strongly connected component.
//
// Pairs are stored with delays transformed to D' = D − SMin·P, where SMin
// is a lower bound on every initiation interval the closure will be
// evaluated at (the resource MII).  Under that transform the ordinary
// Pareto rule also prunes pairs that can never win anywhere on
// [SMin, ∞), which keeps the frontiers tiny on components with many
// inter-iteration edges.
type Closure struct {
	// Members of the component, and their index within the closure.
	Members []int
	Pos     map[int]int
	// SMin is the evaluation-domain floor the transform used.
	SMin int
	// Dist[i][j] is the Pareto frontier of transformed path lengths from
	// Members[i] to Members[j] (paths staying inside the component).
	Dist [][]PairSet
}

// maxWind is the hard ceiling on the iteration-difference of retained
// paths; the effective cap per component is the total omega of its edges
// (any path beyond that repeats a node, and removing the repeated cycle
// never hurts for s ≥ the recurrence MII, where cycle slack d−s·p ≤ 0).
const maxWind = 64

// NewClosure solves the all-points longest path problem for component
// comp of graph g, with the initiation interval symbolic.  Evaluations
// are valid for intervals ≥ sMin (pass 1 when no better bound is known).
//
// It runs Floyd–Warshall passes over the Pareto semiring.  A pass that
// leaves no diagonal pair with D' > 0 ends the loop: every cycle is then
// dominated by the empty path (D' ≤ 0, P ≥ 0), so appending a cycle to a
// path only yields a dominated pair and a further pass cannot change
// anything.  With sMin at or above the recurrence MII that holds after
// the first pass; below it, profitable cycles are traversed again until
// the frontiers stop changing (up to the winding cap).
func NewClosure(g *Graph, comp []int, sMin int) (*Closure, error) {
	c, wind, err := seedClosure(g, comp, sMin)
	if err != nil {
		return nil, err
	}
	for {
		changed := c.relax(wind)
		positive := false
		for i := range c.Dist {
			for _, p := range c.Dist[i][i] {
				// A cycle with iteration difference 0 and positive delay
				// is an illegal program (value needed before it is
				// produced).  P=0 pairs are untouched by the transform,
				// and another pass would only grow their delay.
				if p.P == 0 && p.D > 0 {
					return nil, fmt.Errorf("depgraph: zero-distance dependence cycle through node %d (delay %d)", c.Members[i], p.D)
				}
				positive = positive || p.D > 0
			}
		}
		if !changed || !positive {
			return c, nil
		}
	}
}

// seedClosure allocates the closure of comp and seeds it with the edges
// internal to the component.  It also returns the component's winding
// cap: the sum of its edge omegas bounds the iteration difference of any
// simple path.
func seedClosure(g *Graph, comp []int, sMin int) (*Closure, int, error) {
	if sMin < 1 {
		sMin = 1
	}
	c := &Closure{Members: comp, Pos: make(map[int]int, len(comp)), SMin: sMin}
	n := len(comp)
	for i, v := range comp {
		c.Pos[v] = i
	}
	c.Dist = make([][]PairSet, n)
	for i := range c.Dist {
		c.Dist[i] = make([]PairSet, n)
	}
	wind := 0
	for _, e := range g.Edges {
		i, ok1 := c.Pos[e.From]
		j, ok2 := c.Pos[e.To]
		if !ok1 || !ok2 {
			continue
		}
		if e.Omega == 0 && e.From == e.To && e.Delay > 0 {
			return nil, 0, fmt.Errorf("depgraph: node %d depends on itself within one iteration (delay %d)", e.From, e.Delay)
		}
		c.Dist[i][j], _ = insertPair(c.Dist[i][j], DistPair{D: e.Delay - sMin*e.Omega, P: e.Omega})
		wind += e.Omega
	}
	if wind < 1 {
		wind = 1
	}
	if wind > maxWind {
		wind = maxWind
	}
	return c, wind, nil
}

// relax runs one Floyd–Warshall pass, dropping paths whose iteration
// difference exceeds wind, and reports whether any frontier changed.
func (c *Closure) relax(wind int) bool {
	n := len(c.Dist)
	changed := false
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			if len(c.Dist[i][k]) == 0 {
				continue
			}
			for j := 0; j < n; j++ {
				if len(c.Dist[k][j]) == 0 {
					continue
				}
				for _, a := range c.Dist[i][k] {
					for _, b := range c.Dist[k][j] {
						p := DistPair{D: a.D + b.D, P: a.P + b.P}
						if p.P > wind {
							continue
						}
						var ch bool
						c.Dist[i][j], ch = insertPair(c.Dist[i][j], p)
						changed = changed || ch
					}
				}
			}
		}
	}
	return changed
}

// DistAt returns the longest path distance from node u to node v (graph
// indices) at initiation interval ii ≥ SMin, or NegInf when no path
// exists.
func (c *Closure) DistAt(u, v, ii int) int {
	i, ok1 := c.Pos[u]
	j, ok2 := c.Pos[v]
	if !ok1 || !ok2 {
		return NegInf
	}
	return c.Dist[i][j].Eval(ii - c.SMin)
}

// DistZero returns the longest intra-iteration (omega = 0) path distance
// from u to v, or NegInf when no such path exists.  The scheduler anchors
// its earliest-slot scan here so that nodes do not float a whole
// iteration backward on inter-iteration slack (which would defeat the
// property that ranges widen as the initiation interval grows, Lam
// §2.2.2).
func (c *Closure) DistZero(u, v int) int {
	i, ok1 := c.Pos[u]
	j, ok2 := c.Pos[v]
	if !ok1 || !ok2 {
		return NegInf
	}
	s := c.Dist[i][j]
	if len(s) > 0 && s[0].P == 0 {
		return s[0].D
	}
	return NegInf
}

// InstantiateAt densely evaluates the closure at a concrete initiation
// interval ii ≥ SMin.  The returned slice is row-major n×n over member
// indices (n = len(Members)); entry i*n+j is the longest path distance
// from Members[i] to Members[j], NegInf when no path exists.  dst is
// reused when its capacity suffices, so the iterative II search can
// instantiate once per (component, candidate interval) into the same
// buffer instead of re-evaluating Pareto frontiers at every placement.
func (c *Closure) InstantiateAt(ii int, dst []int) []int {
	n := len(c.Members)
	if cap(dst) < n*n {
		dst = make([]int, n*n)
	} else {
		dst = dst[:n*n]
	}
	t := ii - c.SMin
	for i, row := range c.Dist {
		out := dst[i*n : (i+1)*n]
		for j, s := range row {
			out[j] = s.Eval(t)
		}
	}
	return dst
}

// ZeroMatrix densely extracts the intra-iteration (omega = 0) distances
// in the same row-major member-index layout as InstantiateAt.  The
// matrix does not depend on the initiation interval, so callers compute
// it once per component and reuse it across the whole II search.
func (c *Closure) ZeroMatrix(dst []int) []int {
	n := len(c.Members)
	if cap(dst) < n*n {
		dst = make([]int, n*n)
	} else {
		dst = dst[:n*n]
	}
	for i, row := range c.Dist {
		out := dst[i*n : (i+1)*n]
		for j, s := range row {
			if len(s) > 0 && s[0].P == 0 {
				out[j] = s[0].D
			} else {
				out[j] = NegInf
			}
		}
	}
	return dst
}

// RecurrenceMII returns the smallest initiation interval permitted by the
// component's cycles: max over cycles of ceil(delay(c)/omega(c)).
// Cycles already satisfied at SMin contribute nothing (the overall MII
// includes the resource bound SMin was derived from).
func (c *Closure) RecurrenceMII() int {
	mii := 0
	for i := range c.Dist {
		for _, p := range c.Dist[i][i] {
			if p.P <= 0 || p.D <= 0 {
				continue
			}
			if v := c.SMin + ceilDiv(p.D, p.P); v > mii {
				mii = v
			}
		}
	}
	return mii
}

func ceilDiv(a, b int) int {
	q := a / b
	if a%b != 0 && (a > 0) == (b > 0) {
		q++
	}
	return q
}

// --- Concrete oracles ---------------------------------------------------

// LongestPathsAt computes all-pairs longest paths over the whole graph at
// a concrete initiation interval by Bellman–Ford-style relaxation.  It
// is O(V²·E) time and O(V²) memory, kept as the test reference and as
// the recompute-per-interval ablation (BenchmarkAblationClosure_Recompute).
// It returns ok=false if a positive cycle exists (ii is infeasible).
func LongestPathsAt(g *Graph, ii int) (dist [][]int, ok bool) {
	n := len(g.Nodes)
	dist = make([][]int, n)
	for i := range dist {
		dist[i] = make([]int, n)
		for j := range dist[i] {
			dist[i][j] = NegInf
		}
	}
	for _, e := range g.Edges {
		w := e.Delay - ii*e.Omega
		if w > dist[e.From][e.To] {
			dist[e.From][e.To] = w
		}
	}
	for iter := 0; iter <= n; iter++ {
		changed := false
		for _, e := range g.Edges {
			w := e.Delay - ii*e.Omega
			for s := 0; s < n; s++ {
				if dist[s][e.From] == NegInf {
					continue
				}
				if nd := dist[s][e.From] + w; nd > dist[s][e.To] {
					dist[s][e.To] = nd
					changed = true
				}
			}
		}
		if !changed {
			return dist, true
		}
	}
	return nil, false
}

// RecurrenceMIIOracle finds the recurrence MII by binary search over the
// feasibility predicate "no positive cycle at ii".  scc is g's component
// decomposition: cycles lie inside components, so only intra-component
// edges are relaxed and only their delays bound the search.
func RecurrenceMIIOracle(g *Graph, scc *SCC) (int, error) {
	var arcs []Edge
	hi := 1
	for _, e := range g.Edges {
		if scc.Comp[e.From] != scc.Comp[e.To] {
			continue
		}
		arcs = append(arcs, e)
		if e.Delay > 0 {
			hi += e.Delay
		}
	}
	// A simple path inside a component visits at most its size in nodes.
	passes := 1
	for _, comp := range scc.Components {
		if len(comp) > passes {
			passes = len(comp)
		}
	}
	dist := make([]int, len(g.Nodes))
	// At hi every cycle with a positive iteration difference is negative,
	// so only a zero-distance positive cycle can make hi infeasible.
	if hasPositiveCycle(arcs, dist, passes, hi) {
		return 0, fmt.Errorf("depgraph: dependence cycle with zero iteration distance")
	}
	lo := 1
	for lo < hi {
		mid := (lo + hi) / 2
		if !hasPositiveCycle(arcs, dist, passes, mid) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo, nil
}

// hasPositiveCycle reports whether the arcs, weighted delay − ii·omega,
// contain a positive cycle.  It runs Bellman–Ford longest paths from a
// virtual source joined to every node by a zero-weight edge (every dist
// starts at 0): without a positive cycle the distances settle within
// passes rounds, where passes bounds the nodes on any simple path.
func hasPositiveCycle(arcs []Edge, dist []int, passes, ii int) bool {
	for i := range dist {
		dist[i] = 0
	}
	for pass := 0; pass < passes; pass++ {
		changed := false
		for _, e := range arcs {
			if d := dist[e.From] + e.Delay - ii*e.Omega; d > dist[e.To] {
				dist[e.To] = d
				changed = true
			}
		}
		if !changed {
			return false
		}
	}
	return true
}

package depgraph

// SCC computes the strongly connected components of the graph with
// Tarjan's algorithm (Tarjan 1972, reference [29] of the paper).
// Components are returned in reverse topological order of the condensed
// graph (callers usually want topological order: iterate in reverse).
// Comp maps node index -> component index.
type SCC struct {
	Components [][]int
	Comp       []int
	// cyclic[c] reports that component c lies on a dependence cycle:
	// it has several members or its single member has a self-loop.
	cyclic []bool
}

// TarjanSCC runs Tarjan's algorithm on g.
func TarjanSCC(g *Graph) *SCC {
	n := len(g.Nodes)
	adj := make([][]int, n)
	selfLoop := make([]bool, n)
	for _, e := range g.Edges {
		adj[e.From] = append(adj[e.From], e.To)
		if e.From == e.To {
			selfLoop[e.From] = true
		}
	}

	s := &SCC{Comp: make([]int, n)}
	for i := range s.Comp {
		s.Comp[i] = -1
	}
	index := make([]int, n)
	low := make([]int, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = -1
	}
	var stack []int
	next := 0

	// Iterative Tarjan to avoid deep recursion on long bodies.
	type frame struct {
		v, ei int
	}
	var call []frame
	for root := 0; root < n; root++ {
		if index[root] != -1 {
			continue
		}
		call = append(call[:0], frame{v: root})
		index[root] = next
		low[root] = next
		next++
		stack = append(stack, root)
		onStack[root] = true
		for len(call) > 0 {
			f := &call[len(call)-1]
			v := f.v
			if f.ei < len(adj[v]) {
				w := adj[v][f.ei]
				f.ei++
				if index[w] == -1 {
					index[w] = next
					low[w] = next
					next++
					stack = append(stack, w)
					onStack[w] = true
					call = append(call, frame{v: w})
				} else if onStack[w] && index[w] < low[v] {
					low[v] = index[w]
				}
				continue
			}
			// Finished v.
			call = call[:len(call)-1]
			if len(call) > 0 {
				p := call[len(call)-1].v
				if low[v] < low[p] {
					low[p] = low[v]
				}
			}
			if low[v] == index[v] {
				var comp []int
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					s.Comp[w] = len(s.Components)
					comp = append(comp, w)
					if w == v {
						break
					}
				}
				// Keep members in program order for deterministic
				// scheduling.
				for i, j := 0, len(comp)-1; i < j; i, j = i+1, j-1 {
					comp[i], comp[j] = comp[j], comp[i]
				}
				sortInts(comp)
				s.Components = append(s.Components, comp)
				s.cyclic = append(s.cyclic, len(comp) > 1 || selfLoop[v])
			}
		}
	}
	return s
}

func sortInts(a []int) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

// IsTrivial reports whether component c is a single node without a
// self-loop (i.e. not part of any dependence cycle).  g is the graph the
// components were computed from; the answer was recorded then.
func (s *SCC) IsTrivial(g *Graph, c int) bool {
	return !s.cyclic[c]
}

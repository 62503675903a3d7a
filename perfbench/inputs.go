package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"

	"softpipe/internal/ir"
	"softpipe/internal/service"
	"softpipe/internal/workloads"
)

// program is one W2 source the library workloads take to a checked
// result.  Init, when non-nil, presets input arrays after lowering (the
// Livermore kernels' data, the large-body programs' seeded data).
type program struct {
	Name   string
	Source string
	Init   func(*ir.Program)
	Stmts  int // loop-body statements of a large-body program
}

// livermorePrograms returns the 19 Livermore kernels of Lam Table 4-2.
func livermorePrograms() []program {
	ks := workloads.Livermore()
	out := make([]program, len(ks))
	for i, k := range ks {
		out[i] = program{Name: k.Name, Source: k.Source, Init: k.Init}
	}
	return out
}

// largeBodySizes are the statement counts of the large-body loops.  The
// recurrence shape at 64 and 128 statements needs more float registers
// than the Warp cell has; those programs stay in and count as failures.
var largeBodySizes = []int{8, 16, 32, 64, 128}

// coefPool is the small pool the seed draws loop coefficients from.
var coefPool = []string{"0.5", "0.25", "0.75", "1.5"}

// largeBodyTrip is the trip count of every large-body loop.
const largeBodyTrip = 100

// largeBodyPrograms generates, for every size in largeBodySizes, one
// program of each shape:
//
//   - recurrence: every statement folds into the loop-carried scalar s
//     (s := s*c + x[k+i]), so one SCC spans the whole body;
//   - acyclic: a register chain t := t*c + d that starts from a load and
//     ends in a store, with no loop-carried value.
//
// The seed draws the coefficients and the input array x.  Coefficients
// are dealt from the pool in seeded order, every value once per round, so
// each program uses every pool value: the constants' register pressure,
// and with it the compiled code, is the same for every seed.
func largeBodyPrograms(seed int64) []program {
	rng := rand.New(rand.NewSource(seed))
	var deck []int
	coef := func() string {
		if len(deck) == 0 {
			deck = rng.Perm(len(coefPool))
		}
		c := coefPool[deck[0]]
		deck = deck[1:]
		return c
	}
	var out []program
	for _, n := range largeBodySizes {
		var rec strings.Builder
		fmt.Fprintf(&rec, "program rec%d;\nvar x: array [0..%d] of real;\n    s: real;\n    k: int;\nbegin\n  s := 0.0;\n  for k := 0 to %d do begin\n",
			n, largeBodyTrip+n-1, largeBodyTrip-1)
		for i := 0; i < n; i++ {
			fmt.Fprintf(&rec, "    s := s * %s + x[k+%d];\n", coef(), i)
		}
		rec.WriteString("  end;\nend.\n")
		out = append(out, program{Name: fmt.Sprintf("rec%d", n), Source: rec.String(), Init: fillArray("x", largeBodyTrip+n, rng), Stmts: n})

		var acyc strings.Builder
		fmt.Fprintf(&acyc, "program acyc%d;\nvar x, y: array [0..%d] of real;\n    t: real;\n    k: int;\nbegin\n  for k := 0 to %d do begin\n    t := x[k];\n",
			n, largeBodyTrip-1, largeBodyTrip-1)
		for i := 0; i < n; i++ {
			fmt.Fprintf(&acyc, "    t := t * %s + %s;\n", coef(), coef())
		}
		acyc.WriteString("    y[k] := t;\n  end;\nend.\n")
		out = append(out, program{Name: fmt.Sprintf("acyc%d", n), Source: acyc.String(), Init: fillArray("x", largeBodyTrip, rng), Stmts: n})
	}
	return out
}

// fillArray draws size values in [-1, 1) now and returns an Init that
// presets the named float array with them.
func fillArray(name string, size int, rng *rand.Rand) func(*ir.Program) {
	vals := make([]float64, size)
	for i := range vals {
		vals[i] = 2*rng.Float64() - 1
	}
	return func(p *ir.Program) {
		if a := p.Array(name); a != nil {
			a.InitF = append([]float64(nil), vals...)
		}
	}
}

// serviceRequest is one generated request of the service workload.
type serviceRequest struct {
	Path   string // "/compile" or "/run"
	Hot    int    // index into the hot sources, or -1 for a cold source
	Source string
	Engine string // /run only: "interp" or "compiled"
	Body   []byte
}

// makeServiceRequest returns request i of the service workload for seed.
// The mix is half /compile, half /run (each engine on half the runs);
// four sources in five are hot (the Livermore texts warmed during setup,
// so cache hits), the rest cold (a fresh generated program each time, so
// a cache miss that compiles).
// It depends only on (seed, i, hot): clients may take indices in any
// order and the set of requests sent stays the same.  traced asks
// /compile to return the compile-phase trace.
func makeServiceRequest(seed, i int64, hot []string, traced bool) serviceRequest {
	h := splitmix(uint64(seed)*0x9e3779b97f4a7c15 ^ uint64(i))
	r := serviceRequest{Path: "/compile", Hot: -1}
	if h&1 == 1 {
		r.Path = "/run"
		r.Engine = "interp"
		if h>>1&1 == 1 {
			r.Engine = "compiled"
		}
	}
	if (h>>8)%5 != 0 {
		r.Hot = int((h >> 16) % uint64(len(hot)))
		r.Source = hot[r.Hot]
	} else {
		r.Source = workloads.RandomSource(seed<<24 + i)
	}
	var body any = service.CompileRequest{Source: r.Source, Trace: traced}
	if r.Path == "/run" {
		body = service.RunRequest{Source: r.Source, Engine: r.Engine}
	}
	b, err := json.Marshal(body)
	if err != nil {
		panic(err) // plain structs of strings and bools always marshal
	}
	r.Body = b
	return r
}

// splitmix is the SplitMix64 finalizer: a cheap, well-mixed hash.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"softpipe/internal/ir"
	"softpipe/internal/lang"
	"softpipe/internal/machine"
	"softpipe/internal/service"
	"softpipe/internal/trace"
	"softpipe/internal/workloads"
)

// serviceClients is the number of closed-loop clients: each sends its
// next request when the previous answer arrives.  One client leaves the
// second CPU of a two-CPU host to the server's other goroutines and the
// garbage collector; with two, both CPUs stay busy and the same code's
// latency and throughput moved by 20% between runs on a shared host.
const serviceClients = 1

// serviceEnv is a running in-process softpiped with default config on a
// loopback listener, warmed with the hot sources.
type serviceEnv struct {
	srv    *service.Server
	hs     *http.Server
	served chan struct{} // closed when Serve returns
	base   string
	tr     *http.Transport
	client *http.Client
	hot    []string  // hot sources
	ref    []*object // setup-time library result per hot source
	sha    []string  // object digest per hot source, from the warm-up
}

// startService computes the library reference for every hot source,
// starts the server and warms its cache: each hot source is compiled
// once through /compile and run once on each engine through /run.
func startService() (*serviceEnv, error) {
	m := machine.Warp()
	e := &serviceEnv{}
	for _, k := range workloads.Livermore() {
		irp, err := lang.Compile(k.Source)
		if err != nil {
			return nil, err
		}
		ob, _, err := prepareObject(k.Name, irp, m)
		if err != nil {
			return nil, err
		}
		e.hot, e.ref = append(e.hot, k.Source), append(e.ref, ob)
	}
	srv, err := service.New(service.Config{})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	e.srv, e.hs, e.served = srv, &http.Server{Handler: srv}, make(chan struct{})
	go func() {
		defer close(e.served)
		_ = e.hs.Serve(ln) // returns http.ErrServerClosed on Shutdown
	}()
	e.base = "http://" + ln.Addr().String()
	e.tr = &http.Transport{MaxIdleConnsPerHost: serviceClients}
	e.client = &http.Client{Transport: e.tr}
	for i, src := range e.hot {
		var cr service.CompileResponse
		body, _ := json.Marshal(service.CompileRequest{Source: src})
		if _, err := e.post("/compile", body, &cr); err != nil {
			e.stop()
			return nil, fmt.Errorf("warm-up /compile of %s: %w", e.ref[i].name, err)
		}
		e.sha = append(e.sha, cr.ObjectSHA256)
		for _, eng := range []string{"interp", "compiled"} {
			var rr service.RunResponse
			body, _ := json.Marshal(service.RunRequest{Source: src, Engine: eng})
			if _, err := e.post("/run", body, &rr); err != nil {
				e.stop()
				return nil, fmt.Errorf("warm-up /run of %s: %w", e.ref[i].name, err)
			}
			if msg := e.checkHotRun(i, &rr); msg != "" {
				e.stop()
				return nil, fmt.Errorf("warm-up /run of %s: %s", e.ref[i].name, msg)
			}
		}
	}
	return e, nil
}

// stop shuts the server down and waits until it has stopped serving.
func (e *serviceEnv) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = e.hs.Shutdown(ctx) // on timeout the Close below drops what is left
	_ = e.hs.Close()
	<-e.served
	e.srv.Close()
	e.tr.CloseIdleConnections()
}

// post sends one request and decodes a 200 answer into out; it returns
// the client-observed latency.
func (e *serviceEnv) post(path string, body []byte, out any) (time.Duration, error) {
	t := time.Now()
	resp, err := e.client.Post(e.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	lat := time.Since(t)
	if err != nil {
		return lat, err
	}
	if resp.StatusCode != http.StatusOK {
		return lat, fmt.Errorf("status %d: %.200s", resp.StatusCode, data)
	}
	return lat, json.Unmarshal(data, out)
}

// checkHotRun compares a /run answer for hot source i with the
// setup-time library result: scalars and cycles.
func (e *serviceEnv) checkHotRun(i int, rr *service.RunResponse) string {
	ref := e.ref[i]
	if rr.Cycles != ref.cycles {
		return fmt.Sprintf("%d cycles, library result has %d", rr.Cycles, ref.cycles)
	}
	return diffScalars(rr.Scalars, ref.want.Scalars)
}

// diffScalars compares service scalars with oracle scalars as stateDiff
// does; "" when they agree.
func diffScalars(got map[string]service.JSONFloat, want map[string]float64) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d scalars, want %d", len(got), len(want))
	}
	for k, w := range want {
		g, ok := got[k]
		if !ok || !sameFloat(float64(g), w) {
			return fmt.Sprintf("scalar %s = %v, want %v", k, float64(g), w)
		}
	}
	return ""
}

// sample is one request's outcome.
type sample struct {
	req       serviceRequest
	ok        bool
	wrong     string // set when an answer arrived but was wrong
	latency   time.Duration
	elapsedMS float64 // server-side time from the response
	cycles    int64
	scalars   map[string]service.JSONFloat // cold /run, checked after the run
	compile   *service.CompileResponse
}

// do sends one generated request and checks its answer.
func (e *serviceEnv) do(req serviceRequest) sample {
	s := sample{req: req}
	var err error
	if req.Path == "/compile" {
		var cr service.CompileResponse
		s.latency, err = e.post(req.Path, req.Body, &cr)
		if err == nil {
			for i := range cr.Loops {
				cr.Loops[i].Explain = "" // kept for the loop counts only
			}
			s.elapsedMS, s.compile = cr.ElapsedMS, &cr
			if req.Hot >= 0 && (!cr.Cached || cr.ObjectSHA256 != e.sha[req.Hot]) {
				s.wrong = fmt.Sprintf("cached=%v digest %s, warm-up had %s", cr.Cached, cr.ObjectSHA256, e.sha[req.Hot])
			}
		}
	} else {
		var rr service.RunResponse
		s.latency, err = e.post(req.Path, req.Body, &rr)
		if err == nil {
			s.elapsedMS, s.cycles = rr.ElapsedMS, rr.Cycles
			switch {
			case rr.Engine != req.Engine:
				s.wrong = fmt.Sprintf("ran on %q, asked for %q", rr.Engine, req.Engine)
			case req.Hot >= 0:
				s.wrong = e.checkHotRun(req.Hot, &rr)
			default:
				s.scalars = rr.Scalars
			}
		}
	}
	switch {
	case err != nil:
		fmt.Fprintf(os.Stderr, "FAIL %s %s: %v\n", req.Path, e.requestName(req), err)
	case s.wrong != "":
		fmt.Fprintf(os.Stderr, "FAIL %s %s: %s\n", req.Path, e.requestName(req), s.wrong)
	default:
		s.ok = true
	}
	return s
}

// requestName names a request's program: the hot kernel, or the cold
// source's program name.
func (e *serviceEnv) requestName(r serviceRequest) string {
	if r.Hot >= 0 {
		return e.ref[r.Hot].name
	}
	name, _, _ := strings.Cut(strings.TrimPrefix(strings.TrimSpace(r.Source), "program "), ";")
	return name
}

// drive runs the closed-loop clients until budget has passed and
// returns every request's sample and the phase's time.
func (e *serviceEnv) drive(seed int64, next *atomic.Int64, budget time.Duration, traced bool) ([]sample, phaseTime) {
	var (
		mu  sync.Mutex
		all []sample
		wg  sync.WaitGroup
	)
	start, cpu0 := time.Now(), processCPU()
	deadline := start.Add(budget)
	for k := 0; k < serviceClients; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []sample
			for time.Now().Before(deadline) {
				s := e.do(makeServiceRequest(seed, next.Add(1)-1, e.hot, traced))
				s.req.Body = nil // sent; only the source is checked later
				mine = append(mine, s)
			}
			mu.Lock()
			all = append(all, mine...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return all, phaseTime{wall: time.Since(start), cpu: processCPU() - cpu0}
}

// checkCold checks every cold /run answer against the ir.Run oracle of
// its source.  It runs after the measured window so the oracle does not
// compete with the server for the CPUs.
func (e *serviceEnv) checkCold(samples []sample) {
	for i := range samples {
		s := &samples[i]
		if !s.ok || s.scalars == nil {
			continue
		}
		var msg string
		name := e.requestName(s.req)
		want, err := oracle(s.req.Source)
		if err != nil {
			msg = err.Error()
		} else {
			msg = diffScalars(s.scalars, want.Scalars)
		}
		if msg != "" {
			s.ok, s.wrong = false, msg
			fmt.Fprintf(os.Stderr, "FAIL /run %s: %s\n", name, msg)
		}
	}
}

func oracle(src string) (*ir.State, error) {
	p, err := lang.Compile(src)
	if err != nil {
		return nil, err
	}
	return ir.Run(p)
}

// runService measures the compile service under the closed-loop mix of
// makeServiceRequest.  Traced, the first half of the budget runs
// untraced and the second asks /compile for its compile trace.
func runService(cfg config) (*result, error) {
	var prev *serviceEnv
	e, setupS, err := timeSetup(func() (*serviceEnv, error) {
		if prev != nil {
			prev.stop()
		}
		var err error
		prev, err = startService()
		return prev, err
	})
	if err != nil {
		return nil, err
	}
	defer e.stop()
	var next atomic.Int64
	if !cfg.traced {
		runtime.GC()
		before := totalAlloc()
		samples, pt := e.drive(cfg.seed, &next, cfg.budget, false)
		alloc := totalAlloc() - before
		e.checkCold(samples)
		wrong := e.wrongAnswers(samples)
		m := serviceEndToEnd(e, samples, pt.cpu, alloc)
		m["setup_s"] = setupS
		return &result{attempted: len(samples), failed: countFailed(samples), wrong: wrong, metrics: m, phase: pt,
			samples: map[string]int{"op": len(samples) - countFailed(samples), "compile": countPath(samples, "/compile"), "setup": setupReps}}, nil
	}
	untraced, upt := e.drive(cfg.seed, &next, cfg.budget/2, false)
	samples, pt := e.drive(cfg.seed, &next, cfg.budget/2, true)
	e.checkCold(untraced)
	e.checkCold(samples)
	wrong := append(e.wrongAnswers(untraced), e.wrongAnswers(samples)...)
	m, err := e.serviceLayers(samples)
	if err != nil {
		return nil, err
	}
	okU, ok := len(untraced)-countFailed(untraced), len(samples)-countFailed(samples)
	m["trace_overhead_frac"] = 1 - (float64(ok)/pt.cpu.Seconds())/(float64(okU)/upt.cpu.Seconds())
	m["failed_frac"] = frac(int64(countFailed(untraced)+countFailed(samples)), int64(len(untraced)+len(samples)))
	return &result{attempted: len(untraced) + len(samples), failed: countFailed(untraced) + countFailed(samples),
		wrong: wrong, metrics: m, phase: pt, samples: map[string]int{"traced_ops": len(samples)}}, nil
}

// wrongAnswers lists the requests whose answer arrived but was wrong.
func (e *serviceEnv) wrongAnswers(samples []sample) []string {
	var wrong []string
	for _, s := range samples {
		if s.wrong != "" {
			wrong = append(wrong, fmt.Sprintf("%s %s: %s", s.req.Path, e.requestName(s.req), s.wrong))
		}
	}
	return wrong
}

func countFailed(samples []sample) int {
	n := 0
	for _, s := range samples {
		if !s.ok {
			n++
		}
	}
	return n
}

func countPath(samples []sample, path string) int {
	n := 0
	for _, s := range samples {
		if s.ok && s.req.Path == path {
			n++
		}
	}
	return n
}

// serviceEndToEnd computes the end-to-end metrics of an untraced run.
// Throughput is per second of the process's CPU time (clients and server
// together); latencies are client-observed wall time.  Simulation rates
// are over hot /run requests: cycles per second of server-side time.
// simulated_kcycles is one pass over the hot set, which every hot /run
// answer was checked against.
func serviceEndToEnd(e *serviceEnv, samples []sample, cpu time.Duration, alloc uint64) map[string]float64 {
	var opMS, compileMS []float64
	simMS := map[string]float64{}
	simCycles := map[string]int64{}
	for _, s := range samples {
		if !s.ok {
			continue
		}
		opMS = append(opMS, ms(s.latency))
		if s.req.Path == "/compile" {
			compileMS = append(compileMS, ms(s.latency))
		} else if s.req.Hot >= 0 {
			simMS[s.req.Engine] += s.elapsedMS
			simCycles[s.req.Engine] += s.cycles
		}
	}
	var kcycles float64
	for _, ob := range e.ref {
		kcycles += float64(ob.cycles) / 1e3
	}
	mcps := func(eng string) float64 {
		if simMS[eng] == 0 {
			return 0
		}
		return float64(simCycles[eng]) / simMS[eng] / 1e3
	}
	failed := countFailed(samples)
	return map[string]float64{
		"ops_per_s":                  float64(len(samples)-failed) / cpu.Seconds(),
		"op_ms.p50":                  percentile(opMS, 0.5),
		"op_ms.p90":                  percentile(opMS, 0.9),
		"compile_ms.p50":             percentile(compileMS, 0.5),
		"compile_ms.p90":             percentile(compileMS, 0.9),
		"sim_interp_mcycles_per_s":   mcps("interp"),
		"sim_compiled_mcycles_per_s": mcps("compiled"),
		"simulated_kcycles":          kcycles,
		"ok_frac":                    1 - frac(int64(failed), int64(len(samples))),
		"alloc_kb_per_op":            float64(alloc) / 1024 / float64(len(samples)),
	}
}

// serviceLayers computes the per-layer metrics of the traced half.  Each
// request's latency splits into client-side overhead (HTTP, JSON,
// admission wait: unattributed_ms), server time outside any compile span
// (service.self_ms) and, for /compile misses, the self times of the
// compile trace the server returned.
func (e *serviceEnv) serviceLayers(samples []sample) (map[string]float64, error) {
	c := newCollector()
	var server, overhead, compileMS, runMS []float64
	for _, s := range samples {
		if !s.ok {
			continue
		}
		server = append(server, s.elapsedMS)
		overhead = append(overhead, ms(s.latency)-s.elapsedMS)
		if s.req.Path == "/compile" {
			compileMS = append(compileMS, s.elapsedMS)
		} else {
			runMS = append(runMS, s.elapsedMS)
		}
		latUS := s.latency.Microseconds()
		elapsedUS := int64(math.Round(s.elapsedMS * 1e3))
		self := map[string]int64{"unattributed_ms": latUS - elapsedUS}
		useful := false
		if cr := s.compile; cr != nil {
			c.objects++
			c.words += int64(cr.Instrs)
			c.fregs += int64(cr.FRegs)
			useful = len(cr.Loops) > 0
			for _, l := range cr.Loops {
				c.loops++
				if l.Pipelined {
					c.pipelined++
					c.unroll += int64(l.Unroll)
					if l.MetLower {
						c.atMII++
					}
				} else {
					useful = false
				}
			}
			if len(cr.TraceJSON) > 0 {
				evs, err := decodeTrace(cr.TraceJSON)
				if err != nil {
					return nil, err
				}
				covered, err := addSelfTimes(spansOf(evs), "service.self_ms", self)
				if err != nil {
					return nil, fmt.Errorf("compile trace: %w", err)
				}
				elapsedUS -= covered
				addCounters(evs, c.counters)
			}
		}
		self["service.self_ms"] += elapsedUS
		// Server time is in whole microseconds and compile spans are
		// truncated to them, so allow one microsecond each way.
		if self["service.self_ms"] < -1 || self["unattributed_ms"] < -1 {
			return nil, fmt.Errorf("%s: server time %.3f ms does not fit in latency %v around its spans", s.req.Path, s.elapsedMS, s.latency)
		}
		c.addTraced(latUS, self, useful)
	}
	if err := c.checkAccounting(); err != nil {
		return nil, fmt.Errorf("exclusive-time accounting: %w", err)
	}
	m := c.perLayer()
	m["service.server_ms.p50"] = percentile(server, 0.5)
	m["service.overhead_ms.p50"] = percentile(overhead, 0.5)
	m["service.compile_ms.p50"] = percentile(compileMS, 0.5)
	m["service.run_ms.p50"] = percentile(runMS, 0.5)
	var met service.Metrics
	if err := e.get("/metrics", &met); err != nil {
		return nil, err
	}
	m["cache.hit_rate"] = met.Cache.HitRate
	m["cache.computes"] = float64(met.Cache.Computes)
	m["cache.coalesced"] = float64(met.Cache.Coalesced)
	return m, nil
}

// get fetches path and decodes its 200 answer into out.
func (e *serviceEnv) get(path string, out any) error {
	resp, err := e.client.Get(e.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// decodeTrace parses a Chrome trace_event document into trace events.
func decodeTrace(data []byte) ([]trace.Event, error) {
	var doc struct {
		TraceEvents []struct {
			Name string          `json:"name"`
			Ph   string          `json:"ph"`
			TS   int64           `json:"ts"`
			Dur  int64           `json:"dur"`
			Args json.RawMessage `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("compile trace: %w", err)
	}
	var evs []trace.Event
	for _, je := range doc.TraceEvents {
		ev := trace.Event{Name: je.Name, TS: je.TS, Dur: je.Dur}
		switch je.Ph {
		case "X":
			ev.Ph = 'X'
		case "C":
			ev.Ph = 'C'
			var args map[string]int64
			if err := json.Unmarshal(je.Args, &args); err != nil {
				return nil, fmt.Errorf("compile trace counter %s: %w", je.Name, err)
			}
			ev.Args = []trace.Arg{{Key: je.Name, Val: args[je.Name]}}
		default:
			continue
		}
		evs = append(evs, ev)
	}
	return evs, nil
}

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"finwl/internal/core"
	"finwl/internal/network"
	"finwl/internal/obs"
	"finwl/internal/serve"
	"finwl/internal/stream"
)

// The traced run replays a workload's measured sequence in-process.
// Each request gets a root span and, inside it, spans around the calls
// into each layer in order, then around the whole server method on the
// same input, then around an HTTP round trip to an in-process
// Server.Handler. Spans are recorded by the benchmark's own code, kept
// in memory and written out at the end.

// span is one timed call. Parent is the index of the enclosing span,
// -1 for a request's root.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
}

// Span names.
const (
	spanRequest      = "request"
	spanBuildNetwork = "serve.build_network"
	spanChainBuild   = "network.chain_build"
	spanFactor       = "core.factor"
	spanSolve        = "core.solve"
	spanStream       = "stream.solve"
	spanServer       = "serve.server_method"
	spanRoundTrip    = "http.round_trip"
)

type tracer struct {
	t0    time.Time
	spans []span
	req   int
	root  int
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a span under the current request's root (or the root
// itself) and returns its index.
func (t *tracer) begin(name string) int {
	parent := t.root
	if name == spanRequest {
		parent = -1
	}
	t.spans = append(t.spans, span{Name: name, Start: t.now(), Parent: parent, Req: t.req})
	if name == spanRequest {
		t.root = len(t.spans) - 1
	}
	return len(t.spans) - 1
}

func (t *tracer) end(i int) time.Duration {
	t.spans[i].End = t.now()
	return time.Duration(t.spans[i].End - t.spans[i].Start)
}

// traceResult is what the traced run reports.
type traceResult struct {
	requests        int
	buildNetworkMS  []float64 // per request: sum of its build spans
	chainBuildMS    []float64
	factorMS        []float64
	streamSolveMS   []float64
	solveNS, epochs float64 // epoch-loop time and the epochs it ran
	pipelineSelfMS  []float64
	frontSelfMS     []float64
	roundTripMS     []float64
	spanFile        string
}

// inProcess is a serve.Server behind a loopback listener in this
// process.
type inProcess struct {
	srv  *serve.Server
	http *http.Server
	base string
	done chan error
}

func startInProcess() (*inProcess, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &inProcess{srv: serve.New(serve.Config{}), base: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	p.http = &http.Server{Handler: p.srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	go func() { p.done <- p.http.Serve(ln) }()
	return p, nil
}

func (p *inProcess) stop() {
	_ = p.http.Close() // nothing in flight once the replay has returned
	<-p.done
}

// epochCount reads the process-wide finwl_epochs_total counter.
func epochCount() float64 {
	var b bytes.Buffer
	_ = obs.Default.WriteProm(&b) // a bytes.Buffer write cannot fail
	return parseProm(b.Bytes())["finwl_epochs_total"]
}

// tracedReplay replays w's requests from w.Warm for about d (at most
// maxReqs requests) and writes the spans to dir.
func tracedReplay(w *workload, d time.Duration, maxReqs int, dir string) (*traceResult, error) {
	ctx := context.Background()
	method := serve.New(serve.Config{})
	front, err := startInProcess()
	if err != nil {
		return nil, err
	}
	defer front.stop()
	client := newClient()
	defer client.CloseIdleConnections()
	// Both servers see the warm-up the measured server saw.
	for i := 0; i < w.Warm; i++ {
		q := w.gen(i)
		if _, err := callServer(ctx, method, q); err != nil {
			return nil, fmt.Errorf("traced warm-up %d: %w", i, err)
		}
		if status, body, err := post(client, front.base, q); err != nil || status != http.StatusOK {
			return nil, fmt.Errorf("traced warm-up %d: %d %v %.200s", i, status, err, body)
		}
	}

	tr := &tracer{t0: time.Now()}
	res := &traceResult{}
	for i := w.Warm; i < w.Warm+maxReqs && time.Since(tr.t0) < d; i++ {
		q := w.gen(i)
		tr.req = i
		root := tr.begin(spanRequest)
		layers, err := traceLayers(ctx, tr, q, res)
		if err != nil {
			return nil, fmt.Errorf("traced request %d: %w", i, err)
		}
		sp := tr.begin(spanServer)
		ran, err := callServer(ctx, method, q)
		server := tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("traced request %d: %w", i, err)
		}
		sp = tr.begin(spanRoundTrip)
		status, body, err := post(client, front.base, q)
		rt := tr.end(sp)
		if err != nil || status != http.StatusOK {
			return nil, fmt.Errorf("traced request %d: %d %v %.200s", i, status, err, body)
		}
		tr.end(root)

		var self time.Duration
		for name, dur := range layers {
			if ran[name] {
				self += dur
			}
		}
		res.pipelineSelfMS = append(res.pipelineSelfMS, ms(server-self))
		res.frontSelfMS = append(res.frontSelfMS, ms(rt-server))
		res.roundTripMS = append(res.roundTripMS, ms(rt))
		res.requests++
	}
	if err := checkNesting(tr.spans); err != nil {
		return nil, err
	}
	res.spanFile = filepath.Join(dir, fmt.Sprintf("spans-%s.jsonl", w.Name))
	return res, writeSpans(res.spanFile, tr.spans)
}

// traceLayers calls each layer's public function for q in pipeline
// order under spans, and returns each layer's total time on q.
func traceLayers(ctx context.Context, tr *tracer, q *request, res *traceResult) (map[string]time.Duration, error) {
	spent := map[string]time.Duration{}
	timed := func(name string, f func() error) error {
		sp := tr.begin(name)
		err := f()
		spent[name] += tr.end(sp)
		return err
	}
	switch q.Kind {
	case kindSolve, kindBatch:
		reqs := q.Batch
		if q.Kind == kindSolve {
			reqs = []*serve.Request{q.Solve}
		}
		var net *network.Network
		for _, r := range reqs {
			if err := timed(spanBuildNetwork, func() (err error) { net, err = r.BuildNetwork(); return err }); err != nil {
				return nil, err
			}
		}
		var chain *network.Chain
		if err := timed(spanChainBuild, func() (err error) { chain, err = network.NewChainCtx(ctx, net, reqs[0].K); return err }); err != nil {
			return nil, err
		}
		var solver *core.Solver
		if err := timed(spanFactor, func() (err error) { solver, err = core.NewSolverFromChainCtx(ctx, chain); return err }); err != nil {
			return nil, err
		}
		before := epochCount()
		if err := timed(spanSolve, func() error {
			if q.Kind == kindSolve {
				_, err := solver.SolveCtx(ctx, q.Solve.N)
				return err
			}
			ns := make([]int, len(reqs))
			for j, r := range reqs {
				ns[j] = r.N
			}
			_, errs := solver.SolveSweepEachCtx(ctx, ns)
			for _, err := range errs {
				if err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return nil, err
		}
		res.epochs += epochCount() - before
		res.solveNS += float64(spent[spanSolve])
		res.chainBuildMS = append(res.chainBuildMS, ms(spent[spanChainBuild]))
		res.factorMS = append(res.factorMS, ms(spent[spanFactor]))
	case kindStream:
		var cfg stream.Config
		if err := timed(spanBuildNetwork, func() (err error) { cfg, err = q.Stream.BuildConfig(0); return err }); err != nil {
			return nil, err
		}
		probes := make([]float64, len(q.Stream.Probes))
		for j, p := range q.Stream.Probes {
			probes[j] = float64(p)
		}
		if err := timed(spanStream, func() error { _, err := stream.Solve(ctx, cfg, probes); return err }); err != nil {
			return nil, err
		}
		res.streamSolveMS = append(res.streamSolveMS, ms(spent[spanStream]))
	}
	res.buildNetworkMS = append(res.buildNetworkMS, ms(spent[spanBuildNetwork]))
	return spent, nil
}

// callServer runs q through the server method and reports which
// layer spans the server itself went through, from what its answer
// says: a cache hit runs none, a cached solver skips chain build and
// factorization.
func callServer(ctx context.Context, s *serve.Server, q *request) (map[string]bool, error) {
	switch q.Kind {
	case kindSolve:
		resp, err := s.Solve(ctx, q.Solve)
		if err != nil {
			return nil, err
		}
		switch {
		case resp.Cached:
			return map[string]bool{}, nil
		case resp.Fidelity == serve.FidelityCheckpoint:
			return map[string]bool{spanBuildNetwork: true, spanSolve: true}, nil
		}
		return map[string]bool{spanBuildNetwork: true, spanChainBuild: true, spanFactor: true, spanSolve: true}, nil
	case kindBatch:
		for j, it := range s.SolveBatch(ctx, q.Batch) {
			if it.Response == nil {
				return nil, fmt.Errorf("batch item %d: %s", j, it.Error)
			}
		}
		return map[string]bool{spanBuildNetwork: true, spanChainBuild: true, spanFactor: true, spanSolve: true}, nil
	default:
		if _, err := s.SolveStream(ctx, q.Stream); err != nil {
			return nil, err
		}
		return map[string]bool{spanBuildNetwork: true, spanStream: true}, nil
	}
}

// checkNesting verifies that every span lies inside its request's root
// span and carries the root's request id.
func checkNesting(spans []span) error {
	for i, s := range spans {
		if s.End < s.Start {
			return fmt.Errorf("span %d (%s) ends before it starts", i, s.Name)
		}
		if s.Parent < 0 {
			continue
		}
		p := spans[s.Parent]
		if p.Name != spanRequest || p.Req != s.Req || s.Start < p.Start || s.End > p.End {
			return fmt.Errorf("span %d (%s, request %d) is not nested in its root", i, s.Name, s.Req)
		}
	}
	return nil
}

func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return os.WriteFile(path, b.Bytes(), 0o644)
}

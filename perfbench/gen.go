package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"sort"

	"finwl/internal/serve"
)

// The request generator belongs to the benchmark, not to the program:
// a change to internal/spec or internal/trace cannot change the load
// it is measured with. Request i of a workload is a pure function of
// (workload, seed, i), so the sequence is the same however the closed
// loop interleaves its connections.

// Request kinds, one per endpoint the workloads drive.
const (
	kindSolve  = "solve"
	kindBatch  = "batch"
	kindStream = "stream"
)

// request is one generated HTTP request and the decoded form the
// reference checker and the traced replay use.
type request struct {
	Index   int
	Kind    string
	Body    []byte
	Answers int // answers it yields: 1, or the batch length

	Solve  *serve.Request
	Batch  []*serve.Request
	Stream *serve.StreamRequest
}

// path returns the endpoint the request is posted to.
func (r *request) path() string { return "/" + r.Kind }

// workload generates one workload's request sequence.
type workload struct {
	Name string
	// Warm is how many leading requests set the server up; the measured
	// window and the traced replay continue from request Warm.
	Warm int
	// Tail is the latency percentile reported as tail_ms.
	Tail float64
	gen  func(i int) *request
}

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{"cold-distinct", "long-drain", "batch-stream"}

// newWorkload builds the named workload's generator for seed.
func newWorkload(name string, seed uint64) (*workload, error) {
	switch name {
	case "cold-distinct":
		return coldDistinct(seed), nil
	case "long-drain":
		return longDrain(seed), nil
	case "batch-stream":
		return batchStream(seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// rngFor returns the generator stream of request i: seeding PCG by
// (seed, i) keeps every request independent of every other.
func rngFor(seed uint64, stream uint64, i int) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream<<40^uint64(i)*0x9e3779b97f4a7c15))
}

// slot stratifies a sequence: the requests of each block of size
// consecutive indices take every slot in [0, size) once, in an order
// shuffled per block. Any stretch of the sequence then holds a nearly
// fixed mix of request classes, so a window of it measures the same
// mix whatever the seed.
func slot(seed, stream uint64, size, i int) int {
	return rngFor(seed, stream, i/size).Perm(size)[i%size]
}

func uniform(r *rand.Rand, lo, hi float64) float64 { return lo + (hi-lo)*r.Float64() }

func intIn(r *rand.Rand, lo, hi int) int { return lo + r.IntN(hi-lo+1) }

// shape is one station-shape class: architecture, K and the remote
// (storage or disk) service CV², 1 meaning exponential.
type shape struct {
	Arch string
	K    int
	CV2  float64
}

// remoteCV2s are the remote service shapes: exponential, and two
// hyperexponential fits of rising variability.
var remoteCV2s = []float64{1, 4, 10}

// shapes returns the classes with central K in [cLo, cHi] and
// distributed K in [dLo, dHi], times every remote CV².
func shapes(cLo, cHi, dLo, dHi int) []shape {
	var out []shape
	for _, cv2 := range remoteCV2s {
		for k := cLo; k <= cHi; k++ {
			out = append(out, shape{"central", k, cv2})
		}
		for k := dLo; k <= dHi; k++ {
			out = append(out, shape{"distributed", k, cv2})
		}
	}
	return out
}

// model draws continuously varying app parameters for a shape.
func model(r *rand.Rand, sh shape, n int) *serve.Request {
	x := uniform(r, 7, 10.5)
	y := uniform(r, 2, 3.5)
	rf := uniform(r, 0.35, 0.65)
	req := &serve.Request{
		Arch: sh.Arch, K: sh.K, N: n,
		App: &serve.AppSpec{X: &x, Y: &y, RemoteFrac: &rf},
	}
	if sh.CV2 != 1 {
		req.CV2 = &serve.CV2Spec{Remote: sh.CV2}
	}
	return req
}

func solveRequest(i int, req *serve.Request) *request {
	return &request{Index: i, Kind: kindSolve, Body: mustJSON(req), Answers: 1, Solve: req}
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("perfbench: marshal generated request: %v", err))
	}
	return b
}

// coldDistinct: every /solve is a network not seen before, drawn from
// 18 station-shape classes with N in [K, 5K].
func coldDistinct(seed uint64) *workload {
	classes := shapes(5, 8, 3, 4)
	return &workload{
		Name: "cold-distinct", Warm: 36, Tail: 95,
		gen: func(i int) *request {
			r := rngFor(seed, 3, i)
			sh := classes[slot(seed, 6, len(classes), i)]
			return solveRequest(i, model(r, sh, intIn(r, sh.K, 5*sh.K)))
		},
	}
}

// Long-drain sizing: drainNets fixed K=8 networks with an H2 remote
// station — no more than the server's default solver cache holds —
// and distinct N in [drainLo, drainHi].
const (
	drainNets   = 4
	drainLo     = 500
	drainHi     = 2000
	drainStrata = 16
	drainWarmN  = 250
)

// longDrain: /solve on drainNets fixed networks with a distinct N per
// request, so the solver cache always hits and the result cache never
// does: the epoch loop is nearly all the work. N is stratified: each
// network's N range is cut into drainStrata strata of shuffled values,
// and each block of drainStrata requests to a network draws the next
// value of every stratum once.
func longDrain(seed uint64) *workload {
	nets := make([]*serve.Request, drainNets)
	strata := make([][][]int, drainNets)
	for j := range nets {
		r := rngFor(seed, 4, j)
		nets[j] = model(r, shape{"central", 8, []float64{4, 10}[j%2]}, 0)
		strata[j] = make([][]int, drainStrata)
		for n := drainLo; n <= drainHi; n++ {
			t := (n - drainLo) * drainStrata / (drainHi - drainLo + 1)
			strata[j][t] = append(strata[j][t], n)
		}
		for _, st := range strata[j] {
			r.Shuffle(len(st), func(a, b int) { st[a], st[b] = st[b], st[a] })
		}
	}
	return &workload{
		Name: "long-drain", Warm: drainNets, Tail: 95,
		gen: func(i int) *request {
			req := *nets[i%drainNets]
			if i < drainNets {
				// The warm-up solves each network once at a fixed N
				// below the measured range, so set-up does the same
				// work whatever the seed.
				req.N = drainWarmN
				return solveRequest(i, &req)
			}
			m := i - drainNets
			j, p := m%drainNets, m/drainNets
			st := strata[j][slot(seed, 7+uint64(j), drainStrata, p)]
			if p/drainStrata >= len(st) {
				panic(fmt.Sprintf("perfbench: long-drain ran out of distinct N after %d requests", i))
			}
			req.N = st[p/drainStrata]
			return solveRequest(i, &req)
		},
	}
}

// Batch-stream sizing: each /batch sweeps one new central K=batchK
// network over batchLen values of N in [batchLo, batchHi].
const (
	batchK   = 6
	batchLen = 16
	batchLo  = 50
	batchHi  = 800
)

// batchStream: strictly alternating /batch sweeps (even i) and
// /stream scenarios (odd i).
func batchStream(seed uint64) *workload {
	return &workload{
		Name: "batch-stream", Warm: 8, Tail: 90,
		gen: func(i int) *request {
			r := rngFor(seed, 5, i)
			if i%2 == 0 {
				return batchRequest(i, r, remoteCV2s[slot(seed, 11, len(remoteCV2s), i/2)])
			}
			return streamRequest(i, r, streamShapes[slot(seed, 12, len(streamShapes), i/2)])
		},
	}
}

func batchRequest(i int, r *rand.Rand, cv2 float64) *request {
	base := model(r, shape{"central", batchK, cv2}, 0)
	seen := map[int]bool{}
	ns := make([]int, 0, batchLen)
	for len(ns) < batchLen {
		if n := intIn(r, batchLo, batchHi); !seen[n] {
			seen[n] = true
			ns = append(ns, n)
		}
	}
	sort.Ints(ns)
	reqs := make([]*serve.Request, batchLen)
	for j, n := range ns {
		q := *base
		q.N = n
		reqs[j] = &q
	}
	return &request{Index: i, Kind: kindBatch, Body: mustJSON(reqs), Answers: batchLen, Batch: reqs}
}

type streamShape struct {
	K        int
	CV2      float64
	Open     bool
	JobTasks int
	Count    int
}

// streamShapes are the /stream scenarios: (K, remote CV², mode, job
// size, jobs or customers), each sized to 1.5k–4k augmented states
// with Poisson arrivals or think times (TestStreamShapesSized pins the
// range).
var streamShapes = []streamShape{
	{3, 1, true, 5, 6}, {3, 1, true, 8, 5}, {3, 4, true, 4, 6}, {3, 4, true, 6, 5},
	{3, 10, true, 7, 4}, {3, 10, true, 5, 5}, {4, 1, true, 4, 5}, {4, 1, true, 6, 4},
	{4, 4, true, 2, 6}, {4, 1, true, 9, 3},
	{3, 4, false, 8, 8}, {3, 10, false, 9, 7}, {4, 1, false, 8, 7}, {4, 1, false, 10, 6},
	{4, 1, false, 7, 8}, {3, 1, false, 10, 8},
}

func streamRequest(i int, r *rand.Rand, ss streamShape) *request {
	base := model(r, shape{"central", ss.K, ss.CV2}, 0)
	sr := &serve.StreamRequest{Arch: base.Arch, K: base.K, App: base.App, CV2: base.CV2, JobTasks: ss.JobTasks}
	law := &serve.LawSpec{Process: "poisson", Mean: serve.Num(uniform(r, 20, 60))}
	if ss.Open {
		sr.Jobs, sr.Arrival = ss.Count, law
	} else {
		sr.Customers, sr.Think = ss.Count, law
	}
	// Short probe horizons keep the uniformization series, and so the
	// solve, in the 5–20 ms range.
	u := uniform(r, 0.75, 1.25)
	for _, t := range []float64{1, 2, 4} {
		sr.Probes = append(sr.Probes, serve.Num(t*u))
	}
	return &request{Index: i, Kind: kindStream, Body: mustJSON(sr), Answers: 1, Stream: sr}
}

package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"

	"finwl/internal/core"
	"finwl/internal/serve"
	"finwl/internal/stream"
)

// The reference checker recomputes every answer in-process, outside
// the timed window. /solve and /batch answers are checked against an
// epoch recursion run here through the solver's public primitives
// (EntryVector, EpochTime, Feed, Depart), so a change to SolveCtx's
// own loop cannot vouch for itself; /stream answers against
// in-process stream.Solve.

// relTol is the agreement an answer needs to count as exact.
const relTol = 1e-12

// verdict summarises the answers of a set of records.
type verdict struct {
	attempted int // answers requested
	ok        int // 200 with a usable answer
	exact     int // full fidelity and within relTol of the reference
	// failures holds a few mismatch descriptions for the log.
	failures []string
}

func (v *verdict) fail(format string, args ...any) {
	if len(v.failures) < 5 {
		v.failures = append(v.failures, fmt.Sprintf(format, args...))
	}
}

func (v *verdict) add(o verdict) {
	v.attempted += o.attempted
	v.ok += o.ok
	v.exact += o.exact
	for _, f := range o.failures {
		v.fail("%s", f)
	}
}

func agree(a, b float64) bool {
	if a == b {
		return true
	}
	return math.Abs(a-b) <= relTol*math.Max(math.Abs(a), math.Abs(b))
}

// fullFidelity reports whether a /solve or /batch answer came from an
// exact tier.
func fullFidelity(f serve.Fidelity) bool {
	return f == serve.FidelityExact || f == serve.FidelityCheckpoint
}

// solveAnswer is one /solve or /batch answer awaiting its reference.
type solveAnswer struct {
	rec  int // index into the records
	resp *serve.Response
	k, n int
}

// checkRecords checks every answer of recs and returns the verdict.
// Groups of answers over one network share one reference solver, and
// groups run on up to workers goroutines.
func checkRecords(recs []record, workers int) verdict {
	var v verdict
	groups := map[string][]solveAnswer{}
	groupReq := map[string]*serve.Request{}
	var streams []int
	for i := range recs {
		r := &recs[i]
		q := r.req
		v.attempted += q.Answers
		if r.err != nil || r.status != http.StatusOK {
			v.fail("request %d: status %d, error %v: %.200s", q.Index, r.status, r.err, r.body)
			continue
		}
		switch q.Kind {
		case kindSolve:
			var resp serve.Response
			if err := json.Unmarshal(r.body, &resp); err != nil {
				v.fail("request %d: %v", q.Index, err)
				continue
			}
			addSolve(&v, groups, groupReq, i, q.Solve, &resp)
		case kindBatch:
			var items []serve.BatchItem
			if err := json.Unmarshal(r.body, &items); err != nil || len(items) != len(q.Batch) {
				v.fail("request %d: %d items for %d jobs (%v)", q.Index, len(items), len(q.Batch), err)
				continue
			}
			for j, it := range items {
				if it.Response == nil {
					v.fail("request %d item %d: %s %s", q.Index, j, it.Code, it.Error)
					continue
				}
				addSolve(&v, groups, groupReq, i, q.Batch[j], it.Response)
			}
		case kindStream:
			streams = append(streams, i)
		}
	}

	keys := make([]string, 0, len(groups))
	for key := range groups {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	results := make([]verdict, len(keys)+len(streams))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := int(next.Add(1) - 1); j < len(results); j = int(next.Add(1) - 1) {
				if j < len(keys) {
					results[j] = checkGroup(groupReq[keys[j]], groups[keys[j]])
				} else {
					results[j] = checkStream(&recs[streams[j-len(keys)]])
				}
			}
		}()
	}
	wg.Wait()
	for _, r := range results {
		v.add(r)
	}
	return v
}

// addSolve files a usable /solve or /batch answer under its network.
func addSolve(v *verdict, groups map[string][]solveAnswer, groupReq map[string]*serve.Request, rec int, req *serve.Request, resp *serve.Response) {
	if math.IsNaN(resp.TotalTime) || math.IsInf(resp.TotalTime, 0) || resp.TotalTime <= 0 {
		v.fail("request %d: unusable total_time %v", rec, resp.TotalTime)
		return
	}
	v.ok++
	if !fullFidelity(resp.Fidelity) {
		v.fail("request %d: fidelity %s (%s)", rec, resp.Fidelity, resp.DegradedFrom)
		return
	}
	// The network is the request with N cleared.
	netReq := *req
	netReq.N = 1
	key := string(mustJSON(&netReq))
	groupReq[key] = &netReq
	groups[key] = append(groups[key], solveAnswer{rec: rec, resp: resp, k: req.K, n: req.N})
}

// checkGroup builds one reference solver and checks every answer over
// its network.
func checkGroup(netReq *serve.Request, answers []solveAnswer) verdict {
	var v verdict
	net, err := netReq.BuildNetwork()
	if err == nil {
		var s *core.Solver
		if s, err = core.NewSolver(net, netReq.K); err == nil {
			ns := make([]int, len(answers))
			for i, a := range answers {
				ns[i] = a.n
			}
			ref := referenceTotals(s, ns)
			for _, a := range answers {
				if a.resp.K != a.k || a.resp.N != a.n || !agree(a.resp.TotalTime, ref[a.n]) {
					v.fail("record %d: k=%d n=%d total_time %v, reference %v", a.rec, a.resp.K, a.resp.N, a.resp.TotalTime, ref[a.n])
					continue
				}
				v.exact++
			}
			return v
		}
	}
	v.fail("reference model: %v", err)
	return v
}

// referenceTotals runs the paper's epoch recursion for every N in ns
// and returns E(T) by N. Workloads of N > K share one feeding pass:
// after q = N−K feeding epochs from p_K the system drains through
// levels K..1, so each N is a drain from the q-th feeding state. The
// clock sums in the same order as a direct recursion.
func referenceTotals(s *core.Solver, ns []int) map[int]float64 {
	out := make(map[int]float64, len(ns))
	drain := func(k int, pi []float64, clock float64) float64 {
		for ; k >= 1; k-- {
			clock += s.EpochTime(k, pi)
			if k > 1 {
				pi = s.Depart(k, pi)
			}
		}
		return clock
	}
	var qs []int
	for _, n := range ns {
		if n <= s.K {
			out[n] = drain(n, s.EntryVector(n), 0)
		} else {
			qs = append(qs, n-s.K)
		}
	}
	sort.Ints(qs)
	pi := s.EntryVector(s.K)
	var clock float64
	feeds := 0
	for _, q := range qs {
		for ; feeds < q; feeds++ {
			clock += s.EpochTime(s.K, pi)
			pi = s.Feed(s.K, pi)
		}
		out[q+s.K] = drain(s.K, pi, clock)
	}
	return out
}

// checkStream checks one /stream answer against in-process
// stream.Solve on the same request.
func checkStream(r *record) verdict {
	v := verdict{}
	q := r.req
	var resp serve.StreamResponse
	if err := json.Unmarshal(r.body, &resp); err != nil {
		v.fail("request %d: %v", q.Index, err)
		return v
	}
	if len(resp.MeanTasks) != len(q.Stream.Probes) {
		v.fail("request %d: %d mean_tasks for %d probes", q.Index, len(resp.MeanTasks), len(q.Stream.Probes))
		return v
	}
	v.ok++
	if resp.Fidelity != serve.FidelityExact {
		v.fail("request %d: stream fidelity %s (%s)", q.Index, resp.Fidelity, resp.DegradedFrom)
		return v
	}
	cfg, err := q.Stream.BuildConfig(0)
	if err != nil {
		v.fail("request %d: reference config: %v", q.Index, err)
		return v
	}
	probes := make([]float64, len(q.Stream.Probes))
	for i, p := range q.Stream.Probes {
		probes[i] = float64(p)
	}
	ref, err := stream.Solve(context.Background(), cfg, probes)
	if err != nil {
		v.fail("request %d: reference solve: %v", q.Index, err)
		return v
	}
	match := agree(float64(resp.MeanDrain), ref.MeanDrain) &&
		len(resp.DrainCDF) == len(ref.DrainCDF) && resp.States == ref.States
	for i := range probes {
		match = match && agree(float64(resp.MeanTasks[i]), ref.MeanTasks[i])
		if i < len(ref.DrainCDF) && i < len(resp.DrainCDF) {
			match = match && agree(float64(resp.DrainCDF[i]), ref.DrainCDF[i])
		}
	}
	if !match {
		v.fail("request %d: stream answer differs from the reference (mean_drain %v vs %v)", q.Index, resp.MeanDrain, ref.MeanDrain)
		return v
	}
	v.exact++
	return v
}

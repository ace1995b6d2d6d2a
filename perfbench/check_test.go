package main

import (
	"context"
	"encoding/json"
	"net/http"
	"testing"

	"finwl/internal/serve"
)

// answered runs requests [from, to) of w through an in-process server
// and returns them as closed-loop records.
func answered(t *testing.T, w *workload, from, to int) []record {
	t.Helper()
	ctx := context.Background()
	srv := serve.New(serve.Config{})
	var recs []record
	for i := from; i < to; i++ {
		q := w.gen(i)
		var resp any
		var err error
		switch q.Kind {
		case kindSolve:
			resp, err = srv.Solve(ctx, q.Solve)
		case kindBatch:
			resp = srv.SolveBatch(ctx, q.Batch)
		case kindStream:
			resp, err = srv.SolveStream(ctx, q.Stream)
		}
		if err != nil {
			t.Fatal(err)
		}
		body, err := json.Marshal(resp)
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, record{req: q, status: http.StatusOK, body: body})
	}
	return recs
}

func exactFrac(v verdict) float64 { return float64(v.exact) / float64(v.attempted) }

// edit decodes a record's body into v, applies f and re-encodes it.
func edit[T any](t *testing.T, r *record, f func(*T)) {
	t.Helper()
	var v T
	if err := json.Unmarshal(r.body, &v); err != nil {
		t.Fatal(err)
	}
	f(&v)
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	r.body = b
}

func TestCheckerAcceptsServerAnswers(t *testing.T) {
	for _, name := range workloadNames {
		w, _ := newWorkload(name, 2)
		v := checkRecords(answered(t, w, 0, 8), 2)
		if v.exact != v.attempted || v.ok != v.attempted {
			t.Errorf("%s: %d ok, %d exact of %d: %v", name, v.ok, v.exact, v.attempted, v.failures)
		}
	}
}

func TestCheckerCatchesPerturbedTotalTime(t *testing.T) {
	w, _ := newWorkload("cold-distinct", 2)
	recs := answered(t, w, 0, 6)
	edit(t, &recs[3], func(r *serve.Response) { r.TotalTime *= 1 + 1e-9 })
	if f := exactFrac(checkRecords(recs, 2)); f >= 1 {
		t.Errorf("exact_frac %v with a total_time perturbed by 1e-9", f)
	}
}

func TestCheckerCatchesSwappedAnswers(t *testing.T) {
	w, _ := newWorkload("long-drain", 2)
	recs := answered(t, w, 0, 6)
	recs[1].body, recs[5].body = recs[5].body, recs[1].body
	if f := exactFrac(checkRecords(recs, 2)); f >= 1 {
		t.Errorf("exact_frac %v with two answers swapped", f)
	}
}

func TestCheckerCatchesPerturbedBatchAndStream(t *testing.T) {
	w, _ := newWorkload("batch-stream", 2)
	recs := answered(t, w, 0, 2)
	edit(t, &recs[0], func(items *[]serve.BatchItem) {
		(*items)[7].Response.TotalTime *= 1 + 1e-9
	})
	if v := checkRecords(recs, 2); v.exact != v.attempted-1 {
		t.Errorf("perturbed batch item: %d exact of %d, want one short", v.exact, v.attempted)
	}
	recs = answered(t, w, 0, 2)
	edit(t, &recs[1], func(r *serve.StreamResponse) { r.MeanTasks[1] *= 1 + 1e-9 })
	if v := checkRecords(recs, 2); v.exact != v.attempted-1 {
		t.Errorf("perturbed stream answer: %d exact of %d, want one short", v.exact, v.attempted)
	}
}

func TestCheckerCountsDegradedAsInexact(t *testing.T) {
	w, _ := newWorkload("cold-distinct", 2)
	recs := answered(t, w, 0, 3)
	edit(t, &recs[0], func(r *serve.Response) { r.Fidelity = serve.FidelitySteady })
	recs[1].status, recs[1].body = http.StatusTooManyRequests, []byte(`{"error":"overloaded","code":"overloaded"}`)
	v := checkRecords(recs, 2)
	if v.ok != 2 || v.exact != 1 {
		t.Errorf("degraded + refused: %d ok, %d exact of %d; want 2 ok, 1 exact", v.ok, v.exact, v.attempted)
	}
}

func TestReferenceMatchesSolve(t *testing.T) {
	w, _ := newWorkload("long-drain", 4)
	q := w.gen(0).Solve
	recs := answered(t, w, 0, 1)
	var resp serve.Response
	if err := json.Unmarshal(recs[0].body, &resp); err != nil {
		t.Fatal(err)
	}
	v := checkGroup(&serve.Request{Arch: q.Arch, K: q.K, N: 1, App: q.App, CV2: q.CV2},
		[]solveAnswer{{resp: &resp, k: q.K, n: q.N}, {resp: &serve.Response{K: q.K, N: 3, TotalTime: -1}, k: q.K, n: 3}})
	if v.exact != 1 {
		t.Fatalf("reference disagrees with the server on N=%d, or accepts a negative total: %v", q.N, v.failures)
	}
}

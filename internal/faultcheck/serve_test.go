package faultcheck

import (
	"net/http"
	"net/http/httptest"
	"testing"

	"finwl/internal/serve"
)

// TestServeCampaign pushes all degenerate-input classes through a real
// HTTP round trip and asserts the serve-mode contract: every class is
// refused with a mapped 4xx/5xx status and a typed error body — zero
// panics, zero 200s, zero untyped 500s.
func TestServeCampaign(t *testing.T) {
	srv := serve.New(serve.Config{Seed: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	outcomes, err := ServeCampaign(ts.URL, ts.Client())
	if err != nil {
		t.Fatalf("campaign transport failure: %v", err)
	}
	if len(outcomes) != len(Classes()) {
		t.Fatalf("campaign covered %d classes, want %d", len(outcomes), len(Classes()))
	}
	for _, o := range outcomes {
		if err := o.Check(); err != nil {
			t.Errorf("%v", err)
		}
		t.Logf("%-24s -> %d %s", o.Class, o.Status, o.Code)
	}

	// Every class has one pinned outcome: validation failures are
	// 400 invalid_model, and the structurally-valid-but-singular class
	// exhausts the whole degradation ladder into a 503.
	type outcome struct {
		status int
		code   string
	}
	invalidModel := outcome{http.StatusBadRequest, "invalid_model"}
	want := map[string]outcome{
		"nan-routing":          invalidModel,
		"inf-service-rate":     invalidModel,
		"zero-service-rate":    invalidModel,
		"negative-entry":       invalidModel,
		"super-stochastic-row": invalidModel,
		"no-stations":          invalidModel,
		"nil-routing-matrix":   invalidModel,
		"dimension-mismatch":   invalidModel,
		"trapped-tasks":        {http.StatusServiceUnavailable, "singular"},
		"absorbing-phase":      invalidModel,
		"nan-phase-entry":      invalidModel,
		"oversized-population": invalidModel,
		"zero-population":      invalidModel,
		"zero-workload":        invalidModel,
		"unknown-station-kind": invalidModel,
	}
	for _, o := range outcomes {
		if w, ok := want[o.Class]; !ok {
			t.Errorf("class %s has no pinned outcome", o.Class)
		} else if (outcome{o.Status, o.Code}) != w {
			t.Errorf("class %s: %d %s, want %d %s (body %s)", o.Class, o.Status, o.Code, w.status, w.code, o.Body)
		}
	}

	// The rejections must land in the right observability counters:
	// every class reaches Solve (degenerate values travel as JSON on
	// purpose), each invalid_model refusal bumps the invalid counter,
	// and every structurally-valid-but-doomed class burns down the
	// whole degradation ladder into the failures counter.
	invalid, failed := 0, 0
	for _, o := range outcomes {
		switch o.Code {
		case "invalid_model":
			invalid++
		case "singular", "numeric", "not_converged":
			failed++
		}
	}
	st := srv.Snapshot()
	if st.Requests != int64(len(outcomes)) {
		t.Errorf("requests counter = %d, want %d (one per campaign class)", st.Requests, len(outcomes))
	}
	if st.Invalid != int64(invalid) {
		t.Errorf("invalid counter = %d, want %d (one per invalid_model refusal)", st.Invalid, invalid)
	}
	if st.Failures != int64(failed) {
		t.Errorf("failures counter = %d, want %d (one per ladder exhaustion)", st.Failures, failed)
	}
	if failed == 0 {
		t.Error("campaign produced no ladder exhaustion; the failures-counter assertion is vacuous")
	}
}

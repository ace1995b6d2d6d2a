package serve

import (
	"encoding/json"
	"errors"
	"math"
	"testing"

	"finwl/internal/check"
	"finwl/internal/statespace"
)

func TestNumRoundTripsNonFinite(t *testing.T) {
	cases := []float64{0, 1.5, -2.25e-9, math.NaN(), math.Inf(1), math.Inf(-1)}
	for _, f := range cases {
		b, err := json.Marshal(Num(f))
		if err != nil {
			t.Fatalf("marshal %v: %v", f, err)
		}
		var back Num
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatalf("unmarshal %s: %v", b, err)
		}
		got := float64(back)
		if math.IsNaN(f) {
			if !math.IsNaN(got) {
				t.Fatalf("NaN round-tripped to %v via %s", got, b)
			}
		} else if got != f {
			t.Fatalf("%v round-tripped to %v via %s", f, got, b)
		}
	}
	var n Num
	if err := json.Unmarshal([]byte(`"wat"`), &n); !errors.Is(err, check.ErrInvalidModel) {
		t.Fatalf(`unmarshal "wat": err = %v, want ErrInvalidModel`, err)
	}
}

func TestKindRoundTrip(t *testing.T) {
	for _, k := range []statespace.Kind{statespace.Delay, statespace.Queue, statespace.Multi, statespace.Kind(99)} {
		b, err := json.Marshal(Kind{k})
		if err != nil {
			t.Fatalf("marshal kind %v: %v", k, err)
		}
		var back Kind
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatalf("unmarshal %s: %v", b, err)
		}
		if back.Kind != k {
			t.Fatalf("kind %v round-tripped to %v via %s", k, back.Kind, b)
		}
	}
	var k Kind
	if err := json.Unmarshal([]byte(`"teleporter"`), &k); !errors.Is(err, check.ErrInvalidModel) {
		t.Fatalf("unknown kind name: err = %v, want ErrInvalidModel", err)
	}
}

func TestBuildMatrixRejectsRaggedRows(t *testing.T) {
	_, err := buildMatrix("route", [][]Num{{1, 2}, {3}})
	if !errors.Is(err, check.ErrInvalidModel) {
		t.Fatalf("ragged rows: err = %v, want ErrInvalidModel", err)
	}
	m, err := buildMatrix("route", nil)
	if err != nil || m != nil {
		t.Fatalf("empty input = (%v, %v), want (nil, nil)", m, err)
	}
}

func TestSpecNetworkRoundTrip(t *testing.T) {
	req := &Request{Arch: "distributed", K: 4, N: 12}
	net, err := req.BuildNetwork()
	if err != nil {
		t.Fatalf("build cluster network: %v", err)
	}
	spec := SpecFromNetwork(net)
	back, err := spec.buildNetwork()
	if err != nil {
		t.Fatalf("rebuild from spec: %v", err)
	}
	if err := back.Validate(); err != nil {
		t.Fatalf("rebuilt network invalid: %v", err)
	}
	if CacheKey(net, 4, 12) != CacheKey(back, 4, 12) {
		t.Fatal("network → spec → network changed the cache key")
	}
}

func TestBuildNetworkRejections(t *testing.T) {
	cases := []struct {
		name string
		req  Request
	}{
		{"zero-n", Request{Arch: "central", K: 3, N: 0}},
		{"oversized-n", Request{Arch: "central", K: 3, N: 1 << 40}},
		{"zero-k", Request{Arch: "central", K: 0, N: 5}},
		{"oversized-k", Request{Arch: "central", K: 1 << 20, N: 5}},
		{"unknown-arch", Request{Arch: "quantum", K: 3, N: 5}},
	}
	for _, tc := range cases {
		if _, err := tc.req.BuildNetwork(); !errors.Is(err, check.ErrInvalidModel) {
			t.Errorf("%s: err = %v, want ErrInvalidModel", tc.name, err)
		}
	}
}

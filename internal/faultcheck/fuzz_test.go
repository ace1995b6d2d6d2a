package faultcheck

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"

	"finwl/internal/batch"
	"finwl/internal/check"
	"finwl/internal/matrix"
	"finwl/internal/network"
	"finwl/internal/phase"
	"finwl/internal/serve"
	"finwl/internal/statespace"
	"finwl/internal/stream"
)

// byteReader turns a fuzz payload into a stream of adversarial values.
// Exhausted input yields zeros, so every payload decodes to something.
type byteReader struct {
	data []byte
	pos  int
}

func (r *byteReader) next() byte {
	if r.pos >= len(r.data) {
		return 0
	}
	b := r.data[r.pos]
	r.pos++
	return b
}

// f64 maps one byte onto a value bucket chosen to stress the guards:
// zeros, NaN, both infinities, negatives, extreme magnitudes, and a
// dense band of small ordinary values.
func (r *byteReader) f64() float64 {
	b := r.next()
	switch b % 16 {
	case 0:
		return 0
	case 1:
		return math.NaN()
	case 2:
		return math.Inf(1)
	case 3:
		return math.Inf(-1)
	case 4:
		return -1.5
	case 5:
		return 1e-300
	case 6:
		return 1e300
	default:
		return float64(b%100) / 25 // [0, 4)
	}
}

// prob maps one byte onto [0, 0.5] with occasional adversarial values,
// so generated routing rows are often (not always) valid.
func (r *byteReader) prob() float64 {
	b := r.next()
	switch b % 13 {
	case 11:
		return math.NaN()
	case 12:
		return 2
	default:
		return float64(b%6) / 10
	}
}

// decodeNetwork builds a small network from fuzz bytes. The decoder
// is intentionally permissive: most payloads produce structurally
// broken networks, some produce valid ones — both must survive
// Exercise.
func decodeNetwork(data []byte) (*network.Network, int, int) {
	r := &byteReader{data: data}
	m := 1 + int(r.next()%3)
	stations := make([]network.Station, m)
	for i := range stations {
		var kind statespace.Kind
		switch r.next() % 3 {
		case 0:
			kind = statespace.Delay
		case 1:
			kind = statespace.Queue
		default:
			kind = statespace.Multi
		}
		dim := 1 + int(r.next()%2)
		alpha := make([]float64, dim)
		rates := make([]float64, dim)
		trans := matrix.New(dim, dim)
		if dim == 1 {
			alpha[0] = 1
		} else {
			a := r.prob()
			alpha[0], alpha[1] = a, 1-a
			trans.Set(0, 1, r.prob())
		}
		for j := range rates {
			rates[j] = 0.5 + r.f64()
		}
		stations[i] = network.Station{
			Name:    "s",
			Kind:    kind,
			Service: &phase.PH{Name: "fz", Alpha: alpha, Rates: rates, Trans: trans},
			Servers: int(r.next() % 4),
		}
	}
	route := matrix.New(m, m)
	exit := make([]float64, m)
	for i := 0; i < m; i++ {
		var sum float64
		for j := 0; j < m; j++ {
			p := r.prob() / float64(m)
			route.Set(i, j, p)
			sum += p
		}
		if r.next()%4 == 0 {
			exit[i] = r.f64() // often breaks the stochastic-row invariant
		} else {
			exit[i] = 1 - sum // often repairs it
		}
	}
	entry := make([]float64, m)
	if r.next()%4 == 0 {
		for i := range entry {
			entry[i] = r.prob()
		}
	} else {
		entry[0] = 1
	}
	k := 1 + int(r.next()%4)
	n := 1 + int(r.next()%6)
	return &network.Network{Stations: stations, Route: route, Exit: exit, Entry: entry}, k, n
}

// networkSeeds are FuzzNetworkPipeline's seed payloads for
// decodeNetwork.
var networkSeeds = [][]byte{
	{},
	{2, 0, 1, 40, 1, 1, 40, 40, 1, 10, 20, 1, 30, 10, 2, 1, 2, 3},
	{1, 1, 1, 80, 0, 0, 0, 1, 2},
	{3, 2, 2, 33, 3, 0, 1, 77, 2, 1, 2, 99, 1, 17, 4, 8, 15, 16, 23, 42},
}

// FuzzNetworkPipeline drives decoded networks through every public
// pipeline. Any escaped panic or untyped error fails the target.
func FuzzNetworkPipeline(f *testing.F) {
	for _, seed := range networkSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		net, k, n := decodeNetwork(data)
		if err := Exercise(net, k, n); err != nil {
			t.Fatal(err)
		}
	})
}

// FuzzPHFit drives every phase-type constructor with arbitrary
// parameters: either the fit succeeds and validates with finite
// moments, or it fails typed.
func FuzzPHFit(f *testing.F) {
	f.Add(1.0, 2.0, 0.1, uint8(2))
	f.Add(0.0, -1.0, 0.0, uint8(0))
	f.Add(math.NaN(), math.Inf(1), -3.0, uint8(200))
	f.Add(12.0, 10.0, 0.5, uint8(3))
	f.Add(1e-300, 1e300, 1e300, uint8(255))
	f.Fuzz(func(t *testing.T, mean, cv2, f0 float64, stagesB uint8) {
		stages := int(stagesB%12) + 1
		fits := []struct {
			name string
			fn   func() (*phase.PH, error)
		}{
			{"ExpoMean", func() (*phase.PH, error) { return phase.ExpoMean(mean) }},
			{"ErlangMean", func() (*phase.PH, error) { return phase.ErlangMean(stages, mean) }},
			{"HyperExpFit", func() (*phase.PH, error) { return phase.HyperExpFit(mean, cv2) }},
			{"HyperExpFitPDF0", func() (*phase.PH, error) { return phase.HyperExpFitPDF0(mean, cv2, f0) }},
			{"Coxian2", func() (*phase.PH, error) { return phase.Coxian2(mean, cv2) }},
			{"FitCV2", func() (*phase.PH, error) { return phase.FitCV2(mean, cv2) }},
			{"TPT", func() (*phase.PH, error) { return phase.TPT(stages, cv2, mean) }},
		}
		for _, fit := range fits {
			d, err := fit.fn()
			if err != nil {
				if !Typed(err) {
					t.Fatalf("%s(%v, %v): untyped error %v", fit.name, mean, cv2, err)
				}
				continue
			}
			if err := d.Validate(); err != nil {
				t.Fatalf("%s(%v, %v): fit passed but Validate failed: %v", fit.name, mean, cv2, err)
			}
			if err := check.Finite(fit.name+" mean", d.Mean()); err != nil {
				t.Fatalf("%s(%v, %v): non-finite mean: %v", fit.name, mean, cv2, err)
			}
		}
	})
}

// FuzzRobustSolve drives the dense and sparse robust linear solvers on
// arbitrary small systems.
func FuzzRobustSolve(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 10, 20, 30, 40, 50, 60})
	f.Add([]byte{4, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3, 0})
	f.Add([]byte{3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 7, 7, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := &byteReader{data: data}
		n := 1 + int(r.next()%5)
		a := matrix.New(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				a.Set(i, j, r.f64())
			}
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = r.f64()
		}
		if err := ExerciseSolve(a, b); err != nil {
			t.Fatal(err)
		}
	})
}

// FuzzStreamSpec drives the /stream request-parsing path with
// arbitrary JSON payloads: any body that decodes must either build a
// validated stream config and price it, or fail typed — never panic.
// NaN/∞ values travel through the Num wire type on purpose.
func FuzzStreamSpec(f *testing.F) {
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"k":2,"job_tasks":2,"jobs":2,"arrival":{"process":"poisson","mean":1},"probes":[0.5,2]}`))
	f.Add([]byte(`{"k":2,"job_tasks":3,"customers":2,"think":{"process":"bursty","mean":"NaN"}}`))
	f.Add([]byte(`{"k":0,"job_tasks":-1,"jobs":2,"arrival":{"process":"fit","mean":"+Inf","cv2":-3}}`))
	f.Add([]byte(`{"k":4,"job_tasks":8,"jobs":40,"arrival":{"process":"bursty","mean":1e-300},"probes":["Infinity"]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		var req serve.StreamRequest
		if dec.Decode(&req) != nil {
			return // malformed JSON never reaches BuildConfig
		}
		if v, _ := capture("stream-build", func() error {
			cfg, err := req.BuildConfig(1 << 12)
			if err != nil {
				return err
			}
			_, _, err = stream.Price(cfg)
			return err
		}); v != nil {
			t.Fatal(v)
		}
	})
}

// FuzzJournalReplay drives the durability journal's replay path with
// arbitrary file contents: any input must either replay cleanly (with a
// possible torn-tail truncation) or fail typed ErrJournalCorrupt —
// never panic — and a clean open must be idempotent: closing and
// re-opening the repaired file yields identical entries.
func FuzzJournalReplay(f *testing.F) {
	f.Add([]byte(""))
	f.Add([]byte("{\"op\":\"submit\",\"id\":\"a\",\"jobs_total\":1}\n"))
	f.Add([]byte("{\"op\":\"submit\",\"id\":\"a\"}\n{\"op\":\"done\",\"id\":\"a\"}\n{\"op\":\"gr"))
	f.Add([]byte("{\"op\":broken}\n{\"op\":\"done\",\"id\":\"a\"}\n"))
	f.Add([]byte("\x00\x01\x02"))
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "jobs.jsonl")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		j1, entries1, err := batch.OpenJournal(batch.JournalConfig{Path: path, Fsync: batch.FsyncNever})
		if err != nil {
			if !errors.Is(err, check.ErrJournalCorrupt) {
				t.Fatalf("open: untyped error %v", err)
			}
			return
		}
		if err := j1.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
		j2, entries2, err := batch.OpenJournal(batch.JournalConfig{Path: path, Fsync: batch.FsyncNever})
		if err != nil {
			t.Fatalf("reopen after torn-tail repair: %v", err)
		}
		defer j2.Close()
		b1, err1 := json.Marshal(entries1)
		b2, err2 := json.Marshal(entries2)
		if err1 != nil || err2 != nil {
			t.Fatalf("marshal entries: %v / %v", err1, err2)
		}
		if !bytes.Equal(b1, b2) {
			t.Fatalf("replay not idempotent:\nfirst  (%d) %s\nsecond (%d) %s",
				len(entries1), b1, len(entries2), b2)
		}
	})
}

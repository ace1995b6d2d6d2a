package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"

	"finwl/internal/stream"
)

// sequence concatenates the bodies of requests [0, n) of a workload.
func sequence(t *testing.T, name string, seed uint64, n int) []byte {
	t.Helper()
	w, err := newWorkload(name, seed)
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	for i := 0; i < n; i++ {
		q := w.gen(i)
		if q.Index != i {
			t.Fatalf("%s request %d carries index %d", name, i, q.Index)
		}
		fmt.Fprintf(&b, "%s %s\n", q.path(), q.Body)
	}
	return b.Bytes()
}

func TestSameSeedSameSequence(t *testing.T) {
	for _, name := range workloadNames {
		a, b := sequence(t, name, 7, 300), sequence(t, name, 7, 300)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 gave two different sequences", name)
		}
		if bytes.Equal(a, sequence(t, name, 8, 300)) {
			t.Errorf("%s: seeds 7 and 8 gave the same sequence", name)
		}
	}
}

// TestSequenceGolden pins the default-seed sequences: a change to the
// generator changes the load every later measurement is compared on,
// so it must be deliberate.
func TestSequenceGolden(t *testing.T) {
	want := map[string]string{
		"cold-distinct": "c2c452df3e2425f9dc43db3b92cdb55b2762925811a484f1b1b69f65d7dd5022",
		"long-drain":    "84cba3d4b4af8bb2ac0d9217568cb14a1e8f7d508fbfda25299c4743a5bd2558",
		"batch-stream":  "8c325a39313f4c4b6aae97948fc7b2ea4c96a8a8be7c4e16e7df97f4e02f89e2",
	}
	for _, name := range workloadNames {
		got := fmt.Sprintf("%x", sha256.Sum256(sequence(t, name, 1, 200)))
		if got != want[name] {
			t.Errorf("%s seed 1: sequence hash %s, want %s", name, got, want[name])
		}
	}
}

func TestDistinctWorkloadsNeverRepeat(t *testing.T) {
	for _, name := range []string{"cold-distinct", "long-drain", "batch-stream"} {
		w, _ := newWorkload(name, 5)
		seen := map[string]int{}
		for i := 0; i < 3000; i++ {
			q := w.gen(i)
			if q.Kind == kindBatch {
				for _, r := range q.Batch {
					key := string(mustJSON(r))
					if j, ok := seen[key]; ok {
						t.Fatalf("%s: request %d repeats a batch job of request %d", name, i, j)
					}
					seen[key] = i
				}
				continue
			}
			if j, ok := seen[string(q.Body)]; ok {
				t.Fatalf("%s: request %d repeats request %d", name, i, j)
			}
			seen[string(q.Body)] = i
		}
	}
}

func TestLongDrainRange(t *testing.T) {
	w, _ := newWorkload("long-drain", 9)
	for i := w.Warm; i < 4000; i++ {
		if n := w.gen(i).Solve.N; n < drainLo || n > drainHi {
			t.Fatalf("request %d: N=%d outside [%d, %d]", i, n, drainLo, drainHi)
		}
	}
}

func TestStreamShapesSized(t *testing.T) {
	w, _ := newWorkload("batch-stream", 1)
	seen := map[int]bool{}
	for i := 1; i < 2*len(streamShapes)*4; i += 2 {
		q := w.gen(i)
		cfg, err := q.Stream.BuildConfig(0)
		if err != nil {
			t.Fatal(err)
		}
		states, _, err := stream.Price(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if states < 1500 || states > 4000 {
			t.Errorf("request %d: %d augmented states, want 1500..4000", i, states)
		}
		seen[int(states)] = true
	}
	if len(seen) < 8 {
		t.Errorf("only %d distinct stream sizes", len(seen))
	}
}

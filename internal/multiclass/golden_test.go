package multiclass

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"
)

// The golden pin records the bits Simulate and Replicate produced when
// it was written, for both admission policies over a grid of seeds.
// Seeded results are a function of the seed alone, so any change to
// the order of the RNG draws or the replication reducer changes the
// hash; such a change must be deliberate, with the pin re-recorded.
func TestGoldenSimulate(t *testing.T) {
	cfg := twoClassCfg([2]float64{2, 0.8}, [2]float64{4, 2}, [2]float64{1.2, 0.6}, 0.2)
	want := map[Policy]string{Proportional: "4d1bf95ccbff8b12", PriorityOrder: "8f2e009783051f9b"}
	for _, policy := range []Policy{Proportional, PriorityOrder} {
		w := Workload{Counts: []int{5, 4}, K: 3, Policy: policy}
		var buf []byte
		add := func(xs ...float64) {
			for _, x := range xs {
				buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(x))
			}
		}
		for _, seed := range []int64{1, 2, 3, 7, 42, 1001} {
			total, err := Simulate(cfg, w, seed)
			if err != nil {
				t.Fatal(err)
			}
			mean, ci, err := Replicate(cfg, w, seed, 16)
			if err != nil {
				t.Fatal(err)
			}
			add(total, mean, ci)
		}
		h := fnv.New64a()
		h.Write(buf)
		if got := fmt.Sprintf("%016x", h.Sum64()); got != want[policy] {
			t.Errorf("policy %v: hash %s, pinned %s", policy, got, want[policy])
		}
	}
}

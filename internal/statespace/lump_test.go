package statespace

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// randomLumped draws a random layout with one or two classes of equal
// shapes, interleaved with other stations.
func randomLumped(r *rand.Rand) (*Space, *Space) {
	shape := func() StationShape {
		switch r.Intn(3) {
		case 0:
			return StationShape{Kind: Delay, Phases: 1 + r.Intn(3)}
		case 1:
			return StationShape{Kind: Queue, Phases: 1 + r.Intn(3)}
		default:
			return StationShape{Kind: Multi, Phases: 1, Servers: 1 + r.Intn(3)}
		}
	}
	var shapes []StationShape
	var classes [][]int
	for c := 0; c < 1+r.Intn(2); c++ {
		sh := shape()
		var cl []int
		for i := 0; i < 2+r.Intn(3); i++ {
			if r.Intn(2) == 0 {
				shapes = append(shapes, shape()) // a station outside the class
			}
			cl = append(cl, len(shapes))
			shapes = append(shapes, sh)
		}
		classes = append(classes, cl)
	}
	return NewSpace(shapes), NewLumpedSpace(shapes, classes)
}

// Property: the lumped space enumerates exactly the canonical states
// of the full level, in ascending order, and its DP counts them.
func TestLumpedEnumerationIsCanonicalSubset(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		full, lumped := randomLumped(r)
		k := r.Intn(5)
		fl, ll := full.Enumerate(k), lumped.Enumerate(k)
		var want [][]int
		buf := make([]int, full.Width())
		for i := 0; i < fl.Count(); i++ {
			copy(buf, fl.State(i))
			lumped.Canonicalize(buf)
			if compareStates(buf, fl.State(i)) == 0 {
				want = append(want, fl.State(i))
			}
			// Every full state's canonical form is a lumped state.
			if ll.Index(buf) < 0 {
				t.Logf("seed %d: canonical %v of %v missing", seed, buf, fl.State(i))
				return false
			}
		}
		if ll.Count() != len(want) || lumped.LevelSize(k) != int64(len(want)) {
			t.Logf("seed %d: enumerated %d, DP %d, canonical %d", seed, ll.Count(), lumped.LevelSize(k), len(want))
			return false
		}
		for i, st := range want {
			if compareStates(ll.State(i), st) != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// Canonicalize sorts each class's station-states and leaves the other
// stations alone; AverageClasses replaces class entries by their mean.
func TestCanonicalizeAndAverage(t *testing.T) {
	shapes := []StationShape{
		{Kind: Queue, Phases: 2}, {Kind: Delay, Phases: 1},
		{Kind: Queue, Phases: 2}, {Kind: Queue, Phases: 2},
	}
	sp := NewLumpedSpace(shapes, [][]int{{0, 2, 3}})
	state := make([]int, sp.Width())
	sp.SetQueue(state, 0, 2, 1)
	sp.SetDelayCount(state, 1, 0, 5)
	sp.SetQueue(state, 2, 0, 0)
	sp.SetQueue(state, 3, 2, 0)
	sp.Canonicalize(state)
	want := []int{0, 0, 5, 2, 0, 2, 1}
	if compareStates(state, want) != 0 {
		t.Fatalf("canonical %v, want %v", state, want)
	}
	v := []float64{1, 7, 2, 6}
	sp.AverageClasses(v)
	if v[0] != 3 || v[1] != 7 || v[2] != 3 || v[3] != 3 {
		t.Fatalf("averaged %v", v)
	}
	if NewSpace(shapes).Lumped() || !sp.Lumped() {
		t.Fatal("Lumped misreports")
	}
}

func TestNewLumpedSpaceRejectsBadClasses(t *testing.T) {
	shapes := []StationShape{{Kind: Queue, Phases: 2}, {Kind: Queue, Phases: 1}, {Kind: Queue, Phases: 2}}
	for name, cl := range map[string][][]int{
		"mixed shapes": {{0, 1}},
		"out of range": {{0, 3}},
		"unsorted":     {{2, 0}},
		"overlapping":  {{0, 2}, {0, 2}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			NewLumpedSpace(shapes, cl)
		}()
	}
	if NewLumpedSpace(shapes, [][]int{{1}}).Lumped() {
		t.Fatal("a one-station class lumped")
	}
}

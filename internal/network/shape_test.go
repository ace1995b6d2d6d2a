package network

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"testing"

	"finwl/internal/phase"
	"finwl/internal/statespace"
)

// seededNet is the §5.4 central cluster with an H2 shared disk and
// parameters drawn from seed. Every seed gives the same zero pattern,
// hence the same chain shape.
func seededNet(seed int64) *Network {
	r := rand.New(rand.NewSource(seed))
	p1 := 0.2 + 0.6*r.Float64()
	n := paperCentralNet(0.05+0.2*r.Float64(), p1, 1-p1, 0.5+r.Float64(), 1+r.Float64(), 2+r.Float64(), 3+r.Float64())
	n.Stations[3].Service = phase.MustHyperExpFit(0.5+r.Float64(), 2+8*r.Float64())
	return n
}

func chainKey(n *Network, k int) string {
	return string(newParams(n).appendKey(nil, n, k, n.exchangeClasses()))
}

// The memo key is the population, the station shapes and the zero
// pattern of the parameters — not their values.
func TestShapeKeyFollowsZeroPattern(t *testing.T) {
	base := chainKey(seededNet(1), 4)
	if chainKey(seededNet(2), 4) != base {
		t.Fatal("networks differing only in nonzero values got different keys")
	}
	if chainKey(seededNet(1), 5) == base {
		t.Fatal("populations 4 and 5 share a key")
	}
	zero := seededNet(1)
	zero.Route.Set(0, 2, zero.Route.At(0, 2)+zero.Route.At(0, 1))
	zero.Route.Set(0, 1, 0)
	if chainKey(zero, 4) == base {
		t.Fatal("a routing probability set to zero kept the key")
	}
	servers := seededNet(1)
	servers.Stations[0].Servers = 3 // unused by a delay station
	if chainKey(servers, 4) != base {
		t.Fatal("server count of a delay station changed the key")
	}
	multi := func(c int) string {
		n := seededNet(1)
		n.Stations[1].Kind, n.Stations[1].Servers = statespace.Multi, c
		return chainKey(n, 4)
	}
	if multi(2) == multi(3) {
		t.Fatal("multi-server stations with 2 and 3 servers share a key")
	}
}

// The memo keeps the most recently used shapes within its byte budget,
// drops a shape larger than the whole budget, and does not memoize a
// failed build.
func TestShapeMemoBudget(t *testing.T) {
	m := newShapeMemo(100)
	builds := 0
	get := func(key string, bytes int64) *chainShape {
		sh, err := m.get(context.Background(), []byte(key), func() (*chainShape, error) {
			builds++
			return &chainShape{bytes: bytes}, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return sh
	}
	_, _, evict0 := ShapeMemoCounts()
	a := get("a", 40)
	get("b", 40)
	if get("a", 40) != a || builds != 2 {
		t.Fatalf("hit rebuilt: %d builds", builds)
	}
	get("c", 40) // evicts b, the least recently used
	if _, _, evict := ShapeMemoCounts(); evict-evict0 != 1 {
		t.Fatalf("%d evictions, want 1", evict-evict0)
	}
	get("a", 40)
	if builds != 3 {
		t.Fatalf("a was evicted instead of b (%d builds)", builds)
	}
	get("b", 40)
	if builds != 4 || m.used > m.budget {
		t.Fatalf("b not rebuilt or budget overrun: %d builds, %d bytes used", builds, m.used)
	}
	get("huge", 1000)
	get("huge", 1000)
	if builds != 6 || m.used > m.budget {
		t.Fatalf("oversized shape memoized: %d builds, %d bytes used", builds, m.used)
	}
	boom := errors.New("boom")
	for i := 0; i < 2; i++ {
		if _, err := m.get(context.Background(), []byte("bad"), func() (*chainShape, error) { builds++; return nil, boom }); !errors.Is(err, boom) {
			t.Fatalf("err = %v", err)
		}
	}
	if builds != 8 {
		t.Fatalf("failed build memoized: %d builds", builds)
	}
	m.reset()
	if len(m.entries) != 0 || m.used != 0 || m.lru.Len() != 0 {
		t.Fatal("reset left entries behind")
	}
}

// A replay that does not fit its tape is refused with ErrTapeMismatch
// instead of filling wrong values.
func TestReplayRefusesCorruptTape(t *testing.T) {
	net := seededNet(3)
	th := newParams(net)
	sh, err := recordChain(context.Background(), net, th, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	ls := sh.levels[3]
	if _, err := ls.fill(3, th.theta); err != nil {
		t.Fatalf("intact tape: %v", err)
	}
	clone := func(t levelTape) levelTape {
		return levelTape{
			arrivals: slices.Clone(t.arrivals),
			events:   slices.Clone(t.events),
			units:    slices.Clone(t.units),
			rowUnits: slices.Clone(t.rowUnits),
		}
	}
	last := len(ls.tape.units) - 1
	cases := map[string]func(t *levelTape){
		"event unread":        func(t *levelTape) { t.units[last].end-- },
		"unit past the tape":  func(t *levelTape) { t.units[last].end++ },
		"slot out of range":   func(t *levelTape) { t.events[0].slot = 1 << 30 },
		"arrival as an event": func(t *levelTape) { t.arrivals[0].mat = matP },
		"event as an arrival": func(t *levelTape) { t.events[0].mat = matR },
		"state missing":       func(t *levelTape) { t.rowUnits = t.rowUnits[:len(t.rowUnits)-1] },
		"units out of order":  func(t *levelTape) { t.rowUnits[1], t.rowUnits[2] = t.rowUnits[2], t.rowUnits[1] },
	}
	for name, corrupt := range cases {
		bad := ls
		bad.tape = clone(ls.tape)
		corrupt(&bad.tape)
		if _, err := bad.fill(3, th.theta); !errors.Is(err, ErrTapeMismatch) {
			t.Errorf("%s: err = %v, want ErrTapeMismatch", name, err)
		}
	}
}

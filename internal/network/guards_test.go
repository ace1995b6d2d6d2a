package network

import (
	"context"
	"errors"
	"testing"

	"finwl/internal/check"
)

func TestChainRejectsBadPopulation(t *testing.T) {
	n := paperCentralNet(0.1, 0.5, 0.5, 1, 2, 3, 4)
	for _, k := range []int{0, -3, MaxPopulation + 1} {
		if _, err := NewChain(n, k); !errors.Is(err, check.ErrInvalidModel) {
			t.Fatalf("NewChain(maxK=%d) err = %v, want ErrInvalidModel", k, err)
		}
	}
}

func TestChainRejectsHugeModel(t *testing.T) {
	// A population large enough that the dense chain would need far
	// more than the entry budget: the planner must refuse up front
	// (cheaply — this test should run in microseconds, not OOM).
	n := paperCentralNet(0.1, 0.5, 0.5, 1, 2, 3, 4)
	if _, err := NewChain(n, 200); !errors.Is(err, check.ErrInvalidModel) {
		t.Fatalf("NewChain(huge) err = %v, want ErrInvalidModel", err)
	}
}

func TestChainCtxCanceled(t *testing.T) {
	n := paperCentralNet(0.1, 0.5, 0.5, 1, 2, 3, 4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := NewChainCtx(ctx, n, 6); !errors.Is(err, check.ErrCanceled) {
		t.Fatalf("NewChainCtx(canceled) err = %v, want ErrCanceled", err)
	}
}

func TestChainRejectsInvalidNetwork(t *testing.T) {
	n := paperCentralNet(0.1, 0.5, 0.5, 1, 2, 3, 4)
	n.Entry[0] = 0.2 // entry probabilities no longer sum to 1
	if _, err := NewChain(n, 3); !errors.Is(err, check.ErrInvalidModel) {
		t.Fatalf("NewChain(invalid net) err = %v, want ErrInvalidModel", err)
	}
}

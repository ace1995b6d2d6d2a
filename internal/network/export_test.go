package network

import "context"

// ResetShapeMemo empties the process-wide chain-shape memo, so the next
// chain of every shape runs the symbolic phase again. Test-only.
func ResetShapeMemo() { shapes.reset() }

// ShapeMemoCounts reads the memo's hit, miss and evict counters.
func ShapeMemoCounts() (hit, miss, evict int64) {
	return mShapeHit.Value(), mShapeMiss.Value(), mShapeEvict.Value()
}

// NewUnlumpedChain builds the chain over the full reduced product
// space, with no lumping of exchangeable stations: the oracle a lumped
// chain is checked against. Test-only.
func NewUnlumpedChain(net *Network, maxK int) (*Chain, error) {
	return newChain(context.Background(), net, maxK, false)
}

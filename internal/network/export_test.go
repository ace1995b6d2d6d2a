package network

// ResetShapeMemo empties the process-wide chain-shape memo, so the next
// chain of every shape runs the symbolic phase again. Test-only.
func ResetShapeMemo() { shapes.reset() }

// ShapeMemoCounts reads the memo's hit, miss and evict counters.
func ShapeMemoCounts() (hit, miss, evict int64) {
	return mShapeHit.Value(), mShapeMiss.Value(), mShapeEvict.Value()
}

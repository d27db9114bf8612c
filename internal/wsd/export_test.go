package wsd

// SnapshotState exposes the incremental-update bookkeeping to the
// external tests: whether the fact table is still shared with a
// snapshot parent, and whether fact IDs have left display order.
func (w *WSD) SnapshotState() (factsShared, factsLoose bool) {
	return w.factsShared, w.factsLoose
}

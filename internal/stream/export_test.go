package stream

// distinctKeys counts the distinct keys among w's live records. Tests only:
// the production Window keeps no per-key state to read this from.
func distinctKeys(w *Window) int {
	mask := uint64(len(w.seq) - 1)
	seen := make(map[int64]struct{})
	for p := w.head; p < w.tail; p++ {
		seen[w.key[p&mask]] = struct{}{}
	}
	return len(seen)
}

package stream

// Tests only: the two helpers below are the one place white-box tests read
// the ring's layout, so it can change without touching an assertion.

// ringCap returns w's ring capacity in slots.
func ringCap(w *Window) int { return w.slots }

// keyAt returns the key of the record at absolute position p.
func keyAt(w *Window, p uint64) int64 { return int64(w.rec(p)[recKey]) }

// distinctKeys counts the distinct keys among w's live records: the
// production Window keeps no per-key state to read this from.
func distinctKeys(w *Window) int {
	seen := make(map[int64]struct{})
	for p := w.head; p < w.tail; p++ {
		seen[keyAt(w, p)] = struct{}{}
	}
	return len(seen)
}

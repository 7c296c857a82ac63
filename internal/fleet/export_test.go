package fleet

// FreeBuilders reports how many cleared builders w keeps for its next
// opens.
func FreeBuilders(w *Worker) int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.free)
}

// SetMaxSessions overrides the concurrent-session bound (n <= 0 keeps
// the default).
func (w *Worker) SetMaxSessions(n int) {
	if n <= 0 {
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.maxSessions = n
}

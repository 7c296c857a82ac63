package fleet

// FreeBuilders reports how many cleared builders w keeps for its next
// opens.
func FreeBuilders(w *Worker) int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.free)
}

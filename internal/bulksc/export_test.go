package bulksc

// chunksBuilt returns, per core of e's last run, how many chunk objects
// the core constructed rather than reused.
func chunksBuilt(e *Engine) []int {
	var n []int
	for _, co := range e.cores {
		n = append(n, co.built)
	}
	return n
}

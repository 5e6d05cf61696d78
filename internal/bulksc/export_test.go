package bulksc

// chunksBuilt returns, per core of e's run, how many chunk objects the
// core constructed rather than reused.
func chunksBuilt(e *Engine) []int { return e.built }

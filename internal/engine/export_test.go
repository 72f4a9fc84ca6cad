package engine

import "time"

// SetClock pins e's rate limiter to now, so tests driving the limiter
// through a wire plane can assert exact token arithmetic.
func SetClock(e *Engine, now func() time.Time) {
	e.lim.mu.Lock()
	e.lim.now = now
	e.lim.mu.Unlock()
}

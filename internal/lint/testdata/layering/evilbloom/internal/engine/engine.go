// Package engine is the one place allowed to reach stores; nothing here
// may be reported.
package engine

import "evilbloom/internal/service"

type Engine struct{ reg *service.Registry }

func (e *Engine) store(name string) *service.Store {
	return e.reg.Get(name).Store()
}

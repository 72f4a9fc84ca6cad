// Package ops is the passing fixture: a non-codec package may reach a
// registry's filters and stores.
package ops

import "evilbloom/internal/service"

func poke(r *service.Registry) *service.Store {
	return r.Get("f").Store()
}

// Package httpapi is the violating codec fixture. The import is aliased
// and one forbidden method is taken as a method value — the spellings the
// old grep could not see.
package httpapi

import svc "evilbloom/internal/service"

type server struct{ reg *svc.Registry }

func (s *server) handle() {
	get := s.reg.Get // want "codec package must not reach"
	f := get("f")
	_ = f.Store()      // want "must not hold a raw store handle"
	_ = s.reg.Get("g") // want "codec package must not reach"
}

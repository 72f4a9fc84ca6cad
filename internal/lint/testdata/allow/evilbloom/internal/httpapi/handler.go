// Package httpapi proves the //lint:allow scope: the annotation covers
// the line below it and nothing else — the second, identical violation
// two lines down still reports.
package httpapi

import "evilbloom/internal/service"

func twice(r *service.Registry) {
	//lint:allow layering fixture: the annotated violation must be suppressed
	r.Get("f")
	r.Get("f") // want "codec package must not reach"
}

// Package mesh exercises the walker on the digest exchange: an HTTP
// exchange with a peer while a watch lock is held is a finding; the same
// exchange after the lock is released is not.
package mesh

import (
	"net/http"
	"sync"
)

type watch struct {
	mu   sync.Mutex
	etag string
}

// fetchBad holds the watch lock across the peer round trip.
func (w *watch) fetchBad(c *http.Client, url string) (*http.Response, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return c.Get(url) // want "called while a mutex is held"
}

// fetchGood reads what it needs under the lock, then dials unlocked.
func (w *watch) fetchGood(c *http.Client, url string) error {
	w.mu.Lock()
	etag := w.etag
	w.mu.Unlock()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	req.Header.Set("If-None-Match", etag)
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	return resp.Body.Close()
}

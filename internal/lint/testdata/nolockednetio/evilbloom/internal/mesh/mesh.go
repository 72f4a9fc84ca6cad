// Package mesh exercises the walker on the digest exchange: an HTTP
// exchange with a peer while a watch lock is held is a finding; the same
// exchange after the lock is released is not.
package mesh

import (
	"io"
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
	return c.Get(url) // want "\\(net/http\\.Client\\)\\.Get called while a mutex is held"
}

// doBad sends a prepared request under the lock: a method of the client.
func (w *watch) doBad(c *http.Client, req *http.Request) (*http.Response, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return c.Do(req) // want "\\(net/http\\.Client\\)\\.Do called while a mutex is held"
}

// getBad dials through the package-level client under the lock.
func (w *watch) getBad(url string) (*http.Response, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return http.Get(url) // want "^net/http\\.Get called while a mutex is held"
}

// writeHeaderBad writes a header to what may be a connection under the
// lock: Header.Write is the header method that does I/O.
func (w *watch) writeHeaderBad(resp *http.Response, conn io.Writer) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return resp.Header.Write(conn) // want "\\(net/http\\.Header\\)\\.Write called while a mutex is held"
}

// recordGood copies response headers under the lock: http.Header's map
// methods are no I/O.
func (w *watch) recordGood(resp *http.Response) http.Header {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.etag = resp.Header.Get("ETag")
	resp.Header.Set("X-Seen", w.etag)
	_ = resp.Header.Values("Vary")
	return resp.Header.Clone()
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

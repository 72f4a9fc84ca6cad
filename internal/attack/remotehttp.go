package attack

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"time"
)

// RemoteClient is the HTTP/JSON adapter of Target: one named filter of an
// `evilbloom serve` instance, reached through its /v2 endpoints. It
// deliberately uses nothing but the public endpoints: everything the
// adversary learns, she learns the way a real client would. Beyond Target it
// carries the HTTP-only reads a campaign needs — the rate limiter's
// per-client ledger and, in remotedigest.go, the §7 mesh's routing oracle,
// digest export, refresh and credential revocation.
type RemoteClient struct {
	base   string
	prefix string // "/v2/filters/{name}"
	hc     *http.Client
	// identity, when non-empty, is sent as X-Evilbloom-Client on every
	// request — the self-declared identity a -trust-proxy server charges
	// mutations to. See WithIdentity.
	identity string
}

var _ Target = (*RemoteClient)(nil)

// NewRemoteClient targets filter on the evilbloom serve instance at base
// (e.g. "http://127.0.0.1:8379"). hc may be nil for http.DefaultClient.
func NewRemoteClient(base, filter string, hc *http.Client) *RemoteClient {
	if hc == nil {
		hc = http.DefaultClient
	}
	return &RemoteClient{base: base, prefix: "/v2/filters/" + url.PathEscape(filter), hc: hc}
}

// WithIdentity returns a client that self-identifies as id on every request
// via the X-Evilbloom-Client header. A server running with -trust-proxy
// charges that identity's mutation budget and reports it on the clients
// accounting endpoint; other servers ignore the header and charge the
// transport peer address.
func (c *RemoteClient) WithIdentity(id string) *RemoteClient {
	cp := *c
	cp.identity = id
	return &cp
}

// Info fetches the filter's public parameters.
func (c *RemoteClient) Info() (*RemoteInfo, error) {
	var info RemoteInfo
	if err := c.call(http.MethodGet, c.prefix+"/info", nil, &info); err != nil {
		return nil, err
	}
	return &info, nil
}

// Stats fetches the filter's aggregate statistics.
func (c *RemoteClient) Stats() (*RemoteStats, error) {
	var st RemoteStats
	if err := c.call(http.MethodGet, c.prefix+"/stats", nil, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// AddBatch inserts items through the batch endpoint.
func (c *RemoteClient) AddBatch(items [][]byte) error {
	return c.call(http.MethodPost, c.prefix+"/add-batch", itemsBody(items), nil)
}

// Test queries one item's membership.
func (c *RemoteClient) Test(item []byte) (bool, error) {
	var resp struct {
		Present bool `json:"present"`
	}
	err := c.call(http.MethodPost, c.prefix+"/test", itemBody(item), &resp)
	return resp.Present, err
}

// TestBatch queries a batch, results in input order.
func (c *RemoteClient) TestBatch(items [][]byte) ([]bool, error) {
	var resp struct {
		Present []bool `json:"present"`
	}
	if err := c.call(http.MethodPost, c.prefix+"/test-batch", itemsBody(items), &resp); err != nil {
		return nil, err
	}
	if len(resp.Present) != len(items) {
		return nil, fmt.Errorf("attack: server answered %d results for %d items", len(resp.Present), len(items))
	}
	return resp.Present, nil
}

// Remove asks the server to delete one item (a counting-filter endpoint).
// A refusal — the filter believes the item absent (409) — returns
// (false, nil), because it is a normal, informative outcome for the §4.3
// adversary probing what the server believes. Capability rejections and
// transport failures error.
func (c *RemoteClient) Remove(item []byte) (bool, error) {
	err := c.call(http.MethodPost, c.prefix+"/remove", itemBody(item), nil)
	var se *statusError
	if errors.As(err, &se) && se.code == http.StatusConflict {
		return false, nil
	}
	return err == nil, err
}

// RemoteClientStatus is one client's mutation accounting as the server
// reports it (GET .../clients).
type RemoteClientStatus struct {
	Client      string  `json:"client"`
	Allowed     uint64  `json:"allowed"`
	Throttled   uint64  `json:"throttled"`
	Tokens      float64 `json:"tokens"`
	IdleSeconds float64 `json:"idle_seconds"`
}

// RemoteClientsReport is the filter's per-client accounting table: who
// mutated the filter, how much, and who was turned away — the server's
// forensic view of a pollution campaign.
type RemoteClientsReport struct {
	Enabled          bool                 `json:"enabled"`
	MutationsPerSec  float64              `json:"mutations_per_sec"`
	Burst            float64              `json:"burst"`
	MaxClients       int                  `json:"max_clients"`
	Clients          []RemoteClientStatus `json:"clients"`
	EvictedClients   uint64               `json:"evicted_clients"`
	EvictedAllowed   uint64               `json:"evicted_allowed"`
	EvictedThrottled uint64               `json:"evicted_throttled"`
}

// Clients fetches the filter's per-client mutation accounting — public,
// like the rest of the monitoring surface, so the adversary can watch
// herself being attributed.
func (c *RemoteClient) Clients() (*RemoteClientsReport, error) {
	var rep RemoteClientsReport
	if err := c.call(http.MethodGet, c.prefix+"/clients", nil, &rep); err != nil {
		return nil, err
	}
	return &rep, nil
}

func itemBody(item []byte) any { return map[string]string{"item": string(item)} }

func itemsBody(items [][]byte) any {
	out := make([]string, len(items))
	for i, it := range items {
		out[i] = string(it)
	}
	return map[string][]string{"items": out}
}

// statusError is an answer other than 200 or 429.
type statusError struct {
	path string
	code int
	msg  []byte
}

func (e *statusError) Error() string {
	return fmt.Sprintf("attack: %s answered %d: %s", e.path, e.code, e.msg)
}

// call issues one request, JSON-encoding body when non-nil, and sends every
// answer through one exit: 200 decodes into out (raw bytes when out is a
// *[]byte), 429 becomes *ThrottledError, anything else a *statusError. The
// body is drained before it is closed whatever the answer, so a refusal
// does not cost the keep-alive connection.
func (c *RemoteClient) call(method, path string, body, out any) error {
	var rd io.Reader
	if body != nil {
		buf, err := json.Marshal(body)
		if err != nil {
			return fmt.Errorf("attack: encoding %s request: %w", path, err)
		}
		rd = bytes.NewReader(buf)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return fmt.Errorf("attack: building %s %s: %w", method, path, err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if c.identity != "" {
		req.Header.Set("X-Evilbloom-Client", c.identity)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return fmt.Errorf("attack: %s %s: %w", method, path, err)
	}
	defer func() {
		io.Copy(io.Discard, resp.Body) //nolint:errcheck // drain for keep-alive
		resp.Body.Close()
	}()
	switch {
	case resp.StatusCode == http.StatusTooManyRequests:
		secs, _ := strconv.ParseInt(resp.Header.Get("Retry-After"), 10, 64)
		return &ThrottledError{RetryAfter: time.Duration(secs) * time.Second}
	case resp.StatusCode != http.StatusOK:
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return &statusError{path: path, code: resp.StatusCode, msg: msg}
	case out == nil:
		return nil
	}
	if raw, ok := out.(*[]byte); ok {
		*raw, err = io.ReadAll(resp.Body)
		return err
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("attack: decoding %s response: %w", path, err)
	}
	return nil
}

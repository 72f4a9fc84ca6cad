package mesh

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// A failing peer must not cost a fresh TCP dial per refresh tick: the
// fetch path drains the (bounded) error body before closing, so the
// keep-alive connection returns to the pool. Before the fix, any error
// body over the 256-byte message read left unread bytes behind and the
// transport discarded the connection every time.
func TestPeerFetchReusesConnectionOnFailure(t *testing.T) {
	// The failing peer: every digest GET answers 500 with a body larger
	// than the 256-byte error-message read but well under the drain bound.
	errBody := strings.Repeat("e", 4096)
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusInternalServerError)
		fmt.Fprint(w, errBody)
	}))
	t.Cleanup(peer.Close)

	var dials atomic.Int32
	transport := &http.Transport{
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			dials.Add(1)
			return (&net.Dialer{}).DialContext(ctx, network, addr)
		},
	}
	t.Cleanup(transport.CloseIdleConnections)

	p := New()
	if err := p.Configure(PeerConfig{
		Peers:   []string{peer.URL},
		Refresh: time.Hour, // the loop's first immediate fetch, then nothing
		Client:  &http.Client{Transport: transport, Timeout: 5 * time.Second},
	}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Unwatch("f") })
	p.Watch("f")

	// Wait out the loop's immediate first fetch so later RefreshNow calls
	// are the only traffic.
	deadline := time.Now().Add(5 * time.Second)
	for {
		status, err := p.Status("f")
		if err != nil {
			t.Fatal(err)
		}
		if len(status) == 1 && status[0].Failures >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("initial peer fetch never completed")
		}
		time.Sleep(5 * time.Millisecond)
	}
	base := dials.Load()
	if base < 1 {
		t.Fatalf("no dial recorded for the initial fetch")
	}

	const refreshes = 5
	for i := 0; i < refreshes; i++ {
		if _, err := p.RefreshNow("f"); err != nil {
			t.Fatal(err)
		}
	}
	status, err := p.Status("f")
	if err != nil {
		t.Fatal(err)
	}
	if got := status[0].Failures; got != uint64(1+refreshes) {
		t.Fatalf("failures %d, want %d", got, 1+refreshes)
	}
	if extra := dials.Load() - base; extra != 0 {
		t.Errorf("%d refreshes against a failing peer cost %d fresh dials; the keep-alive connection was not reused", refreshes, extra)
	}
}

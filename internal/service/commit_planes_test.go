package service_test

import (
	"bytes"
	"context"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"

	"evilbloom/internal/engine"
	"evilbloom/internal/httpapi"
	"evilbloom/internal/resp"
	"evilbloom/internal/service"
)

// A journal failure under -fsync always reaches both wire planes as a
// failure, never as a success: the HTTP turn that waited on the failed
// fsync answers 500, a RESP turn's connection closes with its replies
// unsent, Err reports the failure, and every later mutating turn on either
// plane fails the same way.
func TestJournalFailureFailsBothPlanes(t *testing.T) {
	for _, tc := range []struct{ op, first string }{
		{"write", "http"}, {"sync", "http"}, {"write", "resp"}, {"sync", "resp"},
	} {
		op := tc.op
		t.Run(tc.op+"-"+tc.first, func(t *testing.T) {
			reg := service.NewRegistry()
			if _, err := reg.OpenDataDir(t.TempDir(), service.SyncAlways); err != nil {
				t.Fatal(err)
			}
			defer reg.Close() //nolint:errcheck
			f, err := reg.Create("f", service.Config{Shards: 4, Capacity: 10000, TargetFPR: 0.01})
			if err != nil {
				t.Fatal(err)
			}
			eng := engine.New(reg)
			web := httptest.NewServer(httpapi.NewEngineServer(eng))
			defer web.Close()
			respSrv := resp.NewEngineServer(eng)
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			go respSrv.Serve(ln)                         //nolint:errcheck // ends at Shutdown
			defer respSrv.Shutdown(context.Background()) //nolint:errcheck

			httpAdd := func(item string) int {
				t.Helper()
				res, err := http.Post(web.URL+"/v2/filters/f/add", "application/json",
					bytes.NewReader([]byte(`{"item":"`+item+`"}`)))
				if err != nil {
					t.Fatal(err)
				}
				res.Body.Close()
				return res.StatusCode
			}
			respAdd := func(item string) (*resp.Reply, error) {
				t.Helper()
				c, err := resp.Dial(ln.Addr().String())
				if err != nil {
					t.Fatal(err)
				}
				defer c.Close() //nolint:errcheck
				return c.Do("BF.ADD", "f", item)
			}

			if code := httpAdd("ok-http"); code != http.StatusOK {
				t.Fatalf("healthy journal: HTTP add answered %d", code)
			}
			if r, err := respAdd("ok-resp"); err != nil || r.Err() != nil {
				t.Fatalf("healthy journal: BF.ADD answered %v, %v", r, err)
			}

			injected := errors.New("injected " + op + " failure")
			service.FailNextWALOp(f, op, injected)
			if tc.first == "http" {
				if code := httpAdd("fails-http"); code != http.StatusInternalServerError {
					t.Fatalf("HTTP add over a failed %s answered %d, want 500", op, code)
				}
			} else if r, err := respAdd("fails-resp"); err == nil && r.Err() == nil {
				t.Fatalf("BF.ADD over a failed %s answered success: %s", op, r.Format())
			}
			if err := f.Commit(); !errors.Is(err, injected) {
				t.Fatalf("Commit: %v, want the injected error", err)
			}
			for i, item := range []string{"later-1", "later-2"} {
				if r, err := respAdd(item); err == nil && r.Err() == nil {
					t.Fatalf("BF.ADD %d after the failure answered success: %s", i, r.Format())
				}
				if code := httpAdd(item); code != http.StatusInternalServerError {
					t.Fatalf("HTTP add %d after the failure answered %d, want 500", i, code)
				}
			}
		})
	}
}

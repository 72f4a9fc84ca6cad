package main

import (
	"os"
	"strings"
	"testing"
	"time"

	"evilbloom/internal/service"
)

// captureStdout redirects os.Stdout for the duration of fn.
func captureStdout(t *testing.T, fn func() error) (string, error) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	defer func() { os.Stdout = old }()
	runErr := fn()
	w.Close()
	var buf strings.Builder
	chunk := make([]byte, 64*1024)
	for {
		n, err := r.Read(chunk)
		buf.Write(chunk[:n])
		if err != nil {
			break
		}
	}
	return buf.String(), runErr
}

func TestRunRequiresSubcommand(t *testing.T) {
	if err := run(nil); err == nil {
		t.Error("empty args accepted")
	}
	if err := run([]string{"bogus"}); err == nil {
		t.Error("unknown subcommand accepted")
	}
	if err := run([]string{"help"}); err != nil {
		t.Errorf("help: %v", err)
	}
}

func TestSubcommandsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	cases := []struct {
		name string
		args []string
		want []string
	}{
		{"fig3", []string{"fig3", "-chart=false"}, []string{"422", "0.316"}},
		{"fig5", []string{"fig5", "-budget", "200ms", "-capacity", "20000"}, []string{"2^-5", "2^-20"}},
		{"fig6", []string{"fig6", "-capacity", "10000", "-repeats", "1"}, []string{"occupation", "100%"}},
		{"fig8", []string{"fig8", "-capacity", "1000", "-probes", "20000"}, []string{"polluted stages", "full-attack"}},
		{"fig9", []string{"fig9"}, []string{"660", "SHA-512"}},
		{"table1", []string{"table1"}, []string{"Pollution", "Deletion"}},
		{"table2", []string{"table2", "-iters", "2000"}, []string{"SHA-512", "Speedup"}},
		{"squid", []string{"squid"}, []string{"762", "false hits"}},
		{"params", []string{"params"}, []string{"1.88", "worst-case"}},
		{"overflow", []string{"overflow", "-capacity", "500"}, []string{"non-zero counters", "overflow"}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			out, err := captureStdout(t, func() error { return run(tc.args) })
			if err != nil {
				t.Fatalf("run(%v): %v", tc.args, err)
			}
			for _, want := range tc.want {
				if !strings.Contains(out, want) {
					t.Errorf("output of %v missing %q:\n%s", tc.args, want, out)
				}
			}
		})
	}
}

func TestSubcommandFlagErrors(t *testing.T) {
	if err := run([]string{"fig3", "-definitely-not-a-flag"}); err == nil {
		t.Error("bad flag accepted")
	}
	if err := run([]string{"serve", "-definitely-not-a-flag"}); err == nil {
		t.Error("serve: bad flag accepted")
	}
	if err := run([]string{"serve", "-mode", "evil"}); err == nil {
		t.Error("serve: unknown mode accepted")
	}
	if err := run([]string{"serve", "-key", "zz"}); err == nil {
		t.Error("serve: malformed key accepted")
	}
	if err := run([]string{"serve", "-shards", "3"}); err == nil {
		t.Error("serve: non-power-of-two shard count accepted")
	}
}

// Contradictory serve flag combinations must error up front instead of
// being silently ignored.
func TestServeFlagValidation(t *testing.T) {
	key := "00112233445566778899aabbccddeeff"
	bad := [][]string{
		{"serve", "-variant", "cuckoo"},              // unknown variant
		{"serve", "-mode", "hardened", "-seed", "7"}, // hardened has no public seed
		{"serve", "-mode", "naive", "-key", key},     // naive has no index secret
		{"serve", "-key", key},                       // mode defaults to naive
		{"serve", "-counter-width", "8"},             // counters need -variant counting
		{"serve", "-overflow", "saturate"},           // ditto
		{"serve", "-variant", "bloom", "-overflow", "wrap"},
		{"serve", "-variant", "counting", "-overflow", "explode"}, // unknown policy
		{"serve", "-variant", "counting", "-counter-width", "99"}, // width out of range
		{"serve", "-fsync", "always"},                             // fsync needs -data-dir
		{"serve", "-fsync", "never"},                              // ditto, any policy
		{"serve", "-data-dir", "x", "-fsync", "sometimes"},        // unknown policy
		{"serve", "-peer-refresh", "5s"},                          // refresh needs -peer
		{"serve", "-peer", "http://h:1", "-peer-refresh", "0s"},   // non-positive interval
		{"serve", "-peer", "not-a-url"},                           // peer must be absolute http(s)
		{"serve", "-peer", "ftp://h:1/x"},                         // ditto, scheme checked
		{"serve", "-rate-burst", "10"},                            // burst needs -rate-mutations
		{"serve", "-rate-mutations", "0"},                         // explicit zero: omit the flag instead
		{"serve", "-rate-mutations", "-5"},                        // negative budget
		{"serve", "-rate-mutations", "5", "-rate-burst", "0"},     // non-positive burst
		{"serve", "-rate-mutations", "5", "-rate-burst", "-1"},    // ditto
		{"serve", "-rate-clients-max", "0"},                       // table cap must hold someone
		{"serve", "-topology", "ring"},                            // topology needs -peer
		{"serve", "-self", "http://h:1"},                          // self names a roster entry
		{"serve", "-peer", "http://h:1", "-topology", "mesh"},     // unknown topology
		{"serve", "-peer", "http://h:1", "-topology", "ring"},     // ring needs -self
		{"serve", "-peer", "http://h:1", "-topology", "hub"},      // hub needs -self
		{"serve", "-route-quorum", "0"},                           // quorum must be ≥ 1
		{"serve", "-peer-token", "noseparator"},                   // want name:secret
		{"serve", "-peer-token", "nodeA:"},                        // empty secret
	}
	for _, args := range bad {
		if err := run(args); err == nil {
			t.Errorf("%v accepted", args)
		}
	}
	// Coherent combinations must pass validation (checked without binding a
	// listener by exercising the config assembly through NewSharded).
	good := []struct {
		variant, mode string
		extra         []string
	}{
		{"counting", "naive", []string{"-counter-width", "8", "-overflow", "saturate", "-seed", "7"}},
		{"counting", "hardened", []string{"-key", key}},
		{"bloom", "hardened", []string{"-key", key, "-route-key", key}},
		{"bloom", "naive", []string{"-seed", "9"}},
		{"bloom", "naive", []string{"-data-dir", "d", "-fsync", "always"}},
		{"bloom", "naive", []string{"-rate-mutations", "100", "-rate-burst", "500"}},
		{"bloom", "naive", []string{"-rate-mutations", "0.5"}},
		{"bloom", "naive", []string{"-trust-proxy", "-rate-clients-max", "64"}}, // accounting-only tuning
		{"bloom", "naive", []string{"-peer", "http://h:1", "-peer", "http://h:2", "-topology", "ring", "-self", "http://h:1"}},
		{"bloom", "naive", []string{"-peer", "http://h:1", "-peer", "http://h:2", "-topology", "hub", "-self", "http://h:2"}},
		{"bloom", "naive", []string{"-route-quorum", "2"}}, // push-only quorum voter
	}
	for _, tc := range good {
		args := append([]string{"-variant", tc.variant, "-mode", tc.mode}, tc.extra...)
		if err := checkServeConfig(t, args); err != nil {
			t.Errorf("coherent combination %v rejected: %v", args, err)
		}
	}
}

// The serving http.Server must time-bound both directions of every
// connection. WriteTimeout in particular: the serve code's own slowloris
// comment promised it, but until this revision only the read side was
// bounded — a client accepting a large snapshot response one byte at a
// time held its goroutine (and the buffered response) forever.
func TestServeHTTPServerTimeouts(t *testing.T) {
	srv := newHTTPServer(nil)
	if srv.ReadHeaderTimeout <= 0 || srv.ReadTimeout <= 0 || srv.IdleTimeout <= 0 {
		t.Errorf("read-side timeouts unset: header=%v read=%v idle=%v",
			srv.ReadHeaderTimeout, srv.ReadTimeout, srv.IdleTimeout)
	}
	if srv.WriteTimeout <= 0 {
		t.Fatal("WriteTimeout unset: a slow reader can hold a response goroutine forever")
	}
	// It must be generous enough for the largest response the API can
	// produce — a MaxSnapshotBytes snapshot at a modest 8 MiB/s...
	if floor := time.Duration(service.MaxSnapshotBytes/(8<<20)) * time.Second; srv.WriteTimeout < floor {
		t.Errorf("WriteTimeout %v cannot deliver a %d-byte snapshot at 8 MiB/s (needs ≥ %v)",
			srv.WriteTimeout, service.MaxSnapshotBytes, floor)
	}
	// ...while still actually bounding the goroutine's lifetime.
	if ceiling := time.Hour; srv.WriteTimeout > ceiling {
		t.Errorf("WriteTimeout %v is no bound at all (want ≤ %v)", srv.WriteTimeout, ceiling)
	}
}

// checkServeConfig runs serve's flag parsing and validation without
// starting the server.
func checkServeConfig(t *testing.T, args []string) error {
	t.Helper()
	fs, values := newServeFlagSet()
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg, err := values.config(fs)
	if err != nil {
		return err
	}
	_, err = service.NewSharded(cfg)
	return err
}

package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"evilbloom/internal/resp"
)

// childArgsEnv carries a serve command line to a re-executed test binary:
// TestMain runs it as the process instead of the tests.
const childArgsEnv = "EVILBLOOM_TEST_CHILD_ARGS"

func TestMain(m *testing.M) {
	if args := os.Getenv(childArgsEnv); args != "" {
		if err := run(strings.Split(args, "\n")); err != nil {
			fmt.Fprintln(os.Stderr, "evilbloom:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// serveChild is one `evilbloom serve` process run from the test binary.
type serveChild struct {
	cmd      *exec.Cmd
	web      string // http://host:port
	respAddr string
}

var (
	httpBanner = regexp.MustCompile(`listening on (http://\S+)`)
	respBanner = regexp.MustCompile(`RESP plane on (\S+) `)
)

// startServe runs serve on dir under policy, both planes on free loopback
// ports, and returns once both are announced.
func startServe(t *testing.T, dir, policy string) *serveChild {
	t.Helper()
	args := []string{"serve", "-addr", "127.0.0.1:0", "-resp-addr", "127.0.0.1:0",
		"-data-dir", dir, "-fsync", policy, "-shards", "4", "-capacity", "200000"}
	cmd := exec.Command(os.Args[0], "-test.run=^$")
	cmd.Env = append(os.Environ(), childArgsEnv+"="+strings.Join(args, "\n"))
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	c := &serveChild{cmd: cmd}
	t.Cleanup(func() {
		cmd.Process.Kill() //nolint:errcheck // already gone on the normal path
		cmd.Wait()         //nolint:errcheck
	})
	ready := make(chan struct{})
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if m := httpBanner.FindStringSubmatch(line); m != nil {
				c.web = m[1]
			}
			if m := respBanner.FindStringSubmatch(line); m != nil {
				c.respAddr = m[1]
				close(ready)
			}
		}
		io.Copy(io.Discard, stderr) //nolint:errcheck
	}()
	select {
	case <-ready:
	case <-time.After(20 * time.Second):
		t.Fatal("serve did not announce its planes")
	}
	return c
}

// killLoad streams adds at the child's default filter — pipelined BF.MADD
// over RESP and add-batch over HTTP, at once — until the process dies, and
// returns every item whose success reply was read. The child is SIGKILLed
// once killAfter replies have been read.
func killLoad(t *testing.T, c *serveChild, tag string, killAfter int) []string {
	t.Helper()
	var (
		mu      sync.Mutex
		acked   []string
		replies int
		once    sync.Once
	)
	ack := func(items []string) {
		mu.Lock()
		acked = append(acked, items...)
		replies++
		kill := replies >= killAfter
		mu.Unlock()
		if kill {
			once.Do(func() { c.cmd.Process.Kill() }) //nolint:errcheck
		}
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // RESP: keep four BF.MADD commands in flight
		defer wg.Done()
		cl, err := resp.Dial(c.respAddr)
		if err != nil {
			return
		}
		defer cl.Close() //nolint:errcheck
		var inflight [][]string
		for n := 0; ; n++ {
			items := make([]string, 16)
			raw := make([][]byte, len(items))
			for i := range items {
				items[i] = fmt.Sprintf("%s-resp-%d-%d", tag, n, i)
				raw[i] = []byte(items[i])
			}
			cl.SendItems("BF.MADD", "default", raw)
			inflight = append(inflight, items)
			if err := cl.Flush(); err != nil {
				return
			}
			if len(inflight) < 4 {
				continue
			}
			r, err := cl.Receive()
			if err != nil {
				return
			}
			if r.Type != '*' || len(r.Elems) != len(inflight[0]) {
				t.Errorf("BF.MADD answered %s", r.Format())
				return
			}
			ack(inflight[0])
			inflight = inflight[1:]
		}
	}()
	go func() { // HTTP: one add-batch at a time
		defer wg.Done()
		hc := &http.Client{Timeout: 10 * time.Second}
		for n := 0; ; n++ {
			items := make([]string, 16)
			for i := range items {
				items[i] = fmt.Sprintf("%s-http-%d-%d", tag, n, i)
			}
			body, _ := json.Marshal(map[string][]string{"items": items})
			res, err := hc.Post(c.web+"/v2/filters/default/add-batch", "application/json", bytes.NewReader(body))
			if err != nil {
				return
			}
			io.Copy(io.Discard, res.Body) //nolint:errcheck
			res.Body.Close()
			if res.StatusCode != http.StatusOK {
				return
			}
			ack(items)
		}
	}()
	wg.Wait()
	c.cmd.Wait() //nolint:errcheck // killed
	return acked
}

// missing reports which of items the child's default filter tests absent.
func missing(t *testing.T, c *serveChild, items []string) []string {
	t.Helper()
	var lost []string
	for lo := 0; lo < len(items); lo += 5000 {
		batch := items[lo:min(lo+5000, len(items))]
		body, _ := json.Marshal(map[string][]string{"items": batch})
		res, err := http.Post(c.web+"/v2/filters/default/test-batch", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var out struct{ Present []bool }
		err = json.NewDecoder(res.Body).Decode(&out)
		res.Body.Close()
		if err != nil || len(out.Present) != len(batch) {
			t.Fatalf("test-batch: %v (%d answers for %d items)", err, len(out.Present), len(batch))
		}
		for i, ok := range out.Present {
			if !ok {
				lost = append(lost, batch[i])
			}
		}
	}
	return lost
}

// SIGKILL at seeded points of a two-plane add stream: under -fsync always
// every add whose success reply the client read is present after the
// reboot; under interval the same test loses acknowledged adds, which shows
// it can tell the two apart. Each point runs two processes, one at a time.
func TestKillLosesNoAcknowledgedAdd(t *testing.T) {
	if testing.Short() {
		t.Skip("re-executes the binary as a server and kills it")
	}
	rng := rand.New(rand.NewSource(50))
	points := make([]int, 3)
	for i := range points {
		points[i] = 40 + rng.Intn(200)
	}
	for _, policy := range []string{"always", "interval"} {
		t.Run(policy, func(t *testing.T) {
			lostAt := 0
			for i, killAfter := range points {
				dir := t.TempDir()
				acked := killLoad(t, startServe(t, dir, policy), fmt.Sprintf("p%d", i), killAfter)
				if len(acked) == 0 {
					t.Fatalf("point %d: no add was acknowledged before the kill", i)
				}
				lost := missing(t, startServe(t, dir, policy), acked)
				t.Logf("kill after %d replies: %d acknowledged adds, %d lost", killAfter, len(acked), len(lost))
				if len(lost) > 0 {
					lostAt++
					if policy == "always" {
						t.Errorf("point %d: %d acknowledged adds lost under -fsync always, first %q", i, len(lost), lost[0])
					}
				}
			}
			if policy == "interval" && lostAt == 0 {
				t.Errorf("no kill point lost an acknowledged add under interval: the test cannot see a loss window")
			}
		})
	}
}
